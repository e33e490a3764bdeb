import dataclasses
import hashlib
import math

import numpy as np
import pytest

from cutjump import corpus, reconstruct, thermal
from cutjump.errors import InputError
from cutjump.specfun import integrate_adaptive
from cutjump.thermal import (
    ThermalProblem,
    ThermalReport,
    gtilde_line_expansion,
    psi_matrix,
    reconstruct_thermal,
    synthesize_line_coefficients,
    synthesize_thermal,
    thermal_problem,
    weighted_l2_error,
)


def _demo(N=60, eps=0.0, seed=None):
    return thermal_problem(corpus.builtin("thermal_boson_demo"), N, eps, seed)


# ---------------------------------------------------------------- synthesis


def test_thermal_requires_index_one_start():
    cs0 = corpus.CoefficientSet(values=np.ones(3), start_index=0)
    with pytest.raises(InputError):
        ThermalProblem(coefficients=cs0)
    with pytest.raises(InputError):
        thermal_problem(corpus.builtin("normalized_rational"), 10)


def test_beta_is_pinned():
    # The period is fixed at 2*pi; a problem has no period field to set.
    spec = corpus.builtin("thermal_boson_demo")
    cs = corpus.coefficients(spec, 10)
    with pytest.raises(TypeError):
        ThermalProblem(coefficients=cs, beta=1.0)


def test_synthesize_thermal_zero_coefficients():
    cs = corpus.CoefficientSet(values=np.zeros(8), start_index=1)
    res = synthesize_thermal(ThermalProblem(coefficients=cs), n_max=12)
    assert np.all(res.c == 0.0)


def test_frak_c0_direct_sum():
    prob = _demo(25)
    res = synthesize_thermal(prob, n_max=4)
    direct = math.sqrt(2.0) * math.fsum(
        (-1) ** k * prob.coefficients.values[k] / math.factorial(k) for k in range(25)
    )
    assert res.c[0] == pytest.approx(direct, rel=1e-13)


def test_index_shift_identity_is_exact():
    # thermal synthesis on {g_k}_{k>=1} is the power-series synthesis of the
    # shifted sequence h_k = g_{k+1}, bit for bit.
    prob = _demo(40)
    a = synthesize_thermal(prob, n_max=50)
    b = reconstruct.synthesize_coefficients(prob.coefficients.values, n_max=50)
    np.testing.assert_array_equal(a.c, b.c)


# -------------------------------------------------------------------- basis


def test_psi_relates_to_phi_through_exponential_map():
    vs = np.array([-1.5, 0.0, 0.7, 3.0, 8.0])
    psi = psi_matrix(12, vs)
    phi = reconstruct.phi_matrix(12, np.exp(vs))
    np.testing.assert_allclose(psi, np.exp(vs / 2.0) * phi, rtol=1e-12)


def test_psi_tail_decay():
    # v -> +inf: Psi_0(v) ~ sqrt2 e^{-v/2}
    v = 40.0
    assert psi_matrix(0, v)[0] == pytest.approx(math.sqrt(2.0) * math.exp(-v / 2.0), rel=1e-10)


def test_psi_zero_normalized():
    # int_-inf^inf Psi_0^2 dv = 1, split at 0; below -6 the integrand is
    # ~e^{-2 e^6}, far beyond double precision.
    left = integrate_adaptive(lambda v: psi_matrix(0, v)[0] ** 2, -6.0, 0.0, abs_tol=1e-12)
    right = integrate_adaptive(lambda v: psi_matrix(0, v)[0] ** 2, 0.0, math.inf, abs_tol=1e-12)
    assert left.value + right.value == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------- reconstruction


def test_default_v_grid_is_one_read_only_array():
    grid = thermal.default_v_grid()
    assert grid is thermal.default_v_grid()
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 1.0
    assert grid.tobytes() == np.linspace(0.0, thermal.V_MAX, thermal.V_POINTS).tobytes()


def test_reconstruct_thermal_zeros_and_bounds():
    vs = np.linspace(0.0, 5.0, 50)
    assert np.all(reconstruct_thermal(np.zeros(4), 3, vs) == 0.0)
    with pytest.raises(InputError):
        reconstruct_thermal(np.ones(3), 7, vs)


def test_reconstruct_thermal_matches_bruteforce_sum():
    prob = _demo(20)
    res = synthesize_thermal(prob, n_max=30)
    vs = np.array([0.0, 1.0, 2.5])
    fast = reconstruct_thermal(res.c, 25, vs)
    brute = np.zeros_like(vs)
    for n in range(26):
        brute += res.c[n] * psi_matrix(n, vs)[n]
    brute *= np.exp(vs / 2.0)
    np.testing.assert_allclose(fast, brute, rtol=1e-10)


def test_report_variants_differ_only_in_their_keys():
    # Both variants run one pipeline: a field added to one report type alone
    # belongs on the shared base or in that type's _KEYS.
    shared = []
    for cls in (reconstruct.ReconstructionReport, ThermalReport):
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(cls._KEYS) <= names
        shared.append(names - set(cls._KEYS))
    assert shared[0] == shared[1]


def test_demo_reconstruction_close_in_weighted_norm(thermal60_report):
    rep = thermal60_report
    assert rep.weighted_errors.l2_rel < 0.05
    assert rep.plateau[0] <= rep.m_t <= rep.plateau[1]


def test_weighted_l2_cases():
    spec = corpus.builtin("thermal_boson_demo")
    vs = np.linspace(0.0, 15.0, 2000)
    truth_vals = spec.jump(vs)
    perfect = weighted_l2_error(vs, truth_vals, spec.jump)
    assert perfect.l2_abs == pytest.approx(0.0, abs=1e-14)
    zero = weighted_l2_error(vs, np.zeros_like(vs), spec.jump)
    # int_0^inf e^-v 36 (e^-2v - e^-3v)^2 dv = 36 (1/5 - 2/6 + 1/7) = 12/35,
    # re-derived by quadrature before freezing the constant
    quad = integrate_adaptive(lambda v: np.exp(-v) * spec.jump(v) ** 2, 0.0, math.inf).value
    assert quad == pytest.approx(12.0 / 35.0, rel=1e-10)
    assert zero.l2_abs**2 == pytest.approx(12.0 / 35.0, rel=1e-3)


def test_parseval_from_below(thermal60_report):
    rep = thermal60_report
    K = corpus.builtin("thermal_boson_demo").jump_norm_sq
    assert np.all(np.diff(rep.M) >= 0.0)
    assert rep.M[rep.m_t] <= K * (1.0 + 1e-6)
    assert rep.M[rep.m_t] >= 0.95 * K


def test_change_of_variables_consistency(thermal60_report):
    # J_thermal(v) must equal e^v J_power(e^v) built from the same
    # coefficients: the x-space Jacobian factor is exactly x = e^v.
    rep = thermal60_report
    vs = np.linspace(0.0, 3.9, 400)
    jt = reconstruct_thermal(rep.frak_c, rep.m_t, vs)
    x = np.exp(vs)
    jp = reconstruct.reconstruct_jump(rep.frak_c, rep.m_t, x)
    np.testing.assert_allclose(jt, x * jp, rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------- line expansion


def test_line_expansion_zero_input():
    vals = gtilde_line_expansion(np.zeros(5), 4, np.array([0.0, 1.0]))
    assert np.all(vals == 0.0)


def test_line_expansion_matches_closed_form(thermal60_report):
    # Pointwise agreement is tail-limited: the terms decay like n^{-3/2},
    # leaving ~1.5e-3 at m_t ~ 200.  (Tighter agreement would need far more
    # coefficients than the data supports.)
    prob = _demo(60)
    line = synthesize_line_coefficients(prob, n_max=200)
    m_t = thermal60_report.m_t
    nus = np.array([-5.0, -2.0, 0.0, 1.0, 3.0, 5.0])
    vals = gtilde_line_expansion(line.c, m_t, nus)
    closed = np.array([6.0 / ((0.5 + 1j * nu + 2.0) * (0.5 + 1j * nu + 3.0)) for nu in nus])
    assert np.max(np.abs(vals - closed)) < 5e-3
    assert np.max(np.abs(np.abs(vals) - np.abs(closed))) < 5e-3


def test_line_expansion_conjugate_symmetry(thermal60_report):
    prob = _demo(60)
    line = synthesize_line_coefficients(prob, n_max=120)
    nus = np.array([0.3, 1.7, 4.0])
    plus = gtilde_line_expansion(line.c, 100, nus)
    minus = gtilde_line_expansion(line.c, 100, -nus)
    np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-12, atol=1e-15)


def test_line_expansion_decays_at_large_nu(thermal60_report):
    prob = _demo(60)
    line = synthesize_line_coefficients(prob, n_max=120)
    vals = gtilde_line_expansion(line.c, 100, np.array([1.0, 10.0, 25.0]))
    mags = np.abs(vals)
    assert mags[1] < mags[0] and mags[2] < mags[1]


def test_line_coefficient_ratio_records_prefactor(thermal60_report):
    # d_n / ((-1)^n frak_c_n) = 2 sqrt(pi) / sqrt(2) = sqrt(2 pi)
    prob = _demo(60)
    line = synthesize_line_coefficients(prob, n_max=40)
    recon = synthesize_thermal(prob, n_max=40)
    signs = (-1.0) ** np.arange(41)
    mask = np.abs(recon.c) > 1e-12
    ratios = line.c[mask] / (signs[mask] * recon.c[mask])
    np.testing.assert_allclose(ratios, math.sqrt(2.0 * math.pi), rtol=1e-12)


# Recorded on the code that preceded the closed-form weight and the
# Re z >= 1/2 log-gamma: the sha256 of the lines "<real.hex()>,<imag.hex()>"
# of the demo's line expansion (N = 60, d_n at n_max = 200, the report's m_t)
# on 401 equispaced nu in [-100, 100].
LINE_EXPANSION_DIGEST = "951b1f2405dc0b5c42cc4c55a332e64e23accd410f31f10241b59e3b3e948f82"


def test_line_expansion_matches_the_recorded_digest(thermal60_report):
    line = synthesize_line_coefficients(_demo(60), n_max=200)
    vals = gtilde_line_expansion(line.c, thermal60_report.m_t, np.linspace(-100.0, 100.0, 401))
    h = hashlib.sha256()
    for v in vals:
        h.update(f"{float(v.real).hex()},{float(v.imag).hex()}\n".encode())
    assert h.hexdigest() == LINE_EXPANSION_DIGEST
