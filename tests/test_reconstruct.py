import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cutjump import corpus, reconstruct
from cutjump.errors import ConfigError, DomainError, InputError
from cutjump.reconstruct import (
    PlateauPolicy,
    basis_phi,
    cauchy_check,
    default_grid,
    density_check,
    detect_plateau,
    expansion_fn,
    l2_error,
    mellin_of_reconstruction,
    partial_energies,
    phi_matrix,
    reconstruct_jump,
    synthesize_coefficients,
)
from cutjump.specfun import integrate_adaptive


# ---------------------------------------------------------------- synthesis


def test_synthesize_zeros_gives_zeros():
    res = synthesize_coefficients(np.zeros(10), n_max=20)
    assert np.all(res.c == 0.0)


def test_c0_equals_direct_alternating_sum():
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 30)
    res = synthesize_coefficients(cs, n_max=5)
    direct = math.sqrt(2.0) * math.fsum(
        (-1) ** k * cs.values[k] / math.factorial(k) for k in range(31)
    )
    assert res.c[0] == pytest.approx(direct, rel=1e-13)


def test_synthesis_reproduces_projection_of_known_jump():
    # Independent oracle: c_n must equal <J, phi_n> for the closed-form jump;
    # the inner products reduce to int_0^2 (6 sqrt2/8)(2t - t^2) L_n(t) e^{-t/2} dt.
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 60)
    res = synthesize_coefficients(cs, n_max=30)
    mp.prec = 350

    def lag(n, t):
        p0, p1 = mpmath.mpf(1), 1 - t
        if n == 0:
            return p0
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1 - t) * p1 - j * p0) / (j + 1)
        return p1

    for n in (0, 1, 5, 17, 30):
        proj = mpmath.quad(
            lambda t: (6 * mpmath.sqrt(2) / 8) * (2 * t - t * t) * lag(n, t) * mpmath.exp(-t / 2),
            [0, 2],
        )
        assert res.c[n] == pytest.approx(float(proj), rel=2e-9, abs=1e-12)


def test_synthesis_linearity():
    rng = np.random.Generator(np.random.PCG64(1))
    g1 = rng.uniform(-1.0, 1.0, 12)
    g2 = rng.uniform(-1.0, 1.0, 12)
    c1 = synthesize_coefficients(g1, n_max=15).c
    c2 = synthesize_coefficients(g2, n_max=15).c
    # scaling by a power of two commutes with every rounding step: exact
    c_scaled = synthesize_coefficients(4.0 * g1, n_max=15).c
    np.testing.assert_array_equal(c_scaled, 4.0 * c1)
    # negating the input negates every exact sum, and rounding is symmetric
    np.testing.assert_array_equal(synthesize_coefficients(-g1, n_max=15).c, -c1)
    # general linear combinations agree to rounding
    c_sum = synthesize_coefficients(g1 + g2, n_max=15).c
    np.testing.assert_allclose(c_sum, c1 + c2, rtol=1e-12, atol=1e-14)


def test_synthesis_phase_reality_against_complex_recurrence():
    """The stored c_n times i^n must reproduce the literal complex sum.

    Running the Meixner-Pollaczek recurrence at the imaginary arguments in
    full complex arithmetic, each value sits exactly on the real or
    imaginary axis; the literal coefficient sum is i^n times a real number,
    and that real number must be (-1)^n times the stored coefficient.
    """
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 25)
    res = synthesize_coefficients(cs, n_max=12)
    with mp.workprec(320):
        n_max = 12
        total = [mpmath.mpc(0)] * (n_max + 1)
        for k in range(26):
            y = mpmath.mpc(0, -(k + mpmath.mpf(1) / 2))
            p_prev, p = mpmath.mpc(1), 2 * y
            coeff = mpmath.mpf((-1) ** k) * mpmath.mpf(float(cs.values[k])) / mpmath.factorial(k)
            total[0] += coeff
            if n_max >= 1:
                total[1] += coeff * p
            for n in range(1, n_max):
                p_prev, p = p, (2 * y * p - n * p_prev) / (n + 1)
                total[n + 1] += coeff * p
        r2 = mpmath.sqrt(2)
        for n in range(n_max + 1):
            literal = r2 * total[n]
            # the off-axis component is exactly zero
            off = literal.imag if n % 2 == 0 else literal.real
            assert off == 0
            # literal = i^n s_n with real s_n; the stored value is (-1)^n s_n
            s_n = literal / mpmath.mpc(0, 1) ** n
            assert s_n.imag == 0
            assert float((-1) ** n * s_n.real) == pytest.approx(res.c[n], rel=1e-12, abs=1e-300)


def test_synthesis_is_deterministic():
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 40)
    a = synthesize_coefficients(cs, n_max=60)
    b = synthesize_coefficients(cs, n_max=60)
    np.testing.assert_array_equal(a.c, b.c)


def test_synthesis_rejects_bad_input():
    with pytest.raises(InputError):
        synthesize_coefficients(np.array([1.0, np.nan]), n_max=5)
    with pytest.raises(InputError):
        synthesize_coefficients(np.ones(3), n_max=-1)


# ----------------------------------------------------- exact final rounding


def _reference_sqrt_ratio(m: int, d: int) -> float:
    """sqrt(m) / d at 1024 bits, rounded once to a double via an exact fraction."""
    with mp.workprec(1024):
        x = mpmath.sqrt(m) / d
    if x == 0:
        return 0.0
    try:
        return float(Fraction(int(x.man)) * Fraction(2) ** int(x.exp))
    except OverflowError:
        return math.inf


@pytest.mark.parametrize(
    "m,d",
    [
        (0, 1),
        (0, 3**50),
        (2, 1),
        (2 * 12345**2, 678),
        # perfect squares: the root is exact, only the division may cut bits
        (36, 7),
        (49, 7),
        ((3 << 200) ** 2, 5**90),
        # exact ties between two doubles round to even; just above rounds up
        ((2**53 + 1) ** 2, 1),
        ((2**53 + 3) ** 2, 1),
        ((2**53 + 1) ** 2 + 1, 1),
        # sqrt(2) S / D around the smallest normal, inside the subnormals,
        # and below half the smallest subnormal
        (2 * (2**57 + 12345) ** 2, 2**1080),
        (2 * (2**57 - 1) ** 2, 2**1080),
        (2 * 3**2, 2**1076),
        (2 * 1**2, 2**1074),
        (2 * 1**2, 2**1076),
        (2 * 1**2, 2**1077),
        # beyond the double range
        (2 * (10**308) ** 2, 1),
    ],
)
def test_sqrt_ratio_is_correctly_rounded(m, d):
    assert reconstruct._sqrt_ratio(m, d) == _reference_sqrt_ratio(m, d)


def test_sqrt_ratio_random_against_reference():
    rng = random.Random(20240601)
    for _ in range(300):
        s = rng.getrandbits(rng.randint(1, 400)) or 1
        d = rng.getrandbits(rng.randint(1, 1300)) or 1
        m = 2 * s * s
        assert reconstruct._sqrt_ratio(m, d) == _reference_sqrt_ratio(m, d), (s, d)


# ----------------------------------------------------------------- energies


def test_partial_energies_example():
    np.testing.assert_array_equal(partial_energies([1.0, 0.0, 2.0]), [1.0, 1.0, 5.0])
    assert np.all(partial_energies(np.zeros(4)) == 0.0)


@given(st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_partial_energies_monotone_and_dominate_terms(c):
    c = np.asarray(c)
    M = partial_energies(c)
    assert np.all(np.diff(M) >= 0.0)
    assert np.all(M >= c * c - 1e-12 * np.maximum(M, 1.0))


# ------------------------------------------------------------------ plateau


def test_detect_plateau_toy_example():
    M = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0])
    det = detect_plateau(M)
    assert det.has_run
    assert det.run == (0, 5)
    assert det.plateau == (0, 5)
    # the truncation point backs half a window into the run interior
    assert det.m_t == 2
    assert M[det.m_t] >= (1 - 0.04) * det.level


def test_detect_plateau_prefers_later_equal_run():
    # two equal flat runs separated by a moderate rise (each step well below
    # the divergence guard); ties must resolve to the later run
    rise = [1.2, 1.44, 1.728]
    M = np.array([1.0] * 6 + rise + [1.728] * 5 + [99.0])
    det = detect_plateau(M)
    assert det.run is not None
    assert det.run[0] >= 6  # the later of the two equal-length runs


def test_detect_plateau_ignores_post_divergence_shelf():
    # a flat shelf after an energy blow-up is not a plateau: the detector
    # must anchor before the first step that multiplies the energy
    M = np.concatenate([np.linspace(1.0, 1.2, 10), [1e6] * 12])
    det = detect_plateau(M)
    assert det.m_t < 10
    assert not det.confident


def test_detect_plateau_no_run_flags_low_confidence():
    M = np.cumsum(np.ones(30) * 5.0)  # steady large growth
    det = detect_plateau(M)
    assert not det.has_run
    assert not det.confident
    assert det.plateau is not None  # band still reported
    assert 0 <= det.m_t < 30


def test_detect_plateau_known_energy_mode():
    M = np.array([0.5, 0.9, 1.19, 1.21, 5.0])
    det = detect_plateau(M, PlateauPolicy(mode="known_energy", known_K=1.2))
    assert det.m_t == 2
    M_all_above = np.array([2.0, 3.0])
    det2 = detect_plateau(M_all_above, PlateauPolicy(mode="known_energy", known_K=1.2))
    assert det2.m_t == 0 and not det2.confident


def test_detect_plateau_validates_input():
    with pytest.raises(InputError):
        detect_plateau(np.array([2.0, 1.0]))  # decreasing
    with pytest.raises(ConfigError):
        PlateauPolicy(theta=-1.0)
    with pytest.raises(ConfigError):
        PlateauPolicy(theta=0.5)  # a flat step would also count as divergence
    with pytest.raises(ConfigError):
        PlateauPolicy(w_min=1)
    with pytest.raises(ConfigError):
        PlateauPolicy(mode="known_energy")  # missing K


def test_known_energy_cross_validates_heuristic(noisy7_report):
    # With the true energy constant, the literal definition of the cutoff
    # must land inside the heuristically detected plateau band.
    spec = corpus.builtin("normalized_rational")
    det = detect_plateau(noisy7_report.M, PlateauPolicy(mode="known_energy", known_K=spec.jump_norm_sq))
    a, b = noisy7_report.plateau
    assert a <= det.m_t <= b


# -------------------------------------------------------------------- basis


def test_basis_phi_values_and_domain():
    with pytest.raises(DomainError):
        basis_phi(0, 0.0)
    with pytest.raises(DomainError):
        basis_phi(1, -2.0)
    # n = 0 tail: phi_0(x) ~ sqrt2 / x for large x
    x = 1e8
    assert basis_phi(0, x) * x == pytest.approx(math.sqrt(2.0), rel=1e-7)


def test_basis_phi_normalized():
    # int_0^inf phi_0^2 dx = 1: substitution t = 2/x maps to the Laguerre
    # weight; checked by quadrature on the two smooth pieces.
    head = integrate_adaptive(lambda x: phi_matrix(0, x)[0] ** 2, 0.0, 1.0, abs_tol=1e-12)
    tail = integrate_adaptive(lambda x: phi_matrix(0, x)[0] ** 2, 1.0, math.inf, abs_tol=1e-12)
    assert head.value + tail.value == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_jump_trivial_cases():
    xs = np.array([0.5, 1.0, 2.0, 10.0])
    assert np.all(reconstruct_jump(np.zeros(5), 4, xs) == 0.0)
    single = reconstruct_jump(np.array([1.0]), 0, xs)
    np.testing.assert_allclose(single, phi_matrix(0, xs)[0])
    with pytest.raises(InputError):
        reconstruct_jump(np.ones(3), 5, xs)


# ------------------------------------------------------------------- errors


def test_l2_error_exact_and_zero_cases():
    spec = corpus.builtin("normalized_rational")
    xs = default_grid()
    truth_vals = spec.jump(xs)
    perfect = l2_error(xs, truth_vals, spec.jump)
    assert perfect.l2_abs == pytest.approx(0.0, abs=1e-15)
    assert perfect.l2_rel == pytest.approx(0.0, abs=1e-15)
    zero = l2_error(xs, np.zeros_like(xs), spec.jump)
    # ||J||^2 over [1, 50] = 1.2 minus a ~9.3e-5 tail beyond 50
    assert zero.l2_abs**2 == pytest.approx(1.2, rel=1e-3)


def test_l2_error_zero_norm_truth_reports_absolute_only():
    xs = np.linspace(1.0, 50.0, 200)
    rep = l2_error(xs, np.ones_like(xs), lambda x: np.zeros_like(x))
    assert rep.l2_rel is None
    assert rep.l2_abs > 0.0


def test_error_decreases_toward_plateau(normalized60_report):
    # moving m_t from 3 into the plateau must improve the fit
    rep = normalized60_report
    spec = corpus.builtin("normalized_rational")
    early = l2_error(rep.xs, reconstruct_jump(rep.c, 3, rep.xs), spec.jump)
    late = rep.errors
    assert late.l2_rel < early.l2_rel


# ----------------------------------------------------------- integral checks


def test_mellin_of_exact_jump():
    spec = corpus.builtin("normalized_rational")
    assert mellin_of_reconstruction(spec.jump, 1.0) == pytest.approx(0.5, abs=1e-8)
    assert mellin_of_reconstruction(spec.jump, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert mellin_of_reconstruction(lambda x: np.zeros_like(np.asarray(x)), 2.0) == 0.0
    with pytest.raises(DomainError):
        mellin_of_reconstruction(spec.jump, -0.5)


def test_cauchy_check_exact_jump():
    spec = corpus.builtin("normalized_rational")
    # z = 0 reduces to the density integral = g_0 = 1
    assert cauchy_check(spec.jump, 0.0).real == pytest.approx(1.0, abs=1e-8)
    assert cauchy_check(lambda x: np.zeros_like(np.asarray(x)), 0.2) == 0.0
    # z = 0.3: geometric tail of the series is ~1e-33 at k = 60
    series = sum(spec.coefficient_rule(k) * 0.3**k for k in range(61))
    assert cauchy_check(spec.jump, 0.3).real == pytest.approx(series, abs=1e-6)
    with pytest.raises(DomainError):
        cauchy_check(spec.jump, 1.0)


def test_density_check_exact_jump():
    spec = corpus.builtin("normalized_rational")
    rep = density_check(spec.jump)
    assert rep.integral_of_j_over_x == pytest.approx(1.0, abs=1e-8)
    assert rep.min_value >= 0.0
    zero = density_check(lambda x: np.zeros_like(np.asarray(x)))
    assert zero.integral_of_j_over_x == 0.0


def test_density_check_of_reconstruction(normalized60_report):
    rep = normalized60_report
    j = expansion_fn(rep.c, rep.m_t)
    out = density_check(j)
    assert out.integral_of_j_over_x == pytest.approx(1.0, abs=1e-2)


# Integral checks of noise-free reconstructions at n_max = 200, recorded before
# the adaptive quadrature was batched: Mellin moments k = 0, 1, 2, the real part
# of cauchy_check at z = 0.5 (its imaginary part is exactly 0), and the two
# density_check fields.  A change to the quadrature may move these only in the
# last bits.
CHECK_GATE = {
    ("normalized_rational", 60): (
        (0.999557954866609, 0.49962165485485854, 0.2996868011164846),
        1.3637128488444508,
        (0.999557954866609, 0.002335663709990837),
    ),
    ("harmonic", 20): (
        (0.9614613310106439, 0.46138770599263546, 0.2950288479269474),
        1.3097461563236994,
        (0.9614613310106439, 0.020149256277340592),
    ),
    ("rational_unnormalized", 120): (
        (0.16662769838088615, 0.08330817124142881, 0.049988680233492),
        0.22736078238801463,
        (0.16662769838088615, 0.0003859397909398616),
    ),
}


@pytest.mark.parametrize("pid,n", list(CHECK_GATE), ids=[f"{p}_N{n}" for p, n in CHECK_GATE])
def test_integral_checks_of_reconstruction_match_recorded(pid, n):
    spec = corpus.builtin(pid)
    rep = reconstruct.build_report(corpus.coefficients(spec, n), n_max=200)
    j = expansion_fn(rep.c, rep.m_t)
    mellin, cauchy, density = CHECK_GATE[pid, n]
    assert [mellin_of_reconstruction(j, k) for k in (0, 1, 2)] == pytest.approx(mellin, rel=1e-12)
    z = cauchy_check(j, 0.5)
    assert z.real == pytest.approx(cauchy, rel=1e-12)
    assert z.imag == 0.0
    out = density_check(j)
    assert (out.integral_of_j_over_x, out.min_value) == pytest.approx(density, rel=1e-12)


# -------------------------------------------------------- truncation choice


def test_truncation_robust_across_detected_run():
    # eps = 1e-7, seed 42: varying m_t a few steps around the detected point
    # moves the relative error by well under 20% of itself (measured 13.5%).
    # At larger noise the error-vs-m_t curve develops a genuine valley and
    # the choice does start to matter.
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 60, epsilon=1e-7, seed=42)
    res = synthesize_coefficients(cs, n_max=150)
    det = detect_plateau(partial_energies(res.c))
    xs = default_grid()
    vals = []
    for m in range(max(0, det.m_t - 3), det.m_t + 4):
        err = l2_error(xs, reconstruct_jump(res.c, m, xs), spec.jump)
        vals.append(err.l2_rel)
    spread = (max(vals) - min(vals)) / (sum(vals) / len(vals))
    assert spread < 0.20


def test_plateau_energy_approximates_jump_norm(normalized60_report):
    # sum |c_n|^2 over the plateau approaches ||J||^2 = 36 (1/3 - 1/2 + 1/5)
    # = 1.2 (the constant is re-derived by quadrature in test_corpus).
    rep = normalized60_report
    assert rep.M[rep.m_t] == pytest.approx(1.2, rel=1e-2)
    assert rep.M[rep.m_t] <= 1.2 + 1e-9  # from below


def test_report_shape_and_flags(normalized60_report):
    rep = normalized60_report
    assert rep.plateau[0] <= rep.m_t <= rep.plateau[1]
    assert rep.confident
    d = rep.to_dict()
    assert set(d) >= {"c", "M", "plateau", "m_t", "samples", "errors"}
    assert len(d["samples"][0]) == 3  # truth known -> [x, J_rec, J_true]


def test_degenerate_single_coefficient_run_is_flagged():
    cs = corpus.CoefficientSet(values=np.array([1.0]), N=0)
    rep = reconstruct.build_report(cs, n_max=30)
    assert not rep.confident


def test_decay_exponent_regression_guards(normalized60_report, harmonic60_report):
    # The confidence threshold sits at 2.0; pin the measured exponents so a
    # future change to the fit cannot silently cross it from either side.
    assert normalized60_report.decay_exponent >= 2.5  # measured 2.86
    assert harmonic60_report.decay_exponent <= 1.97  # measured 1.93
