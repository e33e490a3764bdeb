import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from mpmath import mp

from cutjump.errors import ConfigError, ConvergenceError, DomainError
from cutjump.reconstruct import expansion_fn, mellin_of_reconstruction
from cutjump.specfun import (
    integrate_adaptive,
    laguerre_scaled_seq,
    ln_gamma_complex,
    mp_real_seq,
    mp_weight,
)
from rotated import rotated_closed_form, rotated_int_seq, rotated_seq_raw


# ---------------------------------------------------------------- log-gamma


def test_ln_gamma_classic_values():
    assert ln_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma_complex(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert ln_gamma_complex(0.5).imag == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma_complex(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, complex(-3.0, 0.0)])
def test_ln_gamma_pole_rejected(z):
    with pytest.raises(DomainError):
        ln_gamma_complex(z)


def test_ln_gamma_reflection_identity_half_line():
    # |Gamma(1/2 + i y)|^2 = pi / cosh(pi y)
    for y in (0.3, 1.0, 3.0, 10.0):
        lg = ln_gamma_complex(complex(0.5, y))
        lhs = math.exp(2.0 * lg.real)
        rhs = math.pi / math.cosh(math.pi * y)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_ln_gamma_half_plus_3i_vs_defining_integral():
    # Gamma(1/2 + 3i) = int_0^inf t^{-1/2+3i} e^{-t} dt, computed through
    # t = e^u so both tails decay fast; cross-checks |Gamma|^2 = pi/cosh(3 pi).
    def integrand_re(u):
        return np.exp(u / 2.0 - np.exp(u)) * np.cos(3.0 * u)

    def integrand_im(u):
        return np.exp(u / 2.0 - np.exp(u)) * np.sin(3.0 * u)

    re = integrate_adaptive(integrand_re, -60.0, 6.0, abs_tol=1e-12, rel_tol=1e-12).value
    im = integrate_adaptive(integrand_im, -60.0, 6.0, abs_tol=1e-12, rel_tol=1e-12).value
    quad_sq = re * re + im * im
    assert quad_sq == pytest.approx(math.pi / math.cosh(3.0 * math.pi), rel=1e-8)
    lg = ln_gamma_complex(complex(0.5, 3.0))
    assert math.exp(2.0 * lg.real) == pytest.approx(quad_sq, rel=1e-8)


# The critical line Re z = 1/2 is where the package evaluates log-gamma.
# Recorded on the code that preceded the Re z >= 1/2 domain: the sha256 of
# the lines "<real.hex()>,<imag.hex()>" of ln_gamma_complex(1/2 + i nu) over
# LINE_NUS.
LINE_NUS = np.linspace(-100.0, 100.0, 401)
LN_GAMMA_LINE_DIGEST = "d59db13fa0e4dc06f95ab952ea9246d5c19894b010155888c20b07ea705f1abc"


def test_ln_gamma_on_the_critical_line_matches_the_recorded_digest():
    h = hashlib.sha256()
    for nu in LINE_NUS:
        z = ln_gamma_complex(complex(0.5, nu))
        h.update(f"{z.real.hex()},{z.imag.hex()}\n".encode())
    assert h.hexdigest() == LN_GAMMA_LINE_DIGEST


def test_ln_gamma_matches_mpmath_on_strip():
    for re in (0.5, 1.7, 8.0):
        for im in (0.25, 3.0, 10.0, 100.0):
            z = complex(re, im)
            mine = ln_gamma_complex(z)
            with mp.workprec(80):
                ref = complex(mpmath.loggamma(z))
            assert abs(mine - ref) <= 1e-12 * (1.0 + abs(ref))
            # conjugate symmetry
            conj = ln_gamma_complex(z.conjugate())
            assert conj == pytest.approx(mine.conjugate(), rel=1e-13, abs=1e-13)
    # the left half-plane is outside the domain
    for re in (-7.3, -2.2, -0.4):
        for im in (0.25, 3.0, 10.0, 100.0):
            for z in (complex(re, im), complex(re, -im)):
                with pytest.raises(DomainError):
                    ln_gamma_complex(z)


# ---------------------------------------------------------------- Laguerre


def test_laguerre_trivial_values():
    assert laguerre_scaled_seq(1, 0.0).tolist() == [1.0, 1.0]
    e = math.exp(-1.0)
    assert laguerre_scaled_seq(1, 2.0).tolist() == [e, -e]


def _laguerre_explicit(n, x):
    # L_n(x) = sum_j C(n, j) (-x)^j / j!, exactly in rationals so the
    # alternating cancellation cannot corrupt the oracle.
    from fractions import Fraction

    xf = Fraction(x)
    return float(
        sum(Fraction(math.comb(n, j), math.factorial(j)) * (-xf) ** j for j in range(n + 1))
    )


def test_laguerre_recurrence_vs_explicit_coefficients():
    xs = np.arange(-10.0, 10.5, 1.0)
    table = laguerre_scaled_seq(20, xs) * np.exp(xs / 2.0)
    for n in range(21):
        for i, x in enumerate(xs):
            ref = _laguerre_explicit(n, float(x))
            assert table[n, i] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_laguerre_matches_scipy():
    xs = np.linspace(0.0, 30.0, 13)
    table = laguerre_scaled_seq(25, xs)
    ref = np.array([scipy.special.eval_laguerre(n, xs) for n in range(26)]) * np.exp(-xs / 2.0)
    np.testing.assert_allclose(table, ref, rtol=1e-10, atol=1e-10)


def test_laguerre_scaled_consistency_and_stability():
    xs = np.array([0.1, 1.0, 40.0, 400.0])
    plain = np.array([[_laguerre_explicit(n, x) for x in xs] for n in range(11)]) * np.exp(-xs / 2.0)
    scaled = laguerre_scaled_seq(10, xs)
    np.testing.assert_allclose(scaled, plain, rtol=1e-10, atol=1e-280)
    # gigantic argument: plain recurrence would overflow, scaled must not
    huge = laguerre_scaled_seq(200, np.array([4.0e6]))
    assert np.all(np.isfinite(huge))


# ------------------------------------------------- Meixner-Pollaczek (real)


def test_mp_real_basic_values():
    nus = np.array([0.0, 0.7, -1.3])
    table = mp_real_seq(6, nus)
    np.testing.assert_allclose(table[0], 1.0)
    np.testing.assert_allclose(table[1], 2.0 * nus)
    # parity: P_n(-nu) = (-1)^n P_n(nu); odd orders vanish at 0
    for n in range(7):
        assert table[n, 0] == (0.0 if n % 2 else pytest.approx(table[n, 0]))
        assert mp_real_seq(n, -0.7)[n] == pytest.approx((-1) ** n * mp_real_seq(n, 0.7)[n], rel=1e-12)


def test_mp_odd_orders_vanish_at_zero():
    table = mp_real_seq(31, 0.0)
    assert np.all(table[1::2] == 0.0)


# ---------------------------------------------------------------- mp_weight


def test_mp_weight_values_and_evenness():
    assert mp_weight(0.0) == pytest.approx(1.0, rel=1e-13)
    # |Gamma(1/2+i nu)|^2 = pi sech(pi nu), so w = sech(pi nu)
    assert mp_weight(3.0) == pytest.approx(1.0 / math.cosh(3.0 * math.pi), rel=1e-12)
    for nu in (0.1, 1.7, 4.2):
        assert mp_weight(-nu) == pytest.approx(mp_weight(nu), rel=1e-13)
        assert mp_weight(nu) > 0.0


def test_mp_weight_matches_sech_at_50_digits():
    with mpmath.workdps(50):
        for nu in np.linspace(-30.0, 30.0, 241):
            ref = 1 / mpmath.cosh(mpmath.pi * mpmath.mpf(float(nu)))
            assert abs(mp_weight(nu) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("nu", [1e3, -1e3])
def test_mp_weight_underflows_to_zero_without_raising(nu):
    assert mp_weight(nu) == 0.0


# ------------------------------------------------------- rotated recurrence
# The oracles of tests/rotated.py, which the synthesis tests rely on.


def test_rotation_consistency_exact_all_k():
    """i^n * q_n must equal the complex recurrence bit-for-bit, n <= 80, k <= 60.

    With a purely imaginary argument the complex three-term recurrence keeps
    every P_n exactly on the real or imaginary axis, and each arithmetic
    step rounds identically to the rotated real recurrence at equal
    precision, so the comparison is exact, not approximate.
    """
    n_max = 80
    prec = 128
    for k in range(61):
        qs = rotated_seq_raw(n_max, k, prec)
        with mp.workprec(prec):
            y = mpmath.mpc(0, -(k + mpmath.mpf(1) / 2))
            p_prev, p_cur = mpmath.mpc(1), 2 * y
            i = mpmath.mpc(0, 1)
            assert qs[0] == 1
            for n in range(0, n_max + 1):
                if n == 0:
                    p = mpmath.mpc(1)
                elif n == 1:
                    p = p_cur
                else:
                    p = (2 * y * p_cur - (n - 1) * p_prev) / n
                    p_prev, p_cur = p_cur, p
                assert i**n * qs[n] == p


def test_rotated_int_seq_matches_closed_form():
    for k in range(40):
        assert rotated_int_seq(60, k) == [rotated_closed_form(n, k) for n in range(61)]


def test_rotated_int_seq_matches_extended_precision_recurrence():
    # Every value here stays below 2^172, so the 256-bit recurrence is exact.
    for k in range(61):
        assert rotated_int_seq(80, k) == [int(q) for q in rotated_seq_raw(80, k, 256)]


def test_rotated_seq_trivial_values():
    assert rotated_int_seq(1, 0) == [1, -1]  # i^{-1} P_1(-i/2) with P_1(y) = 2y
    for k in (1, 5, 11):
        assert rotated_int_seq(0, k) == [1]


# ------------------------------------------------------------- quadrature


def test_quadrature_unit_interval():
    res = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 15


def test_quadrature_semi_infinite_elementary():
    # int_1^inf 6 (x^-2 - x^-3) dx = 6 (1 - 1/2) = 3 by the antiderivative;
    # the companion normalization forced by the k = 0 moment is
    # int_1^inf 6 (x^-3 - x^-4) dx = 1.
    res = integrate_adaptive(lambda x: 6.0 * (x**-2.0 - x**-3.0), 1.0, math.inf)
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert abs(res.value - 3.0) <= max(res.error_estimate, 1e-12)
    res = integrate_adaptive(lambda x: 6.0 * (x**-3.0 - x**-4.0), 1.0, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", range(6))
def test_quadrature_mellin_moments(k):
    res = integrate_adaptive(
        lambda x: 6.0 * (x**-2.0 - x**-3.0) * x ** (-k - 1.0), 1.0, math.inf
    )
    assert res.value == pytest.approx(6.0 / ((k + 2) * (k + 3)), abs=1e-9)


def test_quadrature_log_transform_branch():
    # [0, inf) goes through x = -ln t
    res = integrate_adaptive(lambda v: np.exp(-2.0 * v), 0.0, math.inf)
    assert res.value == pytest.approx(0.5, rel=1e-10)
    # shifted negative start goes through x = a - ln t
    res = integrate_adaptive(lambda v: np.exp(-((v + 1.0) ** 2) / 2.0), -1.0, math.inf)
    assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_quadrature_lower_infinite_limit(b):
    # (-inf, b] is flipped onto [-b, inf)
    res = integrate_adaptive(np.exp, -math.inf, b)
    assert res.value == pytest.approx(math.exp(b), rel=1e-10)


def test_quadrature_doubly_infinite_gaussian():
    res = integrate_adaptive(lambda x: np.exp(-(x**2)), -math.inf, math.inf)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_quadrature_error_estimate_bounds_true_error():
    res = integrate_adaptive(lambda x: np.sin(10.0 * x), 0.0, math.pi)
    truth = (1.0 - math.cos(10.0 * math.pi)) / 10.0
    assert abs(res.value - truth) <= max(res.error_estimate, 1e-12)


def test_quadrature_budget_exhaustion_carries_estimate():
    with pytest.raises(ConvergenceError) as info:
        integrate_adaptive(
            lambda x: np.abs(np.sin(1.0 / np.maximum(x, 1e-300))),
            0.0,
            1.0,
            abs_tol=1e-13,
            rel_tol=1e-13,
            max_intervals=8,
        )
    err = info.value
    assert math.isfinite(err.value)
    assert err.error_estimate > 0.0
    assert err.evaluations > 0


def test_quadrature_degenerate_and_invalid_ranges():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0).value == 0.0
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 3.0, 1.0)
    with pytest.raises(ConfigError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, abs_tol=0.0)


# ------------------------------------------------- batched refinement passes


class _Recorder:
    """Wraps an integrand and records the shape of every batch it is given."""

    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return self.fn(x)


@pytest.mark.parametrize(
    "fn,a,b,max_intervals",
    [
        (lambda x: np.sin(10.0 * x), 0.0, math.pi, 2000),
        (lambda x: 6.0 * (x**-2.0 - x**-3.0), 1.0, math.inf, 2000),
        (lambda v: np.exp(-((v + 1.0) ** 2) / 2.0), -1.0, math.inf, 2000),
        (np.exp, -math.inf, 1.0, 2000),
        (lambda x: np.exp(-(x**2)), -math.inf, math.inf, 2000),
        (lambda x: np.abs(np.sin(1.0 / np.maximum(x, 1e-300))), 0.0, 1.0, 8),
    ],
    ids=["finite", "a-over-t", "a-minus-log-t", "lower-infinite", "doubly-infinite", "budget"],
)
def test_quadrature_calls_f_on_whole_panels(fn, a, b, max_intervals):
    f = _Recorder(fn)
    try:
        res = integrate_adaptive(f, a, b, abs_tol=1e-13, rel_tol=1e-13, max_intervals=max_intervals)
        evaluations = res.evaluations
    except ConvergenceError as exc:
        evaluations = exc.evaluations
    assert f.shapes
    assert all(len(s) == 1 and s[0] > 0 and s[0] % 15 == 0 for s in f.shapes)
    assert sum(s[0] for s in f.shapes) == evaluations


@pytest.mark.parametrize("max_intervals", [1, 2, 3, 8, 50])
def test_quadrature_budget_is_never_overshot(max_intervals):
    with pytest.raises(ConvergenceError) as info:
        integrate_adaptive(
            lambda x: np.abs(np.sin(1.0 / np.maximum(x, 1e-300))),
            0.0,
            1.0,
            abs_tol=1e-13,
            rel_tol=1e-13,
            max_intervals=max_intervals,
        )
    # Every bisection adds one panel, and a pass bisects at most as many
    # panels as the cap leaves room for: at most 2 * max_intervals - 1
    # panels are ever evaluated.
    assert info.value.evaluations <= 15 * (2 * max_intervals - 1)


def test_mellin_check_evaluates_expansion_in_few_calls(normalized60_report):
    rep = normalized60_report
    assert rep.m_t == 197
    j = _Recorder(expansion_fn(rep.c, rep.m_t))
    mellin_of_reconstruction(j, 0)
    # One call per refinement pass, each on every panel it bisects.
    assert len(j.shapes) <= 6


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_quadrature_infinite_panels_end_in_convergence_error():
    # Once the halves hold -inf and +inf apart, their sum is inf - inf:
    # the run must still end in ConvergenceError, not in fsum's ValueError.
    with pytest.raises(ConvergenceError):
        integrate_adaptive(lambda x: np.where(x < 0.5, -np.inf, np.inf), 0.0, 1.0, max_intervals=4)
