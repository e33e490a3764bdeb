import gc
import hashlib
import itertools
import json
import math
import random
import sys
import threading
from collections import OrderedDict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cutjump import corpus, reconstruct, thermal
from cutjump.errors import ConfigError, DomainError, InputError
from cutjump.reconstruct import (
    PlateauPolicy,
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
from cutjump.specfun import integrate_adaptive, laguerre_scaled_seq
from plateau_loops import energy_decay_exponent_loop, flat_runs_loop
from rotated import rotated_closed_form, rotated_int_seq
from synthesis_loops import sum_bound_loop, weights_loop


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

    def lag(n, t):
        p0, p1 = mpmath.mpf(1), 1 - t
        if n == 0:
            return p0
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1 - t) * p1 - j * p0) / (j + 1)
        return p1

    for n in (0, 1, 5, 17, 30):
        with mp.workprec(350):
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


# --------------------------------------------------------- exact sums gate

# Doubles from the subnormals to near the top of the range, of both signs,
# so the common denominator 2^s and the weights take extreme sizes.
EXTREME_VALUES = [5e-324, -1.5e300, 2.0**-1074 * 3, 1.0, -7.25e-310, 2.0**1000, -0.1, 1e-300, 3.0]
# Recorded from ``_exact_sums`` before synthesis changed algorithm: per
# source, the sha256 of the lines "N,epsilon,n_max:D:S_0,...,S_{n_max}" (in
# hex) for N in SUMS_GATE_NS, epsilon in (0, 1e-6) with seed 5 and n_max in
# SUMS_GATE_DEPTHS; "extreme" takes leading slices of EXTREME_VALUES.
SUMS_GATE_NS = (1, 2, 20, 60, 120)
SUMS_GATE_DEPTHS = (0, 1, 200, 800)
SUMS_GATE = {
    "harmonic": "8a75eaf6a4066df89b86fce41c7262d786c3370dd54e06f16780a75f357d2232",
    "normalized_rational": "ae59aec705dc85e6002c3e5ff5677a9345494c5464199ff321c57c48e35b1500",
    "rational_unnormalized": "06cc02c395891180821dc37c86c11d49092b853093025a9ad1112ad5744eada4",
    "thermal_boson_demo": "e9950c0b74397197981cc41b2f1d46e0809d22a78eb7abb55729d367a6b2f528",
    "extreme": "be5d55e23c82126efd7704ed02ab92d2d66fa7191a750e67174cc8eae78537cf",
}


def _sums_gate_panel(source):
    if source == "extreme":
        for n in range(1, len(EXTREME_VALUES) + 1):
            yield f"{n},0", np.array(EXTREME_VALUES[:n])
        return
    spec = corpus.builtin(source)
    for n in SUMS_GATE_NS:
        for eps in (0.0, 1e-6):
            yield f"{n},{eps!r}", corpus.coefficients(spec, n, epsilon=eps, seed=5).values


@pytest.mark.parametrize("source", sorted(SUMS_GATE))
def test_exact_sums_match_the_recorded_digests(source):
    h = hashlib.sha256()
    for label, values in _sums_gate_panel(source):
        for n_max in SUMS_GATE_DEPTHS:
            sums, d = reconstruct._exact_sums(values, n_max)
            h.update(f"{label},{n_max}:{d:x}:{','.join(f'{s:x}' for s in sums)}\n".encode())
    assert h.hexdigest() == SUMS_GATE[source]


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.integers(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_exact_sums_equal_the_closed_form_sums(values, n_max):
    # S_n / D = sum_k (-1)^k v_k q_n^(k) / k! in exact rationals, with q from
    # the 2F1 closed form: every double is dyadic, from the subnormals to the
    # top of the range.
    sums, d = reconstruct._exact_sums(np.array(values), n_max)
    assert len(sums) == n_max + 1
    for n, s in enumerate(sums):
        want = sum(
            Fraction((-1) ** k * rotated_closed_form(n, k), math.factorial(k)) * Fraction(v)
            for k, v in enumerate(values)
        )
        assert Fraction(s, d) == want


def _column_shapes(rng, draws):
    """(K, n_max) pairs with K in 1..80 and n_max in 0..300, starting with
    the corners: K above n_max + 1, and n_max far above K."""
    yield from [(1, 0), (80, 0), (80, 3), (80, 78), (1, 300), (3, 300), (80, 300)]
    for _ in range(draws):
        yield int(rng.integers(1, 81)), int(rng.integers(0, 301))


def test_column_sums_equal_the_recurrence_sums_and_stop_on_a_prefix():
    # The column kernel gives S_n = sum_k w_k q_n^(k) with q from the
    # integer recurrence, the values the sums gates above pin through
    # ``_exact_sums``, and a stream stopped after any column is a prefix.
    rng = np.random.default_rng(26)
    for k, n_max in _column_shapes(rng, 25):
        values = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-8.0, 3.0, k)
        weights, d = reconstruct._weights(values)
        columns = reconstruct._sum_columns(weights)
        sums = [next(columns) for _ in range(n_max + 1)]
        rows = [rotated_int_seq(n_max, j) for j in range(k)]
        assert sums == [sum(w * row[n] for w, row in zip(weights, rows)) for n in range(n_max + 1)], (k, n_max)
        assert reconstruct._exact_sums(values, n_max) == (sums, d)
        for stop in {0, n_max // 2, n_max, int(rng.integers(0, n_max + 1))}:
            assert list(itertools.islice(reconstruct._sum_columns(weights), stop + 1)) == sums[: stop + 1]


def test_sum_bound_bounds_every_sum():
    rng = np.random.default_rng(27)
    for _ in range(40):
        k, n_max = int(rng.integers(1, 81)), int(rng.integers(0, 301))
        values = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-8.0, 3.0, k)
        sums, _ = reconstruct._exact_sums(values, n_max)
        assert max(map(abs, sums)) <= reconstruct._sum_bound(reconstruct._weights(values)[0], n_max)


def _setup_values(K, seed):
    """K doubles mixing zeros, the smallest subnormals, values near the top
    of the double range and values of any exponent in between."""
    rng = np.random.default_rng(seed)
    pools = [
        np.array([0.0, -0.0]),
        np.array([5e-324, -5e-324, 1e-323]),
        rng.choice([-1.0, 1.0], 8) * np.array([1e308, 1.7976931348623157e308, 8e307, 1.5e308] * 2),
        rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-323.0, 307.0, 64),
        rng.choice([-1.0, 1.0], 64) * rng.uniform(0.0, 10.0, 64),
    ]
    kinds = rng.integers(0, len(pools), K)
    return np.array([pools[k][rng.integers(0, pools[k].size)] for k in kinds])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 61, 1001]), st.integers(0, 800), st.integers(0, 2**32 - 1))
@example(1001, 800, 0)
@example(1, 0, 1)
def test_setup_tables_give_the_loops_integers(K, n_max, seed):
    # The sums gate pins w and D, and the bound decides where a sweep cell
    # stops, so the table-driven set-up must give the loops' integers, on
    # the first call (tables built) and on the next (tables read).
    reconstruct._factorial_ratios.cache_clear()
    reconstruct._bound_factors.cache_clear()
    values = _setup_values(K, seed)
    want_w, want_d = weights_loop(values)
    want_bound = sum_bound_loop(want_w, n_max)
    for _ in range(2):
        weights, d = reconstruct._weights(values)
        assert (weights, d) == (want_w, want_d)
        assert reconstruct._sum_bound(weights, n_max) == want_bound


def test_stopping_synthesis_ends_at_the_guard_plus_the_window():
    # Given w_min, a noisy synthesis returns c_0..c_{g + w_min} of the full
    # synthesis and nothing more, g being the divergence guard of the full
    # energies (n_max without one), however n_max cuts it.  The draws reach
    # N = 1000 and n_max = 800, where a bound on the sums that grows with N
    # would send every cell to full depth.
    rng = np.random.default_rng(28)
    problems = [pid for pid in corpus.BUILTIN_IDS if corpus.builtin(pid).start_index == 0]
    for _ in range(200):
        spec = corpus.builtin(str(rng.choice(problems)))
        n = int(rng.choice([1, 2, 10, 20, 60, 120, 400, 1000]))
        eps = float(rng.choice([0.3, *(10.0**-k for k in range(1, 10))]))
        n_max, w_min = int(rng.choice([0, 1, 7, 30, 200, 800])), int(rng.integers(2, 31))
        values = corpus.coefficients(spec, n, epsilon=eps, seed=int(rng.integers(0, 2**32))).values
        full = reconstruct._synthesis(values, n_max)
        M = partial_energies(full)
        g = reconstruct._divergence_guard(reconstruct._growth(M, np.diff(M)))
        c = reconstruct._synthesis(values, n_max, w_min)
        assert c.size == min(n_max + 1, g + w_min + 1), (spec.id, n, eps, n_max, w_min)
        assert np.array_equal(c, full[: c.size])


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


@pytest.mark.parametrize(
    "s,d",
    [
        (0, 1),
        (0, 3**50),
        (1, 1),
        (12345, 678),
        (3 << 200, 5**90),
        # sqrt(2) s / d around the smallest normal, inside the subnormals,
        # and below half the smallest subnormal
        (2**57 + 12345, 2**1080),
        (2**57 - 1, 2**1080),
        (3, 2**1076),
        (1, 2**1074),
        (1, 2**1076),
        (1, 2**1077),
        # just inside and beyond the double range, with |s| / d far above 1
        (2**1023, 2),
        (10**308, 1),
        (2**1100, 3),
    ],
)
def test_sqrt2_rounding_is_correctly_rounded(s, d):
    want = _reference_sqrt_ratio(2 * s * s, d)
    assert reconstruct._sqrt2_rounding(d)(s) == want
    assert reconstruct._sqrt2_rounding(d)(-s) == -want
    if s == 0:
        assert math.copysign(1.0, reconstruct._sqrt2_rounding(d)(s)) == 1.0


def test_sqrt2_rounding_random_against_reference():
    rng = random.Random(20261020)
    for _ in range(300):
        s = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1))
        d = rng.getrandbits(rng.randint(1, 1300)) or 1
        want = math.copysign(_reference_sqrt_ratio(2 * s * s, d), s)
        assert reconstruct._sqrt2_rounding(d)(s) == want, (s, d)


def test_sqrt2_rounding_agrees_with_the_exact_path():
    # Sizes from a few bits to beyond the double range both ways, so the
    # results span zero, the subnormals, the normals and inf.
    rng = random.Random(7)
    for _ in range(20000):
        s = rng.getrandbits(rng.randint(1, 1200)) * rng.choice((1, -1))
        d = rng.getrandbits(rng.randint(1, 1300)) or 1
        want = reconstruct._sqrt_ratio(2 * s * s, d)
        assert reconstruct._sqrt2_rounding(d)(s) == (-want if s < 0 else want), (s, d)


def _near_midpoints(count: int, seed: int):
    """Triples (s, d, want): sqrt(2) s / d lies just below or just above a
    point halfway between two adjacent doubles, within 2^-139 of their
    spacing, and rounds to ``want``, the neighbour on its side.  The
    midpoints are normal, subnormal, and the one between the largest double
    and 2^1024, above which rounding gives inf."""
    rng = random.Random(seed)
    mids = [(2 * rng.randrange(2**52, 2**53) + 1, rng.randint(-1075, 970)) for _ in range(count)]
    mids += [(2 * rng.randrange(2**51) + 1, -1075) for _ in range(count // 10)]  # subnormal
    mids.append((2**54 - 1, 970))
    for mid, exp in mids:  # the midpoint mid 2^exp
        d = rng.getrandbits(100) | 1 << 99
        f = max(0, 40 - exp)
        # floor(mid 2^exp d 2^f / sqrt(2)); never equal, as sqrt(2) is irrational
        s = math.isqrt((mid * d) ** 2 << 2 * (exp + f) - 1)
        try:
            above = math.ldexp(mid + 1, exp)
        except OverflowError:  # 2^1024
            above = math.inf
        yield s, d << f, math.ldexp(mid - 1, exp)
        yield s + 1, d << f, above


def test_sqrt2_rounding_near_midpoints_take_the_exact_path(monkeypatch):
    exact_calls = []
    exact = reconstruct._sqrt_ratio
    monkeypatch.setattr(reconstruct, "_sqrt_ratio", lambda m, d: exact_calls.append(m) or exact(m, d))
    cases = list(_near_midpoints(150, 11))
    for s, d, want in cases:
        assert reconstruct._sqrt2_rounding(d)(s) == want, (s, d)
    assert len(exact_calls) == len(cases)
    # Ordinary coefficients settle on the bracket alone.
    exact_calls.clear()
    synthesize_coefficients(corpus.coefficients(corpus.builtin("normalized_rational"), 60, 1e-6, 5), 200)
    assert len(exact_calls) <= 2


def test_sqrt2_bracket_holds_in_integers():
    # sqrt(2) 2^p / d lies in [f, f + 1): (f d)^2 <= 2 4^p < ((f + 1) d)^2,
    # and f has at least 67 bits, so the bracket of sqrt(2) s / d is at most
    # 2^-66 wide relative to its ends.
    rng = random.Random(29)
    for d in [1, 2, 3, 2**1074, 3**700] + [rng.getrandbits(rng.randint(1, 3000)) or 1 for _ in range(2000)]:
        rounding = reconstruct._sqrt2_rounding(d)
        f, p = rounding.f, rounding.p
        assert (f * d) ** 2 <= 2 << 2 * p < ((f + 1) * d) ** 2, d
        assert f >> 66 >= 1


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
    assert det.run == (0, 5)
    assert det.plateau == (0, 5)
    # the truncation point backs half a window into the run interior
    assert det.m_t == 2


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


def test_detect_plateau_guard_survives_a_step_zero_jump():
    # growth at step 0 is 1.0 and at step 6 is 1e5: the guard sits at 6, so
    # the shelf after it cannot anchor the truncation
    M = np.concatenate([[0.5], np.linspace(1.0, 1.2, 6), [1e5] * 12])
    det = detect_plateau(M)
    assert det.m_t < 7
    assert det.run is None


@pytest.mark.parametrize("n, epsilon, seed", [(1, 0.0, None), (60, 0.1, 7006)])
def test_step_zero_divergence_keeps_the_guard(n, epsilon, seed):
    # Both runs diverge at step 0 and again at step 1.  With the guard
    # switched off by the first jump they picked m_t 195 and 62, with l2_rel
    # 1043.6 and 5.2e6.
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, n, epsilon=epsilon, seed=seed)
    report = reconstruct.build_report(cs, n_max=200, truth=spec.jump)
    growth = np.diff(report.M) / np.maximum(report.M[:-1], reconstruct.GROWTH_FLOOR)
    assert np.all(growth[:2] >= reconstruct.DIVERGENCE_GROWTH)
    assert report.m_t == 0
    assert not report.confident
    assert report.errors.l2_rel < 0.6


def test_detect_plateau_no_run_flags_low_confidence():
    M = np.cumsum(np.ones(30) * 5.0)  # steady large growth
    det = detect_plateau(M)
    assert det.run is None
    assert not det.confident
    assert det.plateau[0] <= det.m_t <= det.plateau[1]  # band still reported
    assert 0 <= det.m_t < 30


def test_detect_plateau_validates_input():
    with pytest.raises(InputError):
        detect_plateau(np.array([2.0, 1.0]))  # decreasing
    with pytest.raises(ConfigError):
        PlateauPolicy(theta=-1.0)
    with pytest.raises(ConfigError):
        PlateauPolicy(theta=0.5)  # a flat step would also count as divergence
    with pytest.raises(ConfigError):
        PlateauPolicy(w_min=1)


def test_known_energy_cross_validates_heuristic(noisy7_report):
    # With the true energy constant, the literal definition of the cutoff
    # (the last m with M_m <= ||J||^2) must land inside the heuristically
    # detected plateau band.
    spec = corpus.builtin("normalized_rational")
    m_literal = np.flatnonzero(noisy7_report.M <= spec.jump_norm_sq)[-1]
    a, b = noisy7_report.plateau
    assert a <= m_literal <= b


def _random_growth(rng, theta):
    """Relative growth steps: flat with a random probability (0 and 1
    included), some steps exactly at theta, some far above it."""
    n = int(rng.integers(1, 300))
    p_flat = rng.choice([0.0, 1.0, rng.random()])
    growth = np.where(rng.random(n) < p_flat, theta * rng.random(n), theta * 10.0 ** rng.uniform(0.0, 4.0, n))
    growth[rng.random(n) < 0.05] = theta
    return growth


def test_flat_runs_match_the_loop_oracle():
    rng = np.random.default_rng(24)
    cases = [np.full(40, 1e-5), np.full(40, 0.2), np.r_[np.full(7, 0.2), np.full(9, 0.0)], np.array([1e-3])]
    cases += [_random_growth(rng, 1e-3) for _ in range(3000)]
    for growth in cases:
        runs = reconstruct._flat_runs(growth, 1e-3)
        assert runs == flat_runs_loop(growth, 1e-3)
        assert all(type(a) is int and type(b) is int for a, b in runs)


def _random_window(rng):
    """c_n^2 with a power-law envelope, random oscillation and blocks of
    exact zeros (so some bins have maximum 0), and a window [lo, hi] of
    1 to 260 indices inside it."""
    span = int(rng.integers(1, 261))
    lo = int(rng.integers(0, 40))
    length = lo + span + int(rng.integers(0, 40))
    n = np.arange(length)
    c_sq = (n + 1.0) ** -rng.uniform(0.5, 6.0) * rng.random(length) ** 2
    for _ in range(int(rng.integers(0, 4))):
        a = int(rng.integers(0, length))
        c_sq[a : a + int(rng.integers(1, 30))] = 0.0
    if rng.random() < 0.02:
        c_sq[:] = 0.0
    return c_sq, lo, lo + span - 1


def test_energy_decay_exponent_matches_the_loop_oracle_bit_for_bit(normalized60_report):
    rng = np.random.default_rng(2024)
    rep = normalized60_report
    cases = [(np.diff(rep.M, prepend=0.0), rep.plateau[0], rep.m_t)]
    cases += [_random_window(rng) for _ in range(3000)]
    lengths = set()
    for c_sq, lo, hi in cases:
        got = reconstruct._energy_decay_exponent(c_sq, lo, hi)
        assert got.hex() == energy_decay_exponent_loop(c_sq, lo, hi).hex(), (lo, hi)
        lengths.add(hi - lo + 1)
    assert {5, 260} <= lengths


# -------------------------------------------------------------------- basis


def test_basis_phi_values_and_domain():
    with pytest.raises(DomainError):
        phi_matrix(0, [0.0])
    with pytest.raises(DomainError):
        phi_matrix(1, [3.0, -2.0])
    # n = 0 tail: phi_0(x) ~ sqrt2 / x for large x
    x = 1e8
    assert phi_matrix(0, [x])[0, 0] * x == pytest.approx(math.sqrt(2.0), rel=1e-7)


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


def test_default_grid_bytes_match_sorted_unique():
    # Every report's xs and samples CSV are read on this grid, so it must
    # stay the same array byte for byte, whatever builds it.
    xs = np.concatenate([np.geomspace(1e-2, 50.0, 1500), np.linspace(0.5, 3.0, 500)])
    assert default_grid().tobytes() == np.unique(xs).tobytes()


def test_default_grid_is_one_read_only_array():
    grid = default_grid()
    assert grid is default_grid()
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0


def test_basis_scaling_in_place_is_bit_identical():
    xs = np.geomspace(1e-2, 50.0, 301)
    vs = np.linspace(-3.0, 15.0, 257)
    lag_x = laguerre_scaled_seq(120, 2.0 / xs)
    lag_v = laguerre_scaled_seq(120, 2.0 * np.exp(-vs))
    assert phi_matrix(120, xs).tobytes() == (math.sqrt(2.0) * lag_x / xs).tobytes()
    assert thermal.psi_matrix(120, vs).tobytes() == (math.sqrt(2.0) * lag_v * np.exp(-vs / 2.0)).tobytes()


# -------------------------------------------------------------- basis cache


@pytest.fixture
def fresh_basis(monkeypatch):
    """An empty basis cache for one test; the shared one is left as it was."""
    monkeypatch.setattr(reconstruct, "_BASIS", OrderedDict())
    return reconstruct._BASIS


def test_integral_checks_build_the_basis_at_most_six_times(fresh_basis, monkeypatch, normalized60_report):
    # The five checks' quadrature nodes lie on one dyadic lattice in t = 1/x,
    # so most passes meet an abscissa array that an earlier check built.
    calls = []

    def counted(n, x):
        calls.append(n)
        return laguerre_scaled_seq(n, x)

    monkeypatch.setattr(reconstruct, "laguerre_scaled_seq", counted)
    j = expansion_fn(normalized60_report.c, normalized60_report.m_t)
    for k in (0, 1, 2):
        mellin_of_reconstruction(j, k)
    cauchy_check(j, 0.5)
    density_check(j)
    assert 1 <= len(calls) <= 6


def test_reconstruct_jump_reads_row_prefixes_bit_for_bit(fresh_basis):
    rng = np.random.Generator(np.random.PCG64(5))
    c = rng.uniform(-1.0, 1.0, 130)
    xs = np.geomspace(0.05, 40.0, 517)

    def fresh(m):
        return reconstruct._head(c, m) @ phi_matrix(m, xs)

    for m in (90, 17, 90, 0, 129, 90, 17):
        assert reconstruct_jump(c, m, xs).tobytes() == fresh(m).tobytes(), m
    (stored,) = fresh_basis.values()
    assert stored.shape == (130, xs.size)


def test_cached_basis_is_read_only_and_phi_matrix_stays_fresh(fresh_basis):
    xs = np.linspace(0.5, 3.0, 40)
    cached = reconstruct._basis(phi_matrix, 12, xs)
    prefix = reconstruct._basis(phi_matrix, 5, xs)
    for view in (cached, prefix):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    assert prefix.flags.c_contiguous and np.shares_memory(prefix, cached)
    own = phi_matrix(12, xs)
    assert own.flags.writeable and not np.shares_memory(own, cached)
    own[0, 0] = 7.0
    assert reconstruct._basis(phi_matrix, 12, xs).tobytes() == phi_matrix(12, xs).tobytes()


def test_basis_cache_keeps_within_its_byte_budget(fresh_basis, monkeypatch):
    grids = [np.linspace(1.0, 2.0, 100 + i) for i in range(4)]
    budget = 3 * 21 * 103 * 8  # room for three 21-row matrices, not four
    monkeypatch.setattr(reconstruct, "BASIS_CACHE_BYTES", budget)
    for i in (0, 1, 2, 0, 3):
        reconstruct._basis(phi_matrix, 20, grids[i])
        assert sum(a.nbytes for a in fresh_basis.values()) <= budget
    # The least recently used (the second grid; the first was read again) went.
    assert [key[1] for key in fresh_basis] == [(102,), (100,), (103,)]
    big = reconstruct._basis(phi_matrix, 400, grids[2])
    assert big.tobytes() == phi_matrix(400, grids[2]).tobytes()
    assert big.nbytes > budget
    assert [key[1] for key in fresh_basis] == [(100,), (103,)]


def test_basis_cache_is_thread_safe(fresh_basis, monkeypatch):
    # Eight threads (more than the cores) grow, read and evict the same
    # entries in different orders at once, under a budget that holds about
    # half of them; every result must equal the uncached one.
    rng = np.random.Generator(np.random.PCG64(11))
    c = rng.uniform(-1.0, 1.0, 61)
    grids = [np.geomspace(0.1, 30.0, 200 + 15 * i) for i in range(3)]
    vs = np.linspace(0.0, 15.0, 180)
    depths = [3, 60, 11, 40, 25, 60, 7, 52]
    want = {(m, i): reconstruct._head(c, m) @ phi_matrix(m, xs) for m in depths for i, xs in enumerate(grids)}
    want_v = {m: reconstruct._head(c, m) @ thermal._thermal_rows(m, vs) for m in depths}
    budget = 2 * 61 * 245 * 8
    monkeypatch.setattr(reconstruct, "BASIS_CACHE_BYTES", budget)
    barrier = threading.Barrier(8, timeout=60)
    errors = []

    def work(shift):
        try:
            for r in range(12):
                barrier.wait()
                for m in depths[shift:] + depths[:shift]:
                    for i, xs in enumerate(grids):
                        got = expansion_fn(c, m)(xs) if (r + i) % 2 else reconstruct_jump(c, m, xs)
                        assert got.tobytes() == want[m, i].tobytes()
                    assert thermal.reconstruct_thermal(c, m, vs).tobytes() == want_v[m].tobytes()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
            barrier.abort()  # the other threads stop at once instead of timing out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 0 < sum(a.nbytes for a in fresh_basis.values()) <= budget


# ------------------------------------------------------------- table caches


def test_cached_tables_are_read_only(fresh_tables):
    spec = corpus.builtin("normalized_rational")
    clean = corpus.coefficients(spec, 20).values
    assert clean is corpus.coefficients(spec, 20).values
    assert corpus.coefficients(spec, 20, 1e-3, 1).values.flags.writeable  # each draw is fresh
    xs = default_grid()
    key = (spec.jump, xs.shape, xs.tobytes(), reconstruct.ERROR_DOMAIN, None)
    parts = reconstruct._cached_truth_on_grid(*key)
    assert parts is reconstruct._cached_truth_on_grid(*key)
    arrays = [clean, *(a for a in parts if isinstance(a, np.ndarray))]
    assert len(arrays) == 4  # the table, the mask, the abscissae, the truth
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # the synthesis tables are tuples of ints
    assert isinstance(reconstruct._factorial_ratios(21), tuple)
    assert isinstance(reconstruct._bound_factors(21, 200), tuple)


def test_table_caches_keep_within_their_bounds(fresh_tables):
    spec = corpus.builtin("harmonic")
    bounds = (corpus.CLEAN_CACHE_SIZE, reconstruct.SETUP_CACHE_SIZE, reconstruct.SETUP_CACHE_SIZE,
              reconstruct.TRUTH_CACHE_SIZE)  # fmt: skip
    for n in range(corpus.CLEAN_CACHE_SIZE + 3):
        corpus.coefficients(spec, n)
    for k in range(1, reconstruct.SETUP_CACHE_SIZE + 4):
        reconstruct._sum_bound(reconstruct._weights(np.full(k, 0.5))[0], 7)
    for i in range(reconstruct.TRUTH_CACHE_SIZE + 3):
        xs = np.linspace(1.0, 2.0 + i, 16)
        l2_error(xs, np.zeros_like(xs), spec.jump)
    for cache, bound in zip(fresh_tables, bounds):
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize == bound, cache


def test_sparse_grid_raises_on_every_call_and_is_not_stored(fresh_tables):
    spec = corpus.builtin("harmonic")
    xs = np.linspace(1.0, 50.0, 7)
    for _ in range(2):
        with pytest.raises(InputError, match="too sparse"):
            l2_error(xs, xs, spec.jump)
    assert reconstruct._cached_truth_on_grid.cache_info().currsize == 0


def test_plain_truth_gets_the_closed_form_errors_uncached(fresh_tables):
    # A truth that is not a JumpGroundTruth is sampled afresh on every call
    # and gives the errors of the closed form it wraps, bit for bit.
    spec = corpus.builtin("normalized_rational")
    xs = default_grid()
    j_rec = 0.9 * spec.jump(xs) + 1e-3 * np.sin(xs)
    closed = l2_error(xs, j_rec, spec.jump)
    for _ in range(2):
        assert l2_error(xs, j_rec, lambda x: spec.jump(x)) == closed
    assert reconstruct._cached_truth_on_grid.cache_info().currsize == 1
    mask = (xs >= 1.0) & (xs <= 50.0)
    jt = spec.jump(xs[mask])
    err_sq = float(np.trapezoid((j_rec[mask] - jt) ** 2, xs[mask]))
    assert closed.l2_abs == math.sqrt(err_sq)
    assert closed.l2_rel == math.sqrt(err_sq / float(np.trapezoid(jt**2, xs[mask])))
    thermal_spec = corpus.builtin("thermal_boson_demo")
    vs = thermal.default_v_grid()
    v_rec = 0.9 * thermal_spec.jump(vs)
    weighted = thermal.weighted_l2_error(vs, v_rec, thermal_spec.jump)
    assert thermal.weighted_l2_error(vs, v_rec, lambda v: thermal_spec.jump(v)) == weighted
    assert thermal.weighted_l2_error(vs, v_rec, thermal_spec.jump) == weighted
    info = reconstruct._cached_truth_on_grid.cache_info()
    assert (info.currsize, info.hits) == (2, 1)  # the weight's key repeats


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


# Exact outputs of the noise-free benchmark configs at n_max = 200, per config:
# m_t, the sha256 of the report's strict JSON, and the float.hex of Mellin
# k = 0, 1, 2, cauchy_check(j, 0.5) (real, imaginary) and the two density_check
# fields (None for the thermal report, which runs no checks).
EXACT_GATE = {
    ("normalized_rational", 20): (34, "9441ddaa8d0e12edfa1ccf466b9e2297a6eb2ec0d25a1f11754e5b57be1f6e19", (
        "0x1.fecd517674164p-1", "0x1.fe9d6ec8a39a0p-2", "0x1.32d335d02962cp-2", "0x1.5c9799a661d0ap+0",
        "0x0.0p+0", "0x1.fecd517674164p-1", "0x1.1e5ee45163da6p-9")),
    ("normalized_rational", 60): (197, "c2bfc3fd121b5fa12e2c9b4be7e088b62f00aafe302d646f098c7e3c6fd0d5ef", (
        "0x1.ffc60f6d37ab5p-1", "0x1.ff9cd1afe66b0p-2", "0x1.32e118c75a460p-2", "0x1.5d1c4906ec022p+0",
        "0x0.0p+0", "0x1.ffc60f6d37ab5p-1", "0x1.3223de7f6b30cp-9")),
    ("normalized_rational", 120): (197, "8fd8131ea79a96cfe39b4f7193deda5b4e9d4f9858aff6caf00e7f1be4b76e3a", (
        "0x1.ffc60f6d377ebp-1", "0x1.ff9cd1afe60eep-2", "0x1.32e118c759e79p-2", "0x1.5d1c4906ebd45p+0",
        "0x0.0p+0", "0x1.ffc60f6d377ebp-1", "0x1.3223de7f67891p-9")),
    ("harmonic", 20): (33, "a01df5c25a12aa0f3e5df646acc1e668c74536cd984f18a2b5a4242aa27323db", (
        "0x1.ec44a8da1e629p-1", "0x1.d87604d00f304p-2", "0x1.2e1c0ad4e424cp-2", "0x1.4f4b862b78d48p+0",
        "0x0.0p+0", "0x1.ec44a8da1e629p-1", "0x1.4a201b2ffe5eep-6")),
    ("harmonic", 60): (197, "8898da4e7fc25b59f15ee43c11b6fa5002798a74a7d7a8f05fb8b251502ace5e", (
        "0x1.f77e378c8a452p-1", "0x1.eef6a95bfcf86p-2", "0x1.444e2c106abddp-2", "0x1.5a636b0d151f6p+0",
        "0x0.0p+0", "0x1.f77e378c8a452p-1", "0x1.498245b5b3cbdp-6")),
    ("harmonic", 120): (197, "459f958b80f9229df4136466d62978a8b8cf726800d6313bdcd59736d6a9148e", (
        "0x1.f77e378c8861fp-1", "0x1.eef6a95bf9139p-2", "0x1.444e2c1066bfbp-2", "0x1.5a636b0d132fbp+0",
        "0x0.0p+0", "0x1.f77e378c88620p-1", "0x1.498245b5aeda1p-6")),
    ("rational_unnormalized", 20): (34, "919228c4235292d00a6d8c7565a15c8a689184f0ab1812f66bff41fb121fc971", (
        "0x1.5488e0f9a28a7p-3", "0x1.5468f485c21d9p-4", "0x1.99199d158c1f4p-5", "0x1.d0ca22332ccd4p-3",
        "0x0.0p+0", "0x1.5488e0f9a28a7p-3", "0x1.7dd3db1723be0p-12")),
    ("rational_unnormalized", 60): (197, "45552b7d06134ccae034947a65e206b65dbc75af870b1eb8c7432a164049b050", (
        "0x1.5540e7193acefp-3", "0x1.553af2ef8b85bp-4", "0x1.9981dc58bd50cp-5", "0x1.d1a287a5ff34ap-3",
        "0x0.0p+0", "0x1.5540e7193acefp-3", "0x1.94afec7c2d14ep-12")),
    ("rational_unnormalized", 120): (197, "def83ab3fba8c63d7f01136369eda01d76391be0a9f3a0e69fb98222c83a3abc", (
        "0x1.5540e7193ab13p-3", "0x1.553af2ef8b485p-4", "0x1.9981dc58bcd2ep-5", "0x1.d1a287a5fef79p-3",
        "0x0.0p+0", "0x1.5540e7193ab13p-3", "0x1.94afec7c28353p-12")),
    ("thermal_boson_demo", 60): (197, "2bf0ac597ffeaa24cd6061e5fe882358b8593b12488dae1e1baf84ceaae4c14e", None),
}


def _exact_outputs(pid, n):
    spec = corpus.builtin(pid)
    if pid == "thermal_boson_demo":
        rep = thermal.build_thermal_report(thermal.thermal_problem(spec, n), n_max=200)
        checks = None
    else:
        rep = reconstruct.build_report(corpus.coefficients(spec, n), n_max=200, truth=spec.jump)
        j = expansion_fn(rep.c, rep.m_t)
        mellin = [mellin_of_reconstruction(j, k) for k in (0, 1, 2)]
        z = cauchy_check(j, 0.5)
        d = density_check(j)
        checks = tuple(v.hex() for v in (*mellin, z.real, z.imag, d.integral_of_j_over_x, d.min_value))
    digest = hashlib.sha256(json.dumps(rep.to_dict(), allow_nan=False).encode()).hexdigest()
    return rep.m_t, digest, checks


def test_benchmark_configs_reproduce_exactly_in_any_order():
    # By descending m_t first, so later configs resum on fewer basis rows than
    # earlier ones at the same abscissae; then in a fixed shuffled order.
    by_depth = sorted(EXACT_GATE, key=lambda cfg: -EXACT_GATE[cfg][0])
    shuffled = list(EXACT_GATE)
    random.Random(15).shuffle(shuffled)
    for order in (by_depth, shuffled):
        for cfg in order:
            assert _exact_outputs(*cfg) == EXACT_GATE[cfg], cfg


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


@pytest.mark.parametrize(
    "fixture, cfg",
    [("normalized60_report", ("normalized_rational", 60)), ("thermal60_report", ("thermal_boson_demo", 60))],
)
def test_report_sample_rows_are_untracked_tuples(request, fixture, cfg):
    # Tuples of floats leave the collector's tracking, so a report's rows
    # set off no collections; the strict JSON is the one recorded above.
    d = request.getfixturevalue(fixture).to_dict()
    assert all(type(row) is tuple for row in d["samples"])
    gc.collect()
    assert not any(gc.is_tracked(row) for row in d["samples"])
    digest = hashlib.sha256(json.dumps(d, allow_nan=False).encode()).hexdigest()
    assert digest == EXACT_GATE[cfg][1]


@pytest.mark.parametrize("variant", ["power", "thermal"])
def test_reports_check_the_coefficients_before_the_energies(variant):
    # c_0 = sqrt(2) 1.7e308 and M_0 = c_0^2 both leave the double range; the
    # synthesis range check runs first, so the error names c_0, not M_0.
    cs = corpus.CoefficientSet(values=np.array([1.7e308]), start_index=1 if variant == "thermal" else 0)
    with pytest.raises(InputError, match=r"^c_0 lies outside the double range"):
        if variant == "thermal":
            thermal.build_thermal_report(thermal.ThermalProblem(coefficients=cs))
        else:
            reconstruct.build_report(cs)


def test_degenerate_single_coefficient_run_is_flagged():
    cs = corpus.CoefficientSet(values=np.array([1.0]))
    rep = reconstruct.build_report(cs, n_max=30)
    assert not rep.confident


def test_decay_exponent_regression_guards(normalized60_report, harmonic60_report):
    # The confidence threshold sits at 2.0; pin the measured exponents so a
    # future change to the fit cannot silently cross it from either side.
    assert normalized60_report.decay_exponent >= 2.5  # measured 2.86
    assert harmonic60_report.decay_exponent <= 1.97  # measured 1.93
