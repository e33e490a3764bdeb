import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutjump import corpus
from cutjump.errors import InputError
from cutjump.moments import (
    DEFAULT_P_POWER,
    MomentSequence,
    bernstein_weights,
    check_f_sequence,
    hausdorff_check,
)

HARMONIC = MomentSequence.from_function(lambda k: Fraction(1, k + 1), exact=True)
ONES = MomentSequence.from_function(lambda k: Fraction(1), exact=True)


# ----------------------------------------------------------------- weights


def _table_route(values, n):
    """Row n of the weights by the stored forward-difference table."""
    table = [list(values[: n + 1])]
    for _ in range(n):
        table.append([b - a for a, b in zip(table[-1], table[-1][1:])])
    return [math.comb(n, k) * (-1 if (n - k) % 2 else 1) * table[n - k][k] for k in range(n + 1)]


def test_weights_constant_sequence_is_point_mass():
    # every difference of a constant vanishes, so only the last weight, mu_n, survives
    for n in range(13):
        row = bernstein_weights(ONES, n)
        assert row.weights == [0] * n + [1]
        assert row.sum() == 1


def test_weights_need_enough_values():
    short = MomentSequence.from_values([1.0, 2.0])
    with pytest.raises(InputError):
        bernstein_weights(short, 5)
    with pytest.raises(InputError):
        hausdorff_check(short, 5)


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=50), min_size=5, max_size=9
    )
)
@settings(max_examples=40, deadline=None)
def test_weights_match_binomial_formula(values):
    # Independent route: (-1)^r Delta^r mu_k = sum_j C(r, j) (-1)^j mu_{k+j}, with r = n - k
    mu = MomentSequence.from_values(values, exact=True)
    rows = []
    for n in range(len(values)):
        direct = [
            math.comb(n, k)
            * sum(math.comb(n - k, j) * Fraction((-1) ** j) * values[k + j] for j in range(n - k + 1))
            for k in range(n + 1)
        ]
        assert bernstein_weights(mu, n).weights == direct
        rows.append(direct)
    # the scan's integer path reads the same signs and rounds the same weights
    report = hausdorff_check(mu, len(values) - 1, p=2.0)
    negatives = [(n, k) for n, row in enumerate(rows) for k, w in enumerate(row) if w < 0]
    assert report.first_negative == (negatives[0] if negatives else None)
    assert report.min_weight == min(float(w) for row in rows for w in row)


@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=30
    )
)
@settings(max_examples=60, deadline=None)
def test_float_weights_bit_identical_to_table_route(values):
    mu = MomentSequence.from_values(values)
    for n in range(len(values)):
        kernel = [w.hex() for w in bernstein_weights(mu, n).weights]
        assert kernel == [w.hex() for w in _table_route(values, n)]


def test_weights_harmonic_beta_integral_oracle():
    # w_k^{(n)} = C(n,k) int_0^1 t^k (1-t)^{n-k} dt = C(n,k) k!(n-k)!/(n+1)!
    for n in [*range(13), 25, 40]:
        row = bernstein_weights(HARMONIC, n)
        for k, w in enumerate(row.weights):
            beta = Fraction(math.factorial(k) * math.factorial(n - k), math.factorial(n + 1))
            assert w == math.comb(n, k) * beta
            assert w == Fraction(1, n + 1)
        assert row.sum() == 1


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=40), min_size=3, max_size=8
    )
)
@settings(max_examples=40, deadline=None)
def test_last_weight_is_mu_n(values):
    mu = MomentSequence.from_values(values, exact=True)
    n = len(values) - 1
    assert bernstein_weights(mu, n).weights[n] == values[n]


def test_weights_linear_in_the_sequence():
    a, b = Fraction(3, 7), Fraction(-2, 5)
    mu = MomentSequence.from_function(lambda k: Fraction(1, k + 1), exact=True)
    nu = MomentSequence.from_function(lambda k: Fraction(1, (k + 2) * (k + 3)), exact=True)
    combo = MomentSequence.from_function(lambda k: a * mu(k) + b * nu(k), exact=True)
    for n in (0, 5, 20):
        w_combo = bernstein_weights(combo, n).weights
        w_mu = bernstein_weights(mu, n).weights
        w_nu = bernstein_weights(nu, n).weights
        assert w_combo == [a * x + b * y for x, y in zip(w_mu, w_nu)]


def test_probability_moment_rows_sum_to_one():
    # moments of U^2 for U uniform on [0,1]: mu_k = 1/(2k+1)
    usq = MomentSequence.from_function(lambda k: Fraction(1, 2 * k + 1), exact=True)
    for n in (1, 7, 19):
        assert bernstein_weights(usq, n).sum() == 1
        assert bernstein_weights(HARMONIC, n).sum() == 1


def test_float_mode_agrees_with_exact_up_to_cancellation():
    # The binomially weighted differences cancel like 4^n eps in doubles:
    # measured agreement is ~4e-13 at n=10, ~3.5e-9 at n=18, ~1e-3 by n=30.
    # Exact mode is authoritative beyond that.
    exact_seq = HARMONIC
    float_seq = MomentSequence.from_function(lambda k: 1.0 / (k + 1), exact=False)
    for n in (5, 10, 15):
        w_e = bernstein_weights(exact_seq, n).weights
        w_f = bernstein_weights(float_seq, n).weights
        for we, wf in zip(w_e, w_f):
            assert wf == pytest.approx(float(we), rel=1e-9)
    w_e = bernstein_weights(exact_seq, 30).weights
    w_f = bernstein_weights(float_seq, 30).weights
    worst = max(abs(f - float(e)) / abs(float(e)) for e, f in zip(w_e, w_f))
    assert worst < 1e-2  # cancellation-degraded but not garbage


# ----------------------------------------------------------------- checks


def test_hausdorff_harmonic_statistic_is_one_at_p2():
    report = hausdorff_check(HARMONIC, 40, p=2.0)
    assert report.positivity_ok
    assert report.first_negative is None
    assert report.decay_bound_ok
    for s in report.lp_statistic:
        assert s == pytest.approx(1.0, rel=1e-9)
    assert report.lp_trend == "flat"


def test_hausdorff_constant_sequence_passes():
    report = hausdorff_check(ONES, 25, p=DEFAULT_P_POWER)
    assert report.positivity_ok
    assert report.min_weight == 0.0


def test_hausdorff_alternating_sequence_fails_positivity():
    alt = MomentSequence.from_function(lambda k: Fraction((-1) ** k), exact=True)
    report = hausdorff_check(alt, 10, p=2.0)
    assert not report.positivity_ok
    assert report.first_negative is not None
    assert report.min_weight < 0.0


def test_hausdorff_rejects_bad_p():
    with pytest.raises(InputError):
        hausdorff_check(ONES, 5, p=1.0)


# ------------------------------------------------------------- f-sequences


def test_f_sequence_zero_passes():
    cs = corpus.CoefficientSet(values=np.zeros(12))
    report = check_f_sequence(cs, "k_plus_1")
    assert report.positivity_ok


def test_f_sequence_normalized_rational_statistic_bounded():
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 40)
    report = check_f_sequence(cs, "k_plus_1")
    # f_k = 6 t^k (2t^2 - t) moments: the density changes sign, so positivity
    # fails, but the L^p statistic converges (to ~||phi||^2 = 4.8) instead of
    # growing like a power of n.
    assert report.lp_trend == "flat"
    assert max(report.lp_statistic) < 4.8
    assert not report.positivity_ok


def test_f_sequence_harmonic_point_mass():
    # f_k = (k+1) g_k = 1: point mass at t = 1; positivity holds but the
    # L^p statistic grows like (n+1)^{p-1}, flagging the failed hypothesis.
    spec = corpus.builtin("harmonic")
    cs = corpus.coefficients(spec, 40)
    report = check_f_sequence(cs, "k_plus_1")
    assert report.positivity_ok
    assert report.lp_trend == "increasing"


def test_f_sequence_thermal_indexing():
    spec = corpus.builtin("thermal_boson_demo")
    cs = corpus.coefficients(spec, 30)
    report = check_f_sequence(cs, "k", p=2.0)
    assert report.n_max == 30
    assert report.positivity_ok is not None  # runs through the enlarged f_0 = 0


def test_f_sequence_none_is_the_plain_check():
    spec = corpus.builtin("harmonic")
    exact = corpus.coefficients(spec, 30)
    assert check_f_sequence(exact, "none") == hausdorff_check(
        MomentSequence.from_function(spec.exact_rule, exact=True), 30
    )
    noisy = corpus.coefficients(spec, 30, epsilon=1e-3, seed=3)
    assert check_f_sequence(noisy, "none") == hausdorff_check(MomentSequence.from_values(noisy.values), 30)


def test_f_sequence_none_needs_data_from_zero():
    cs = corpus.coefficients(corpus.builtin("thermal_boson_demo"), 10)
    with pytest.raises(InputError, match="f-mode"):
        check_f_sequence(cs, "none")


def test_f_sequence_unknown_mode():
    cs = corpus.CoefficientSet(values=np.ones(3))
    with pytest.raises(InputError):
        check_f_sequence(cs, "bogus")
