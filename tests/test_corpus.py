import hashlib
import math
import sys

import numpy as np
import pytest

from cutjump import cli, corpus
from cutjump.errors import ConfigError, InputError, ParseError
from cutjump.specfun import integrate_adaptive


# ------------------------------------------------------------- built-ins


def test_builtin_ids_and_unknown():
    assert set(corpus.BUILTIN_IDS) == {
        "harmonic",
        "normalized_rational",
        "rational_unnormalized",
        "thermal_boson_demo",
    }
    with pytest.raises(InputError):
        corpus.builtin("nope")


def test_normalized_rational_basics():
    spec = corpus.builtin("normalized_rational")
    assert spec.coefficient_rule(0) == pytest.approx(1.0)
    assert spec.gtilde(complex(0.0)) == pytest.approx(1.0)
    assert spec.jump(1.0) == pytest.approx(0.0)  # continuous at the cut end
    assert spec.continuous


def test_harmonic_is_discontinuous():
    spec = corpus.builtin("harmonic")
    assert spec.jump(1.0) == pytest.approx(1.0)
    assert not spec.continuous
    assert spec.gtilde(complex(2.5)) == pytest.approx(1.0 / 3.5)


def test_jump_vanishes_outside_support():
    spec = corpus.builtin("normalized_rational")
    xs = np.array([0.0, 0.3, 0.999, 1.5])
    vals = spec.jump(xs)
    assert vals[0] == vals[1] == vals[2] == 0.0
    assert vals[3] > 0.0


@pytest.mark.parametrize("problem_id", corpus.BUILTIN_IDS)
def test_round_trip_rule_equals_interpolant(problem_id):
    spec = corpus.builtin(problem_id)
    for k in range(spec.start_index, 61):
        assert abs(spec.coefficient_rule(k) - spec.gtilde(complex(k))) <= 1e-12


def test_thermal_demo_laplace_identity():
    # g~(k) = int_0^inf 6 (e^{-2v} - e^{-3v}) e^{-kv} dv = 6/((k+2)(k+3))
    spec = corpus.builtin("thermal_boson_demo")
    for k in range(1, 6):
        res = integrate_adaptive(lambda v: spec.jump(v) * np.exp(-k * v), 0.0, math.inf)
        assert res.value == pytest.approx(6.0 / ((k + 2) * (k + 3)), abs=1e-9)


@pytest.mark.parametrize("problem_id", ["normalized_rational", "rational_unnormalized"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
def test_mellin_identity_continuous_specs(problem_id, lam):
    # int_1^inf J(x) x^{-lam-1} dx = g~(lam)
    spec = corpus.builtin(problem_id)
    res = integrate_adaptive(lambda x: spec.jump(x) * x ** (-lam - 1.0), 1.0, math.inf)
    assert res.value == pytest.approx(spec.gtilde(complex(lam)).real, abs=1e-8)


def test_plancherel_identity_at_critical_line():
    # int |g~(-1/2 + i nu)|^2 d nu = 2 pi int_1^inf |J|^2 dx
    spec = corpus.builtin("normalized_rational")

    def lhs_integrand(nu):
        lam = -0.5 + 1j * np.asarray(nu)
        return np.abs(spec.gtilde(lam)) ** 2

    lhs = integrate_adaptive(lhs_integrand, -math.inf, math.inf, abs_tol=1e-9).value
    rhs = 2.0 * math.pi * integrate_adaptive(lambda x: spec.jump(x) ** 2, 1.0, math.inf).value
    assert lhs == pytest.approx(rhs, rel=1e-3)
    # closed form of both sides: 2.4 pi
    assert rhs == pytest.approx(2.4 * math.pi, rel=1e-8)


def test_density_identity():
    spec = corpus.builtin("normalized_rational")
    res = integrate_adaptive(lambda x: spec.jump(x) / x, 1.0, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_jump_norms_match_declared_constants():
    for pid in ("normalized_rational", "harmonic", "rational_unnormalized"):
        spec = corpus.builtin(pid)
        norm = integrate_adaptive(lambda x: spec.jump(x) ** 2, 1.0, math.inf).value
        assert norm == pytest.approx(spec.jump_norm_sq, rel=1e-9)
    spec = corpus.builtin("thermal_boson_demo")
    norm = integrate_adaptive(lambda v: np.exp(-v) * spec.jump(v) ** 2, 0.0, math.inf).value
    assert norm == pytest.approx(spec.jump_norm_sq, rel=1e-9)


GATE_POINTS = [
    0.5, 1.0, 2.5, 7.0, 0.5 + 1j, 0.75 - 2j, 1.5 + 0.25j, 3.0 + 4j, 10.0 - 10j, 0.5 + 100j, 40.0 + 1j, 1000.0 - 3j,
]  # fmt: skip
# Recorded from the hand-written closed forms: per problem, the sha256 of the
# lines "k,<coefficient_rule(k).hex()>,<exact_rule(k)>" for k = start_index..
# cli.MAX_N_COEFFS, jump_norm_sq.hex(), continuous, and g~ at GATE_POINTS.
_RATIONAL_GTILDE = [
    0.6857142857142857, 0.5, 0.24242424242424243, 0.06666666666666667,
    0.48405985686402087 - 0.3747560182173064j, 0.18135228654259797 + 0.3734779762461423j,
    0.37635298711440845 - 0.04798125732135884j, 0.039399624765478425 - 0.12382739212007506j,
    0.0051191419343043455 + 0.02285331220671583j, -0.0005983675618853475 - 3.593349552170234e-05j,
    0.0033167445065462064 - 0.00015619018451879644j, 5.969953223448275e-06 + 3.5730722220107495e-08j,
]  # fmt: skip
CLOSED_FORM_GATE = {
    "harmonic": (
        "0de766d340c7d450d403d9ec47a11a2deac86bef548b63c482afab24c2801582", "0x1.0000000000000p+0", False,
        [
            0.6666666666666666, 0.5, 0.2857142857142857, 0.125,
            0.46153846153846156 - 0.3076923076923077j, 0.24778761061946902 + 0.2831858407079646j,
            0.39603960396039606 - 0.039603960396039604j, 0.125 - 0.125j,
            0.0497737556561086 + 0.04524886877828054j, 0.0001499662575920418 - 0.00999775050613612j,
            0.02437574316290131 - 0.0005945303210463734j, 0.0009989920260276843 + 2.993982095987066e-06j,
        ],
    ),
    "normalized_rational": (
        "8e3f04479d9682b69b46965a0a8612b16748177d6dcda0651981c617323ae368", "0x1.3333333333333p+0", True,
        _RATIONAL_GTILDE,
    ),
    "rational_unnormalized": (
        "29fcf4b95fdfbded5ddfea6198b6de91c6dcd0d67c53716bf0e70cfc1eac3cc8", "0x1.1111111111111p-5", True,
        [
            0.11428571428571428, 0.08333333333333333, 0.04040404040404041, 0.011111111111111112,
            0.08067664281067013 - 0.062459336369551074j, 0.030225381090432994 + 0.062246329374357055j,
            0.0627254978524014 - 0.007996876220226474j, 0.006566604127579738 - 0.020637898686679174j,
            0.0008531903223840576 + 0.0038088853677859715j, -9.972792698089126e-05 - 5.9889159202837235e-06j,
            0.0005527907510910344 - 2.6031697419799404e-05j, 9.949922039080458e-07 + 5.955120370017916e-09j,
        ],
    ),
    "thermal_boson_demo": (
        "a5eefe84b8b05466e4f9e2d91da52537db42b1e4c6467abb2aa1986c762dfc4f", "0x1.5f15f15f15f16p-2", True,
        _RATIONAL_GTILDE,
    ),
}  # fmt: skip


@pytest.mark.parametrize("problem_id", corpus.BUILTIN_IDS)
def test_closed_forms_match_the_recorded_values(problem_id):
    digest, norm_hex, continuous, gtilde_values = CLOSED_FORM_GATE[problem_id]
    spec = corpus.builtin(problem_id)
    h = hashlib.sha256()
    for k in range(spec.start_index, cli.MAX_N_COEFFS + 1):
        h.update(f"{k},{spec.coefficient_rule(k).hex()},{spec.exact_rule(k)}\n".encode())
    assert h.hexdigest() == digest
    assert spec.jump_norm_sq.hex() == norm_hex
    assert spec.continuous is continuous
    for lam, want in zip(GATE_POINTS, gtilde_values):
        assert abs(spec.gtilde(complex(lam)) - want) <= 1e-15 * abs(want)
    # the interpolant also takes arrays, as the Plancherel quadratures need
    np.testing.assert_allclose(spec.gtilde(np.array(GATE_POINTS)), gtilde_values, rtol=1e-15, atol=0)


# ------------------------------------------------------------------ noise


def test_add_noise_zero_epsilon_is_identity():
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 10)
    assert corpus.add_noise(cs, 0.0, 7) is cs


def test_add_noise_bound_and_determinism():
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 30)
    a = corpus.add_noise(cs, 1e-6, 42)
    b = corpus.add_noise(cs, 1e-6, 42)
    assert np.array_equal(a.values, b.values)  # bit-identical
    assert np.max(np.abs(a.values - cs.values)) <= 1e-6
    c = corpus.add_noise(cs, 1e-6, 43)
    assert not np.array_equal(a.values, c.values)
    assert a.epsilon == 1e-6


def test_add_noise_adds_to_an_existing_epsilon(tmp_path):
    # A file that declares its noise bound, plus more noise on top: the
    # recorded bound is the sum, the worst case of the two.
    f = tmp_path / "c.csv"
    f.write_text("# epsilon=1e-05\n0,1.0\n1,0.25\n")
    noisy = corpus.add_noise(corpus.load_coefficients(f), 1e-4, 3)
    assert noisy.epsilon == 1e-05 + 1e-4
    corpus.save_coefficients(noisy, f)
    assert corpus.load_coefficients(f).epsilon == 1e-05 + 1e-4


def test_add_noise_rejects_a_range_beyond_the_doubles():
    # uniform(-eps, eps) needs 2 eps to be finite
    cs = corpus.coefficients(corpus.builtin("harmonic"), 5)
    with pytest.raises(InputError, match="epsilon"):
        corpus.add_noise(cs, 1e308, 0)
    assert np.all(np.isfinite(corpus.add_noise(cs, 8e307, 0).values))


def test_noise_width_check_is_shared_with_sweep_validation():
    # add_noise and a sweep's epsilons reject exactly the same values: the
    # largest accepted epsilon is half the largest double.
    top = sys.float_info.max / 2
    cs = corpus.coefficients(corpus.builtin("harmonic"), 3)
    sweep = cli.SweepConfig(base=cli.RunConfig(problem="harmonic"), ns=[3], repeats=1)
    for eps, ok in ((top, True), (math.nextafter(top, math.inf), False)):
        assert corpus._noise_width_finite(eps) is ok
        sweep.epsilons = [eps]
        if ok:
            corpus.add_noise(cs, eps, 0)
            sweep.validate()
        else:
            with pytest.raises(InputError, match="half the largest double"):
                corpus.add_noise(cs, eps, 0)
            with pytest.raises(ConfigError, match="epsilons: must be at most half the largest double"):
                sweep.validate()


def test_noise_free_tables_are_shared_and_read_only(fresh_tables):
    spec = corpus.builtin("normalized_rational")
    table = corpus.coefficients(spec, 12).values
    assert table is corpus.coefficients(spec, 12).values and not table.flags.writeable
    np.testing.assert_array_equal(table, [spec.coefficient_rule(k) for k in range(13)])
    # noise goes into a fresh array and leaves the table alone
    noisy = corpus.coefficients(spec, 12, 1e-3, 4)
    assert noisy.values.flags.writeable and not np.shares_memory(noisy.values, table)
    np.testing.assert_array_equal(table, [spec.coefficient_rule(k) for k in range(13)])
    assert corpus._clean_table.cache_info().currsize == 1


def test_noise_stream_order_is_ascending_k():
    # The draws are one vectorized pass in ascending k: a shorter set's
    # perturbations must be the prefix of a longer set's at the same seed.
    spec = corpus.builtin("normalized_rational")
    short = corpus.add_noise(corpus.coefficients(spec, 10), 1e-3, 5)
    long = corpus.add_noise(corpus.coefficients(spec, 20), 1e-3, 5)
    np.testing.assert_array_equal(short.values, long.values[:11])


def test_coefficients_reject_nan():
    with pytest.raises(InputError):
        corpus.CoefficientSet(values=np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        corpus.CoefficientSet(values=np.array([1.0, np.inf]))


# -------------------------------------------------------------------- I/O


def test_load_simple_file(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("0,1.0\n1,0.5\n")
    cs = corpus.load_coefficients(f)
    assert cs.N == 1
    np.testing.assert_array_equal(cs.values, [1.0, 0.5])
    assert cs.epsilon == 0.0


def test_load_with_epsilon_header_and_crlf(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("# epsilon=1e-05\r\n0,1.0\r\n1,0.25\r\n")
    cs = corpus.load_coefficients(f)
    assert cs.epsilon == 1e-5
    assert cs.N == 1


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("0,1.0\n0,2.0\n", 2),  # duplicate index
        ("0,1.0\n2,2.0\n", 2),  # gap
        ("0,abc\n", 1),  # non-numeric
        ("", 1),  # empty
        ("1,1.0\n", 1),  # must start at 0
        ("0,1.0\n1\n", 2),  # malformed
        ("# epsilon=nan\n0,1.0\n", 1),  # non-finite noise bound
        ("# epsilon=inf\n0,1.0\n", 1),
        ("# epsilon=-1e-3\n0,1.0\n", 1),
    ],
)
def test_load_parse_errors_carry_line_numbers(tmp_path, body, lineno):
    f = tmp_path / "bad.csv"
    f.write_text(body)
    with pytest.raises(ParseError) as info:
        corpus.load_coefficients(f)
    assert info.value.line == lineno


def test_save_load_round_trip(tmp_path):
    spec = corpus.builtin("normalized_rational")
    cs = corpus.add_noise(corpus.coefficients(spec, 25), 1e-7, 99)
    f = tmp_path / "c.csv"
    corpus.save_coefficients(cs, f)
    back = corpus.load_coefficients(f)
    np.testing.assert_array_equal(back.values, cs.values)  # exact round trip
    assert back.N == cs.N
    assert back.epsilon == cs.epsilon


def test_thermal_loader_enforces_start_index(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("1,0.5\n2,0.3\n")
    cs = corpus.load_thermal_coefficients(f)
    assert cs.start_index == 1 and cs.N == 2
    f2 = tmp_path / "t0.csv"
    f2.write_text("0,0.5\n1,0.3\n")
    with pytest.raises(ParseError):
        corpus.load_thermal_coefficients(f2)
