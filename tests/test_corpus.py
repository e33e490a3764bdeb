import math

import numpy as np
import pytest

from cutjump import corpus
from cutjump.errors import DomainError, InputError, ParseError
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
    assert corpus.gtilde_eval(spec, 0.0) == pytest.approx(1.0)
    assert spec.jump(1.0) == pytest.approx(0.0)  # continuous at the cut end
    assert spec.continuous


def test_harmonic_is_discontinuous():
    spec = corpus.builtin("harmonic")
    assert spec.jump(1.0) == pytest.approx(1.0)
    assert not spec.continuous
    assert corpus.gtilde_eval(spec, 2.5) == pytest.approx(1.0 / 3.5)


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
        assert abs(spec.coefficient_rule(k) - corpus.gtilde_eval(spec, k)) <= 1e-12


def test_gtilde_domain_error():
    spec = corpus.builtin("normalized_rational")
    with pytest.raises(DomainError):
        corpus.gtilde_eval(spec, -1.0)
    thermal = corpus.builtin("thermal_boson_demo")
    with pytest.raises(DomainError):
        corpus.gtilde_eval(thermal, 0.0)


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
    assert res.value == pytest.approx(corpus.gtilde_eval(spec, lam).real, abs=1e-8)


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
    assert a.epsilon == 1e-6 and a.seed == 42


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


def test_noise_stream_order_is_ascending_k():
    # The draws are one vectorized pass in ascending k: a shorter set's
    # perturbations must be the prefix of a longer set's at the same seed.
    spec = corpus.builtin("normalized_rational")
    short = corpus.add_noise(corpus.coefficients(spec, 10), 1e-3, 5)
    long = corpus.add_noise(corpus.coefficients(spec, 20), 1e-3, 5)
    np.testing.assert_array_equal(short.values, long.values[:11])


def test_coefficients_reject_nan():
    with pytest.raises(InputError):
        corpus.CoefficientSet(values=np.array([1.0, np.nan]), N=1)
    with pytest.raises(InputError):
        corpus.CoefficientSet(values=np.array([1.0, np.inf]), N=1)
    with pytest.raises(InputError):
        corpus.CoefficientSet(values=np.array([1.0, 2.0]), N=5)


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
