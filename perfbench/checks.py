"""Output checks.  An op whose output fails one raises ``CheckFailed`` and
counts as failed.

Tolerances are recorded per problem.  The clean ones sit about 30% above
the worst value the seed program gives over N in {20, 60, 120}, so they
catch a real loss of accuracy.  Under noise the truncation heuristic now and
then overshoots the noise floor and says so (``confident`` false): the worst
of about 400 noisy cells had l2_rel 2.35 (epsilon 1e-3, m_t 19).  So noisy
runs are held only to a bound that catches a blow-up (truncation rules
without the divergence guard have reached l2_rel of 5e4) without failing an
honest run; ``l2_rel_p50`` tracks the finer drift.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Noise-free input, n_max = 200: largest accepted relative L2 error (weighted
# for the thermal problem).
CLEAN_L2_TOL = {
    "normalized_rational": 0.06,
    "harmonic": 0.2,
    "rational_unnormalized": 0.06,
    "thermal_boson_demo": 0.035,
}
# normalized_rational at N = 60 with uniform noise, any epsilon up to 1e-3.
NOISY_L2_MAX = 100.0
# Relative tolerance of the integral checks against the exact coefficients.
# The harmonic jump is discontinuous at x = 1, so its truncated expansion
# converges slowly and its moments are off by up to 12% at N = 20.
INTEGRAL_RTOL = {"normalized_rational": 0.01, "harmonic": 0.15, "rational_unnormalized": 0.01}
# Terms of the power series summed for the exact Cauchy transform at |z| = 1/2.
CAUCHY_TERMS = 200


class CheckFailed(Exception):
    """An op's output is wrong."""


def check_l2(l2_rel, tol: float, what: str) -> float:
    if l2_rel is None or not l2_rel <= tol:
        raise CheckFailed(f"{what}: l2_rel {l2_rel} is not within {tol}")
    return l2_rel


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""

    def reject(token):
        raise CheckFailed(f"JSON holds the non-finite token {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def check_close(got: float, want: float, rtol: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=rtol):
        raise CheckFailed(f"{what}: {got!r} is not within {rtol} of {want!r}")


def check_integrals(rule, rtol: float, mellin, cauchy: complex, density, z: float) -> None:
    """Compare the integral checks of a power-series reconstruction with the
    exact coefficients g_k = rule(k): the Mellin moment k gives g_k, the
    Cauchy transform gives sum g_k z^k, the density integral gives g_0."""
    for k, value in enumerate(mellin):
        check_close(value, rule(k), rtol, f"mellin k={k}")
    series = math.fsum(rule(k) * z**k for k in range(CAUCHY_TERMS))
    check_close(cauchy.real, series, rtol, "cauchy real part")
    if cauchy.imag != 0.0:
        raise CheckFailed(f"cauchy at real z has imaginary part {cauchy.imag!r}")
    check_close(density.integral_of_j_over_x, rule(0), rtol, "density integral")
    if density.min_value < -rtol * rule(0):
        raise CheckFailed(f"density minimum {density.min_value!r} is negative beyond ripple")


def sweep_rows(text: str, n_cells: int) -> list[dict]:
    """Rows of a sweep CSV, which must have one row per cell and no errors."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != n_cells:
        raise CheckFailed(f"sweep CSV has {len(rows)} rows, expected {n_cells}")
    for row in rows:
        if row.get("error") != "":
            raise CheckFailed(f"sweep cell failed: {row}")
    return rows


def noisy_l2(rows: list[dict]) -> list[float]:
    return [check_l2(float(r["l2_rel"]), NOISY_L2_MAX, f"sweep cell eps={r['epsilon']}") for r in rows]


class RepeatCheck:
    """Every op on one config must give the digest its first op gave."""

    def __init__(self):
        self.first: dict = {}

    def __call__(self, key, digest) -> None:
        if self.first.setdefault(key, digest) != digest:
            raise CheckFailed(f"{key}: output differs from the first op on this config")
