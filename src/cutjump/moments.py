"""Moment-sequence diagnostics.

Finite-difference tables, Bernstein weights, and the two Hausdorff-type
checks (weight positivity; boundedness of the L^p row statistic) that decide
whether a coefficient sequence behaves like the moments of a function on
[0, 1].  Rational sequences are handled exactly with ``fractions.Fraction``;
the binomially weighted differences lose all significance in doubles once
the row index grows past about 40, so the exact path is authoritative
whenever it is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "BernsteinRow",
    "HausdorffReport",
    "MomentSequence",
    "bernstein_weights",
    "check_f_sequence",
    "difference_table",
    "hausdorff_check",
]

DEFAULT_P_POWER = 2.0 + 1e-3  # "p = 2 + epsilon" hypothesis for power series
DEFAULT_P_THERMAL = 2.0  # p = 2 hypothesis for the trigonometric/thermal case


@dataclass(frozen=True)
class MomentSequence:
    """A sequence mu_0, mu_1, ... accessed through a deterministic generator.

    ``exact`` marks sequences whose generator returns ``Fraction`` values;
    all downstream tables then stay exact.  ``length_available`` is None for
    closed-form rules and a count for stored finite prefixes.
    """

    generator: Callable[[int], object]
    exact: bool = False
    length_available: int | None = None

    @classmethod
    def from_values(cls, values: Sequence, exact: bool = False) -> "MomentSequence":
        vals = [Fraction(v) if exact else float(v) for v in values]
        return cls(lambda k: vals[k], exact=exact, length_available=len(vals))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], exact: bool = False) -> "MomentSequence":
        return cls(fn, exact=exact, length_available=None)

    def __call__(self, k: int):
        if k < 0:
            raise InputError(f"moment index {k} is negative")
        if self.length_available is not None and k >= self.length_available:
            raise InputError(
                f"moment index {k} exceeds the {self.length_available} available values"
            )
        return self.generator(k)

    def prefix(self, n: int) -> list:
        return [self(k) for k in range(n + 1)]


def difference_table(mu: MomentSequence, n: int) -> list[list]:
    """Triangular forward-difference table.

    ``table[r][k]`` holds the r-fold difference of mu at k, for r + k <= n.
    Row 0 is the sequence itself; each next row is first differences of the
    previous one.  Exact if the sequence is exact.
    """
    if n < 0:
        raise InputError("table order must be >= 0")
    row = mu.prefix(n)
    table = [row]
    for _ in range(n):
        row = [row[k + 1] - row[k] for k in range(len(row) - 1)]
        table.append(row)
    return table


@dataclass(frozen=True)
class BernsteinRow:
    """Row n of Bernstein weights: w_k = C(n, k) (-1)^{n-k} Delta^{n-k} mu_k."""

    n: int
    weights: list

    def __post_init__(self):
        if len(self.weights) != self.n + 1:
            raise InputError(f"row {self.n} must have {self.n + 1} weights")

    def sum(self):
        return sum(self.weights)


def _weights_from_table(table: list[list], n: int) -> list:
    return [
        math.comb(n, k) * (-1 if (n - k) % 2 else 1) * table[n - k][k] for k in range(n + 1)
    ]


def bernstein_weights(mu: MomentSequence, n: int) -> BernsteinRow:
    """Bernstein weight row of order n for the sequence mu.

    The last entry always equals mu_n itself (the zero-fold difference),
    and for the moments of a probability distribution the row sums to 1.
    """
    table = difference_table(mu, n)
    return BernsteinRow(n, _weights_from_table(table, n))


@dataclass(frozen=True)
class HausdorffReport:
    """Outcome of the positivity and L^p-statistic scan up to row n_max.

    ``lp_statistic[n]`` is (n+1)^(p-1) * sum_k |w_k|^p.  Boundedness of that
    statistic over all n is not decidable from a finite prefix, so only the
    per-row values and a coarse trend label are reported.  ``decay_bound_ok``
    checks |mu_n| <= C / (n+1)^((p-1)/p) with C taken from the largest row
    statistic.
    """

    n_max: int
    p: float
    positivity_ok: bool
    min_weight: float
    lp_statistic: list[float] = field(repr=False)
    lp_trend: str = "flat"
    decay_bound_ok: bool = True
    first_negative: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "p": self.p,
            "positivity_ok": self.positivity_ok,
            "min_weight": self.min_weight,
            "lp_statistic": [float(s) for s in self.lp_statistic],
            "lp_trend": self.lp_trend,
            "decay_bound_ok": self.decay_bound_ok,
            "first_negative": list(self.first_negative) if self.first_negative else None,
        }


def _trend(stats: list[float]) -> str:
    """Log-log slope of the statistic over the late rows.

    A sequence violating the L^p hypothesis grows like a power of n
    (slope near p - 1); a satisfied hypothesis converges to a constant
    (slope near 0), possibly from below.
    """
    if len(stats) < 8:
        return "flat"
    half = len(stats) // 2
    rows = np.arange(half, len(stats), dtype=float) + 1.0
    vals = np.asarray(stats[half:], dtype=float)
    if np.any(vals <= 0.0):
        return "flat"
    slope = float(np.polyfit(np.log(rows), np.log(vals), 1)[0])
    if slope > 0.2:
        return "increasing"
    if slope < -0.2:
        return "decreasing"
    return "flat"


def hausdorff_check(mu: MomentSequence, n_max: int, p: float = DEFAULT_P_POWER) -> HausdorffReport:
    """Scan Bernstein-weight rows 0..n_max for positivity and the L^p statistic.

    Positivity of every row characterizes moment sequences of probability
    distributions on [0, 1]; a bounded row statistic places the representing
    density in L^p(0, 1).  In floating mode, weights below a relative
    roundoff allowance are not counted as sign violations.
    """
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    if p <= 1.0:
        raise InputError("p must exceed 1")
    table = difference_table(mu, n_max)
    positivity_ok = True
    first_negative = None
    min_weight = math.inf
    stats: list[float] = []
    for n in range(n_max + 1):
        row = _weights_from_table(table, n)
        row_f = [float(w) for w in row]
        scale = max((abs(w) for w in row_f), default=0.0)
        tol = 0.0 if mu.exact else 1e-12 * max(scale, 1.0)
        for k, (w, wf) in enumerate(zip(row, row_f)):
            min_weight = min(min_weight, wf)
            negative = (w < 0) if mu.exact else (wf < -tol)
            if negative and positivity_ok:
                positivity_ok = False
                first_negative = (n, k)
        try:
            stats.append((n + 1) ** (p - 1.0) * sum(abs(w) ** p for w in row_f))
        except OverflowError:
            raise InputError(
                f"row {n}: the L^p statistic lies outside the double range; rescale the input coefficients"
            ) from None
    c_const = max(stats) ** (1.0 / p)
    decay_ok = all(
        abs(float(mu_n)) <= c_const / (n + 1) ** ((p - 1.0) / p) * (1.0 + 1e-12)
        for n, mu_n in enumerate(table[0])
    )
    return HausdorffReport(
        n_max=n_max,
        p=p,
        positivity_ok=positivity_ok,
        min_weight=min_weight,
        lp_statistic=stats,
        lp_trend=_trend(stats),
        decay_bound_ok=decay_ok,
        first_negative=first_negative,
    )


_MULTIPLIERS = {"none": lambda k: 1, "k_plus_1": lambda k: k + 1, "k": lambda k: k}


def check_f_sequence(cs, mode: str, n_max: int | None = None, p: float | None = None) -> HausdorffReport:
    """Hausdorff check of g itself or of f_k = (k+1) g_k or f_k = k g_k.

    ``mode`` selects the multiplier: "none" (1) checks g; "k_plus_1" is the
    hypothesis under which a power series extends across its cut; "k" is the
    trigonometric/thermal variant (checked at p = 2 by default).  ``cs`` is a
    CoefficientSet.  A noise-free built-in carries its exact rational rule and
    is scanned exactly up to row ``n_max`` (default N); float data (noisy, or
    read from a file) stops at row min(n_max, N).  Sequences indexed from 1
    (the thermal convention) are enlarged with f_0 = 0, which leaves the "k"
    and "k_plus_1" checks unchanged; "none" needs data from k = 0.
    """
    if mode not in _MULTIPLIERS:
        raise InputError(f"unknown f-sequence mode {mode!r}")
    start = cs.start_index
    if mode == "none" and start != 0:
        raise InputError(f"f-mode: none checks g from k = 0, but these coefficients start at k = {start}")
    mult = _MULTIPLIERS[mode]
    if p is None:
        p = DEFAULT_P_THERMAL if mode == "k" else DEFAULT_P_POWER
    if n_max is None:
        n_max = cs.N
    rule = cs.exact_rule
    if rule is not None:
        seq = MomentSequence.from_function(
            lambda k: mult(k) * Fraction(rule(k)) if k >= start else Fraction(0), exact=True
        )
    else:
        seq = MomentSequence.from_values([0.0] * start + [mult(start + j) * v for j, v in enumerate(cs.values)])
        n_max = min(n_max, cs.N)
    return hausdorff_check(seq, n_max, p)
