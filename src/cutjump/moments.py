"""Moment-sequence diagnostics.

Bernstein weights and the two Hausdorff-type checks (weight positivity;
boundedness of the L^p row statistic) that decide whether a coefficient
sequence behaves like the moments of a function on [0, 1].  One streaming
kernel yields the weight rows in order, keeping no difference table.  Rational
sequences run exactly, on integers over one common denominator, because the
weighted differences lose all significance in doubles past row about 40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "BernsteinRow",
    "HausdorffReport",
    "MomentSequence",
    "bernstein_weights",
    "check_f_sequence",
    "hausdorff_check",
]

DEFAULT_P_POWER = 2.0 + 1e-3  # "p = 2 + epsilon" hypothesis for power series
DEFAULT_P_THERMAL = 2.0  # p = 2 hypothesis for the trigonometric/thermal case


@dataclass(frozen=True)
class MomentSequence:
    """A sequence mu_0, mu_1, ... accessed through a deterministic generator.

    ``exact`` marks sequences whose generator returns ``Fraction`` values;
    their weights are then computed exactly.  ``length_available`` is None for
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


def _bernstein_rows(values: list) -> Iterator[list]:
    """Yield the weight rows 0..len(values)-1 of ``values``, keeping no table.

    Row n updates ``diffs[k]`` = Delta^{n-k} mu_k and ``binom[k]`` = C(n, k) in
    place from the right; each difference is the table's subtraction on the same operands.
    """
    diffs: list = []
    binom: list[int] = []
    for n, mu_n in enumerate(values):
        diffs.append(mu_n)
        binom.append(1)
        for k in reversed(range(n)):
            diffs[k] = diffs[k + 1] - diffs[k]
            if k:
                binom[k] += binom[k - 1]
        yield [(c * (-1 if (n - k) % 2 else 1)) * d for k, (c, d) in enumerate(zip(binom, diffs))]


def bernstein_weights(mu: MomentSequence, n: int) -> BernsteinRow:
    """Bernstein weight row of order n for the sequence mu.

    The last entry always equals mu_n itself (the zero-fold difference),
    and for the moments of a probability distribution the row sums to 1.
    """
    if n < 0:
        raise InputError("row order must be >= 0")
    for row in _bernstein_rows(mu.prefix(n)):
        pass
    return BernsteinRow(n, row)


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
    try:
        (n_max + 1) ** (p - 1.0)
    except OverflowError:
        msg = f"(n_max+1)^(p-1) overflows a double at n_max = {n_max}, p = {p:g}; choose a smaller p-exponent"
        raise InputError(f"p-exponent: {msg}") from None
    prefix = mu.prefix(n_max)
    # Exact sequences run on integers over one common denominator, and w / denom
    # rounds each weight once, as float(Fraction) does; 1.0 leaves a float as is.
    denom = math.lcm(*(v.denominator for v in prefix)) if mu.exact else 1.0
    values = [v.numerator * (denom // v.denominator) for v in prefix] if mu.exact else prefix
    first_negative = None
    min_weight = math.inf
    stats: list[float] = []
    for n, row in enumerate(_bernstein_rows(values)):
        row_f = [w / denom for w in row]
        tol = 0.0 if mu.exact else 1e-12 * max(max(abs(w) for w in row_f), 1.0)
        min_weight = min(min_weight, *row_f)
        if first_negative is None:
            signs = row if mu.exact else row_f
            first_negative = next(((n, k) for k, w in enumerate(signs) if w < -tol), None)
        try:
            stats.append((n + 1) ** (p - 1.0) * sum(abs(w) ** p for w in row_f))
        except OverflowError:
            raise InputError(
                f"row {n}: the L^p statistic lies outside the double range; rescale the input coefficients"
            ) from None
    c_const = max(stats) ** (1.0 / p)
    decay_ok = all(
        abs(float(mu_n)) <= c_const / (n + 1) ** ((p - 1.0) / p) * (1.0 + 1e-12)
        for n, mu_n in enumerate(prefix)
    )
    return HausdorffReport(
        n_max=n_max,
        p=p,
        positivity_ok=first_negative is None,
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
