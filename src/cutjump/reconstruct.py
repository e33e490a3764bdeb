"""Jump-function reconstruction from power-series coefficients.

Pipeline: synthesize expansion coefficients c_n from the series data in
exact integer arithmetic, locate the plateau of the partial energies M_m,
truncate there, and resum the Laguerre-type basis on a sample grid.  The
thermal variant runs the same pipeline core (``_run_pipeline``) with its
own grid, resummation and error metric; the core returns the report, whose
shared fields and JSON form live on one base (``_Report``).  Independent
integral checks (Mellin, Cauchy, probability density) let callers validate
a reconstruction without knowing the truth.

Synthesis: c_n is sqrt(2) times an alternating sum over k of g_k q_n^(k)/k!,
with q_n^(k) the rotated Meixner-Pollaczek values at lambda = 1/2.  The sum
cancels far beyond double precision, so it is formed exactly: every double
is a dyadic rational and the q_n^(k) are integers, so the sums are integers
over one common denominator, and each c_n is rounded once.  The q_n^(k) are
never tabulated.  Their generating function, sum_n q_n^(k) t^n =
(1 - t)^k / (1 + t)^{k+1} (Koekoek, Lesky and Swarttouw 2010, sec. 9.7),
turns the whole sum over k into a polynomial in u = (1 - t)/(1 + t).  In
y = t/(1 - t) that polynomial is a Taylor shift of the weights (von zur
Gathen and Gerhard 1997), and Horner's scheme in y needs one prefix sum per
step: big-integer additions only (``_exact_sums``).  The scheme runs one
column at a time (``_sum_columns``): with each level shifted to start at its
own column, column n is the prefix sum of column n - 1, so a caller may stop
after any column.  One routine, ``_synthesis``, serves reports and sweep
cells.  A report reads n_max + 1 columns.  A sweep cell stops at the last
energy that ``detect_plateau`` reads, unless a bound on the sums leaves room
for a coefficient beyond the double range.  Each coefficient is rounded once,
at one multiplication: an integer f with sqrt(2) 2^p / D in [f, f + 1),
formed once per synthesis, brackets sqrt(2) S_n / D within 2^-66 relative,
and the exact square root decides the rare coefficient whose bracket
straddles a rounding boundary (Ziv 1991; ``_sqrt2_rounding``).

Sign convention: the expansion coefficients and basis functions each carry a
phase i^n; their product is real, equal to (-1)^n times the rotated real
sum.  That (-1)^n is folded into the stored c_n, so every reported
coefficient and sample is a plain float and the reconstruction is simply
sum_n c_n phi_n(x), with phi_n the rows of ``phi_matrix``.

Shared state: besides the read-only grids ``default_grid`` and
``thermal.default_v_grid``, each built once, one process-wide cache
(``_basis``), the package's only growing one, holds
read-only basis matrices, keyed by the builder and the shape and bytes
of the abscissa array.  Every report resums on the same fixed grid, and the
integral checks' quadrature nodes fall on one dyadic lattice in t = 1/x, so
most requests repeat an earlier array.  A request for fewer rows reads a row
prefix of the stored matrix: each row of the Laguerre recurrence depends
only on the rows before it, so the prefix holds the values a fresh build
would, and every result is bit-identical to an uncached run whatever ran
before it.  The public ``phi_matrix`` and ``thermal.psi_matrix`` stay
uncached.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, count, islice
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .corpus import CoefficientSet, JumpGroundTruth
from .errors import ConfigError, DomainError, InputError
from .specfun import integrate_adaptive, laguerre_scaled_seq

__all__ = [
    "ErrorReport",
    "PlateauPolicy",
    "PlateauResult",
    "ReconstructionReport",
    "SynthesisResult",
    "build_report",
    "cauchy_check",
    "default_grid",
    "density_check",
    "detect_plateau",
    "expansion_fn",
    "l2_error",
    "mellin_of_reconstruction",
    "partial_energies",
    "phi_matrix",
    "reconstruct_jump",
    "synthesize_coefficients",
]

DEFAULT_N_MAX = 200
# Fixed rules of the truncation-point search; ``detect_plateau`` says what
# each one does.
GROWTH_FLOOR = 1e-30
BAND_LO, BAND_HI = 0.04, 0.15
MIN_DECAY_EXPONENT = 2.0
DIVERGENCE_GROWTH = 0.5
ERROR_DOMAIN = (1.0, 50.0)  # the x-range of ``l2_error``


# --------------------------------------------------------------------------
# Coefficient synthesis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized expansion coefficients."""

    c: np.ndarray


def _weights(values: np.ndarray) -> tuple[list[int], int]:
    """Integer weights w_0..w_{K-1} and D with (-1)^k v_k / k! = w_k / D.

    Every double is a dyadic rational, so with 2^s the largest denominator
    among the v_k and K = len(values), D = (K-1)! 2^s clears every
    denominator, and w_k = (-1)^k ((K-1)!/k!) (v_k 2^s).
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    weights = [0] * len(ratios)
    fact = 1  # (K-1)! / k!, built from k = K-1 down
    for k in reversed(range(len(ratios))):
        num, den = ratios[k]
        w = fact * num * ((1 << shift) // den)
        weights[k] = -w if k % 2 else w
        fact *= max(k, 1)
    return weights, fact << shift


def _sum_columns(weights: list[int]) -> Iterator[int]:
    """S_0, S_1, ... of ``_exact_sums``, one column at a time.

    A Taylor shift (repeated prefix sums over the reversed weights) gives
    P(1 + 2y) = sum_j b_j y^j with b_j = 2^j sum_k C(k, j) w_k, j < K; its
    next pass gives the next b_j.  Horner's scheme in y = t/(1 - t) then
    runs from L_{K-1} = b_{K-1} / (1 - t) down to L_0, with L_j = b_j / (1 -
    t) + y L_{j+1}, and (-1)^n S_n is the t^n coefficient of L_0.  Shifted to
    start at its own column, K_j[n] = L_j[n - j] (0 for n < j), each level is
    the prefix sum of the one above with b_j added at column j: the division
    by 1 - t is the prefix sum, and the shift by t is the column offset.  So
    column n, the levels top-down, is the prefix sum of column n - 1 with
    b_n put on top (none once n >= K), and (-1)^n S_n is its last entry.  No
    step multiplies, and a caller may stop after any column.
    """
    shifted = weights[::-1]
    col: list[int] = []
    for n in count():
        if shifted:
            shifted = list(accumulate(shifted))
            col = list(accumulate(col, initial=shifted.pop() << n))
        else:
            col = list(accumulate(col))
        yield -col[-1] if n % 2 else col[-1]


def _exact_sums(values: np.ndarray, n_max: int) -> tuple[list[int], int]:
    """Integers S_0..S_{n_max} and D with sum_k (-1)^k v_k q_n^{(k)} / k! = S_n / D.

    With the integer weights w_k and D of ``_weights``, S_n = sum_k w_k
    q_n^{(k)}.  The generating function of the rotated values, sum_n
    q_n^{(k)} t^n = (1 - t)^k / (1 + t)^{k+1}, makes the S_n the Taylor
    coefficients of P(u) / (1 + t), with P(u) = sum_k w_k u^k and u = (1 -
    t)/(1 + t).  On the alternated coefficients (-1)^n S_n, t becomes -t
    and u becomes v = (1 + t)/(1 - t) = 1 + 2y, y = t/(1 - t), a polynomial
    in y that ``_sum_columns`` expands by Horner's scheme (each step is
    lower-triangular in t, so stopping at t^{n_max} is exact).
    """
    weights, d = _weights(values)
    return list(islice(_sum_columns(weights), n_max + 1)), d


def _sum_bound(weights: list[int], n_max: int) -> int:
    """sum_k |w_k| 2^k C(n_max + k, k), a bound on every |S_n|, n <= n_max.

    The series of (1 + t)^k / (1 - t)^{k+1} majorizes that of the rotated
    values, (1 - t)^k / (1 + t)^{k+1}, coefficientwise, and its t^n
    coefficient, sum_j C(k, j) C(n - j + k, k), is at most 2^k C(n + k, k),
    which does not decrease with n.
    """
    bound, binom = 0, 1  # binom = C(n_max + k, k)
    for k, w in enumerate(weights):
        bound += abs(w) * binom << k
        binom = binom * (n_max + k + 1) // (k + 1)
    return bound


def _sqrt_ratio(m: int, d: int) -> float:
    """sqrt(m) / d correctly rounded to a double, for integers m >= 0, d > 0.

    r = isqrt(m 4^p) = floor(sqrt(m) 2^p), with p chosen so that q = r // d
    has at least 64 bits; q is then floor(sqrt(m) 2^p / d) exactly.  A sticky
    bit appended below q records whether anything was cut off, which is all
    round-to-nearest needs, and Python's int / int division rounds correctly,
    subnormals included.  A result beyond the double range gives inf.
    """
    p = max(0, 66 + d.bit_length() - (m.bit_length() + 1) // 2)
    m_scaled = m << (2 * p)
    r = math.isqrt(m_scaled)
    q, rem = divmod(r, d)
    sticky = int(rem != 0 or r * r != m_scaled)
    try:
        return ((q << 1) | sticky) / (1 << (p + 1))
    except OverflowError:
        return math.inf


def _sqrt2_rounding(d: int) -> Callable[[int], float]:
    """s -> sqrt(2) s / d correctly rounded to a double, for integers s and
    d > 0.

    With p = bits(d) + 66 and f = isqrt(2 4^p) // d, the floor of a floor,
    sqrt(2) 2^p / d lies in [f, f + 1) and f >= 2^66, as d < 2^bits(d); the
    returned function carries f and p as attributes.  So sqrt(2) |s| / d
    lies in [|s| f, |s| f + |s|) / 2^p, a bracket at most 2^-66 wide
    relative to its ends, at one multiplication per s.  Python's int / int
    division rounds each end correctly, and rounding is monotone, so when
    both ends round to the same double that double is the answer (Ziv's
    rounding test); otherwise, rarely, the exact ``_sqrt_ratio`` decides, as
    it does for results beyond the double range.
    """
    p = d.bit_length() + 66
    f = math.isqrt(2 << 2 * p) // d
    scale = 1 << p

    def rounded(s: int) -> float:
        a = abs(s)
        lo = a * f
        try:
            x = lo / scale
            settled = x == (lo + a) / scale
        except OverflowError:  # an end lies beyond the double range
            settled = False
        if not settled:
            x = _sqrt_ratio(2 * a * a, d)
        return -x if s < 0 else x

    rounded.f, rounded.p = f, p
    return rounded


def _checked(values, n_max: int) -> np.ndarray:
    """The synthesis input as a float array; InputError if it or ``n_max``
    is invalid."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InputError("synthesis input must be a non-empty 1-D array")
    if not np.all(np.isfinite(values)):
        raise InputError("synthesis input must not contain NaN or Inf")
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    return values


def _in_range(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` itself; InputError naming the first entry outside the double range."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise InputError(f"{name}_{bad[0]} lies outside the double range; rescale the input coefficients")
    return a


def synthesize_coefficients(g: CoefficientSet | np.ndarray, n_max: int = DEFAULT_N_MAX) -> SynthesisResult:
    """Expansion coefficients c_0..c_{n_max} from series coefficients.

    c_n = (-1)^n sqrt(2) sum_{k=0}^{N} (-1)^k g_k q_n^{(k)} / k!, the real
    number such that the reconstruction is sum c_n phi_n(x) (see ``phi_matrix``).
    The sums S_n / D are exact (see ``_exact_sums``), and each coefficient,
    sqrt(2) S_n / D, is rounded to a double once (see ``_synthesis``).
    """
    return SynthesisResult(c=_synthesis(g.values if isinstance(g, CoefficientSet) else g, n_max))


def partial_energies(c: np.ndarray) -> np.ndarray:
    """Cumulative energies M_m = sum_{n<=m} c_n^2 (nondecreasing)."""
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):
        M = np.cumsum(c * c)
    return _in_range(M, "M")


# --------------------------------------------------------------------------
# Plateau detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlateauPolicy:
    """Parameters of the truncation-point search.

    Runs of relative energy growth below ``theta`` lasting at least
    ``w_min`` steps count as flat; ``detect_plateau`` truncates half a
    window inside the end of the longest one.  ``theta`` must stay below
    ``DIVERGENCE_GROWTH``, or a flat step would also count as divergence.
    """

    theta: float = 1e-3
    w_min: int = 5

    def __post_init__(self):
        if not 0.0 < self.theta < DIVERGENCE_GROWTH:
            raise ConfigError(f"theta: must be > 0 and < {DIVERGENCE_GROWTH}")
        if self.w_min < 2:
            raise ConfigError("w_min: must be >= 2")


@dataclass(frozen=True)
class PlateauResult:
    """Detected plateau band, truncation index, and confidence."""

    plateau: tuple[int, int]
    m_t: int
    confident: bool
    run: tuple[int, int] | None
    decay_exponent: float


def _flat_runs(growth: np.ndarray, theta: float) -> list[tuple[int, int]]:
    """Maximal runs [start, stop) of steps with ``growth <= theta``.

    A run starts where the mask, padded with False at both ends, turns on
    and stops where it turns off, so the edges alternate start, stop.
    """
    flat = np.concatenate(([False], growth <= theta, [False]))
    edges = np.flatnonzero(flat[1:] != flat[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _energy_decay_exponent(c_sq: np.ndarray, lo: int, hi: int) -> float:
    """Log-log slope of the |c_n|^2 envelope over [lo, hi].

    Bins of five indices with a max inside each bin, so isolated
    near-zero coefficients (the expansion oscillates through zero) do not
    drag the fit.  Returns the decay exponent p in c^2 ~ m^-p.

    The bins are ``np.array_split``'s (the first ``len % n_bins`` hold one
    extra index, none is empty), and each bin's midpoint (first + last) / 2
    is exactly the mean of its consecutive indices.
    """
    if hi - lo < 4:
        return 0.0
    seg = c_sq[lo : hi + 1]
    n_bins = max(3, len(seg) // 5)
    size, extra = divmod(len(seg), n_bins)
    bins = np.arange(n_bins)
    starts = bins * size + np.minimum(bins, extra)
    lasts = np.append(starts[1:], len(seg)) - 1
    tops = np.maximum.reduceat(seg, starts)
    keep = tops > 0.0
    if np.count_nonzero(keep) < 3:
        return 0.0
    mids = (2 * lo + starts[keep] + lasts[keep]) / 2
    slope = np.polyfit(np.log(mids), np.log(tops[keep]), 1)[0]
    return float(-slope)


def _band(M: np.ndarray, m_t: int) -> tuple[int, int]:
    level = float(M[m_t])
    lo_thr = (1.0 - BAND_LO) * level
    hi_thr = (1.0 + BAND_HI) * level
    a = int(np.searchsorted(M, lo_thr, side="left"))
    b = int(np.searchsorted(M, hi_thr, side="right")) - 1
    return a, min(max(b, m_t), len(M) - 1)


def _growth(M: np.ndarray) -> np.ndarray:
    """Relative energy growth (M_{m+1} - M_m) / max(M_m, GROWTH_FLOOR) of each step."""
    return np.diff(M) / np.maximum(M[:-1], GROWTH_FLOOR)


def _divergence_guard(growth: np.ndarray) -> int:
    """The first step after step 0 with growth >= DIVERGENCE_GROWTH, else
    ``growth.size``.

    Indices at or beyond it are off limits to the plateau search: once a
    single step multiplies the energy, any later "flat" stretch is a shelf
    on top of the blow-up, not a plateau of the converged energy.  Step 0
    grows from c_0^2 alone, so a jump there is not taken as the guard.
    """
    diverged = np.flatnonzero(growth[1:] >= DIVERGENCE_GROWTH)
    return int(diverged[0]) + 1 if diverged.size else growth.size


def detect_plateau(M: Sequence[float], policy: PlateauPolicy | None = None) -> PlateauResult:
    """Locate the plateau of the partial energies and pick a truncation index.

    The search anchors on the longest run of relative growth
    (M_{m+1}-M_m)/max(M_m, GROWTH_FLOOR) <= theta with length >= w_min (ties
    broken toward the later run) and truncates w_min//2 + 1 steps inside its
    end, where the expansion is most converged but not yet edge-contaminated.
    Runs starting at or after the divergence guard, the first step after
    step 0 with growth >= DIVERGENCE_GROWTH, do not count; a jump at step 0
    alone leaves the whole sequence open.  Without a qualifying run the
    flattest w_min-step window before the guard is used and the result is
    flagged unconfident.  The reported plateau is the
    band where M stays within (-BAND_LO, +BAND_HI) of the truncation level;
    on a plot of M against m that band is exactly the stretch that looks flat.

    Confidence additionally requires the energy increments over the run to
    decay at least like m^-MIN_DECAY_EXPONENT = m^-2; slower decay is the
    signature of a discontinuous jump function, whose truncated expansion
    cannot be trusted pointwise.

    With the guard at step g, the result depends only on M_0..M_{g+w_min}:
    no flat run crosses step g, so every run that counts ends by g; the
    band's upper threshold (1 + BAND_HI) M[m_t] lies below M[g+1] >=
    (1 + DIVERGENCE_GROWTH) M[g]; and the fallback's window means before g
    read M up to index g + w_min - 1.  A longer M, as from a deeper
    synthesis, gives the same result (``_synthesis`` relies on it).
    """
    if policy is None:
        policy = PlateauPolicy()
    M = np.asarray(M, dtype=float)
    if M.ndim != 1 or M.size == 0:
        raise InputError("partial energies must be a non-empty 1-D array")
    if M.size == 1:
        return PlateauResult((0, 0), 0, False, None, 0.0)
    if np.any(np.diff(M) < 0.0):
        raise InputError("partial energies must be nondecreasing")

    growth = _growth(M)
    guard = _divergence_guard(growth)
    qualifying = [
        r
        for r in _flat_runs(growth, policy.theta)
        if r[1] - r[0] >= policy.w_min and r[0] < guard
    ]
    c_sq = np.diff(M, prepend=0.0)

    if qualifying:
        a0, b0 = max(qualifying, key=lambda r: (r[1] - r[0], r[0]))
        m_t = max(a0, min(b0 - (policy.w_min + 1) // 2, M.size - 1))
        fit_hi = min(m_t, max(a0 + 2 * policy.w_min, (a0 + m_t) // 2))
        p_hat = _energy_decay_exponent(c_sq, a0, fit_hi)
        confident = p_hat >= MIN_DECAY_EXPONENT
        return PlateauResult(_band(M, m_t), m_t, confident, (a0, b0), p_hat)

    # No qualifying run: fall back to the flattest smoothed window before
    # the divergence guard.
    w = min(policy.w_min, growth.size)
    smoothed = np.convolve(growth, np.ones(w) / w, mode="valid")
    hi = max(1, min(smoothed.size, guard))
    seg = smoothed[:hi]
    m_t = int(seg.size - 1 - np.argmin(seg[::-1]))  # ties -> later
    p_hat = _energy_decay_exponent(c_sq, max(0, m_t - 2 * policy.w_min), m_t)
    return PlateauResult(_band(M, m_t), m_t, False, None, p_hat)


# A sweep cell stops synthesizing early only when every |S_n| / D up to
# n_max is below 2^STOP_BOUND_BITS (``_sum_bound``).  Then every c_n is below
# 2^(STOP_BOUND_BITS + 1) and every M_n, a sum of n + 1 such squares, stays
# finite for any n_max below 2^20 (the CLI allows 800), so no value past the
# stopping depth could have raised the full synthesis' range error.
STOP_BOUND_BITS = 500


def _synthesis(values, n_max: int, w_min: int | None = None) -> np.ndarray:
    """c_0..c_{n_max}, or given ``w_min`` the prefix c_0..c_{g + w_min} that
    ``detect_plateau`` reads, g being the divergence guard.

    Each c_n is (-1)^n sqrt(2) S_n / D, S_n from ``_sum_columns``, rounded
    once as it arrives (``_sqrt2_rounding``).  Given ``w_min``, the running
    energy and the guard's growth test take the IEEE operations of
    ``partial_energies`` and ``_growth`` in Python floats, and the synthesis
    stops at column g + w_min; no c_n depends on n_max, so the prefix is the
    full synthesis' own.  It runs to n_max without ``w_min``, or if a bound
    on the sums leaves room for a value outside the double range
    (``STOP_BOUND_BITS``) and so for the full synthesis' range error.
    InputError names the first c_n out of range.
    """
    values = _checked(values, n_max)
    weights, d = _weights(values)
    stop = w_min is not None and _sum_bound(weights, n_max).bit_length() - d.bit_length() < STOP_BOUND_BITS
    rounding = _sqrt2_rounding(d)
    rounded = []  # c_n up to the phase (-1)^n, which the energies do not see
    energy, guard = 0.0, n_max  # no guard yet: ``_divergence_guard``'s growth.size at full depth
    for n, s in enumerate(islice(_sum_columns(weights), n_max + 1)):
        x = rounding(s)
        rounded.append(x)
        if stop:
            last, energy = energy, energy + x * x
            if n >= 2 and guard == n_max and (energy - last) / max(last, GROWTH_FLOOR) >= DIVERGENCE_GROWTH:
                guard = n - 1
            if n == guard + w_min:
                break
    c = np.array(rounded)
    c[1::2] = -c[1::2]
    return _in_range(c, "c")


# --------------------------------------------------------------------------
# Basis evaluation and resummation
# --------------------------------------------------------------------------


def phi_matrix(n_max: int, xs) -> np.ndarray:
    """Basis magnitudes phi_n(x) = sqrt(2) L_n(2/x) e^{-1/x} / x, all n <= n_max.

    Shape (n_max + 1, len(xs)).  The i^n phase of the analytic basis is the
    one already folded into the synthesized coefficients.  The scaling runs
    in place: the same IEEE operations on each element as
    ``sqrt(2) * L / xs``, without a temporary matrix.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0):
        raise DomainError("basis arguments must satisfy x > 0")
    rows = laguerre_scaled_seq(n_max, 2.0 / xs)
    rows *= math.sqrt(2.0)
    rows /= xs
    return rows


# Basis matrices by (builder, shape and bytes of the abscissae), least
# recently used first; see ``_basis``.
BASIS_CACHE_BYTES = 16 * 2**20
_BASIS: OrderedDict[tuple, np.ndarray] = OrderedDict()
_BASIS_LOCK = threading.Lock()


def _basis(build: Callable, n: int, xs) -> np.ndarray:
    """Rows 0..n of ``build(n, xs)``, read-only, from the process-wide cache.

    A stored matrix with more rows serves its row prefix, a C-contiguous
    view of the shape and values of a fresh build, so ``head @ view`` is the
    same BLAS call on the same values.  One with too few rows is rebuilt at
    n and replaced; rows only grow.  The stored matrices keep within
    ``BASIS_CACHE_BYTES``, the least recently used going first; a larger
    one is returned without being stored.
    """
    xs = np.asarray(xs, dtype=float)
    key = (build, xs.shape, xs.tobytes())
    with _BASIS_LOCK:
        if key in _BASIS and _BASIS[key].shape[0] > n:
            _BASIS.move_to_end(key)
            return _BASIS[key][: n + 1]
        _BASIS.pop(key, None)  # dropped before the rebuild, not held beside it
        rows = build(n, xs)
        rows.flags.writeable = False
        if rows.nbytes <= BASIS_CACHE_BYTES:
            _BASIS[key] = rows
            while sum(a.nbytes for a in _BASIS.values()) > BASIS_CACHE_BYTES:
                _BASIS.popitem(last=False)
        return rows


@functools.cache
def default_grid() -> np.ndarray:
    """Default sample grid: 1500 geometric points on [1e-2, 50] plus 500
    linear points on [0.5, 3] where the jump's structure lives, sorted, with
    repeats dropped.  Built once per process; every call returns that same
    read-only array, so callers that need to write must copy it.

    The same array as ``np.unique`` gives (the grid has no NaN), but built
    by sort and an adjacent-difference mask: in numpy 2.4 ``np.unique``
    imports all of ``numpy.ma``, about 13 ms that every fresh process, and
    so every sweep worker, would pay for one grid.
    """
    xs = np.sort(np.concatenate([np.geomspace(1e-2, 50.0, 1500), np.linspace(0.5, 3.0, 500)]))
    grid = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    grid.setflags(write=False)
    return grid


def _head(c: np.ndarray, m_t: int) -> np.ndarray:
    """Coefficients 0..m_t as floats; InputError if ``m_t`` is out of range."""
    c = np.asarray(c, dtype=float)
    if not 0 <= m_t < c.size:
        raise InputError(f"m_t = {m_t} outside the available 0..{c.size - 1}")
    return c[: m_t + 1]


def reconstruct_jump(c: np.ndarray, m_t: int, xs) -> np.ndarray:
    """Truncated expansion sum_{n<=m_t} c_n phi_n(x) on the grid ``xs``."""
    return _head(c, m_t) @ _basis(phi_matrix, m_t, xs)


def expansion_fn(c: np.ndarray, m_t: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized callable x -> truncated expansion, for the integral checks."""
    head = _head(c, m_t)

    def j(x):
        return head @ _basis(phi_matrix, m_t, np.atleast_1d(x))

    return j


# --------------------------------------------------------------------------
# Error metrics and integral checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    l2_abs: float
    l2_rel: float | None
    domain: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "l2_abs": self.l2_abs,
            "l2_rel": self.l2_rel,
            "domain": [self.domain[0], self.domain[1]],
        }


def _trapezoid_l2(
    xs: np.ndarray,
    j_rec: np.ndarray,
    truth: Callable,
    domain: tuple[float, float],
    weight: Callable | None = None,
) -> ErrorReport:
    """Composite-trapezoid L^2 error, optionally weighted, over the samples in
    ``domain``."""
    xs = np.asarray(xs, dtype=float)
    j_rec = np.asarray(j_rec, dtype=float)
    lo, hi = domain
    mask = (xs >= lo) & (xs <= hi)
    if mask.sum() < 8:
        raise InputError(f"sample grid too sparse on [{lo:g}, {hi:g}]")
    x = xs[mask]
    w = 1.0 if weight is None else weight(x)
    jt = np.asarray(truth(x), dtype=float)
    err_sq = float(np.trapezoid(w * (j_rec[mask] - jt) ** 2, x))
    norm_sq = float(np.trapezoid(w * jt**2, x))
    l2_abs = math.sqrt(max(err_sq, 0.0))
    l2_rel = math.sqrt(err_sq / norm_sq) if norm_sq > 0.0 else None
    return ErrorReport(l2_abs=l2_abs, l2_rel=l2_rel, domain=(lo, hi))


def l2_error(xs: np.ndarray, j_rec: np.ndarray, truth: Callable) -> ErrorReport:
    """Composite-trapezoid L^2 error of sampled values against the truth.

    The rule integrates |J_rec - J_true|^2 over the sample abscissae inside
    ``ERROR_DOMAIN``; the grid must already resolve both curves there.  The
    relative form divides by the truth's norm on the same domain; a
    zero-norm truth reports the absolute error only.
    """
    return _trapezoid_l2(xs, j_rec, truth, ERROR_DOMAIN)


_CHECK_TOL = dict(abs_tol=1e-9, rel_tol=1e-9, max_intervals=4000)


def mellin_of_reconstruction(j: Callable, lam: float) -> float:
    """int_1^inf j(x) x^{-lambda-1} dx; at lambda = k this should return g_k."""
    if lam <= -0.5:
        raise DomainError("the transform needs lambda > -1/2")
    res = integrate_adaptive(lambda x: j(x) * x ** (-lam - 1.0), 1.0, math.inf, **_CHECK_TOL)
    return res.value


def cauchy_check(j: Callable, z: complex) -> complex:
    """int_1^inf j(x)/(x - z) dx for |z| < 1.

    For a faithful jump function this equals the power series sum g_k z^k,
    term by term through the Mellin identity.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("cauchy_check needs |z| < 1")

    def re_part(x):
        d = (x - z.real) ** 2 + z.imag**2
        return j(x) * (x - z.real) / d

    real = integrate_adaptive(re_part, 1.0, math.inf, **_CHECK_TOL).value
    if z.imag == 0.0:
        return complex(real, 0.0)

    def im_part(x):
        d = (x - z.real) ** 2 + z.imag**2
        return j(x) * z.imag / d

    imag = integrate_adaptive(im_part, 1.0, math.inf, **_CHECK_TOL).value
    return complex(real, imag)


@dataclass(frozen=True)
class DensityReport:
    integral_of_j_over_x: float
    min_value: float


def density_check(j: Callable) -> DensityReport:
    """Probability-density diagnostics of j: int_1^inf j(x)/x dx and min j
    over the default grid's points x >= 1.

    For a normalized problem the integral should be 1 and the minimum not
    appreciably negative (up to reconstruction ripple).
    """
    res = integrate_adaptive(lambda x: j(x) / x, 1.0, math.inf, **_CHECK_TOL)
    grid = default_grid()
    vals = j(grid[grid >= 1.0])
    return DensityReport(integral_of_j_over_x=res.value, min_value=float(np.min(vals)))


# --------------------------------------------------------------------------
# End-to-end report
# --------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class _Report:
    """The fields both report types share, and their JSON-ready form.

    Each variant adds its coefficients, its sample grid and its error
    metric, and names those three fields in ``_KEYS``; the names are the
    JSON keys too.  The fields are keyword-only, so a variant's own fields
    need no defaults.
    """

    _KEYS: ClassVar[tuple[str, str, str]]

    M: np.ndarray
    plateau: tuple[int, int]
    m_t: int
    confident: bool
    j_rec: np.ndarray
    j_true: np.ndarray | None = None
    source: str = ""
    decay_exponent: float = 0.0

    def to_dict(self) -> dict:
        """The JSON-ready form.

        Each sample row is a tuple of floats, not a list: a tuple of
        untracked objects leaves the garbage collector's tracking at its
        first pass, so the thousands of rows a report holds neither fill the
        young generation nor get promoted to trigger full collections in a
        long-running process.  ``json.dumps`` writes tuples as arrays, so the
        text is the same.
        """
        c_key, grid_key, errors_key = self._KEYS
        errors = getattr(self, errors_key)
        columns = [getattr(self, grid_key), self.j_rec]
        if self.j_true is not None:
            columns.append(self.j_true)
        return {
            "source": self.source,
            c_key: getattr(self, c_key).tolist(),
            "M": self.M.tolist(),
            "plateau": list(self.plateau),
            "m_t": self.m_t,
            "confident": self.confident,
            "decay_exponent": self.decay_exponent,
            "samples": list(zip(*(col.tolist() for col in columns))),
            errors_key: errors.to_dict() if errors is not None else None,
        }


@dataclass(frozen=True, kw_only=True)
class ReconstructionReport(_Report):
    """Everything one run produces, JSON-ready via ``to_dict``."""

    _KEYS = ("c", "xs", "errors")

    c: np.ndarray
    xs: np.ndarray
    errors: ErrorReport | None = None


def _run_pipeline(
    report: type[_Report],
    g: CoefficientSet,
    n_max: int,
    policy: PlateauPolicy | None,
    xs: np.ndarray,
    resum: Callable,
    truth: Callable | None,
    error: Callable,
    stop: bool = False,
) -> _Report:
    """The pipeline both variants share, returning a ``report`` of ``g``.

    Synthesis, energies, plateau and confidence, then resummation on ``xs``
    and, given a truth, its samples and ``error(xs, j_rec, truth)``.  With
    ``stop`` the synthesis stops where the plateau search stops reading
    (``_synthesis`` given ``w_min``), so ``c`` and ``M`` may end before
    n_max, and the truth is not sampled; every other field is as without it.
    """
    policy = policy or PlateauPolicy()
    c = _synthesis(g.values, n_max, policy.w_min if stop else None)
    M = partial_energies(c)
    det = detect_plateau(M, policy)
    j_rec = resum(c, det.m_t, xs)
    j_true = None
    errors = None
    if truth is not None:
        j_true = None if stop else truth(xs)
        errors = error(xs, j_rec, truth)
    return report(
        **dict(zip(report._KEYS, (c, xs, errors))),
        M=M,
        plateau=det.plateau,
        m_t=det.m_t,
        confident=det.confident and g.values.size >= 2,  # single-coefficient runs are degenerate
        j_rec=j_rec,
        j_true=j_true,
        source=g.source,
        decay_exponent=det.decay_exponent,
    )


def build_report(
    g: CoefficientSet,
    n_max: int = DEFAULT_N_MAX,
    policy: PlateauPolicy | None = None,
    truth: JumpGroundTruth | None = None,
) -> ReconstructionReport:
    """Run the full pipeline on a coefficient set, on ``default_grid()``."""
    return _run_pipeline(
        ReconstructionReport, g, n_max, policy, default_grid(), reconstruct_jump, truth, l2_error
    )


def _stopping_report(
    g: CoefficientSet, n_max: int, policy: PlateauPolicy, truth: JumpGroundTruth | None
) -> ReconstructionReport:
    """``build_report`` synthesizing only as deep as the plateau search reads:
    the plateau, truncation, confidence, samples and errors of the full run,
    with ``c`` and ``M`` cut at that depth and no truth samples."""
    return _run_pipeline(
        ReconstructionReport, g, n_max, policy, default_grid(), reconstruct_jump, truth, l2_error, stop=True
    )
