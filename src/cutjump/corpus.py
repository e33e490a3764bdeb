"""Built-in test problems, noise injection, and coefficient file I/O.

Each built-in problem is defined by its interpolant
g~(lambda) = scale / prod_i (lambda + a_i) and by the exact jump function
the reconstruction should recover; only these two are written by hand.  The
coefficients, their exact rationals, continuity and the norm of the jump
are all derived from the interpolant.  The test suite re-derives
the jumps and norms by quadrature so a transcription slip cannot survive
unnoticed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InputError, ParseError

__all__ = [
    "BUILTIN_IDS",
    "CoefficientSet",
    "JumpGroundTruth",
    "ProblemSpec",
    "add_noise",
    "builtin",
    "coefficients",
    "load_coefficients",
    "load_thermal_coefficients",
    "save_coefficients",
]


@dataclass(frozen=True)
class JumpGroundTruth:
    """Closed-form jump function with its support.

    The support is [1, inf) in x for power-series problems and [0, inf) in
    the logarithmic variable v for thermal ones.  Evaluation returns 0
    outside the support.
    """

    formula: Callable[[np.ndarray], np.ndarray]
    support_lo: float

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = x >= self.support_lo
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = self.formula(x[inside])
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """A test problem with interpolant g~(lambda) = scale / prod_i (lambda + a_i).

    The poles a_i are distinct integers.  ``start_index`` is 0 for
    power-series problems and 1 for thermal ones (whose coefficient sequence
    has no k = 0 entry).  g~ is the Mellin transform of the jump on [1, inf)
    for power problems and its Laplace transform on [0, inf) for thermal
    ones, so the jump is sum_i r_i x^{-a_i} (or e^{-a_i v}) with r_i the
    residues of g~; ``jump`` is that sum written out by hand.
    """

    id: str
    scale: int
    poles: tuple[int, ...]
    start_index: int
    jump: JumpGroundTruth

    def gtilde(self, lam):
        """g~ at a complex point or at each entry of an array."""
        return self.scale / math.prod(lam + a for a in self.poles)

    def coefficient_rule(self, k: int) -> float:
        """g_k = g~(k) as a double, correctly rounded since int / int is."""
        return self.gtilde(k)

    def exact_rule(self, k: int) -> Fraction:
        """g_k as an exact rational."""
        return Fraction(self.scale, math.prod(k + a for a in self.poles))

    @property
    def continuous(self) -> bool:
        """Whether the jump vanishes at the end of the cut, which holds
        exactly when g~ decays faster than 1/lambda."""
        return len(self.poles) >= 2

    @property
    def jump_norm_sq(self) -> float:
        """The squared reconstruction-space norm of the jump: L^2(1, inf) for
        power problems, e^{-v}-weighted L^2(0, inf) for thermal ones.  By
        Parseval it is the limit of the partial energies M_m."""
        residues = [
            Fraction(self.scale, math.prod(b - a for b in self.poles if b != a)) for a in self.poles
        ]
        shift = 2 * self.start_index - 1
        return float(
            sum(
                ri * rj / (ai + aj + shift)
                for ri, ai in zip(residues, self.poles)
                for rj, aj in zip(residues, self.poles)
            )
        )


_BUILTINS = {
    spec.id: spec
    for spec in (
        ProblemSpec(
            id="normalized_rational",
            scale=6,
            poles=(2, 3),
            start_index=0,
            jump=JumpGroundTruth(formula=lambda x: 6.0 * (x**-2.0 - x**-3.0), support_lo=1.0),
        ),
        ProblemSpec(
            id="harmonic",
            scale=1,
            poles=(1,),
            start_index=0,
            jump=JumpGroundTruth(formula=lambda x: 1.0 / x, support_lo=1.0),
        ),
        ProblemSpec(
            id="rational_unnormalized",
            scale=1,
            poles=(2, 3),
            start_index=0,
            jump=JumpGroundTruth(formula=lambda x: x**-2.0 - x**-3.0, support_lo=1.0),
        ),
        ProblemSpec(
            id="thermal_boson_demo",
            scale=6,
            poles=(2, 3),
            start_index=1,
            jump=JumpGroundTruth(
                formula=lambda v: 6.0 * (np.exp(-2.0 * v) - np.exp(-3.0 * v)), support_lo=0.0
            ),
        ),
    )
}
BUILTIN_IDS = tuple(sorted(_BUILTINS))


def builtin(problem_id: str) -> ProblemSpec:
    """Return the built-in problem with the given id.

    Known ids: normalized_rational, harmonic, rational_unnormalized,
    thermal_boson_demo.
    """
    try:
        return _BUILTINS[problem_id]
    except KeyError:
        raise InputError(
            f"unknown problem id {problem_id!r}; known ids: {', '.join(BUILTIN_IDS)}"
        ) from None


@dataclass(frozen=True)
class CoefficientSet:
    """A finite, possibly noisy coefficient prefix.

    ``values[j]`` is g_{start_index + j}; power-series data starts at index
    0, thermal data at index 1, and the last index ``N`` follows from the
    length.  ``epsilon`` bounds |g_k - clean_k| when the set was generated
    with noise.  ``exact_rule`` is carried along for sets derived from a
    built-in with epsilon = 0 so exact-rational diagnostics stay available.
    """

    values: np.ndarray
    epsilon: float = 0.0
    source: str = ""
    start_index: int = 0
    exact_rule: Callable[[int], Fraction] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("coefficient sets must be non-empty 1-D arrays")
        if not np.all(np.isfinite(vals)):
            raise InputError("coefficient sets must not contain NaN or Inf")
        object.__setattr__(self, "values", vals)

    @property
    def N(self) -> int:
        """The index of the last coefficient."""
        return self.start_index + len(self.values) - 1


def coefficients(
    spec: ProblemSpec, N: int, epsilon: float = 0.0, seed: int | None = None
) -> CoefficientSet:
    """Generate g_{start}..g_N from a problem spec, optionally with noise."""
    if N < spec.start_index:
        raise InputError(f"N must be >= {spec.start_index} for {spec.id}")
    clean = np.array([spec.coefficient_rule(k) for k in range(spec.start_index, N + 1)])
    cs = CoefficientSet(
        values=clean,
        epsilon=0.0,
        source=spec.id,
        start_index=spec.start_index,
        exact_rule=spec.exact_rule,
    )
    if epsilon > 0.0:
        cs = add_noise(cs, epsilon, seed if seed is not None else 0)
    return cs


def add_noise(clean: CoefficientSet, epsilon: float, seed: int) -> CoefficientSet:
    """Perturb each coefficient by an independent uniform draw on [-eps, eps].

    The result's ``epsilon`` is ``clean.epsilon + epsilon``, the worst-case
    bound on the total noise of a set that was already noisy.  The
    generator is PCG64 with the given 64-bit seed and one vectorized draw in
    ascending k, so identical seeds give bit-identical output on every
    platform.
    """
    if epsilon < 0.0:
        raise InputError("epsilon must be >= 0")
    if not math.isfinite(2.0 * epsilon):  # the width of the draw's range
        raise InputError(f"epsilon must be at most half the largest double, got {epsilon!r}")
    if epsilon == 0.0:
        return clean
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.uniform(-epsilon, epsilon, clean.values.size)
    return CoefficientSet(
        values=clean.values + noise,
        epsilon=clean.epsilon + epsilon,
        source=clean.source,
        start_index=clean.start_index,
        exact_rule=None,
    )


# --------------------------------------------------------------------------
# Coefficient CSV files: lines "k,value", ascending contiguous k, optional
# first line "# epsilon=<float>".  UTF-8, LF or CRLF.
# --------------------------------------------------------------------------


def _parse_coefficient_lines(text: str) -> tuple[list[tuple[int, float]], float]:
    eps = 0.0
    pairs: list[tuple[int, float]] = []
    lines = text.splitlines()
    start_line = 1
    if lines and lines[0].lstrip().startswith("#"):
        meta = lines[0].lstrip()[1:].strip()
        if meta.startswith("epsilon="):
            try:
                eps = float(meta.split("=", 1)[1])
            except ValueError:
                raise ParseError(f"bad epsilon value in {meta!r}", 1) from None
            if not math.isfinite(eps):
                raise ParseError(f"epsilon must be finite, got {meta!r}", 1)
            if eps < 0.0:
                raise ParseError("epsilon must be >= 0", 1)
        else:
            raise ParseError(f"unrecognized metadata line {lines[0]!r}", 1)
        lines = lines[1:]
        start_line = 2
    for offset, raw in enumerate(lines):
        lineno = start_line + offset
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'k,value', got {raw!r}", lineno)
        try:
            k = int(parts[0])
        except ValueError:
            raise ParseError(f"non-integer index {parts[0]!r}", lineno) from None
        try:
            v = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric value {parts[1]!r}", lineno) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {parts[1]!r}", lineno)
        if pairs and k != pairs[-1][0] + 1:
            if k == pairs[-1][0]:
                raise ParseError(f"duplicate index {k}", lineno)
            raise ParseError(f"index gap: {pairs[-1][0]} followed by {k}", lineno)
        pairs.append((k, v))
    if not pairs:
        raise ParseError("no coefficient lines found", start_line)
    return pairs, eps


def _load(path, expected_start: int) -> CoefficientSet:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:  # numbered as the parser numbers lines
        read = exc.object  # the bytes after any byte-order mark
        line = len((read[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text (byte 0x{read[exc.start]:02x})", line) from None
    pairs, eps = _parse_coefficient_lines(text)
    if pairs[0][0] != expected_start:
        raise ParseError(
            f"indices must start at {expected_start}, found {pairs[0][0]}",
            2 if text.lstrip().startswith("#") else 1,
        )
    values = np.array([v for _, v in pairs])
    return CoefficientSet(
        values=values,
        epsilon=eps,
        source=str(path),
        start_index=expected_start,
    )


def load_coefficients(path) -> CoefficientSet:
    """Load a power-series coefficient file (contiguous indices from 0)."""
    return _load(path, expected_start=0)


def load_thermal_coefficients(path) -> CoefficientSet:
    """Load a thermal coefficient file (contiguous indices from 1)."""
    return _load(path, expected_start=1)


def save_coefficients(cs: CoefficientSet, path) -> None:
    """Write a coefficient set in the CSV contract; round-trips exactly."""
    lines = []
    if cs.epsilon:
        lines.append(f"# epsilon={cs.epsilon!r}")
    for j, v in enumerate(cs.values):
        lines.append(f"{cs.start_index + j},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
