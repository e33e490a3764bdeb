"""Special functions and numerical primitives.

Log-gamma on the half-plane Re z >= 1/2 (Lanczos), the closed-form
Meixner-Pollaczek weight, the damped Laguerre and the real-argument
Meixner-Pollaczek polynomial sequences, and adaptive Gauss-Kronrod
quadrature.  Gamma is needed only on the critical line Re z = 1/2, where
the interpolant's expansion lives, so no reflection formula is kept.  The
rotated Meixner-Pollaczek values that turn series coefficients into
expansion coefficients never appear one by one: ``reconstruct`` sums them
exactly through their generating function.

The quadrature refines in batched passes, the idiom of QUADPACK's adaptive
Gauss-Kronrod as vectorised in ``scipy.integrate.quad_vec``: each pass
bisects every panel it picks and evaluates all the new nodes in one call of
the integrand.  An integrand such as a truncated expansion, whose cost is a
long recurrence more than its point count, is then called once per pass,
not once per panel.

All functions here are pure, and the module holds no shared state.  The
package's only growing cache is ``reconstruct``'s store of basis matrices
(rows of ``laguerre_scaled_seq``, scaled), keyed by builder and abscissa
bytes; it serves row prefixes of arrays that a fresh build would fill with
the same values, so it leaves every result bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "laguerre_scaled_seq",
    "ln_gamma_complex",
    "mp_real_seq",
    "mp_weight",
]

# Lanczos rational approximation, g = 7, 9 terms; relative error below
# 1e-14 on Re z >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364


def ln_gamma_complex(z: complex) -> complex:
    """Principal-branch log-gamma on the half-plane Re z >= 1/2 (Lanczos).

    ``exp(ln_gamma_complex(z))`` equals Gamma(z) to relative accuracy better
    than 1e-13 for |Im z| <= 100.  The package evaluates it on the critical
    line Re z = 1/2 only; the half-plane holds no pole.

    Raises
    ------
    DomainError
        If Re z < 1/2.
    """
    z = complex(z)
    if z.real < 0.5:
        raise DomainError(f"log-gamma needs Re z >= 1/2, got z = {z}")
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return complex(_LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(acc))


def mp_weight(nu: float) -> float:
    """Orthogonality weight of the Meixner-Pollaczek family at alpha = 1/2.

    w(nu) = (1/pi) |Gamma(1/2 + i nu)|^2 = 1/cosh(pi nu) (DLMF 5.4.4),
    strictly positive and even, evaluated as 2e/(1 + e^2) with
    e = exp(-pi |nu|): it underflows to 0 for large |nu| and never
    overflows.
    """
    e = math.exp(-math.pi * abs(float(nu)))
    return 2.0 * e / (1.0 + e * e)


def laguerre_scaled_seq(n_max: int, x) -> np.ndarray:
    """exp(-x/2) L_n(x) for n = 0 .. n_max, evaluated stably.

    The Laguerre three-term recurrence
    (n+1) L_{n+1} = (2n + 1 - x) L_n - n L_{n-1},  L_0 = 1,  L_1 = 1 - x,
    with the damping factor folded into its seed, so large ``x`` underflows
    gracefully to zero instead of overflowing the polynomial part.  ``x``
    may be a scalar or an array; the result has shape
    ``(n_max + 1,) + shape(x)``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = np.asarray(x, dtype=float)
    e = np.exp(-x / 2.0)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = e
    if n_max >= 1:
        out[1] = (1.0 - x) * e
    for n in range(1, n_max):
        out[n + 1] = ((2 * n + 1 - x) * out[n] - n * out[n - 1]) / (n + 1)
    return out


def mp_real_seq(n_max: int, nu) -> np.ndarray:
    """Meixner-Pollaczek polynomials P_0(nu) .. P_{n_max}(nu) at real argument.

    Recurrence (alpha = 1/2 family, orthonormal under ``mp_weight``):
    (n+1) P_{n+1}(y) = 2 y P_n(y) - n P_{n-1}(y),  P_0 = 1,  P_1(y) = 2 y.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nu = np.asarray(nu, dtype=float)
    out = np.empty((n_max + 1,) + nu.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * nu
    for n in range(1, n_max):
        out[n + 1] = (2.0 * nu * out[n] - n * out[n - 1]) / (n + 1)
    return out


# --------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# --------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_GK_NODES = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_K15_WEIGHTS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.0,
        0.129484966168869693270611432679082,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.417959183673469387755102040816327,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.129484966168869693270611432679082,
        0.0,
    ]
)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    ``error_estimate`` bounds the absolute error of ``value`` under the
    adaptive-subdivision contract (sum of per-panel Gauss/Kronrod
    discrepancies after refinement).  ``evaluations`` counts the abscissae
    passed to the integrand: 15 per panel ever evaluated.
    """

    value: float
    error_estimate: float
    evaluations: int


class _EvalCounter:
    __slots__ = ("fn", "count")

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += len(x)
        return np.asarray(self.fn(x), dtype=float)


def _gk_panels(g: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod estimates and Gauss/Kronrod discrepancies of the panels
    [lo_i, hi_i], with the nodes of every panel evaluated in one call of ``g``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y = g((mid[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(-1, _GK_NODES.size)
    k15 = half * (y @ _K15_WEIGHTS)
    g7 = half * (y @ _G7_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum; a sum that overflows or meets inf - inf falls
    back to numpy's, so it ends as inf or nan rather than raising."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return float(np.sum(values))


def _transform_semi_infinite(f: Callable, a: float):
    """Map [a, +inf) onto t in (0, 1].

    a > 0 uses x = a/t (so the tail becomes the smooth limit t -> 0);
    a <= 0 uses x = a - ln t.  Both are the fixed, documented substitutions
    every semi-infinite oracle integral goes through.
    """
    if a > 0.0:

        def g(t):
            x = a / t
            return f(x) * (a / (t * t))

    else:

        def g(t):
            x = a - np.log(t)
            return f(x) / t

    return g


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_intervals: int = 2000,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod (7, 15) integration of ``f`` over (a, b).

    ``f`` must accept a 1-D numpy array of abscissae and return the
    integrand values elementwise.  ``b`` may be ``inf`` and ``a`` may be
    ``-inf``; semi-infinite ranges are reduced to (0, 1] by x = a/t (for
    a > 0) or x = a - ln t, and a doubly-infinite range is split at 0.

    Each refinement pass sums the panels' values and error estimates once
    (``math.fsum``) and stops if the error is at most
    tol = max(abs_tol, rel_tol * |value|).  Otherwise it sorts the panels
    by error, keeps the best ones while their summed error stays within
    tol/2, and bisects the rest, the worst first and never more than the
    ``max_intervals - panels`` that the cap leaves room for.  The 15
    Gauss-Kronrod nodes of every new half-panel go to ``f`` in one 1-D
    array, so ``f`` is called once per pass with a multiple of 15 points,
    and at most 2 * max_intervals - 1 panels are ever evaluated.  Batching
    assumes ``f`` is elementwise: its value at a point must not depend on
    the other points of the array.

    Raises
    ------
    ConvergenceError
        If ``max_intervals`` panels are reached first.  The exception
        carries the best estimate and its error bound.
    """
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise ConfigError("abs_tol/rel_tol: tolerances must be positive")
    if math.isinf(a) and math.isinf(b):
        left = integrate_adaptive(
            lambda t: f(-t), 0.0, math.inf, abs_tol / 2, rel_tol, max_intervals // 2
        )
        right = integrate_adaptive(f, 0.0, math.inf, abs_tol / 2, rel_tol, max_intervals // 2)
        return QuadratureResult(
            left.value + right.value,
            left.error_estimate + right.error_estimate,
            left.evaluations + right.evaluations,
        )
    if math.isinf(a):
        flipped = integrate_adaptive(lambda t: f(-t), -b, math.inf, abs_tol, rel_tol, max_intervals)
        return flipped

    counter = _EvalCounter(f)
    if math.isinf(b):
        g = _transform_semi_infinite(counter, a)
        lo, hi = 0.0, 1.0
    else:
        g = counter
        lo, hi = float(a), float(b)
    if hi <= lo:
        if hi == lo:
            return QuadratureResult(0.0, 0.0, 0)
        raise DomainError(f"empty integration range [{a}, {b}]")

    lo_p, hi_p = np.array([lo]), np.array([hi])
    val, err = _gk_panels(g, lo_p, hi_p)
    while True:
        total, total_err = _fsum(val), _fsum(err)
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, counter.count)
        room = max_intervals - val.size
        if room <= 0:
            raise ConvergenceError(
                f"quadrature did not converge within {max_intervals} panels "
                f"(error estimate {total_err:.3e})",
                total,
                total_err,
                counter.count,
            )
        # Keep the panels of least error while their summed error stays
        # within tol/2; bisect the rest, at most ``room`` of the worst.
        order = np.argsort(err, kind="stable")
        n_keep = int(np.searchsorted(np.cumsum(err[order]), 0.5 * tol, side="right"))
        keep, split = np.split(order, [max(n_keep, order.size - room)])
        mid = 0.5 * (lo_p[split] + hi_p[split])
        new_lo = np.concatenate([lo_p[split], mid])
        new_hi = np.concatenate([mid, hi_p[split]])
        new_val, new_err = _gk_panels(g, new_lo, new_hi)
        lo_p = np.concatenate([lo_p[keep], new_lo])
        hi_p = np.concatenate([hi_p[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
