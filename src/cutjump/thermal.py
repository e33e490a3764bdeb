"""Thermal (imaginary-time to real-time) reconstruction, boson sector.

The input is the positive-frequency half of a boson Matsubara-type Fourier
coefficient sequence, indexed from k = 1.  The pipeline is the power-series
one (``reconstruct._run_pipeline``: synthesis, energies, plateau
truncation, resummation, error) run on the shifted sequence h_k = g_{k+1};
only the grid, the resummation and the error metric differ, and the report
holds the coefficients, grid and error as ``frak_c``, ``vs`` and
``weighted_errors``.  The basis
lives in the logarithmic variable v = ln x, convergence holds in L^2 with
weight e^{-v}, and the period is fixed at 2*pi by the standard rescaling of
the imaginary-time variable, so a problem carries no period field (general
periods are a relabeling left to callers).

The negative-frequency branch is the mirror image v -> -v of this one, so
it needs no pipeline of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .corpus import CoefficientSet, JumpGroundTruth, ProblemSpec, coefficients
from .errors import InputError
from .reconstruct import (
    DEFAULT_N_MAX,
    ErrorReport,
    PlateauPolicy,
    SynthesisResult,
    _basis,
    _checked,
    _exact_sums,
    _head,
    _in_range,
    _Report,
    _run_pipeline,
    _trapezoid_l2,
    synthesize_coefficients,
)
from .specfun import laguerre_scaled_seq, ln_gamma_complex, mp_real_seq

__all__ = [
    "ThermalProblem",
    "ThermalReport",
    "build_thermal_report",
    "default_v_grid",
    "gtilde_line_expansion",
    "psi_matrix",
    "reconstruct_thermal",
    "synthesize_line_coefficients",
    "synthesize_thermal",
    "thermal_problem",
    "weighted_l2_error",
]

V_MAX = 15.0  # e^{-v} |J|^2 below 1e-12 beyond this for all corpus truths
V_POINTS = 1200
# Working precision of the 2 sqrt(pi) prefactor of the critical-line
# coefficients, applied once to each exact sum; far beyond the 53 bits kept.
LINE_PREFACTOR_BITS = 256


@dataclass(frozen=True)
class ThermalProblem:
    """Thermal reconstruction input: coefficients g_1..g_N plus optional truth."""

    coefficients: CoefficientSet
    truth: JumpGroundTruth | None = None

    def __post_init__(self):
        if self.coefficients.start_index != 1:
            raise InputError("thermal coefficient sets must start at index 1")


def thermal_problem(
    spec: ProblemSpec, N: int, epsilon: float = 0.0, seed: int | None = None
) -> ThermalProblem:
    """Assemble a ThermalProblem from a thermal corpus spec."""
    if spec.start_index != 1:
        raise InputError(f"{spec.id} is not a thermal problem")
    return ThermalProblem(coefficients=coefficients(spec, N, epsilon, seed), truth=spec.jump)


def synthesize_thermal(problem: ThermalProblem, n_max: int = DEFAULT_N_MAX) -> SynthesisResult:
    """Expansion coefficients from the shifted sequence h_k = g_{k+1}.

    Identical to the power-series synthesis applied to h; the stored values
    follow the same real phase-product convention.
    """
    return synthesize_coefficients(problem.coefficients, n_max)


def _thermal_rows(n_max: int, vs: np.ndarray) -> np.ndarray:
    """sqrt(2) L_n(2 e^{-v}) e^{-e^{-v}} for all n <= n_max, scaled in place."""
    rows = laguerre_scaled_seq(n_max, 2.0 * np.exp(-vs))
    rows *= math.sqrt(2.0)
    return rows


def psi_matrix(n_max: int, vs) -> np.ndarray:
    """Basis magnitudes sqrt(2) L_n(2 e^{-v}) e^{-e^{-v}} e^{-v/2}, all n <= n_max.

    Equals e^{-v/2} phi_n(e^v): the same Laguerre family read through
    x = e^v.  Valid for every real v.
    """
    vs = np.asarray(vs, dtype=float)
    rows = _thermal_rows(n_max, vs)
    rows *= np.exp(-vs / 2.0)
    return rows


@functools.cache
def default_v_grid() -> np.ndarray:
    """The thermal sample grid: ``V_POINTS`` equispaced points on [0, V_MAX].

    Built once per process, like ``reconstruct.default_grid``; every call
    returns that same read-only array, so callers that need to write must
    copy it.
    """
    grid = np.linspace(0.0, V_MAX, V_POINTS)
    grid.setflags(write=False)
    return grid


def reconstruct_thermal(frak_c: np.ndarray, m_t: int, vs) -> np.ndarray:
    """Truncated thermal reconstruction e^{v/2} sum_{n<=m_t} c_n psi_n(v).

    The e^{v/2} prefactor cancels the basis damping analytically, so the
    implementation sums sqrt(2) c_n L_n(2 e^{-v}) e^{-e^{-v}} directly and
    stays finite for arbitrarily large v.
    """
    return _head(frak_c, m_t) @ _basis(_thermal_rows, m_t, vs)


def _error_weight(v: np.ndarray) -> np.ndarray:
    """The weight e^{-v} of the thermal L^2 error: one function, so the
    truth-on-grid cache of ``_trapezoid_l2`` sees one key."""
    return np.exp(-v)


def weighted_l2_error(vs: np.ndarray, j_rec: np.ndarray, truth) -> ErrorReport:
    """L^2 error with weight e^{-v} over [0, V_MAX] by composite trapezoid."""
    return _trapezoid_l2(vs, j_rec, truth, (0.0, V_MAX), weight=_error_weight)


def synthesize_line_coefficients(problem: ThermalProblem, n_max: int = DEFAULT_N_MAX) -> SynthesisResult:
    """Coefficients of the critical-line expansion of the interpolant.

    Same rotated sums as the reconstruction coefficients but with prefactor
    2 sqrt(pi) and without the (-1)^n phase product: these multiply the
    complex line functions, where the i^n phase is applied explicitly at
    evaluation time.  Their ratio to the reconstruction coefficients is
    (-1)^n sqrt(2 pi); a regression test records that observation.  The
    prefactor is evaluated at ``LINE_PREFACTOR_BITS`` bits and each product
    rounded to a double once.
    """
    sums, d = _exact_sums(_checked(problem.coefficients.values, n_max), n_max)
    with mp.workprec(LINE_PREFACTOR_BITS):
        pref = 2 * mp.sqrt(mp.pi) / d
        d_n = np.array([float(pref * s) for s in sums])
    return SynthesisResult(c=_in_range(d_n, "d"))


def gtilde_line_expansion(d_hat: np.ndarray, m_t: int, nus) -> np.ndarray:
    """Samples of the interpolant on the line Re(lambda) = 1/2.

    Evaluates (1/sqrt(pi)) Gamma(1/2 + i nu) sum_{n<=m_t} i^n d_n P_n(nu)
    with the real d_n from ``synthesize_line_coefficients``.  For real input
    coefficients the result satisfies f(-nu) = conj(f(nu)), and |f| decays
    as nu -> +-inf.
    """
    head = _head(d_hat, m_t)
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    P = mp_real_seq(m_t, nus)
    phases = 1j ** np.arange(m_t + 1)
    series = (head * phases) @ P
    gamma_vals = np.array([np.exp(ln_gamma_complex(complex(0.5, nu))) for nu in nus])
    return gamma_vals * series / math.sqrt(math.pi)


@dataclass(frozen=True, kw_only=True)
class ThermalReport(_Report):
    """Thermal pipeline output, JSON-ready via ``to_dict``."""

    _KEYS = ("frak_c", "vs", "weighted_errors")

    frak_c: np.ndarray
    vs: np.ndarray
    weighted_errors: ErrorReport | None = None


def build_thermal_report(
    problem: ThermalProblem,
    n_max: int = DEFAULT_N_MAX,
    policy: PlateauPolicy | None = None,
) -> ThermalReport:
    """Run the full thermal pipeline on a problem: the power-series pipeline
    on h_k = g_{k+1}, resummed on ``default_v_grid()`` and scored in v = ln x."""
    return _run_pipeline(
        ThermalReport, problem.coefficients, n_max, policy,
        default_v_grid(), reconstruct_thermal, problem.truth, weighted_l2_error,
    )
