"""cutjump: reconstruct the jump function across a power-series cut.

Given finitely many (noisy) series coefficients, the package synthesizes an
orthogonal expansion of the boundary discontinuity of the series' analytic
continuation, truncates it where the cumulative energy plateaus, and
resums.  Companion modules provide moment-sequence diagnostics, built-in
test problems with exact ground truths, and the thermal (imaginary-time to
real-time) variant of the same reconstruction.
"""

# ``cli`` is left to be imported on demand, so ``python -m cutjump.cli`` runs
# a module that the package import has not already loaded.
from . import corpus, moments, reconstruct, specfun, thermal
from .errors import (
    ConfigError,
    ConvergenceError,
    CutjumpError,
    DomainError,
    InputError,
    ParseError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "CutjumpError",
    "DomainError",
    "InputError",
    "ParseError",
    "cli",
    "corpus",
    "moments",
    "reconstruct",
    "specfun",
    "thermal",
]
