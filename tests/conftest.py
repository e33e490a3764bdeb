import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cutjump import corpus, reconstruct, thermal


# The process-wide caches of read-only tables, other than ``_basis`` (see
# ``fresh_basis`` in test_reconstruct.py) and the grids.
TABLE_CACHES = (
    corpus._clean_table,
    reconstruct._factorial_ratios,
    reconstruct._bound_factors,
    reconstruct._cached_truth_on_grid,
)


@pytest.fixture
def fresh_tables():
    """Every table cache empty at the start of the test and again after it;
    the tables hold only values a fresh build gives, so clearing them changes
    no result."""
    for cache in TABLE_CACHES:
        cache.cache_clear()
    yield TABLE_CACHES
    for cache in TABLE_CACHES:
        cache.cache_clear()


@pytest.fixture(scope="session")
def normalized60_report():
    """Reference run: normalized_rational, N = 60, noiseless, n_max = 200."""
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 60)
    return reconstruct.build_report(cs, n_max=200, truth=spec.jump)


@pytest.fixture(scope="session")
def harmonic60_report():
    spec = corpus.builtin("harmonic")
    cs = corpus.coefficients(spec, 60)
    return reconstruct.build_report(cs, n_max=200, truth=spec.jump)


@pytest.fixture(scope="session")
def thermal60_report():
    spec = corpus.builtin("thermal_boson_demo")
    problem = thermal.thermal_problem(spec, 60)
    return thermal.build_thermal_report(problem, n_max=200)


@pytest.fixture(scope="session")
def noisy7_report():
    """normalized_rational, N = 60, eps = 1e-7, seed 42, n_max = 150."""
    spec = corpus.builtin("normalized_rational")
    cs = corpus.coefficients(spec, 60, epsilon=1e-7, seed=42)
    return reconstruct.build_report(cs, n_max=150, truth=spec.jump)
