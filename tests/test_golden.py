"""Golden-output gate: bit-identical pipeline results on a fixed panel.

Each digest is the SHA-256 of the little-endian float64 bytes of one output
array (``plateau`` and ``m_t`` are cast to float64 first).  The digests were
recorded with the extended-precision synthesis that preceded the exact
integer kernel, so a change to synthesis, plateau detection or resummation
that moves any output by a single ulp fails here.

To print the digests of the current code: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from cutjump import corpus, reconstruct, thermal

N_MAX = 200
SEED = 20240601

# name -> (problem id, N, epsilon)
POWER_CONFIGS = {
    "normalized_rational_N20": ("normalized_rational", 20, 0.0),
    "normalized_rational_N60": ("normalized_rational", 60, 0.0),
    "normalized_rational_N120": ("normalized_rational", 120, 0.0),
    "harmonic_N60": ("harmonic", 60, 0.0),
    "normalized_rational_N60_eps1e-7": ("normalized_rational", 60, 1e-7),
    "normalized_rational_N60_eps1e-3": ("normalized_rational", 60, 1e-3),
}

GOLDEN = {
    "normalized_rational_N20": {
        "c": "1a3abe2fcf77e8d3de85524733a0606d92ab360145264c2d861eba68d8a4cf57",
        "M": "f6e41119350cc09118504537e85f05ce7f41b3c2d6724664017ba906e6c53353",
        "plateau": "5ddb592113a58289c92580211809216861b067edd4008998abac5613de00f438",
        "m_t": "72ab75bf049947a22ef3575e3e1e4ec88abab6c71d32bbf177e093da475b6a58",
        "j_rec": "a18aefaf1b42c558fb5516e645f7895911059b9f63f42cbdb1bfc0e4ccaacd24",
    },
    "normalized_rational_N60": {
        "c": "f013efe5bdb90a76cdda48c48a0755f6d07f13e48f75b15f9754baf4a8cfca14",
        "M": "f242d4f0071bbdb04d3f598609b80aff3e2aa447546544cf2282380f6c3ac5a6",
        "plateau": "4c265805950628005645e7e01a37330603e190f3d100f08165b9d478cc981d10",
        "m_t": "d8aa4c75aeb75e9a7ebaebc670ac98433374743c217d9c414a04b7ab83e02095",
        "j_rec": "96c52fcf74a194ec333ca9ff39cfe165b381bbfb05c225c1fb2fe3dca444e112",
    },
    "normalized_rational_N120": {
        "c": "5a85060678f9d7b7bc5f4e2cafd611a0266bf412d71d6a3f2fc326461a17fa8e",
        "M": "718dc4ec13721eeab8576f18edc7141a16c7ac372e2d5eae347ef06e769b8553",
        "plateau": "4c265805950628005645e7e01a37330603e190f3d100f08165b9d478cc981d10",
        "m_t": "d8aa4c75aeb75e9a7ebaebc670ac98433374743c217d9c414a04b7ab83e02095",
        "j_rec": "212bcde3b3ade9a580c0c0a968aaebb274d55f53ccf711b33f8ea24d07a7fb15",
    },
    "harmonic_N60": {
        "c": "23330384945238ed2134e8c8e0495b5f693440cd1260f538d1857ea43c76d054",
        "M": "0c5d1a6b123b42e9c15374bc867a8f97b7cc7c35cd3f80438a63c19df3a07690",
        "plateau": "c0458ce90f43602825fcd04cc496a594102013148ba0fef034a162a64ae67c6e",
        "m_t": "d8aa4c75aeb75e9a7ebaebc670ac98433374743c217d9c414a04b7ab83e02095",
        "j_rec": "232b3f74d49087ee255ca62e760f10bc94bdc637f62ecc4566dd043b759c79ea",
    },
    "normalized_rational_N60_eps1e-7": {
        "c": "863542fe18c1848110c53f0d4ea36810c7db444b88a332ed9d5904a90c5e2573",
        "M": "f6bf0f48f8885bf78fde334dc89676a73567e739bbcb5a43790b99c9146d9468",
        "plateau": "d5c0185dc0ff1882388dab48c86b3a6db0287aba764e1c5c5eeb9564da62451a",
        "m_t": "7957aba2f15f5d55db3cf21c6fa1cd4288c2486179cf88b247933dc752e635bb",
        "j_rec": "fb6253306c3de0926283187f96b23b9b14c1be41d5cab3d64a08d79bd95926b6",
    },
    "normalized_rational_N60_eps1e-3": {
        "c": "3d88f3275bd55e095126463dd0880d58e1831bfdf5848e0d9cf2f44c8034036e",
        "M": "2aed8f0857cf3928eeb05b0aaf96987e60b006d208011bb3b89546c1d281710b",
        "plateau": "300bc5ffaf3b93d8096b67e0ddbf88218212bae659b0944f89c5f1c7e35da9f5",
        "m_t": "400c52dd5bd0047d64c0582af027b387a7938a64283d0d4f727331140cb6462c",
        "j_rec": "31019c390b0b5c41fb1ef49a3bd6854d58a1710b20bbc7d3d09608eaeb03ad01",
    },
    "thermal_boson_demo_N60": {
        "c": "9cfdb2d88363638da614493faeb482b0a032ac54877cb96fe626c73730e3d84e",
        "M": "097714195a8f8147a5e411adeb20ce8bdedd8752a32b257c0cebf01b33d34922",
        "plateau": "f444f7684b2329c59255b18edd0f064669de590254b1897a87c58a8c8031c893",
        "m_t": "d8aa4c75aeb75e9a7ebaebc670ac98433374743c217d9c414a04b7ab83e02095",
        "j_rec": "7abfbbe98c81a59fd51f9a294466e9b70892a0eff737f58ca1889fada0cf5b6c",
        "d": "9e5ddafaf1a8557a3f9072eb97e2639901a0e89147717b4ecc81824e6a490e95",
    },
    "synthesis": {
        "normalized_rational_N60_nmax150": "f78e290ce4c76710998f5567d07cbdec1e3fda5e5f491d400e8aab4d2c1f225f",
        "ones5_nmax10": "38a7345693f9e3c94b62439ef4f407d31502b168ad5bd22a519315743b4b5584",
    },
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _report_digests(c, rep) -> dict:
    return {
        "c": _digest(c),
        "M": _digest(rep.M),
        "plateau": _digest(rep.plateau),
        "m_t": _digest(rep.m_t),
        "j_rec": _digest(rep.j_rec),
    }


def power_digests(name: str) -> dict:
    pid, n, eps = POWER_CONFIGS[name]
    spec = corpus.builtin(pid)
    cs = corpus.coefficients(spec, n, eps, SEED if eps else None)
    rep = reconstruct.build_report(cs, n_max=N_MAX, truth=spec.jump)
    return _report_digests(rep.c, rep)


def thermal_digests() -> dict:
    problem = thermal.thermal_problem(corpus.builtin("thermal_boson_demo"), 60)
    rep = thermal.build_thermal_report(problem, n_max=N_MAX)
    out = _report_digests(rep.frak_c, rep)
    out["d"] = _digest(thermal.synthesize_line_coefficients(problem, n_max=N_MAX).c)
    return out


def synthesis_digests() -> dict:
    """Bare synthesis of two fixed inputs: a smooth series at depth 150 and a
    constant one at depth 10."""
    cs = corpus.coefficients(corpus.builtin("normalized_rational"), 60)
    return {
        "normalized_rational_N60_nmax150": _digest(reconstruct.synthesize_coefficients(cs, n_max=150).c),
        "ones5_nmax10": _digest(reconstruct.synthesize_coefficients(np.ones(5), n_max=10).c),
    }


def current_digests() -> dict:
    out = {name: power_digests(name) for name in POWER_CONFIGS}
    out["thermal_boson_demo_N60"] = thermal_digests()
    out["synthesis"] = synthesis_digests()
    return out


@pytest.mark.parametrize("name", sorted(POWER_CONFIGS))
def test_power_report_matches_golden(name):
    assert power_digests(name) == GOLDEN[name]


def test_thermal_report_and_line_coefficients_match_golden():
    assert thermal_digests() == GOLDEN["thermal_boson_demo_N60"]


def test_synthesis_of_fixed_inputs_matches_golden():
    assert synthesis_digests() == GOLDEN["synthesis"]


if __name__ == "__main__":
    import json

    print(json.dumps(current_digests(), indent=4))
