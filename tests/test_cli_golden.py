"""Byte-golden gate for the CLI: written files, stdout, stderr and exit codes.

Each case runs ``cli.main`` in a fresh working directory with relative input
and output paths, so the ``input`` and ``source`` fields of the reports do
not depend on where the test runs.  Every file the run creates is pinned by
the SHA-256 of its bytes, every directory by ``"dir"``; stdout, stderr and
the exit code are pinned verbatim.  A change that moves any output by one
byte fails here.

To print the values of the current code: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from cutjump import cli

# A short smooth power series, g_k = 1/(k+1)^2 for k = 0..15.
POWER_CSV = "".join(f"{k},{1.0 / (k + 1) ** 2!r}\n" for k in range(16))
# A short thermal sequence from index 1, with a declared noise bound.
THERMAL_CSV = "# epsilon=1e-06\n" + "".join(
    f"{k},{6.0 * (1.0 / (k + 1) - 1.0 / (k + 2))!r}\n" for k in range(1, 13)
)
# A short power sequence with a declared noise bound, g_k = 1/(k+2) for k = 0..11.
NOISY_CSV = "# epsilon=1e-06\n" + "".join(f"{k},{1.0 / (k + 2)!r}\n" for k in range(12))

# name -> (argv, extra environment)
CASES = {
    "reconstruct_clean": (["reconstruct", "--problem", "normalized_rational", "--n-coeffs", "60"], {}),
    "reconstruct_noisy": (
        ["reconstruct", "--problem", "normalized_rational", "--n-coeffs", "60", "--epsilon", "1e-6", "--seed", "7"],
        {},
    ),
    "reconstruct_input": (["reconstruct", "--input", "power.csv", "--epsilon", "1e-5"], {}),
    "reconstruct_emit_json": (
        ["reconstruct", "--problem", "rational_unnormalized", "--n-coeffs", "30", "--emit", "json"],
        {},
    ),
    "thermal_demo": (["thermal", "--problem", "thermal_boson_demo", "--n-coeffs", "60"], {}),
    "thermal_input": (["thermal", "--input", "thermal.csv", "--epsilon", "1e-4"], {}),
    "sweep_2x2": (
        [
            "sweep", "--problem", "normalized_rational", "--n-list", "20,40",
            "--epsilons", "1e-4,1e-6", "--repeats", "1", "--seed-base", "5",
        ],
        {"CUTJUMP_THREADS": "1"},
    ),  # fmt: skip
    "moments_harmonic": (["moments", "--problem", "harmonic", "--n-max", "40"], {}),
    "reconstruct_rejects_thermal": (["reconstruct", "--problem", "thermal_boson_demo"], {}),
    "thermal_rejects_power": (["thermal", "--problem", "harmonic"], {}),
    "moments_harmonic_deep": (["moments", "--problem", "harmonic", "--n-max", "120", "--emit", "both"], {}),
    "moments_rational_k_plus_1": (
        ["moments", "--problem", "normalized_rational", "--f-mode", "k_plus_1", "--n-max", "30"],
        {},
    ),
    "moments_thermal_k": (["moments", "--problem", "thermal_boson_demo", "--f-mode", "k", "--n-max", "20"], {}),
    "moments_input_none": (["moments", "--input", "noisy.csv", "--f-mode", "none"], {}),
    "moments_input_k_plus_1": (["moments", "--input", "noisy.csv", "--f-mode", "k_plus_1"], {}),
}

GOLDEN = {
    "moments_harmonic": {
        "exit": 0,
        "stdout": "moments: rows 0..40, p=2.001: positivity_ok=True, min_weight=2.439e-02, lp_trend=flat, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/harmonic_moments.json": "132bf0e786153321a20305e50b006b51bd0e3226c5dcdf6a015827097700c152",
        },
    },
    "reconstruct_clean": {
        "exit": 0,
        "stdout": "reconstruct: plateau=(10, 200), m_t=197, confident=True, l2_rel=0.0176\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/normalized_rational_report.json": "d5caf3e410932ddcb48cd29c7bdef572fd3b12724e4c5667aead1836f063739e",
            "out/normalized_rational_samples.csv": "022340658cb5570ec211bdbd76c43b7f65616734874b185b4c2d8b8fabadcf14",
        },
    },
    "reconstruct_emit_json": {
        "exit": 0,
        "stdout": "reconstruct: plateau=(10, 86), m_t=77, confident=True, l2_rel=0.0331\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/rational_unnormalized_report.json": "eaf47bbda70fb9fa015f6003f3aec49666832c8276c0d7dd2f65e989391eb966",
        },
    },
    "reconstruct_input": {
        "exit": 0,
        "stdout": "reconstruct: plateau=(3, 25), m_t=17, confident=False\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/power_report.json": "9daa89a41c270d50a36dba54124721f58e9708d5bb278c710dad75514ffe3b29",
            "out/power_samples.csv": "6c06bfcd03ca0e8e7d13361d4a1d5368f88cfd2da8c3ce69939e7d21206c1c93",
        },
    },
    "reconstruct_noisy": {
        "exit": 0,
        "stdout": "reconstruct: plateau=(6, 29), m_t=13, confident=False, l2_rel=0.0943\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/normalized_rational_report.json": "3cb523411f9f2ebfa117608dab926d1b194e7ac32c3f40b026725512317a7273",
            "out/normalized_rational_samples.csv": "28fe33be20b8da758c3c992b633c07c3503e291f21ea0800e907d6dc8407bef0",
        },
    },
    "reconstruct_rejects_thermal": {
        "exit": 1,
        "stdout": "",
        "stderr": "error: thermal_boson_demo is a thermal problem; use the thermal subcommand\n",
        "files": {
            "out": "dir",
        },
    },
    "sweep_2x2": {
        "exit": 0,
        "stdout": "sweep: 4 cells, 0 failed, wrote out/normalized_rational_sweep.csv\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/normalized_rational_sweep.csv": "8b252abef3172c59e7d19072af9d4d49be66c32062bd7795319d53bbaec7dc2e",
        },
    },
    "thermal_demo": {
        "exit": 0,
        "stdout": "thermal: plateau=(20, 200), m_t=197, confident=True, l2w_rel=0.0273\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/thermal_boson_demo_report.json": "9c3b590b2e9d41be22b9c96db26ab89c24d670a8bcf040654117c2e4f7c7b7be",
            "out/thermal_boson_demo_samples.csv": "6ea0283f65dbaef9a7787f5a1009ac2800e4a41cc0eec3c55d70fbb9f38b5486",
        },
    },
    "thermal_input": {
        "exit": 0,
        "stdout": "thermal: plateau=(5, 15), m_t=9, confident=False\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/thermal_report.json": "c156fb12151d5c8f20a6afc7f4e2d0445207c2cfc395e52af9baaacc4a68e2fb",
            "out/thermal_samples.csv": "34d8fc083b5bfc5962fa7f5604ddf43124ac29b2331ef725d74d11ba871aad8c",
        },
    },
    "thermal_rejects_power": {
        "exit": 1,
        "stdout": "",
        "stderr": "error: harmonic is not a thermal problem\n",
        "files": {
            "out": "dir",
        },
    },    "moments_harmonic_deep": {
        "exit": 0,
        "stdout": "moments: rows 0..120, p=2.001: positivity_ok=True, min_weight=8.264e-03, lp_trend=flat, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/harmonic_moments.json": "7635b9417655727cd69ebfb1169dd2f008dc8c568f9b8cc3d37aafd52a39e0e5",
        },
    },
    "moments_rational_k_plus_1": {
        "exit": 0,
        "stdout": "moments: rows 0..30, p=2.001: positivity_ok=False, min_weight=-1.000e-01, lp_trend=flat, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/normalized_rational_moments.json": "e10595e0a85ab4dc70dbf7e01df0939177bb4e4ead2b374cb59e7aed70fdbf74",
        },
    },
    "moments_thermal_k": {
        "exit": 0,
        "stdout": "moments: rows 0..20, p=2: positivity_ok=False, min_weight=-5.000e-01, lp_trend=increasing, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/thermal_boson_demo_moments.json": "2221f93324b13b5515184e03ef0f334d4f6c867d498f955378cb87a0e8af23e1",
        },
    },
    "moments_input_none": {
        "exit": 0,
        "stdout": "moments: rows 0..11, p=2.001: positivity_ok=True, min_weight=6.410e-03, lp_trend=flat, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/noisy_moments.json": "55482f535cc81e41759593397e6e8c569cb1e35ee61e374b3f59491aeb26c08c",
        },
    },
    "moments_input_k_plus_1": {
        "exit": 0,
        "stdout": "moments: rows 0..11, p=2.001: positivity_ok=False, min_weight=-1.667e-01, lp_trend=increasing, decay_bound_ok=True\n",
        "stderr": "",
        "files": {
            "out": "dir",
            "out/noisy_moments.json": "0b792a6b5b78b8f7f5c989cf29f5df0a19e8639c1b9c2b1664697a36e898aabf",
        },
    },
}


def run_case(name: str) -> dict:
    """Run one case in the current directory, which must be empty."""
    argv, _ = CASES[name]
    Path("power.csv").write_text(POWER_CSV, encoding="utf-8")
    Path("thermal.csv").write_text(THERMAL_CSV, encoding="utf-8")
    Path("noisy.csv").write_text(NOISY_CSV, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", "out"])
    written = {
        p.as_posix(): "dir" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.name not in ("power.csv", "thermal.csv", "noisy.csv")
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key, value in CASES[name][1].items():
        monkeypatch.setenv(key, value)
    assert run_case(name) == GOLDEN[name]


if __name__ == "__main__":
    import json

    values = {}
    for name in sorted(CASES):
        saved = dict(os.environ)
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            os.environ.update(CASES[name][1])
            try:
                values[name] = run_case(name)
            finally:
                os.environ.clear()
                os.environ.update(saved)
    print("GOLDEN =", json.dumps(values, indent=4))
