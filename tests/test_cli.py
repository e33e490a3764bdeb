import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cutjump import cli
from cutjump.errors import ConfigError


def run_cli(args):
    return cli.main(args)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "args,needle",
    [
        (["reconstruct", "--problem", "nope"], "problem"),
        (["reconstruct", "--problem", "harmonic", "--epsilon", "-1"], "epsilon"),
        (["reconstruct", "--problem", "harmonic", "--n-max", "-2"], "n-max"),
        (["reconstruct", "--problem", "harmonic", "--n-coeffs", "-1"], "n-coeffs"),
        (["reconstruct", "--problem", "harmonic", "--plateau-theta", "0"], "plateau-theta"),
        (["reconstruct", "--problem", "harmonic", "--plateau-window", "1"], "plateau-window"),
        (["reconstruct"], "problem/input"),
        (["moments", "--problem", "harmonic", "--p-exponent", "1.0"], "p-exponent"),
        (["sweep", "--problem", "harmonic", "--epsilons", "x"], "epsilons"),
        (["sweep", "--problem", "harmonic", "--repeats", "0"], "repeats"),
        (["reconstruct", "--problem", "harmonic", "--epsilon", "inf"], "epsilon: must be finite"),
        (["reconstruct", "--problem", "harmonic", "--epsilon", "nan"], "epsilon: must be finite"),
        (["moments", "--problem", "harmonic", "--p-exponent", "nan"], "p-exponent: must be finite"),
        (["sweep", "--problem", "harmonic", "--epsilons", "nan"], "epsilons: must be finite"),
        (["sweep", "--problem", "harmonic", "--epsilons", "1e-4,inf"], "epsilons: must be finite"),
        (
            ["reconstruct", "--problem", "harmonic", "--plateau-theta", "0.6"],
            "plateau-theta: must be > 0 and < 0.5",
        ),
        (["reconstruct", "--problem", "harmonic", "--plateau-theta", "nan"], "plateau-theta"),
        (["reconstruct", "--problem", "harmonic", "--epsilon", "1e-6", "--seed", "-5"], "seed: must be in"),
        (["reconstruct", "--problem", "harmonic", "--seed", str(2**64)], "seed: must be in"),
        (["sweep", "--problem", "harmonic", "--seed-base", "-3"], "seed-base: must be >= 0"),
        (["sweep", "--problem", "harmonic", "--n-list", "9,10", "--seed-base", str(2**64 - 1)], "seed-base"),
        (["sweep", "--problem", "thermal_boson_demo"], "problem: thermal_boson_demo is a thermal problem"),
        # just above the ceilings, so that without them the run stays short
        (["reconstruct", "--problem", "harmonic", "--n-coeffs", "1001"], "n-coeffs: must be in 0..1000"),
        (["thermal", "--problem", "thermal_boson_demo", "--n-max", "801"], "n-max: must be in 0..800"),
        (["sweep", "--problem", "harmonic", "--n-list", "10,1001"], "n-list: entries must be in 1..1000"),
        (["reconstruct", "--problem", "harmonic", "--epsilon", "1e308"], "epsilon must be at most half"),
        (["moments", "--problem", "thermal_boson_demo"], "f-mode"),
        (
            ["sweep", "--problem", "harmonic", "--n-list", "1", "--n-max", "0", "--repeats", "10001"]
            + ["--epsilons", "0"],
            "cell count: 10001 (n-list x epsilons x repeats) is above the ceiling 10000",
        ),
        (["thermal", "--problem", "thermal_boson_demo", "--n-coeffs", "0"], "n-coeffs: must be in 1..1000"),
        (
            ["moments", "--problem", "thermal_boson_demo", "--n-coeffs", "0", "--f-mode", "k"],
            "n-coeffs: must be in 1..1000",
        ),
        (["sweep", "--problem", "harmonic", "--n-list", "", "--epsilons", "1e-3"], "n-list: at least one"),
        (["sweep", "--problem", "harmonic", "--n-list", "10", "--epsilons", ""], "epsilons: at least one"),
        (["sweep", "--problem", "harmonic", "--epsilons=-1e-3"], "epsilons: must be >= 0"),
    ],
)
def test_invalid_config_exits_one_naming_field(tmp_path, capsys, args, needle):
    code = run_cli(args + ["--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,text,needle",
    [
        ("reconstruct", '{"problem": "harmonic", "epsilon": 1e400}', "epsilon: must be finite"),
        ("reconstruct", '{"problem": "harmonic", "plateau_theta": NaN}', "plateau-theta"),
        ("reconstruct", '{"problem": "harmonic", "epsilon": 1' + "0" * 400 + "}", "epsilon: must be finite"),
        ("reconstruct", '{"problem": "harmonic", "seed": -1}', "seed: must be in"),
        ("reconstruct", '{"problem": "harmonic", "n_coeffs": 1' + "0" * 5000 + "}", "config: cannot read"),
        # argparse checks the choices of flags; only a JSON config reaches validate's own check
        ("reconstruct", '{"problem": "harmonic", "emit": "xml"}', "emit: must be one of json, csv, both"),
        ("moments", '{"problem": "harmonic", "f_mode": "bogus"}', "f-mode: must be one of none, k_plus_1, k"),
    ],
    ids=[
        "epsilon-1e400", "plateau_theta-NaN", "epsilon-integer-1e400", "seed-negative", "n_coeffs-long",
        "emit-xml", "f_mode-bogus",
    ],
)  # fmt: skip
def test_config_value_out_of_range_exits_one_naming_field(tmp_path, capsys, command, text, needle):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code = run_cli([command, "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "args,flag",
    [(["--bogus"], "--bogus"), (["--n-coeffs", "abc"], "--n-coeffs"), (["--emit", "xml"], "--emit")],
)
def test_usage_error_exits_one_naming_flag(capsys, args, flag):
    # Exit code 2 means failed positivity, so argparse's own 2 is not used.
    with pytest.raises(SystemExit) as exc:
        run_cli(["reconstruct", "--problem", "harmonic", *args])
    assert exc.value.code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args,flag",
    [
        (["sweep", "--seed", "5"], "--seed"),
        (["sweep", "--emit", "csv"], "--emit"),
        (["sweep", "--n-coeffs", "9"], "--n-coeffs"),
        (["sweep", "--epsilon", "1e-3"], "--epsilon"),
        (["sweep", "--input", "f.csv"], "--input"),
        (["moments", "--plateau-theta", "0.3"], "--plateau-theta"),
        (["reconstruct", "--eps", "1e-3"], "--eps"),  # no abbreviations
        (["sweep", "--seed-b", "5"], "--seed-b"),
    ],
)
def test_flag_outside_subcommand_exits_one_naming_it(tmp_path, capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--problem", "harmonic", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


COMMON = ["--config", "--problem", "--n-max", "--out"]
SINGLE = ["--input", "--n-coeffs", "--epsilon", "--seed", "--emit"]
PLATEAU = ["--plateau-theta", "--plateau-window"]
SWEEP_OWN = ["--epsilons", "--n-list", "--repeats", "--seed-base"]
FLAG_SETS = {
    "reconstruct": {*COMMON, *SINGLE, *PLATEAU},
    "thermal": {*COMMON, *SINGLE, *PLATEAU},
    "moments": {*COMMON, *SINGLE, "--p-exponent", "--f-mode", "--expect-positive"},
    "sweep": {*COMMON, *PLATEAU, *SWEEP_OWN},
}


def test_each_subcommand_takes_exactly_its_flag_set():
    # Adding a flag to a subcommand must be a deliberate edit of FLAG_SETS.
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert got == FLAG_SETS
    for command, flags in FLAG_SETS.items():
        # a subcommand's JSON config keys are the fields behind its flags
        assert {f.metadata["flag"] for f in cli._fields(command)} == flags - {"--config", *SWEEP_OWN}


@pytest.mark.parametrize(
    "command,key",
    [("sweep", "seed"), ("sweep", "input_path"), ("sweep", "emit"), ("moments", "plateau_theta"),
     ("reconstruct", "f_mode")],
)  # fmt: skip
def test_config_key_outside_subcommand_exits_one_naming_it(tmp_path, capsys, command, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "harmonic", key: getattr(cli.RunConfig(), key)}))
    code = run_cli([command, "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    assert f"config: unknown field {key!r} for {command}" in capsys.readouterr().err
    assert not list(tmp_path.glob("harmonic_*"))


@pytest.mark.parametrize("command", ["reconstruct", "thermal", "moments"])
def test_input_file_above_the_n_ceiling_exits_one(tmp_path, capsys, command):
    start = 1 if command == "thermal" else 0
    f = tmp_path / "long.csv"
    f.write_text("".join(f"{k},0.5\n" for k in range(start, cli.MAX_N_COEFFS + 2)))
    code = run_cli([command, "--input", str(f), "--n-max", "10", "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    assert f"input: N = {cli.MAX_N_COEFFS + 1} is above the ceiling" in capsys.readouterr().err


def test_non_finite_epsilon_header_exits_one_naming_it(tmp_path, capsys):
    f = tmp_path / "nan.csv"
    f.write_text("# epsilon=nan\n0,1.0\n1,0.5\n")
    code = run_cli(["reconstruct", "--input", str(f), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "line 1: epsilon must be finite" in err
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["reconstruct", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cutjump reconstruct")


def test_missing_input_file_exits_one(tmp_path, capsys):
    code = run_cli(["reconstruct", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR


# --------------------------------------------------------------- moments


def test_moments_builtin_harmonic(tmp_path, capsys):
    code = run_cli(
        ["moments", "--problem", "harmonic", "--n-max", "40", "--out", str(tmp_path), "--expect-positive"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "harmonic_moments.json").read_text())
    assert payload["schema_version"] == 2
    assert payload["positivity_ok"] is True
    assert "positivity_ok=True" in capsys.readouterr().out


def test_moments_alternating_file_fails_positivity(tmp_path):
    f = tmp_path / "alt.csv"
    f.write_text("\n".join(f"{k},{(-1.0) ** k!r}" for k in range(12)) + "\n")
    code = run_cli(
        ["moments", "--input", str(f), "--n-max", "10", "--out", str(tmp_path), "--expect-positive"]
    )
    assert code == cli.EXIT_POSITIVITY
    # without the flag the run is informational and exits 0
    code = run_cli(["moments", "--input", str(f), "--n-max", "10", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK


def _moments_run(out, args):
    """The bytes of a moments report and its payload without ``config``."""
    assert run_cli(["moments", *args, "--out", str(out)]) == cli.EXIT_OK
    (path,) = out.glob("*_moments.json")
    payload = json.loads(path.read_text())
    del payload["config"]
    return path.read_bytes(), payload


@pytest.mark.parametrize("source", ["problem", "input"])
def test_moments_epsilon_and_seed_act(tmp_path, source):
    if source == "problem":
        args = ["--problem", "harmonic", "--n-max", "20"]
    else:
        f = tmp_path / "h.csv"
        f.write_text("".join(f"{k},{1.0 / (k + 1)!r}\n" for k in range(21)))
        args = ["--input", str(f), "--n-max", "20"]
    _, clean = _moments_run(tmp_path / "clean", args)
    noisy_bytes, noisy = _moments_run(tmp_path / "seed3", [*args, "--epsilon", "1e-3", "--seed", "3"])
    again_bytes, _ = _moments_run(tmp_path / "again", [*args, "--epsilon", "1e-3", "--seed", "3"])
    _, other = _moments_run(tmp_path / "seed4", [*args, "--epsilon", "1e-3", "--seed", "4"])
    assert noisy != clean
    assert noisy != other
    assert noisy_bytes == again_bytes


def test_moments_exact_f_mode_reaches_n_max(tmp_path):
    args = ["--problem", "harmonic", "--f-mode", "k_plus_1", "--n-max", "100", "--n-coeffs", "10"]
    _, payload = _moments_run(tmp_path, args)
    assert payload["n_max"] == 100
    assert len(payload["lp_statistic"]) == 101


def test_moments_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code = run_cli(["moments", "--input", str(f), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR


# ------------------------------------------------------------ reconstruct


def test_reconstruct_writes_report_and_samples(tmp_path):
    code = run_cli(
        [
            "reconstruct",
            "--problem",
            "normalized_rational",
            "--n-coeffs",
            "30",
            "--n-max",
            "80",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "normalized_rational_report.json").read_text())
    assert payload["schema_version"] == 2
    assert payload["kind"] == "reconstruction"
    assert payload["plateau"][0] <= payload["m_t"] <= payload["plateau"][1]
    assert payload["errors"]["l2_rel"] < 0.08
    csv_lines = (tmp_path / "normalized_rational_samples.csv").read_text().splitlines()
    assert csv_lines[0] == "x,J_rec,J_true"
    assert len(csv_lines) == len(payload["samples"]) + 1
    # full round-trip float formatting
    x0, j0, t0 = csv_lines[1].split(",")
    assert float(x0) == payload["samples"][0][0]
    assert float(j0) == payload["samples"][0][1]
    assert float(t0) == payload["samples"][0][2]


def test_reconstruct_n_zero_runs_flagged(tmp_path):
    code = run_cli(
        [
            "reconstruct",
            "--problem",
            "normalized_rational",
            "--n-coeffs",
            "0",
            "--n-max",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "normalized_rational_report.json").read_text())
    assert payload["confident"] is False


def test_reconstruct_emit_controls_files(tmp_path):
    code = run_cli(
        [
            "reconstruct",
            "--problem",
            "rational_unnormalized",
            "--n-coeffs",
            "20",
            "--n-max",
            "50",
            "--emit",
            "json",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_OK
    assert (tmp_path / "rational_unnormalized_report.json").exists()
    assert not (tmp_path / "rational_unnormalized_samples.csv").exists()


def test_config_escalation_budget_is_unknown_field(tmp_path, capsys):
    # Synthesis is exact, so the precision knobs are gone from the config.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "normalized_rational", "escalation_budget": 0}))
    code = run_cli(["reconstruct", "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    assert "escalation_budget" in capsys.readouterr().err
    assert not (tmp_path / "normalized_rational_report.json").exists()


@pytest.mark.parametrize(
    "command,first_index,needle",
    [("reconstruct", 0, "c_0"), ("thermal", 1, "c_0"), ("moments", 0, "row 0")],
    ids=["reconstruct-0", "thermal-1", "moments-0"],
)
def test_coefficients_near_float_limit_exit_one(tmp_path, capsys, command, first_index, needle):
    # c_0 = sqrt(2) (1 + 1 + 1/2) 1e308 overflows, and so does the L^p
    # statistic of moment row 0, |1e308|^p: exit 1 naming it, no report.
    f = tmp_path / "huge.csv"
    values = ["1e308", "-1e308", "1e308"]
    f.write_text("".join(f"{first_index + i},{v}\n" for i, v in enumerate(values)))
    out = tmp_path / "out"
    code = run_cli([command, "--input", str(f), "--out", str(out)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize(
    "field,value",
    [("n_coeffs", "60"), ("epsilon", None), ("n_max", 1.5), ("expect_positive", "no")],
)
def test_config_value_of_wrong_type_exits_one_naming_field(tmp_path, capsys, field, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "harmonic", field: value}))
    code = run_cli(["moments", "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR
    assert f"config: {field} must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_moments.json"))


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "normalized_rational", "n_coeffs": 10, "n_max": 25}))
    code = run_cli(
        ["reconstruct", "--config", str(config), "--n-coeffs", "12", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "normalized_rational_report.json").read_text())
    assert payload["config"]["n_coeffs"] == 12  # flag wins over file


def test_config_file_unknown_field(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "harmonic", "bogus": 1}))
    assert run_cli(["reconstruct", "--config", str(config)]) == cli.EXIT_ERROR


# ---------------------------------------------------------------- thermal


def test_thermal_builtin_run(tmp_path):
    code = run_cli(
        [
            "thermal",
            "--problem",
            "thermal_boson_demo",
            "--n-coeffs",
            "30",
            "--n-max",
            "80",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "thermal_boson_demo_report.json").read_text())
    assert payload["kind"] == "thermal"
    assert payload["weighted_errors"]["l2_rel"] < 0.10
    lines = (tmp_path / "thermal_boson_demo_samples.csv").read_text().splitlines()
    assert lines[0] == "v,J_rec,J_true"


def test_thermal_zero_coefficients_emit_zero_curve(tmp_path):
    f = tmp_path / "z.csv"
    f.write_text("\n".join(f"{k},0.0" for k in range(1, 11)) + "\n")
    code = run_cli(["thermal", "--input", str(f), "--n-max", "20", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "z_report.json").read_text())
    assert all(s[1] == 0.0 for s in payload["samples"])


def test_thermal_rejects_index_zero_file(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,1.0\n1,0.5\n")
    code = run_cli(["thermal", "--input", str(f), "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR


def test_thermal_rejects_power_problem(tmp_path):
    code = run_cli(["thermal", "--problem", "harmonic", "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR


def test_reconstruct_rejects_thermal_problem(tmp_path):
    code = run_cli(["reconstruct", "--problem", "thermal_boson_demo", "--out", str(tmp_path)])
    assert code == cli.EXIT_ERROR


# ------------------------------------------------------------------ sweep


def test_sweep_single_cell_matches_reconstruct(tmp_path, monkeypatch):
    monkeypatch.setenv("CUTJUMP_THREADS", "1")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    seed = 777 + 0  # seed_base + stride*0 + 0
    code = run_cli(
        [
            "sweep",
            "--problem",
            "normalized_rational",
            "--n-list",
            "25",
            "--epsilons",
            "1e-5",
            "--repeats",
            "1",
            "--seed-base",
            "777",
            "--n-max",
            "60",
            "--out",
            str(out_a),
        ]
    )
    assert code == cli.EXIT_OK
    rows = (out_a / "normalized_rational_sweep.csv").read_text().splitlines()
    assert rows[0].startswith("N,epsilon,repeat,seed")
    cells = rows[1].split(",")
    assert cells[0] == "25" and cells[3] == str(seed)

    code = run_cli(
        [
            "reconstruct",
            "--problem",
            "normalized_rational",
            "--n-coeffs",
            "25",
            "--epsilon",
            "1e-5",
            "--seed",
            str(seed),
            "--n-max",
            "60",
            "--out",
            str(out_b),
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((out_b / "normalized_rational_report.json").read_text())
    header = rows[0].split(",")
    row = dict(zip(header, cells))
    assert int(row["m_t"]) == payload["m_t"]
    assert [int(row["plateau_lo"]), int(row["plateau_hi"])] == payload["plateau"]
    assert float(row["l2_rel"]) == payload["errors"]["l2_rel"]


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    args = [
        "sweep",
        "--problem",
        "normalized_rational",
        "--n-list",
        "20",
        "--epsilons",
        "1e-4,1e-6",
        "--repeats",
        "2",
        "--n-max",
        "50",
    ]
    monkeypatch.setenv("CUTJUMP_THREADS", "1")
    assert run_cli(args + ["--out", str(tmp_path / "serial")]) == cli.EXIT_OK
    monkeypatch.setenv("CUTJUMP_THREADS", "4")
    assert run_cli(args + ["--out", str(tmp_path / "par")]) == cli.EXIT_OK
    a = (tmp_path / "serial" / "normalized_rational_sweep.csv").read_bytes()
    b = (tmp_path / "par" / "normalized_rational_sweep.csv").read_bytes()
    assert a == b


def test_sweep_bad_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CUTJUMP_THREADS", "zero")
    code = run_cli(
        [
            "sweep",
            "--problem",
            "normalized_rational",
            "--n-list",
            "10",
            "--epsilons",
            "1e-4",
            "--repeats",
            "1",
            "--n-max",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_ERROR


def test_sweep_validate_bounds_the_run_count():
    base = cli.RunConfig(problem="harmonic")
    at = cli.SweepConfig(base=base, ns=[10, 20], epsilons=[1e-3, 1e-4], repeats=cli.MAX_SWEEP_CELLS // 4)
    at.validate()
    with pytest.raises(ConfigError, match=f"cell count: {cli.MAX_SWEEP_CELLS + 4} "):
        dataclasses.replace(at, repeats=at.repeats + 1).validate()
    huge = cli.SweepConfig(base=base, ns=list(range(1, 1001)), repeats=10**6)
    with pytest.raises(ConfigError, match="cell count: 5000000000 "):
        huge.validate()


# ------------------------------------------------------------ entry points


def test_module_entry_starts_without_warning():
    # The package must not import cli itself, or runpy warns that
    # cutjump.cli is already in sys.modules.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cutjump.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------ determinism


def test_runs_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        code = run_cli(
            [
                "reconstruct",
                "--problem",
                "normalized_rational",
                "--n-coeffs",
                "25",
                "--epsilon",
                "1e-6",
                "--seed",
                "9",
                "--n-max",
                "60",
                "--out",
                str(tmp_path / sub),
            ]
        )
        assert code == cli.EXIT_OK
    for name in ("normalized_rational_report.json", "normalized_rational_samples.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
