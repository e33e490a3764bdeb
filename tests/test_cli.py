import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cutjump import cli, corpus, reconstruct
from cutjump.errors import ConfigError, InputError


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
        # one epsilon whose draw range 2 eps overflows fails the sweep before any cell runs
        (
            ["sweep", "--problem", "harmonic", "--n-list", "5", "--epsilons", "1e-3,1e308", "--repeats", "1"],
            "error: epsilons: must be at most half the largest double, got 1e+308",
        ),
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


@pytest.mark.parametrize("command", ["reconstruct", "thermal", "moments"])
def test_non_utf8_input_exits_one_naming_the_line(tmp_path, capsys, command):
    start = 1 if command == "thermal" else 0
    f = tmp_path / "bad.csv"
    f.write_bytes(f"{start},1.0\n{start + 1},".encode() + b"\xff0.5\n")
    out = tmp_path / "out"
    code = run_cli([command, "--input", str(f), "--out", str(out)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: not UTF-8 text (byte 0xff)")
    assert "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("header", ["", "# epsilon=1e-3\n"], ids=["bare", "header"])
@pytest.mark.parametrize("command", ["reconstruct", "thermal", "moments"])
def test_byte_order_mark_is_ignored(tmp_path, command, header):
    # Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark;
    # the file must read as the same data without it, byte for byte.
    start = 1 if command == "thermal" else 0
    text = header + "".join(f"{start + k},{0.5**k!r}\n" for k in range(6))
    f, out = tmp_path / "data.csv", tmp_path / "out"
    outputs = []
    for data in (b"\xef\xbb\xbf" + text.encode(), text.encode()):
        f.write_bytes(data)
        assert run_cli([command, "--input", str(f), "--out", str(out), "--emit", "both"]) == cli.EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_byte_order_mark_keeps_the_line_of_a_bad_byte(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_bytes(b"\xef\xbb\xbf# epsilon=1e-3\n0,1.0\n1,\xff0.5\n")
    assert run_cli(["reconstruct", "--input", str(f), "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: line 3: not UTF-8 text (byte 0xff)")


@pytest.mark.parametrize(
    "command,config,needle",
    [("reconstruct", {"input_path": "a\x00b"}, "input:")]
    + [(c, {"output_dir": "o\x00x", "problem": "harmonic"}, "out:") for c in ("reconstruct", "thermal", "moments", "sweep")],
    ids=["reconstruct-input", "reconstruct-out", "thermal-out", "moments-out", "sweep-out"],
)  # fmt: skip
def test_nul_in_a_config_path_exits_one_naming_the_flag(tmp_path, monkeypatch, capsys, command, config, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = run_cli([command, "--config", "cfg.json"])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {needle} must not contain a NUL character\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


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


def test_moments_overflowing_exponent_exits_one_naming_it(tmp_path, capsys):
    # The harmonic coefficients are at most 1, but the row factor (n+1)^(p-1)
    # overflows from row 1 at p = 1e6: exit 1 naming the exponent, not the data.
    out = tmp_path / "out"
    code = run_cli(["moments", "--problem", "harmonic", "--p-exponent", "1e6", "--n-max", "5", "--out", str(out)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "p-exponent" in err
    assert "coefficients" not in err
    assert not list(out.glob("*.json"))


def test_moments_overflowing_lp_statistic_exits_one_naming_the_row(tmp_path, capsys):
    # Row 16 of a constant sequence 2.0 has the finite factors 17^204 and
    # 2^205, but their product overflows a double: exit 1 naming the row,
    # not a JSON error naming the file.
    f = tmp_path / "two.csv"
    f.write_text("".join(f"{k},2.0\n" for k in range(31)))
    out = tmp_path / "out"
    argv = ["moments", "--input", str(f), "--f-mode", "none", "--p-exponent", "205", "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "row 16: the L^p statistic lies outside the double range" in err
    assert "JSON compliant" not in err
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


POWER_PROBLEMS = [pid for pid in corpus.BUILTIN_IDS if corpus.builtin(pid).start_index == 0]


def _stopping_cells(count: int, seed: int) -> list:
    """Random sweep cells over the power problems, with noise from none to
    beyond the double range and plateau policies across their range."""
    rng = np.random.default_rng(seed)
    epsilons = [0.0, 0.3, *(10.0**-k for k in range(1, 10)), 1e141, 1e144]
    cells = []
    for i in range(count):
        base = cli.RunConfig(
            problem=str(rng.choice(POWER_PROBLEMS)),
            n_max=int(rng.choice([0, 1, 7, 30, 200, 500])),
            plateau_theta=float(10.0 ** rng.uniform(-5.0, math.log10(0.49))),
            plateau_window=int(rng.integers(2, 31)),
        )
        sweep = cli.SweepConfig(
            base=base,
            ns=[int(rng.choice([1, 2, 3, 10, 20, 60, 120, 250]))],
            epsilons=[float(rng.choice(epsilons))],
            repeats=1,
            seed_base=int(rng.integers(0, 2**32)),
        )
        cells += sweep.cells()
    return cells


def _full_depth_rows(cells, monkeypatch) -> list:
    with monkeypatch.context() as m:
        m.setattr(reconstruct, "_stopping_report", reconstruct.build_report)
        return [cli._sweep_cell(c) for c in cells]


@pytest.mark.parametrize("seed", range(4))
def test_sweep_rows_equal_the_full_depth_rows(monkeypatch, seed):
    # A sweep cell synthesizes only as deep as the plateau search reads; its
    # row, error text included, must be the one a full-depth report gives.
    cells = _stopping_cells(150, seed)
    rows = [cli._sweep_cell(c) for c in cells]
    for cell, row, want in zip(cells, rows, _full_depth_rows(cells, monkeypatch)):
        assert [cli._fmt(row[k]) for k in cli.SWEEP_COLUMNS] == [cli._fmt(want[k]) for k in cli.SWEEP_COLUMNS], cell


def test_default_sweep_cells_stop_early():
    spec = corpus.builtin("normalized_rational")
    for eps in (1e-3, 1e-5):
        cs = corpus.coefficients(spec, 60, epsilon=eps, seed=5)
        report = reconstruct._stopping_report(cs, 200, reconstruct.PlateauPolicy(), spec.jump)
        full = reconstruct.build_report(cs, 200, truth=spec.jump)
        assert report.c.size == report.M.size < 100
        assert np.array_equal(report.c, full.c[: report.c.size])
        assert np.array_equal(report.M, full.M[: report.M.size])
        assert report.j_true is None
        assert (report.m_t, report.plateau, report.errors) == (full.m_t, full.plateau, full.errors)


def test_sweep_keeps_the_range_error_past_the_stopping_depth(tmp_path):
    # At epsilon 1e141 the energies leave the double range at M_135, far
    # past the depth the plateau search reads; only the bound on the sums
    # sends this cell to full depth, where it fails as ``reconstruct`` does.
    args = ["--problem", "normalized_rational", "--n-max", "200", "--out", str(tmp_path)]
    assert run_cli(["sweep", *args, "--n-list", "60", "--epsilons", "1e141", "--repeats", "1", "--seed-base", "0"]) == 1
    rows = (tmp_path / "normalized_rational_sweep.csv").read_text().splitlines()
    want = "InputError: M_135 lies outside the double range; rescale the input coefficients"
    assert rows[1].split(",")[-1] == want
    cs = corpus.coefficients(corpus.builtin("normalized_rational"), 60, epsilon=1e141, seed=0)
    with pytest.raises(InputError, match="M_135 lies outside"):
        reconstruct.build_report(cs, 200)
    assert run_cli(["reconstruct", *args, "--n-coeffs", "60", "--epsilon", "1e141", "--seed", "0"]) == 1


def test_sweep_row_names_the_first_coefficient_out_of_range(tmp_path, capsys):
    # At epsilon 8e307 both c_3 and M_0 lie outside the double range.  The
    # coefficients are checked first, in the sweep cell as in ``reconstruct``.
    args = ["--problem", "normalized_rational", "--out", str(tmp_path)]
    assert run_cli(["sweep", *args, "--n-list", "60", "--epsilons", "8e307", "--repeats", "1", "--seed-base", "0"]) == 1
    rows = (tmp_path / "normalized_rational_sweep.csv").read_text().splitlines()
    want = "c_3 lies outside the double range; rescale the input coefficients"
    assert rows[1].split(",")[-1] == f"InputError: {want}"
    capsys.readouterr()
    assert run_cli(["reconstruct", *args, "--n-coeffs", "60", "--epsilon", "8e307", "--seed", "0"]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


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
    # These 4 small cells are far below the pool threshold; with it at 0
    # the second run goes through a 4-worker pool.
    monkeypatch.setattr(cli, "SWEEP_POOL_MIN_S", 0.0)
    counted = []
    count = cli._worker_count
    monkeypatch.setattr(cli, "_worker_count", lambda cells: counted.append(count(cells)) or counted[-1])
    monkeypatch.setenv("CUTJUMP_THREADS", "1")
    assert run_cli(args + ["--out", str(tmp_path / "serial")]) == cli.EXIT_OK
    monkeypatch.setenv("CUTJUMP_THREADS", "4")
    assert run_cli(args + ["--out", str(tmp_path / "par")]) == cli.EXIT_OK
    assert counted == [1, 4]
    assert "concurrent.futures.process" in sys.modules
    a = (tmp_path / "serial" / "normalized_rational_sweep.csv").read_bytes()
    b = (tmp_path / "par" / "normalized_rational_sweep.csv").read_bytes()
    assert a == b


def _sweep_cells(ns, n_max, epsilons, repeats=1) -> list:
    base = cli.RunConfig(problem="normalized_rational", n_max=n_max)
    return cli.SweepConfig(base=base, ns=ns, epsilons=epsilons, repeats=repeats).cells()


DEFAULT_EPSILONS = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]


TABLE_SWEEP = ["sweep", "--problem", "normalized_rational", "--n-list", "20,60",
               "--epsilons", "0,1e-3,1e-6", "--repeats", "2", "--n-max", "80"]  # fmt: skip


def test_sweep_rows_are_the_same_bytes_with_cold_and_warm_tables(tmp_path, monkeypatch, fresh_tables):
    # Serial and through the pool, with the tables built by the cells
    # themselves (cold; pool workers forked with none) or already there.
    monkeypatch.setattr(cli, "SWEEP_POOL_MIN_S", 0.0)
    csv = {}
    for mode, threads in (("serial", "1"), ("pool", "2")):
        monkeypatch.setenv("CUTJUMP_THREADS", threads)
        for state in ("cold", "warm"):
            with monkeypatch.context() as m:
                if state == "cold":
                    for cache in fresh_tables:
                        cache.cache_clear()
                    m.setattr(cli, "_warm_tables", lambda sweep: None)
                out = tmp_path / f"{mode}_{state}"
                assert run_cli(TABLE_SWEEP + ["--out", str(out)]) == cli.EXIT_OK
                csv[mode, state] = (out / "normalized_rational_sweep.csv").read_bytes()
    assert len(set(csv.values())) == 1
    assert len(csv["serial", "cold"].splitlines()) == 13


def test_warm_tables_hold_the_coefficients_and_truth_the_cells_read(fresh_tables):
    sweep = cli._sweep_from_args(cli.build_parser().parse_args(TABLE_SWEEP))
    sweep.validate()
    cli._warm_tables(sweep)
    warmed = (corpus._clean_table, reconstruct._cached_truth_on_grid)
    misses = [cache.cache_info().misses for cache in warmed]
    for cell in sweep.cells():
        assert not cli._sweep_cell(cell)["error"]
    assert [cache.cache_info().misses for cache in warmed] == misses


def test_warm_tables_build_no_more_than_the_cache_holds(fresh_tables):
    size = corpus.CLEAN_CACHE_SIZE
    ns = ",".join(str(n) for n in [3, 3, *range(size + 2, 0, -1)])
    sweep = cli._sweep_from_args(cli.build_parser().parse_args(
        ["sweep", "--problem", "harmonic", "--n-list", ns, "--epsilons", "0"]))  # fmt: skip
    cli._warm_tables(sweep)
    info = corpus._clean_table.cache_info()
    assert (info.currsize, info.misses) == (size, size)
    corpus._clean_table(corpus.builtin("harmonic"), 3)  # the first N is kept
    assert corpus._clean_table.cache_info().hits == 1


def test_pool_tasks_carry_several_cells():
    assert cli._chunk_size(1, 2) == 1
    assert cli._chunk_size(8, 2) == 1
    assert cli._chunk_size(9, 2) == 2
    assert cli._chunk_size(100, 2) == 13


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    # Under taskset or a cpuset the process may use fewer CPUs than the
    # machine has; the default pool must not exceed them.
    cells = _sweep_cells([1000], 800, [0.0], repeats=5)  # estimated well above the pool threshold
    monkeypatch.delenv("CUTJUMP_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._worker_count(cells) == 1
    monkeypatch.setenv("CUTJUMP_THREADS", "4")
    assert cli._worker_count(cells) == 4  # the variable still sets the cap


@pytest.mark.parametrize(
    "ns,n_max,epsilons,repeats,cap,expected",
    [
        ([1000], 800, [0.0], 2, 4, 2),  # fewer cells than the cap
        ([1000], 800, [0.0], 2, 1, 1),
        ([400], 200, [0.0], 3, 2, 2),
        (list(range(60, 68)), 200, [0.0], 5, 8, 8),  # 40 noise-free cells of the default shape
        (list(range(60, 68)), 200, [0.0], 5, 3, 3),
        (list(range(60, 80)), 200, DEFAULT_EPSILONS, 1, 2, 2),  # 100 noisy cells
    ],
    ids=["N1000-cap4", "N1000-cap1", "N400-cap2", "40cells-cap8", "40cells-cap3", "100noisy-cap2"],
)
def test_sweep_above_the_pool_threshold_gets_min_of_cap_and_cells(
    monkeypatch, ns, n_max, epsilons, repeats, cap, expected
):
    cells = _sweep_cells(ns, n_max, epsilons, repeats)
    assert sum(cli._cell_seconds(c.n_coeffs, c.n_max, c.epsilon) for _, c in cells) >= cli.SWEEP_POOL_MIN_S
    monkeypatch.setenv("CUTJUMP_THREADS", str(cap))
    assert cli._worker_count(cells) == expected


def test_sweep_below_the_pool_threshold_runs_serially(monkeypatch):
    cells = _sweep_cells([60], 200, DEFAULT_EPSILONS)  # the default sweep's shape, one repeat
    monkeypatch.setenv("CUTJUMP_THREADS", "2")
    assert cli._worker_count(cells) == 1
    monkeypatch.setenv("CUTJUMP_THREADS", "0")  # still validated
    with pytest.raises(ConfigError, match="CUTJUMP_THREADS"):
        cli._worker_count(cells)


def test_noisy_cells_are_estimated_at_their_stopping_depth(monkeypatch):
    # Noisy cells stop synthesizing at the plateau, so 40 of the default
    # shape stay below the pool threshold, while 40 noise-free ones, which
    # read to n_max, are above it.
    monkeypatch.setenv("CUTJUMP_THREADS", "2")
    assert cli._worker_count(_sweep_cells(list(range(60, 68)), 200, DEFAULT_EPSILONS)) == 1
    assert cli._worker_count(_sweep_cells(list(range(60, 68)), 200, [0.0], repeats=5)) == 2
    assert cli._cell_seconds(60, 200, 1e-3) < cli._cell_seconds(60, 200, 1e-7) < cli._cell_seconds(60, 200, 0.0)
    assert cli._cell_seconds(60, 20, 1e-3) == cli._cell_seconds(60, 20, 0.0)  # no deeper than n_max


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


def _fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports cutjump from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, cwd=cwd
    )


def test_module_entry_starts_without_warning():
    # The package must not import cli itself, or runpy warns that
    # cutjump.cli is already in sys.modules.
    proc = _fresh_python("-W", "error", "-m", "cutjump.cli", "--help")
    assert proc.returncode == 0, proc.stderr


# Each of these modules took 12-30 ms to import on a 2-vCPU VM, paid again
# by every fresh process that imports it: a CLI command, a sweep worker.
_COLD_MODULES = ("concurrent.futures.process", "numpy.ma", "numpy.random")


def test_runs_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # ``main`` parses with one parser per process.  A sweep, a usage error
    # and a reconstruct run one after another here must print, exit and
    # write exactly what each does in a fresh interpreter.
    runs = [
        ["sweep", "--problem", "normalized_rational", "--n-list", "20", "--epsilons", "0,1e-4",
         "--repeats", "1", "--n-max", "60", "--out", "out"],
        ["reconstruct", "--problem", "harmonic", "--n-coeffs", "abc"],
        ["reconstruct", "--problem", "normalized_rational", "--n-coeffs", "25", "--epsilon", "1e-6",
         "--seed", "9", "--n-max", "60", "--out", "out"],
    ]  # fmt: skip
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the same width in both
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    results = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
        proc = _fresh_python("-m", "cutjump.cli", *argv, cwd=fresh)
        assert results[-1] == (proc.returncode, proc.stdout, proc.stderr)
    assert [code for code, _, _ in results] == [cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_OK]
    assert results[1][2].startswith("usage: cutjump reconstruct")
    assert "argument --n-coeffs: invalid int value: 'abc'" in results[1][2]
    files = sorted(f.relative_to(here) for f in here.rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(fresh) for f in fresh.rglob("*") if f.is_file())
    assert len(files) == 3  # the sweep CSV, the report and the samples
    for name in files:
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


def _cold_modules_loaded(code: str) -> list[str]:
    """Which of ``_COLD_MODULES`` a fresh interpreter holds after ``code``
    (read from the last line of its stdout)."""
    probe = f"import sys\n{code}\nprint(*[m for m in {_COLD_MODULES!r} if m in sys.modules])"
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_the_process_pool_unimported():
    assert "concurrent.futures.process" not in _cold_modules_loaded("import cutjump.cli")


def test_noise_free_report_imports_neither_numpy_ma_nor_numpy_random():
    code = (
        "from cutjump import corpus, reconstruct\n"
        "spec = corpus.builtin('normalized_rational')\n"
        "reconstruct.build_report(corpus.coefficients(spec, 20), n_max=50, truth=spec.jump)"
    )
    assert _cold_modules_loaded(code) == []


@pytest.mark.parametrize("epsilons,expected", [("0", []), ("1e-5", ["numpy.random"])])
def test_pool_sweep_imports_numpy_random_only_for_noise(tmp_path, epsilons, expected):
    # The pool path imports numpy.random before the fork only when a cell is
    # noisy; the noise-free sweep's parent never needs it.
    argv = ["sweep", "--problem", "normalized_rational", "--n-list", "10", "--epsilons", epsilons,
            "--repeats", "2", "--n-max", "20", "--out", str(tmp_path)]  # fmt: skip
    # 2 tiny cells run serially unless the pool threshold is lowered to 0.
    code = (
        "import os\nos.environ['CUTJUMP_THREADS'] = '2'\nfrom cutjump import cli\n"
        f"cli.SWEEP_POOL_MIN_S = 0.0\ncli.main({argv!r})"
    )
    loaded = _cold_modules_loaded(code)
    assert "concurrent.futures.process" in loaded
    assert [m for m in loaded if m != "concurrent.futures.process"] == expected
    assert (tmp_path / "normalized_rational_sweep.csv").is_file()


def test_small_sweep_runs_without_the_process_pool(tmp_path):
    # Five N = 60 cells at the default depth, one per epsilon: less work
    # than starting a pool costs, so they run in this process even with two
    # workers allowed.
    argv = ["sweep", "--problem", "normalized_rational", "--n-list", "60",
            "--epsilons", "1e-3,1e-4,1e-5,1e-6,1e-7", "--repeats", "1", "--out", str(tmp_path)]  # fmt: skip
    code = f"import os\nos.environ['CUTJUMP_THREADS'] = '2'\nfrom cutjump import cli\ncli.main({argv!r})"
    assert _cold_modules_loaded(code) == ["numpy.random"]
    assert len((tmp_path / "normalized_rational_sweep.csv").read_text().splitlines()) == 6


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
