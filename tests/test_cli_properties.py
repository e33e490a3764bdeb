"""Property tests of the CLI input contract.

Whatever the argv, JSON config or coefficient CSV, a run ends in exit code
0, 1 or 2, writes no traceback to stderr, and every JSON file it writes
parses as strict JSON (no NaN or Infinity).  Values that would be accepted
are kept small (N and n_max at most a few dozen, one-cell sweeps), so the
file runs in a few seconds; values above the ceilings are drawn too, since
they are rejected before any numerics run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cutjump import cli, corpus

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    # the one fixture only sets CUTJUMP_THREADS, the same for every example
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

POWER_CSV = "".join(f"{k},{1.0 / (k + 1)!r}\n" for k in range(12))
THERMAL_CSV = "# epsilon=1e-06\n" + "".join(f"{k},{6.0 / ((k + 2) * (k + 3))!r}\n" for k in range(1, 12))

junk = st.text(max_size=4)
# flag -> (valid values, invalid values); sizes (N, n_max, cells) are small
# or just above the ceilings, so that a run stays short even if a ceiling
# check were lost.  None marks a flag without a value.
FLAG_VALUES = {
    "--problem": (list(corpus.BUILTIN_IDS), ["nope"]),
    "--input": (["power.csv", "thermal.csv"], ["missing.csv"]),
    "--n-coeffs": (["0", "1", "5", "12"], ["-1", "1001", "x"]),
    "--epsilon": (["0", "1e-6", "1e-3", "8e307"], ["-1", "nan", "inf", "1e308", "1e400"]),
    "--seed": (["0", "7", str(2**64 - 1)], ["-5", str(2**64)]),
    "--n-max": (["0", "1", "10", "25"], ["-2", "801", "x"]),
    "--plateau-theta": (["1e-3", "0.3", "0.49"], ["0", "0.5", "nan", "-1"]),
    "--plateau-window": (["2", "5", "30"], ["1", "0", "x"]),
    "--emit": (["json", "csv", "both"], ["xml"]),
    "--p-exponent": (["2.5", "1.5"], ["1.0", "nan", "inf"]),
    "--f-mode": (["none", "k_plus_1", "k"], ["bad"]),
    "--expect-positive": ([None], []),
    "--epsilons": (["1e-3", "1e-4,1e-6", "0"], ["nan", "x", "", "-1"]),
    "--n-list": (["8", "5,10"], ["0", "1001", "x"]),
    "--repeats": (["1", "2"], ["0", "x"]),
    "--seed-base": (["0", "5", str(2**64 - 1 - 2 * 1000003)], ["-3", str(2**64 - 1)]),
    "--bogus": ([], ["1"]),
    "--eps": ([], ["1e-3"]),  # an abbreviation of --epsilon
}
SUBCOMMANDS = ["moments", "reconstruct", "thermal", "sweep"]
# Each run names a problem of its variant first and keeps sweeps to one
# cell; drawn flags and config keys may override both.
PROBLEMS = {"moments": "harmonic", "reconstruct": "normalized_rational", "thermal": "thermal_boson_demo"}
ONE_CELL = ["--n-list", "8", "--epsilons", "1e-3", "--repeats", "1"]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run(argv: list[str], work: Path) -> None:
    """Run the CLI in ``work`` and check the contract on what it left."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", str(work / "out")])
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for path in work.glob("out/*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture(autouse=True)
def _serial_sweeps(monkeypatch):
    monkeypatch.setenv("CUTJUMP_THREADS", "1")


@st.composite
def argvs(draw):
    """A subcommand and up to four flags.  Half the examples use only the
    subcommand's own flags with valid values; the rest draw from everything."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    clean = draw(st.booleans())
    own = [f.metadata["flag"] for f in cli._fields(command) if f.name != "output_dir"]
    if command == "sweep":
        own += ["--epsilons", "--n-list", "--repeats", "--seed-base"]
    pool = own if clean else sorted(FLAG_VALUES)
    argv = [command, "--n-max", "20", *(ONE_CELL if command == "sweep" else ["--problem", PROBLEMS[command]])]
    for flag in draw(st.lists(st.sampled_from(pool), max_size=4)):
        valid, invalid = FLAG_VALUES[flag]
        value = draw(st.sampled_from(valid) if clean else st.sampled_from(valid + invalid) | junk)
        argv += [flag] if value is None else [flag, value]
    return argv


@SETTINGS
@given(argv=argvs())
def test_any_argv_keeps_the_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "power.csv").write_text(POWER_CSV)
        (work / "thermal.csv").write_text(THERMAL_CSV)
        argv = [str(work / a) if a.endswith(".csv") and not a.startswith("-") else a for a in argv]
        run(argv, work)


json_values = st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | junk
# field -> valid values; a JSON config also takes the keys "validate" and
# "bogus", and any key may get any JSON value.
CONFIG_VALUES = {
    "problem": st.sampled_from(corpus.BUILTIN_IDS),
    "n_coeffs": st.sampled_from([0, 5, 12]),
    "epsilon": st.sampled_from([0, 0.0, 1e-6, 1e-3]),
    "seed": st.sampled_from([0, 7, 2**64 - 1]),
    "plateau_theta": st.sampled_from([1e-3, 0.3]),
    "plateau_window": st.sampled_from([2, 5]),
    "emit": st.sampled_from(["json", "csv", "both"]),
    "p_exponent": st.sampled_from([2.5, None]),
    "f_mode": st.sampled_from(["none", "k_plus_1", "k"]),
    "expect_positive": st.booleans(),
}


@st.composite
def configs(draw):
    """A subcommand and a JSON config object with a small n_max.  Half the
    examples hold only the subcommand's keys, with valid values.  A run
    other than a sweep may name an ``input_path`` of junk text, a NUL
    character included, instead of its problem."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    clean = draw(st.booleans())
    config = {"n_max": draw(st.sampled_from([0, 10, 25] if clean else [0, 25, -1, 801]))}
    if command != "sweep":
        if draw(st.booleans()):
            config["input_path"] = draw(st.just("a\x00b") | junk)
        else:
            config["problem"] = PROBLEMS[command]
    keys = [f.name for f in cli._fields(command) if f.name in CONFIG_VALUES]
    if not clean:
        keys = [*CONFIG_VALUES, "validate", "bogus"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        valid = CONFIG_VALUES.get(key, json_values)
        config[key] = draw(valid if clean else valid | json_values)
    return command, config


@SETTINGS
@given(case=configs())
def test_any_json_config_keeps_the_contract(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):  # a junk input path is relative
        work = Path(tmp)
        path = work / "cfg.json"
        path.write_text(json.dumps(config))  # NaN and Infinity included
        run([command, "--config", str(path), *(ONE_CELL if command == "sweep" else [])], work)


@st.composite
def csv_runs(draw):
    """A subcommand and the bytes of a coefficient CSV.  Half the examples
    are well formed text: a valid or no header, indices from the variant's
    start, and moderate values.  Some have a byte that is not UTF-8 spliced
    in anywhere."""
    command = draw(st.sampled_from(["reconstruct", "thermal", "moments"]))
    start = 1 if command == "thermal" else 0
    if draw(st.booleans()):
        head = draw(st.sampled_from(["", "# epsilon=1e-6\n", "# epsilon=0\n"]))
        values = draw(st.lists(st.floats(-10.0, 10.0).map(repr), min_size=1, max_size=15))
    else:
        head = draw(st.sampled_from(["", "# epsilon=nan\n", "# epsilon=inf\n", "# epsilon=-1\n", "# x\n"]))
        start = draw(st.sampled_from([0, 1, 2]))
        numbers = st.floats(width=64).map(repr) | st.sampled_from(["1e308", "-1e308", "5e-324", "x", ""])
        values = draw(st.lists(numbers, max_size=15))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = (head + "".join(f"{start + i},{v}\n" for i, v in enumerate(values))).replace("\n", newline)
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    data = data[:at] + draw(st.sampled_from([b"", b"", b"", b"\xff", b"\xc3"])) + data[at:]
    extras = [[], ["--epsilon", "1e-3"]] + ([["--f-mode", "k"]] if command == "moments" else [])
    extra = draw(st.sampled_from(extras))
    return command, data, extra


@SETTINGS
@given(case=csv_runs())
def test_any_coefficient_csv_keeps_the_contract(case):
    command, data, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "in.csv"
        path.write_bytes(data)
        run([command, "--input", str(path), "--n-max", "20", *extra], work)
