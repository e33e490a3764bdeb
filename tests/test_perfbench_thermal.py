"""The benchmark's stages must keep running on the package as it is.

The traced benchmark builds report dataclasses field by field and compares
their digests with the reports the untraced path and the CLI write; a
renamed report field or a changed pipeline shows up here first.  The cases
cover a thermal and a power-series ``clean_deep`` op (the power op runs the
integral checks) and every ``cli_oneshot`` command.  Nothing under
``perfbench/`` is modified; its directory is only put on ``sys.path``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import stages  # noqa: E402
import workloads  # noqa: E402

from cutjump import cli  # noqa: E402

# clean_deep config -> the spans a traced op must record
CLEAN_DEEP_SPANS = {
    ("thermal_boson_demo", 60): {"thermal.synthesize", "thermal.resum", "cli.to_dict", "cli.json"},
    ("normalized_rational", 60): {
        "reconstruct.synthesize", "reconstruct.resum", "reconstruct.checks", "cli.to_dict", "cli.json",
    },
}  # fmt: skip
ONESHOT = workloads.CliOneshot
CLI_COMMANDS = {
    "thermal": ONESHOT.THERMAL_CMD,
    "moments": ONESHOT.MOMENTS_CMD,
    "reconstruct": {**ONESHOT.RECONSTRUCT_CMD, "seed": 0},
}


@pytest.mark.parametrize("cfg", list(CLEAN_DEEP_SPANS), ids=lambda cfg: f"{cfg[0]}-{cfg[1]}")
def test_clean_deep_op_passes_untraced_and_traced(tmp_path, cfg):
    wl = workloads.CleanDeep(0, tmp_path)
    assert cfg in wl.CONFIGS
    wl.check(cfg, wl.execute(cfg, None))
    tr = stages.Tracer()
    wl.check(cfg, wl.execute(cfg, tr))  # raises on any bit of difference
    assert CLEAN_DEEP_SPANS[cfg] <= {s["name"] for s in tr.spans}


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_staged_command_matches_cli_report(tmp_path, name):
    wl = workloads.CliOneshot(0, tmp_path)
    cmd = CLI_COMMANDS[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(wl.argv(cmd)) == cli.EXIT_OK
    report_path = wl.outputs(cmd)[0]
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    report = {k: v for k, v in payload.items() if k not in ("schema_version", "kind", "config")}
    assert stages.cli_command(stages.Tracer(), cmd) == stages.report_digest(report)
