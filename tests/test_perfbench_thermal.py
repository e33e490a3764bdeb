"""The benchmark's thermal path must keep running on the package as it is.

The traced benchmark builds ``thermal.ThermalReport`` field by field and
compares its digest with the report the CLI writes; a renamed report field
or a changed pipeline shows up here first.  Nothing under ``perfbench/`` is
modified; its directory is only put on ``sys.path``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import stages  # noqa: E402
import workloads  # noqa: E402

from cutjump import cli  # noqa: E402

THERMAL_CFG = ("thermal_boson_demo", 60)


def test_clean_deep_thermal_op_passes_untraced_and_traced(tmp_path):
    wl = workloads.CleanDeep(0, tmp_path)
    assert THERMAL_CFG in wl.CONFIGS
    wl.check(THERMAL_CFG, wl.execute(THERMAL_CFG, None))
    tr = stages.Tracer()
    wl.check(THERMAL_CFG, wl.execute(THERMAL_CFG, tr))  # raises on any bit of difference
    assert {"thermal.synthesize", "thermal.resum", "cli.json"} <= {s["name"] for s in tr.spans}


def test_staged_thermal_command_matches_cli_report(tmp_path):
    wl = workloads.CliOneshot(0, tmp_path)
    cmd = wl.THERMAL_CMD
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(wl.argv(cmd)) == cli.EXIT_OK
    (report_path, _) = wl.outputs(cmd)
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    report = {k: v for k, v in payload.items() if k not in ("schema_version", "kind", "config")}
    assert stages.cli_command(stages.Tracer(), cmd) == stages.report_digest(report)

