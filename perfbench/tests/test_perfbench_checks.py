"""The benchmark's output checks must fire on wrong output.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402

CFG = ("normalized_rational", 20)


@pytest.fixture(scope="module")
def clean_op(tmp_path_factory):
    """One real clean_deep op on the cheapest config, with its output."""
    wl = workloads.CleanDeep(0, tmp_path_factory.mktemp("work"))
    out = wl.execute(CFG, None)
    wl.check(CFG, out)
    return wl, out


def test_clean_op_passes_its_checks_twice(clean_op):
    wl, out = clean_op
    assert wl.check(CFG, wl.execute(CFG, None)) == wl.check(CFG, out)


def test_staged_pipeline_matches_build_report(clean_op):
    wl, out = clean_op
    tr = stages.Tracer()
    wl.check(CFG, wl.execute(CFG, tr))  # raises on any bit of difference
    names = {s["name"] for s in tr.spans}
    assert {"reconstruct.synthesize", "reconstruct.plateau", "reconstruct.checks", "cli.json"} <= names


def test_l2_beyond_tolerance_fails(clean_op):
    wl, (report, integrals, text) = clean_op
    worse = dataclasses.replace(report.errors, l2_rel=0.5)
    with pytest.raises(checks.CheckFailed, match="l2_rel"):
        wl.check(CFG, (dataclasses.replace(report, errors=worse), integrals, text))


def test_nonfinite_json_fails(clean_op):
    wl, (report, integrals, text) = clean_op
    with pytest.raises(checks.CheckFailed, match="NaN"):
        wl.check(CFG, (report, integrals, text.replace('"m_t": ', '"m_t": NaN, "x": ', 1)))
    with pytest.raises(checks.CheckFailed, match="Infinity"):
        checks.strict_json('{"a": -Infinity}')


def test_wrong_integral_fails(clean_op):
    wl, (report, (mellin, cauchy, density), text) = clean_op
    with pytest.raises(checks.CheckFailed, match="mellin k=1"):
        wl.check(CFG, (report, ([mellin[0], mellin[1] * 1.1, mellin[2]], cauchy, density), text))
    with pytest.raises(checks.CheckFailed, match="cauchy"):
        wl.check(CFG, (report, (mellin, cauchy + 0.1, density), text))


def test_changed_output_on_repeat_fails(clean_op):
    wl, (report, integrals, text) = clean_op
    with pytest.raises(checks.CheckFailed, match="differs"):
        wl.check(CFG, (report, integrals, text.replace('"m_t": ', '"m_t":  ', 1)))


SWEEP_CSV = (
    "N,epsilon,repeat,seed,plateau_lo,plateau_hi,m_t,confident,stabilized,l2_abs,l2_rel,error\n"
    + "".join(f"60,{e!r},0,{i},5,20,13,false,true,0.1,0.09,\n" for i, e in enumerate(workloads.NoisySweep.EPSILONS))
)


def test_sweep_csv_checks(tmp_path):
    wl = workloads.NoisySweep(0, tmp_path)
    assert len(wl.check(1, (0, SWEEP_CSV))) == 5
    with pytest.raises(checks.CheckFailed, match="exited"):
        wl.check(1, (1, SWEEP_CSV))
    with pytest.raises(checks.CheckFailed, match="rows"):
        wl.check(2, (0, SWEEP_CSV.rsplit("\n", 2)[0] + "\n"))
    with pytest.raises(checks.CheckFailed, match="cell failed"):
        wl.check(3, (0, SWEEP_CSV.replace("0.09,\n", "0.09,ConvergenceError: no\n", 1)))
    with pytest.raises(checks.CheckFailed, match="l2_rel"):
        wl.check(4, (0, SWEEP_CSV.replace("0.09,", "750.0,", 1)))
    with pytest.raises(checks.CheckFailed, match="differs"):
        wl.check(1, (0, SWEEP_CSV.replace("0.1,", "0.2,", 1)))
    staged = [(13, [5, 20], 0.1, 0.09, [])] * 5
    assert wl.check(1, staged) == [0.09] * 5
    with pytest.raises(checks.CheckFailed, match="staged"):
        wl.check(1, [(14, [5, 20], 0.1, 0.09, [])] + staged[1:])


def test_cli_exit_code_is_checked(tmp_path):
    wl = workloads.CliOneshot(0, tmp_path)
    proc = subprocess.CompletedProcess([], 1, "", "error: bad")
    with pytest.raises(checks.CheckFailed, match="exited with 1"):
        wl.check(wl.MOMENTS_CMD, (proc, None))


class _Flaky:
    """Two ops per round; the second fails its check."""

    def round(self, traced):
        return [0, 1]

    def execute(self, spec, tr):
        return spec

    def check(self, spec, out):
        if out == 1:
            raise checks.CheckFailed("corrupted")
        return [0.5]


def test_failed_check_counts_as_failed_op():
    ph = run.timed_phase(_Flaky(), seconds=0.0)
    assert (ph.attempted, ph.failed, len(ph.untraced), ph.l2) == (2, 1, 1, [0.5])
    assert len(ph.refs) == 1 and ph.refs[0] > 0.0  # one calibration pass per completed op


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(x > value for x in range(40)) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_union_of_children():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps a, as pool workers do
        {"name": "c", "start": 8.0, "end": 9.0, "parent": 0},
    ]
    assert stages.self_times(spans) == [4.0, 3.0, 3.0, 1.0]
