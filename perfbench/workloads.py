"""The three workloads.  Each is a closed loop driven from this process.

A workload hands out rounds of op specs (``round``), runs one op untraced
or traced (``execute``) and checks its output (``check``), which returns the
op's relative L2 errors or raises ``checks.CheckFailed``.  The seed sets the
noise draws and the op order.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import checks
import stages
from cutjump import cli, corpus, reconstruct, thermal

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THERMAL = "thermal_boson_demo"
# How many distinct noise seeds a run draws; each is used by two ops in a
# row, so that repeated ops on one config can be compared byte for byte.
SEED_POOL = 256


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


class CleanDeep:
    """``build_report`` / ``build_thermal_report`` in-process, n_max = 200,
    noise-free input; integral checks and strict JSON on every power op."""

    name = "clean_deep"
    CONFIGS = tuple(
        (pid, n)
        for pid in ("normalized_rational", "harmonic", "rational_unnormalized")
        for n in (20, 60, 120)
    ) + ((THERMAL, 60),)

    def __init__(self, seed: int, work: Path, tr=None):
        self.rng = random.Random(seed)
        self.inputs = {}
        for pid, n in self.CONFIGS:
            spec = corpus.builtin(pid)
            with stages.span(tr, "corpus.coefficients"):
                if pid == THERMAL:
                    data = thermal.thermal_problem(spec, n)
                else:
                    data = corpus.coefficients(spec, n)
            self.inputs[pid, n] = (spec, data)
        self.repeat = checks.RepeatCheck()

    def round(self, traced: bool) -> list:
        order = list(self.CONFIGS)
        self.rng.shuffle(order)
        return order

    def execute(self, cfg, tr):
        spec, data = self.inputs[cfg]
        integrals = None
        if tr is None:
            if cfg[0] == THERMAL:
                report = thermal.build_thermal_report(data, n_max=stages.N_MAX)
            else:
                report = reconstruct.build_report(data, n_max=stages.N_MAX, truth=spec.jump)
                integrals = stages.integral_checks(reconstruct.expansion_fn(report.c, report.m_t))
        elif cfg[0] == THERMAL:
            report = stages.thermal_report(tr, data)
        else:
            report = stages.power_report(tr, data, spec.jump)
            integrals = stages.traced_integral_checks(tr, report)
        _, text = stages.emit(tr, report)
        return report, integrals, text

    def check(self, cfg, out) -> list[float]:
        report, integrals, text = out
        pid = cfg[0]
        errors = report.weighted_errors if pid == THERMAL else report.errors
        l2 = checks.check_l2(errors.l2_rel, checks.CLEAN_L2_TOL[pid], f"{pid} N={cfg[1]}")
        if integrals is not None:
            spec = self.inputs[cfg][0]
            checks.check_integrals(
                spec.coefficient_rule, checks.INTEGRAL_RTOL[pid], *integrals, z=stages.CAUCHY_Z
            )
        checks.strict_json(text)
        # Traced ops are held to the digest of the untraced ops on the same
        # config: that is the bit-for-bit check of the staged pipeline.
        self.repeat(cfg, _digest(text.encode()))
        return [l2]


class NoisySweep:
    """In-process ``cutjump sweep`` on normalized_rational, N = 60, one cell
    per epsilon, through the program's process pool."""

    name = "noisy_sweep"
    EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    N = 60

    def __init__(self, seed: int, work: Path, tr=None):
        rng = random.Random(seed)
        self.bases = [rng.randrange(1, 2**32) for _ in range(SEED_POOL)]
        self.ops = 0
        self.out = work / "sweep"
        self.csv = self.out / f"{stages.SWEEP_PROBLEM}_sweep.csv"
        self.argv = [
            "sweep",
            "--problem", stages.SWEEP_PROBLEM,
            "--epsilons", ",".join(repr(e) for e in self.EPSILONS),
            "--n-list", str(self.N),
            "--repeats", "1",
            "--out", str(self.out),
        ]  # fmt: skip
        self.repeat = checks.RepeatCheck()
        self.rows = {}

    def round(self, traced: bool) -> list:
        # A traced op re-runs the seed base of the untraced op before it.
        if not traced:
            self.ops += 1
        return [self.bases[((self.ops - 1) // 2) % SEED_POOL]]

    def execute(self, base, tr):
        if tr is None:
            self.csv.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*self.argv, "--seed-base", str(base)])
            return code, self.csv.read_text(encoding="utf-8")
        cells = [(int(r["N"]), float(r["epsilon"]), int(r["seed"])) for r in self.rows[base]]
        # The program's pool uses the default (fork) start method; so does
        # this one, so that traced and untraced ops differ only in tracing.
        pool = ProcessPoolExecutor(
            max_workers=sweep_workers(len(cells)), mp_context=multiprocessing.get_context("fork")
        )
        with pool:
            results = list(pool.map(stages.sweep_cell, cells))
        for result in results:
            tr.adopt(result[-1])
        return results

    def check(self, base, out) -> list[float]:
        if isinstance(out, tuple):
            code, text = out
            if code != 0:
                raise checks.CheckFailed(f"sweep exited with {code}")
            rows = checks.sweep_rows(text, len(self.EPSILONS))
            self.repeat(base, _digest(text.encode()))
            self.rows[base] = rows
            return checks.noisy_l2(rows)
        for row, (m_t, plateau, l2_abs, l2_rel, _) in zip(self.rows[base], out):
            staged = (m_t, plateau, l2_abs, l2_rel)
            written = (
                int(row["m_t"]),
                [int(row["plateau_lo"]), int(row["plateau_hi"])],
                float(row["l2_abs"]),
                float(row["l2_rel"]),
            )
            if staged != written:
                raise checks.CheckFailed(f"staged sweep cell {staged} != CSV row {written}")
        return [r[3] for r in out]

    def extra_layers(self, spans, ph) -> dict:
        """Pool size, and the speed-up of the pool: the summed cell times of a
        traced sweep over the median untraced sweep wall time."""
        cell_sum = defaultdict(float)
        for s in spans:
            if s["name"] == "sweep.cell":
                cell_sum[s["op"]] += s["end"] - s["start"]
        return {
            "cli.sweep_workers": sweep_workers(len(self.EPSILONS)),
            "cli.sweep_speedup": statistics.fmean(cell_sum.values()) / statistics.median(ph.untraced),
        }


def sweep_workers(n_cells: int) -> int:
    """The pool size ``cutjump sweep`` picks under the pinned CUTJUMP_THREADS."""
    return max(1, min(int(os.environ["CUTJUMP_THREADS"]), n_cells))


# The console-script entry point, spelled out so the package need not be
# installed.
CLI_ENTRY = "import sys; from cutjump.cli import main; sys.exit(main())"


class CliOneshot:
    """One CLI command per op in a fresh interpreter, rotating through
    reconstruct (seeded noise), thermal and moments, all with --emit both."""

    name = "cli_oneshot"
    RECONSTRUCT_CMD = {"command": "reconstruct", "problem": "normalized_rational", "n": 60, "epsilon": 1e-7}
    THERMAL_CMD = {"command": "thermal", "problem": THERMAL, "n": 60, "epsilon": 0.0, "seed": 0}
    MOMENTS_CMD = {"command": "moments", "problem": "harmonic", "n_max": 120}

    def __init__(self, seed: int, work: Path, tr=None):
        self.rng = random.Random(seed)
        self.seeds = [self.rng.randrange(2**63) for _ in range(SEED_POOL)]
        self.rounds = 0
        self.out = work / "cli"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.repeat = checks.RepeatCheck()
        self.reports = {}

    def round(self, traced: bool) -> list:
        if not traced:
            self.rounds += 1
        seed = self.seeds[((self.rounds - 1) // 2) % SEED_POOL]
        order = [{**self.RECONSTRUCT_CMD, "seed": seed}, self.THERMAL_CMD, self.MOMENTS_CMD]
        self.rng.shuffle(order)
        return order

    def argv(self, cmd: dict) -> list[str]:
        args = [cmd["command"], "--problem", cmd["problem"], "--out", str(self.out), "--emit", "both"]
        if cmd["command"] == "moments":
            return [*args, "--n-max", str(cmd["n_max"]), "--expect-positive"]
        args += ["--n-coeffs", str(cmd["n"]), "--seed", str(cmd["seed"])]
        return args + (["--epsilon", repr(cmd["epsilon"])] if cmd["epsilon"] else [])

    def outputs(self, cmd: dict) -> list[Path]:
        if cmd["command"] == "moments":
            return [self.out / f"{cmd['problem']}_moments.json"]
        return [self.out / f"{cmd['problem']}_report.json", self.out / f"{cmd['problem']}_samples.csv"]

    def execute(self, cmd, tr):
        shutil.rmtree(self.out, ignore_errors=True)
        if tr is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *self.argv(cmd)]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), json.dumps(cmd)]
        proc = subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)
        if tr is not None and proc.returncode == 0:
            child = json.loads(proc.stdout.splitlines()[-1])
            tr.adopt(child["spans"])
            return proc, child["digest"]
        return proc, None

    def check(self, cmd, out) -> list[float]:
        proc, traced_digest = out
        if proc.returncode != 0:
            raise checks.CheckFailed(f"{cmd['command']} exited with {proc.returncode}: {proc.stderr[-500:]}")
        key = tuple(sorted(cmd.items()))
        if traced_digest is not None:
            if traced_digest != self.reports[key]:
                raise checks.CheckFailed(f"staged {cmd['command']} differs from the CLI report")
            return []
        files = [p.read_bytes() for p in self.outputs(cmd)]
        self.repeat(key, _digest(*files))
        payload = checks.strict_json(files[0].decode("utf-8"))
        report = {k: v for k, v in payload.items() if k not in ("schema_version", "kind", "config")}
        self.reports[key] = stages.report_digest(report)
        if cmd["command"] == "moments":
            if not payload["positivity_ok"]:
                raise checks.CheckFailed("moments: harmonic weights reported non-positive")
            return []
        samples = files[1].decode("utf-8").splitlines()
        if len(samples) != len(payload["samples"]) + 1:
            raise checks.CheckFailed(f"samples CSV has {len(samples)} lines for {len(payload['samples'])} samples")
        if cmd["command"] == "thermal":
            # Checked, but kept out of l2_rel_p50: one fixed value per round
            # pooled with one noisy value would put the median on the border
            # between the two, where it follows the smallest noisy value.
            checks.check_l2(payload["weighted_errors"]["l2_rel"], checks.CLEAN_L2_TOL[THERMAL], "thermal")
            return []
        return [checks.check_l2(payload["errors"]["l2_rel"], checks.NOISY_L2_MAX, "reconstruct")]

    def extra_layers(self, spans, ph) -> dict:
        """``cli.main`` in-process minus the library stages it runs (as timed
        by ``stages.cli_command``), averaged over the three commands."""
        own = []
        for cmd in ({**self.RECONSTRUCT_CMD, "seed": self.seeds[0]}, self.THERMAL_CMD, self.MOMENTS_CMD):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(cmd))
            main_s = time.perf_counter() - t0
            if code != 0:
                raise checks.CheckFailed(f"in-process {cmd['command']} exited with {code}")
            tr = stages.Tracer()
            stages.cli_command(tr, cmd)
            own.append(main_s - sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None))
        return {"cli.main_self_s": statistics.fmean(own)}


WORKLOADS = {w.name: w for w in (CleanDeep, NoisySweep, CliOneshot)}
