"""The cutjump benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload clean_deep --seed 1 --seconds 35 --trace 0

Workloads: clean_deep, noisy_sweep, cli_oneshot.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` is the separate traced run that gives
the per-layer metrics.  The program is imported from ``src/`` of the
checkout.  Output: one ``{"info": ...}`` line (environment, sample counts,
failures, every layer number) and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.perfbench_out/``.  Metric definitions: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120
# Iterations of the calibration loop, and its median time on the machine the
# benchmark was written on (2-vCPU VM, Python 3.11, quiet phase).
REF_LOOP = 100_000
REF_NOMINAL_S = 0.0075


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("clean_deep", "noisy_sweep", "cli_oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Phase:
    """What the timed loop saw."""

    def __init__(self):
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.l2: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.refs: list[float] = []
        self.refs_cpu = 0.0


def reference_seconds() -> tuple[float, float]:
    """Wall and CPU time of one pass of a fixed pure-Python loop: how fast
    this machine runs Python right now."""
    w0, c0 = time.perf_counter(), time.process_time()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return time.perf_counter() - w0, time.process_time() - c0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_phase(wl, seconds: float, tr=None) -> Phase:
    """Closed loop: whole rounds of ops, one at a time, until the next round
    would end past ``seconds``.  With a tracer, untraced and traced rounds
    alternate, starting untraced, so every traced op has an untraced
    reference and the tracing overhead is measured in the same run.  After
    each completed op one calibration pass is timed; its time is left out of
    the phase's wall and CPU totals."""
    ph = Phase()
    t0 = time.perf_counter()
    cpu0 = cpu_seconds()
    while True:
        traced = tr is not None and ph.rounds % 2 == 1
        r0 = time.perf_counter()
        for spec in wl.round(traced):
            ph.attempted += 1
            try:
                if traced:
                    tr.op = ph.attempted
                    with tr.span("op") as s:
                        out = wl.execute(spec, tr)
                    latency = s["end"] - s["start"]
                else:
                    s0 = time.perf_counter()
                    out = wl.execute(spec, None)
                    latency = time.perf_counter() - s0
                ph.l2 += wl.check(spec, out)
            except Exception:  # an op that raises or fails its check counts as failed
                ph.failed += 1
                ph.errors.append(traceback.format_exc(limit=-2))
                continue
            (ph.traced if traced else ph.untraced).append(latency)
            ref_wall, ref_cpu = reference_seconds()
            ph.refs.append(ref_wall)
            ph.refs_cpu += ref_cpu
        ph.rounds += 1
        now = time.perf_counter()
        if (tr is None or ph.rounds % 2 == 0) and now - t0 + (now - r0) > seconds:
            break
    # The calibration passes between ops are not the program's work.
    ph.wall = time.perf_counter() - t0 - sum(ph.refs)
    ph.cpu = cpu_seconds() - cpu0 - ph.refs_cpu
    return ph


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile, sample count); the maximum below eleven samples."""
    s = sorted(samples)
    n = len(s)
    i = n - 11 if n >= 11 else n - 1
    return s[i], 100.0 * (i + 1) / n, n


def wall_of(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports cutjump and
    generates the workload's inputs, and the median calibration pass timed
    after each probe.  One unmeasured probe first fills the bytecode and
    file caches, which a user's second run finds filled."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    wall_of(argv, os.environ)
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        probes.append(wall_of(argv, os.environ))
        refs.append(reference_seconds()[0])
    return statistics.median(probes), statistics.median(refs)


def import_layers() -> dict:
    """Import cost of the package: fresh-interpreter ``import cutjump`` minus
    a bare interpreter, and numpy's and mpmath's cumulative share from
    ``-X importtime``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    full = [sys.executable, "-c", "import cutjump"]
    wall_of(full, env)
    bare = statistics.median(wall_of([sys.executable, "-c", "pass"], env) for _ in range(IMPORT_PROBES))
    imported = statistics.median(wall_of(full, env) for _ in range(IMPORT_PROBES))
    cumulative = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cutjump"],
            env=env, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        ).stderr  # fmt: skip
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit() and fields[2].strip() in ("numpy", "mpmath"):
                cumulative[fields[2].strip()].append(int(fields[1]) * 1e-6)
    return {
        "cli.import_s": imported - bare,
        "cli.import_numpy_s": statistics.median(cumulative["numpy"]),
        "cli.import_mpmath_s": statistics.median(cumulative["mpmath"]),
    }


def span_layers(spans: list[dict]) -> dict:
    """Per-layer numbers from the spans: seconds are the mean duration of one
    call of the stage, counts the mean per call; None where the workload
    never calls the stage."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def seconds(name):
        return statistics.fmean(s["end"] - s["start"] for s in by[name]) if by[name] else None

    def count(key, *names):
        values = [s[key] for n in names for s in by[n]]
        return statistics.fmean(values) if values else None

    synth = ("reconstruct.synthesize", "thermal.synthesize")
    return {
        "reconstruct.synthesize_s": seconds("reconstruct.synthesize"),
        "thermal.synthesize_s": seconds("thermal.synthesize"),
        "reconstruct.synthesize_passes": count("passes", *synth),
        "reconstruct.synthesize_terms": count("terms", *synth),
        "corpus.coefficients_s": seconds("corpus.coefficients"),
        "reconstruct.plateau_s": seconds("reconstruct.plateau"),
        "reconstruct.m_t": count("m_t", "reconstruct.plateau"),
        "reconstruct.resum_s": seconds("reconstruct.resum"),
        "thermal.resum_s": seconds("thermal.resum"),
        "reconstruct.resum_cells": count("cells", "reconstruct.resum"),
        "reconstruct.errors_s": seconds("reconstruct.errors"),
        "reconstruct.checks_s": seconds("reconstruct.checks"),
        "specfun.quad_evals": count("quad_evals", "reconstruct.checks"),
        "cli.to_dict_s": seconds("cli.to_dict"),
        "cli.json_s": seconds("cli.json"),
        "cli.report_bytes": count("bytes", "cli.json"),
        "moments.hausdorff_s": seconds("moments.hausdorff"),
        "moments.rows": count("rows", "moments.hausdorff"),
    }


def git_sha() -> str | None:
    """HEAD of the repository, read from .git without running git; None in
    a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workloads) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sweep_workers": workloads.sweep_workers(len(workloads.NoisySweep.EPSILONS)),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cutjump" / "__init__.py").is_file():
        print(f"perfbench: no cutjump package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # No sweep runs more pool workers than this process may use cores.
    os.environ["CUTJUMP_THREADS"] = str(len(os.sched_getaffinity(0)))
    import stages
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    if args.setup_probe:
        cls(args.seed, work)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup, setup_ref = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    tr = stages.Tracer() if args.trace else None
    wl = cls(args.seed, work, tr)
    try:
        ph = timed_phase(wl, args.seconds, tr)
        layers = {}
        if tr is not None:
            layers = span_layers(tr.spans)
            layers.update(import_layers())
            layers.update(wl.extra_layers(tr.spans, ph) if hasattr(wl, "extra_layers") else {})
            if ph.traced and ph.untraced:
                layers["trace.overhead_s"] = statistics.median(ph.traced) - statistics.median(ph.untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in ph.errors[:5]:
        print(f"perfbench: failed op:\n{err}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(workloads),
        "rounds": ph.rounds,
        "timed_wall_s": ph.wall,
        "failed_frac": ph.failed / ph.attempted,
    }
    if tr is None:
        p50 = statistics.median(ph.untraced) if ph.untraced else 0.0
        tail_s, tail_pct, n = tail(ph.untraced) if ph.untraced else (0.0, 0.0, 0)
        raw = {
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "ops_per_s": len(ph.untraced) / ph.wall,
            "cpu_s_per_op": ph.cpu / ph.attempted,
        }
        # Timings in reference seconds: scaled by how much slower than
        # nominal the calibration loop ran between this run's ops (between
        # the set-up probes for setup_s).
        ref_s = statistics.median(ph.refs) if ph.refs else REF_NOMINAL_S
        scale = REF_NOMINAL_S / ref_s
        info.update(op_samples=n, op_tail_percentile=tail_pct, ref_s=ref_s, setup_ref_s=setup_ref)
        info["raw"] = {"setup_s": setup, **raw}
        values = {
            "setup_s": setup * REF_NOMINAL_S / setup_ref,
            **{k: v / scale if k == "ops_per_s" else v * scale for k, v in raw.items()},
            "l2_rel_p50": statistics.median(ph.l2) if ph.l2 else 0.0,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            ) / 1024.0,
        }
        listed = spec["end_to_end"]
    else:
        self_s = defaultdict(list)
        for s, own in zip(tr.spans, stages.self_times(tr.spans)):
            self_s[s["name"]].append(own)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": tr.spans}))
        info.update(
            traced_ops=len(ph.traced),
            untraced_ops=len(ph.untraced),
            layers=layers,
            self_s={k: statistics.fmean(v) for k, v in self_s.items()},
            trace_file=str(trace_file.relative_to(ROOT)),
        )
        values = layers
        listed = spec["per_layer"]
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"perfbench: no value for {missing} on {args.workload}", file=sys.stderr)
        return 1
    result = {"correct": ph.failed == 0, "attempted": ph.attempted, "failed": ph.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
