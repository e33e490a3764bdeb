"""Span recorder and the stage-by-stage forms of the cutjump pipelines.

The traced benchmark run calls the functions here in place of
``reconstruct.build_report`` and ``thermal.build_thermal_report``, one public
stage function at a time, each inside a span.  The staged calls must give the
same report as the one-call pipeline, bit for bit; the workloads check that
on every traced op, so the per-stage times describe the program that the
untraced run measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from contextlib import contextmanager, nullcontext

from cutjump import corpus, moments, reconstruct, thermal

N_MAX = 200
CAUCHY_Z = 0.5
SWEEP_PROBLEM = "normalized_rational"


class Tracer:
    """Spans kept in memory: name, start, end, parent index and op id.

    Times are ``time.perf_counter`` readings (CLOCK_MONOTONIC on Linux), so
    spans recorded by worker processes and child interpreters on the same
    machine share one time axis and can be adopted into this list.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes extra counts as keys."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def adopt(self, spans: list[dict]) -> None:
        """Attach spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in spans:
            self.spans.append(
                {**s, "parent": parent if s["parent"] is None else s["parent"] + base, "op": self.op}
            )


def span(tr: Tracer | None, name: str):
    return nullcontext({}) if tr is None else tr.span(name)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children recorded in parallel workers can overlap, so the covered part is
    the length of the union of the child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s["end"] - s["start"] - covered)
    return out


class CountingCallable:
    """Wraps the callable handed to the quadrature and counts abscissae."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += len(x)
        return self.fn(x)


def _report(cls, synth, **values):
    """Build a report dataclass the way the one-call pipeline does.

    Every field of the synthesis result except ``c`` is copied, as the
    pipeline copies its precision bookkeeping; fields the report type does
    not have are dropped.
    """
    extra = {f.name: getattr(synth, f.name) for f in dataclasses.fields(synth) if f.name != "c"}
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in {**extra, **values}.items() if k in names})


def _synthesize(tr, name, fn, arg, n_values):
    with span(tr, name) as s:
        synth = fn(arg, n_max=N_MAX)
    # One pass per precision tried: precision0, 2*precision0, ...  A
    # synthesis without precision escalation counts as one pass.
    used = getattr(synth, "precision_used", None)
    passes = 1 + round(math.log2(used / reconstruct.DEFAULT_PRECISION_BITS)) if used else 1
    s["passes"] = passes
    s["terms"] = n_values * (N_MAX + 1) * passes
    return synth


def _plateau(tr, c):
    with span(tr, "reconstruct.plateau") as s:
        M = reconstruct.partial_energies(c)
        det = reconstruct.detect_plateau(M)
    s["m_t"] = det.m_t
    return M, det


def power_report(tr, cs, truth):
    """``reconstruct.build_report(cs, n_max=N_MAX, truth=truth)``, stage by stage."""
    synth = _synthesize(tr, "reconstruct.synthesize", reconstruct.synthesize_coefficients, cs, cs.values.size)
    M, det = _plateau(tr, synth.c)
    with span(tr, "reconstruct.resum") as s:
        xs = reconstruct.default_grid()
        j_rec = reconstruct.reconstruct_jump(synth.c, det.m_t, xs)
    s["cells"] = (det.m_t + 1) * xs.size
    with span(tr, "reconstruct.errors"):
        j_true = truth(xs)
        errors = reconstruct.l2_error(xs, j_rec, truth)
    return _report(
        reconstruct.ReconstructionReport,
        synth,
        c=synth.c,
        M=M,
        plateau=det.plateau,
        m_t=det.m_t,
        confident=det.confident and cs.values.size >= 2,
        xs=xs,
        j_rec=j_rec,
        j_true=j_true,
        errors=errors,
        source=cs.source,
        decay_exponent=det.decay_exponent,
    )


def thermal_report(tr, problem):
    """``thermal.build_thermal_report(problem, n_max=N_MAX)``, stage by stage."""
    values = problem.coefficients.values
    synth = _synthesize(tr, "thermal.synthesize", thermal.synthesize_thermal, problem, values.size)
    M, det = _plateau(tr, synth.c)
    with span(tr, "thermal.resum") as s:
        vs = thermal.default_v_grid()
        j_rec = thermal.reconstruct_thermal(synth.c, det.m_t, vs)
    s["cells"] = (det.m_t + 1) * vs.size
    with span(tr, "reconstruct.errors"):
        j_true = problem.truth(vs)
        errors = thermal.weighted_l2_error(vs, j_rec, problem.truth)
    return _report(
        thermal.ThermalReport,
        synth,
        frak_c=synth.c,
        M=M,
        plateau=det.plateau,
        m_t=det.m_t,
        confident=det.confident and values.size >= 2,
        vs=vs,
        j_rec=j_rec,
        j_true=j_true,
        weighted_errors=errors,
        source=problem.coefficients.source,
        decay_exponent=det.decay_exponent,
    )


def integral_checks(j):
    """Mellin moments k = 0, 1, 2, the Cauchy transform at CAUCHY_Z and the
    density diagnostics of the expansion callable ``j``."""
    mellin = [reconstruct.mellin_of_reconstruction(j, k) for k in (0, 1, 2)]
    return mellin, reconstruct.cauchy_check(j, CAUCHY_Z), reconstruct.density_check(j)


def traced_integral_checks(tr, report):
    j = CountingCallable(reconstruct.expansion_fn(report.c, report.m_t))
    with tr.span("reconstruct.checks") as s:
        result = integral_checks(j)
    s["quad_evals"] = j.count
    return result


def emit(tr, report, indent=None) -> tuple[dict, str]:
    """``to_dict`` plus strict JSON serialisation (no NaN or Infinity)."""
    with span(tr, "cli.to_dict"):
        d = report.to_dict()
    with span(tr, "cli.json") as s:
        text = json.dumps(d, allow_nan=False, indent=indent)
    s["bytes"] = len(text)
    return d, text


def report_digest(d: dict) -> str:
    """Digest of a report's ``to_dict`` content, independent of key order and
    indentation; equal digests mean bit-identical floats."""
    return hashlib.sha256(json.dumps(d, sort_keys=True, allow_nan=False).encode()).hexdigest()


def sweep_cell(cell: tuple[int, float, int]):
    """One sweep cell (N, epsilon, seed), staged; runs in a pool worker."""
    n, eps, seed = cell
    tr = Tracer()
    with tr.span("sweep.cell"):
        spec = corpus.builtin(SWEEP_PROBLEM)
        with tr.span("corpus.coefficients"):
            cs = corpus.coefficients(spec, n, eps, seed)
        report = power_report(tr, cs, spec.jump)
    return report.m_t, list(report.plateau), report.errors.l2_abs, report.errors.l2_rel, tr.spans


def cli_command(tr, cmd: dict) -> str:
    """The library stages of one CLI command, plus its JSON emission.

    ``cmd`` is a command description from the cli_oneshot workload.  Returns
    the digest of the report, to compare with the file the CLI writes.
    """
    spec = corpus.builtin(cmd["problem"])
    if cmd["command"] == "moments":
        with span(tr, "moments.hausdorff") as s:
            seq = moments.MomentSequence.from_function(spec.exact_rule, exact=True)
            report = moments.hausdorff_check(seq, cmd["n_max"], moments.DEFAULT_P_POWER)
        s["rows"] = report.n_max + 1
    elif cmd["command"] == "thermal":
        with span(tr, "corpus.coefficients"):
            problem = thermal.thermal_problem(spec, cmd["n"], cmd["epsilon"], cmd["seed"])
        report = thermal_report(tr, problem)
    else:
        with span(tr, "corpus.coefficients"):
            cs = corpus.coefficients(spec, cmd["n"], cmd["epsilon"], cmd["seed"])
        report = power_report(tr, cs, spec.jump)
    return report_digest(emit(tr, report, indent=2)[0])
