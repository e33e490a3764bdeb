"""Command-line front end.

Subcommands: ``moments``, ``reconstruct``, ``thermal``, ``sweep``;
``reconstruct`` and ``thermal`` share one handler.  ``RunConfig``'s field
table gives each field's flag, help, choices, report echo and the
subcommands that take it; the parser, JSON config keys and echo all read
it, so a subcommand takes only the flags it uses, and none abbreviated.
Every numeric option is validated before any numerics run, and every JSON
config value is checked against its field's type; an invalid value exits
with code 1 and a message naming the offending field.  Identical
configurations (seeds included) produce byte-identical JSON and CSV output.

Exit codes: 0 clean run; 1 usage/parse/IO/config error, or input whose
coefficients or energies fall outside the double range; 2 failed positivity
under ``--expect-positive``.  JSON reports never contain NaN or Infinity.
A sweep whose estimated serial work (``_cell_seconds`` summed over its
cells) is below ``SWEEP_POOL_MIN_S`` runs its cells one after another in the
calling process, with no pool; a larger one runs them in a process pool of
min(cap, cells) workers, the cap being the CUTJUMP_THREADS environment
variable, else the CPUs the process may run on.  CUTJUMP_THREADS is
validated on every sweep, and the CSV is the same bytes either way.
Per-cell failures land in the output rows and only an all-cell failure makes
the exit code nonzero.  Before it starts a pool, ``sweep`` imports
``numpy.random`` when any cell is noisy, so that workers forked from it (the
fork start method, the Linux default through Python 3.13) inherit the module
instead of each importing it on its first cell; that import is the only
set-up warmed before the fork.  Under spawn or forkserver the results are
the same, only not warmed.  The pool module itself is imported only by a
sweep that starts a pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus, moments, reconstruct, thermal
from .errors import ConfigError, CutjumpError, InputError

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_POSITIVITY = 2

# Ceilings on the coefficient count N (--n-coeffs, each --n-list entry, the
# N of an --input file) and on the depth n_max.  Synthesis costs grow with
# N * n_max and the exact moments scan about like n_max^2; at both ceilings a
# fresh `reconstruct` or `thermal` run took about 1 s and a `moments` run
# 0.6-1.0 s on a 2-vCPU VM.
MAX_N_COEFFS = 1000
MAX_N_MAX = 800
# Ceiling on a sweep's runs, len(n-list) * len(epsilons) * repeats, checked
# before any cell is built.  In-process, over three passes on a 2-vCPU VM, a
# default noisy cell (N = 60, n_max = 200) took a median 0.6-1.5 ms
# (epsilon 1e-3 to 1e-7; 1.7-3.0 ms noise-free) and the cheapest (N = 1,
# n_max = 0) 0.2-0.4 ms.
MAX_SWEEP_CELLS = 10_000


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


def _check_finite(name: str, value: float) -> None:
    """ConfigError unless ``value`` is finite; JSON configs can also give
    integers beyond the double range."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name}: must be finite, got {value!r}")


# The subcommands that take a field's flag (and its JSON config key).
_SINGLE = ("moments", "reconstruct", "thermal")
_PLATEAU = ("reconstruct", "thermal", "sweep")
_ALL = (*_SINGLE, "sweep")


def _flag(default, flag: str, help_text: str, commands: tuple, *, choices=None, echo=False):
    """A RunConfig field and its row of the CLI table: the flag, its help
    text and choices, whether reports echo it (key = flag name with - as _),
    and the subcommands that take it as a flag and as a JSON config key."""
    meta = {"flag": flag, "help": help_text, "choices": choices, "echo": echo, "commands": commands}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One pipeline run.  Exactly one of ``problem``/``input_path`` is set."""

    problem: str | None = _flag(
        None, "--problem", f"built-in problem id ({', '.join(corpus.BUILTIN_IDS)})", _ALL, echo=True
    )
    input_path: str | None = _flag(None, "--input", "coefficient CSV file", _SINGLE, echo=True)
    n_coeffs: int = _flag(60, "--n-coeffs", "highest coefficient index N", _SINGLE, echo=True)
    epsilon: float = _flag(0.0, "--epsilon", "uniform noise bound", _SINGLE, echo=True)
    seed: int = _flag(0, "--seed", "noise seed (64-bit)", _SINGLE, echo=True)
    n_max: int = _flag(reconstruct.DEFAULT_N_MAX, "--n-max", "synthesis depth", _ALL, echo=True)
    plateau_theta: float = _flag(1e-3, "--plateau-theta", "flatness threshold", _PLATEAU, echo=True)
    plateau_window: int = _flag(5, "--plateau-window", "minimum run length", _PLATEAU, echo=True)
    output_dir: str = _flag("cutjump_out", "--out", "output directory", _ALL)
    # moments takes --emit but always writes its JSON report
    emit: str = _flag("both", "--emit", "which files to write", _SINGLE, choices=("json", "csv", "both"))
    p_exponent: float | None = _flag(None, "--p-exponent", "L^p exponent (> 1)", ("moments",))
    f_mode: str = _flag(
        "none", "--f-mode", "check the derived sequence (k+1) g_k or k g_k instead of g itself",
        ("moments",), choices=("none", "k_plus_1", "k"),
    )  # fmt: skip
    expect_positive: bool = _flag(
        False, "--expect-positive", "exit 2 when weight positivity fails", ("moments",)
    )

    def validate(self) -> None:
        if (self.problem is None) == (self.input_path is None):
            raise ConfigError("problem/input: exactly one of --problem and --input is required")
        for flag, path in (("input", self.input_path), ("out", self.output_dir)):
            if path is not None and "\0" in path:
                raise ConfigError(f"{flag}: must not contain a NUL character")
        if self.problem is not None and self.problem not in corpus.BUILTIN_IDS:
            raise ConfigError(
                f"problem: unknown id {self.problem!r} (known: {', '.join(corpus.BUILTIN_IDS)})"
            )
        lo = 0 if self.problem is None else corpus.builtin(self.problem).start_index
        if not lo <= self.n_coeffs <= MAX_N_COEFFS:
            raise ConfigError(f"n-coeffs: must be in {lo}..{MAX_N_COEFFS}")
        _check_finite("epsilon", self.epsilon)
        if self.epsilon < 0.0:
            raise ConfigError("epsilon: must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be in 0..2^64-1")
        if not 0 <= self.n_max <= MAX_N_MAX:
            raise ConfigError(f"n-max: must be in 0..{MAX_N_MAX}")
        if not 0.0 < self.plateau_theta < reconstruct.DIVERGENCE_GROWTH:
            raise ConfigError(f"plateau-theta: must be > 0 and < {reconstruct.DIVERGENCE_GROWTH}")
        if self.plateau_window < 2:
            raise ConfigError("plateau-window: must be >= 2")
        if self.p_exponent is not None:
            _check_finite("p-exponent", self.p_exponent)
            if self.p_exponent <= 1.0:
                raise ConfigError("p-exponent: must exceed 1")
        for f in dataclasses.fields(self):
            choices = f.metadata["choices"]
            if choices and getattr(self, f.name) not in choices:
                raise ConfigError(f"{f.metadata['flag'][2:]}: must be one of {', '.join(choices)}")

    def policy(self) -> reconstruct.PlateauPolicy:
        return reconstruct.PlateauPolicy(theta=self.plateau_theta, w_min=self.plateau_window)

    def stem(self) -> str:
        if self.problem is not None:
            return self.problem
        return Path(self.input_path).stem

    def echo(self) -> dict:
        return {
            f.metadata["flag"][2:].replace("-", "_"): getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata["echo"]
        }


# RunConfig's annotations, resolved once: the parser and the JSON config
# type checks read them.
_HINTS = typing.get_type_hints(RunConfig)


def _fields(command: str) -> list[dataclasses.Field]:
    """The RunConfig fields that ``command`` takes, in field order."""
    return [f for f in dataclasses.fields(RunConfig) if command in f.metadata["commands"]]


@dataclass
class SweepConfig:
    base: RunConfig
    epsilons: list[float] = field(default_factory=lambda: [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    ns: list[int] = field(default_factory=lambda: [60])
    repeats: int = 3
    seed_base: int = 12345

    # Cell seeds follow seed(cell, repeat) = seed_base + 1000003*cell + repeat,
    # with cells enumerated in sorted (N, epsilon) order.
    SEED_STRIDE = 1000003

    def validate(self) -> None:
        self.base.validate()
        if corpus.builtin(self.base.problem).start_index != 0:
            raise ConfigError(
                f"problem: {self.base.problem} is a thermal problem; sweeps run power series only"
            )
        if not self.epsilons:
            raise ConfigError("epsilons: at least one value required")
        for e in self.epsilons:
            _check_finite("epsilons", e)
            if e < 0.0:
                raise ConfigError("epsilons: must be >= 0")
        if not self.ns:
            raise ConfigError("n-list: at least one value required")
        if any(not 1 <= n <= MAX_N_COEFFS for n in self.ns):
            raise ConfigError(f"n-list: entries must be in 1..{MAX_N_COEFFS}")
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        n_cells = len(self.ns) * len(self.epsilons)
        if n_cells * self.repeats > MAX_SWEEP_CELLS:
            raise ConfigError(
                f"cell count: {n_cells * self.repeats} (n-list x epsilons x repeats)"
                f" is above the ceiling {MAX_SWEEP_CELLS}"
            )
        last_seed = self.seed_base + self.SEED_STRIDE * (n_cells - 1) + self.repeats - 1
        if self.seed_base < 0 or last_seed >= 2**64:
            raise ConfigError("seed-base: must be >= 0, with every cell seed below 2^64")

    def cells(self) -> list[tuple[int, RunConfig]]:
        """(repeat, run configuration) of every cell."""
        out = []
        ordered = sorted((n, e) for n in self.ns for e in self.epsilons)
        for cell_index, (n, e) in enumerate(ordered):
            for r in range(self.repeats):
                seed = self.seed_base + self.SEED_STRIDE * cell_index + r
                out.append((r, dataclasses.replace(self.base, n_coeffs=n, epsilon=e, seed=seed)))
        return out


# --------------------------------------------------------------------------
# Emission helpers
# --------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_samples_csv(path: Path, header: list[str], samples: list[tuple[float, ...]]) -> None:
    """The report's sample rows as CSV, each float in its shortest repr."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in samples)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_payload(kind: str, config: RunConfig, report_dict: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config.echo(), **report_dict}


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _load(config: RunConfig, is_thermal: bool = False) -> corpus.CoefficientSet:
    """The ``--input`` file's coefficients; ConfigError if its N is above
    MAX_N_COEFFS."""
    load = corpus.load_thermal_coefficients if is_thermal else corpus.load_coefficients
    cs = load(config.input_path)
    if cs.N > MAX_N_COEFFS:
        raise ConfigError(f"input: N = {cs.N} is above the ceiling {MAX_N_COEFFS}")
    return cs


def cmd_moments(config: RunConfig) -> int:
    """``moments``: the Hausdorff check of the run's coefficients, read with
    noise as for ``reconstruct``; ``check_f_sequence`` picks the rows."""
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cs, _ = _coefficients(config)
    report = moments.check_f_sequence(cs, config.f_mode, n_max=config.n_max, p=config.p_exponent)
    payload = _report_payload("moments", config, report.to_dict())
    _write_json(out_dir / f"{config.stem()}_moments.json", payload)
    print(
        f"moments: rows 0..{report.n_max}, p={report.p:g}: "
        f"positivity_ok={report.positivity_ok}, min_weight={report.min_weight:.3e}, "
        f"lp_trend={report.lp_trend}, decay_bound_ok={report.decay_bound_ok}"
    )
    if config.expect_positive and not report.positivity_ok:
        print(f"positivity violated first at (n, k) = {report.first_negative}", file=sys.stderr)
        return EXIT_POSITIVITY
    return EXIT_OK


def _coefficients(
    config: RunConfig, is_thermal: bool | None = None
) -> tuple[corpus.CoefficientSet, corpus.JumpGroundTruth | None]:
    """The coefficient set of a run, noise included, and its truth (None for
    file input).  With ``is_thermal`` None a problem keeps its own variant
    and a file is read as power data; otherwise InputError if the problem
    belongs to the other variant."""
    if config.problem is None:
        cs = _load(config, bool(is_thermal))
        if config.epsilon > 0.0:
            cs = corpus.add_noise(cs, config.epsilon, config.seed)
        return cs, None
    spec = corpus.builtin(config.problem)
    if is_thermal and spec.start_index != 1:
        raise InputError(f"{spec.id} is not a thermal problem")
    if is_thermal is False and spec.start_index != 0:
        raise InputError(f"{spec.id} is a thermal problem; use the thermal subcommand")
    return corpus.coefficients(spec, config.n_coeffs, config.epsilon, config.seed), spec.jump


def cmd_run(command: str, config: RunConfig) -> int:
    """``reconstruct`` or ``thermal``: one pipeline run, its report and samples."""
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    is_thermal = command == "thermal"
    cs, truth = _coefficients(config, is_thermal)
    if is_thermal:
        problem = thermal.ThermalProblem(coefficients=cs, truth=truth)
        report = thermal.build_thermal_report(problem, n_max=config.n_max, policy=config.policy())
        kind, var, errors, label = "thermal", "v", report.weighted_errors, "l2w_rel"
    else:
        report = reconstruct.build_report(cs, n_max=config.n_max, policy=config.policy(), truth=truth)
        kind, var, errors, label = "reconstruction", "x", report.errors, "l2_rel"
    payload = _report_payload(kind, config, report.to_dict())
    stem = config.stem()
    if config.emit in ("json", "both"):
        _write_json(out_dir / f"{stem}_report.json", payload)
    if config.emit in ("csv", "both"):
        header = [var, "J_rec"] + (["J_true"] if report.j_true is not None else [])
        _write_samples_csv(out_dir / f"{stem}_samples.csv", header, payload["samples"])
    err = f", {label}={errors.l2_rel:.4f}" if errors and errors.l2_rel else ""
    print(f"{command}: plateau={report.plateau}, m_t={report.m_t}, confident={report.confident}{err}")
    return EXIT_OK


SWEEP_COLUMNS = [
    "N",
    "epsilon",
    "repeat",
    "seed",
    "plateau_lo",
    "plateau_hi",
    "m_t",
    "confident",
    "l2_abs",
    "l2_rel",
    "error",
]


def _sweep_cell(cell: tuple[int, RunConfig]) -> dict:
    repeat, config = cell
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(N=config.n_coeffs, epsilon=config.epsilon, repeat=repeat, seed=config.seed, error="")
    try:
        cs, truth = _coefficients(config, is_thermal=False)
        report = reconstruct._stopping_report(cs, config.n_max, config.policy(), truth)
        row["plateau_lo"], row["plateau_hi"] = report.plateau
        row["m_t"] = report.m_t
        row["confident"] = report.confident
        if report.errors is not None:
            row["l2_abs"] = report.errors.l2_abs
            row["l2_rel"] = report.errors.l2_rel
    except Exception as exc:  # cell failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


# Estimated seconds of one sweep cell with N coefficients at depth n_max and
# noise bound epsilon.  A cell synthesizes only as deep as the truncation
# search reads (``reconstruct._synthesis`` with w_min): noise-free cells
# mostly read to n_max, and noisy ones stop sooner the larger the noise,
# which the estimate takes as min(n_max, max(32, 8 epsilon^(-1/7))) columns,
# 32 being the shallowest depth of the noisy cells the fit was made on.
# Over three seeds per normalized_rational cell the median stopping depth was
# 17-24 at epsilon 1e-3, 30-51 at 1e-5 and 51-152 (some cells to n_max) at
# 1e-7.  Each column makes one prefix-sum pass per level over integers that
# grow with N, hence the N^2 term per column.  The coefficients are a
# least-squares fit (relative error) to steady in-process cell times on a
# 2-vCPU VM, at the depth each cell synthesized, N in {1, 20, 60, 120, 250,
# 400, 700, 1000} x n_max in {0, 50, 200, 400, 800} x epsilon in {0, 1e-3,
# 1e-5, 1e-7}, each the geometric mean of two passes over the grid: rms
# error 14%, worst 40%.  With the depth taken from epsilon, noisy cells are
# estimated within 27% rms (worst 93%).  Noise-free cells with few
# coefficients (N = 1 and 20 here) also stop early, so their estimate is
# high.  Cells run faster than the fit, but the estimate is calibrated
# with SWEEP_POOL_MIN_S, whose break-even did not move (see there).
def _cell_seconds(n: int, n_max: int, epsilon: float) -> float:
    if epsilon > 0.0:
        n_max = min(n_max, max(32.0, 8.0 * epsilon ** (-1 / 7)))
    return 2.2e-4 + 4.0e-6 * n + n_max * (7.2e-6 + n * (4.7e-8 + 2.7e-10 * n))


# Estimated serial work (s) below which a sweep runs in the calling process.
# A pool pays for starting and stopping its workers (11-14 ms for two,
# forked from a process that has imported cutjump.cli) and for each forked
# worker's first cell, about twice a steady one.  Serial against a 2-worker
# pool, 20 alternating pairs per size in one sitting on a 2-vCPU VM, cells
# of N = 60 and up at n_max = 200, one per epsilon in 1e-3 ... 1e-7 or five
# noise-free.  Pairs the pool won, by estimated serial work, over two runs:
# noisy 30 ms 2-3 of 20, 40 ms 9-15, 50 ms 10-18, 61 ms 13-19; noise-free
# 27 ms 1-2, 40 ms 10-11, 54 ms 16-18, 67 ms 14-18.  The break-even lies at
# about 40-50 ms for both.  Before noisy cells stopped early, the estimate
# took them at full depth, and the same method found the break-even for
# noisy cells at about 90-100 ms of that estimate (45-50 ms before the
# change), so the estimate was refitted rather than the threshold moved.
# Once synthesis ran column by column, the same method (N = 60 cells, 30
# pairs per size, both commits in one sitting) put the noise-free break-even
# at about 60 ms of the estimate, against 55 ms before the change, and the
# noisy one near 110 ms (13 of 30 pool wins), against 80 ms (18 of 30 at 89
# ms) before: the old commit read above 45 ms in that sitting too, and the
# noisy cells, at about 0.5 ms each, are bounded by the pool's cost per cell,
# which an estimate of serial work does not model.  So neither number moved.
SWEEP_POOL_MIN_S = 0.045


def _worker_count(cells: list[tuple[int, RunConfig]]) -> int:
    """Pool size for a sweep's cells: 1, meaning no pool, when their
    estimated serial work is below SWEEP_POOL_MIN_S, else the cap
    (CUTJUMP_THREADS, else the CPUs this process may run on) or the cell
    count if smaller.  CUTJUMP_THREADS is validated either way."""
    env = os.environ.get("CUTJUMP_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("CUTJUMP_THREADS: must be an integer") from None
        if cap < 1:
            raise ConfigError("CUTJUMP_THREADS: must be >= 1")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cap = os.cpu_count() or 1
    if sum(_cell_seconds(c.n_coeffs, c.n_max, c.epsilon) for _, c in cells) < SWEEP_POOL_MIN_S:
        return 1
    return min(cap, len(cells))


def cmd_sweep(sweep: SweepConfig) -> int:
    sweep.validate()
    base = sweep.base
    out_dir = Path(base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = sweep.cells()
    workers = _worker_count(cells)
    if workers == 1:
        rows = [_sweep_cell(c) for c in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # An import that every noisy worker would otherwise pay for on its
        # first cell, done once here for forked workers to inherit (module
        # docstring).
        if any(c.epsilon > 0.0 for _, c in cells):
            import numpy.random  # noqa: F401  (add_noise's generator)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in SWEEP_COLUMNS))
    path = out_dir / f"{base.stem()}_sweep.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures = sum(1 for r in rows if r["error"])
    print(f"sweep: {len(rows)} cells, {failures} failed, wrote {path}")
    return EXIT_ERROR if failures == len(rows) else EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_config_type(name: str, value, hint) -> None:
    """ConfigError unless a JSON config value fits the field's type: bools
    are bools, ints are non-bool ints, floats take ints too, and null is
    taken only by fields whose default is None."""
    kinds = typing.get_args(hint) or (hint,)
    ok = kinds + ((int,) if float in kinds else ())
    if isinstance(value, bool) and bool not in kinds or not isinstance(value, ok):
        expected = " or ".join(_TYPE_NAMES.get(k, "null") for k in kinds)
        raise ConfigError(f"config: {name} must be {expected}, got {json.dumps(value)}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    names = [f.name for f in _fields(args.command)]
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or a too-long integer
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in raw.items():
            if key not in names:
                raise ConfigError(f"config: unknown field {key!r} for {args.command}")
            _check_config_type(key, value, _HINTS[key])
            setattr(config, key, value)
    for name in names:
        value = getattr(args, name)
        if value is not None:
            setattr(config, name, value)
    return config


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR (exit code 2 means failed
    positivity), and no flag may be abbreviated: with prefix matching,
    ``sweep --seed 5`` would silently mean ``--seed-base 5``.  Subparsers
    inherit the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


_SUBCOMMANDS = {
    "moments": "moment-sequence diagnostics",
    "reconstruct": "power-series jump reconstruction",
    "thermal": "thermal (boson) reconstruction",
    "sweep": "noise/size sweeps, aggregated CSV",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutjump",
        description="Reconstruct the jump function across a power-series cut "
        "from finitely many noisy coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file with configuration (flags override it)")
        for f in _fields(command):
            flag, help_text = f.metadata["flag"], f.metadata["help"]
            if _HINTS[f.name] is bool:
                # default None leaves a config file's value alone
                p.add_argument(flag, dest=f.name, action="store_true", default=None, help=help_text)
            else:
                kind = (typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0]
                p.add_argument(flag, dest=f.name, type=kind, choices=f.metadata["choices"], help=help_text)

    p_sw = sub.choices["sweep"]
    p_sw.add_argument("--epsilons", help="comma-separated noise bounds")
    p_sw.add_argument("--n-list", dest="n_list", help="comma-separated coefficient counts")
    p_sw.add_argument("--repeats", type=int, help="repeats per cell")
    p_sw.add_argument("--seed-base", dest="seed_base", type=int, help="base for cell seeds")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process: parsing leaves it
    unchanged, and usage and help are written to the streams current at the
    time."""
    return build_parser()


def _parse_list(text: str, name: str, kind: type) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{name}: expected comma-separated {noun}, got {text!r}") from None


def _sweep_from_args(args: argparse.Namespace) -> SweepConfig:
    base = _config_from_args(args)
    if base.problem is None:
        base.problem = "normalized_rational"
    sweep = SweepConfig(base=base)
    if args.epsilons is not None:
        sweep.epsilons = _parse_list(args.epsilons, "epsilons", float)
    if args.n_list is not None:
        sweep.ns = _parse_list(args.n_list, "n-list", int)
    if args.repeats is not None:
        sweep.repeats = args.repeats
    if args.seed_base is not None:
        sweep.seed_base = args.seed_base
    return sweep


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(_sweep_from_args(args))
        if args.command == "moments":
            return cmd_moments(_config_from_args(args))
        return cmd_run(args.command, _config_from_args(args))
    except (CutjumpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
