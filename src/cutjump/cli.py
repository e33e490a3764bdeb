"""Command-line front end.

Subcommands: ``moments``, ``reconstruct``, ``thermal``, ``sweep``;
``reconstruct`` and ``thermal`` share one handler.  Every numeric option is
validated before any numerics run, and every JSON config value is checked
against its field's type; an invalid value exits with code 1 and a message
naming the offending field.  Identical
configurations (seeds included) produce byte-identical JSON and CSV output.

Exit codes: 0 clean run; 1 usage/parse/IO/config error, or input whose
coefficients or energies fall outside the double range; 2 failed positivity
under ``--expect-positive``.  JSON reports never contain NaN or Infinity.
Sweep cells run in a process pool capped by the CUTJUMP_THREADS environment
variable; per-cell failures land in the output rows and only an all-cell
failure makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus, moments, reconstruct, thermal
from .errors import ConfigError, CutjumpError, InputError

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_POSITIVITY = 2


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


@dataclass
class RunConfig:
    """One pipeline run.  Exactly one of ``problem``/``input_path`` is set."""

    problem: str | None = None
    input_path: str | None = None
    n_coeffs: int = 60
    epsilon: float = 0.0
    seed: int = 0
    n_max: int = reconstruct.DEFAULT_N_MAX
    plateau_theta: float = 1e-3
    plateau_window: int = 5
    output_dir: str = "cutjump_out"
    emit: str = "both"
    # moments-only knobs
    p_exponent: float | None = None
    f_mode: str = "none"
    expect_positive: bool = False

    def validate(self) -> None:
        if (self.problem is None) == (self.input_path is None):
            raise ConfigError("problem/input: exactly one of --problem and --input is required")
        if self.problem is not None and self.problem not in corpus.BUILTIN_IDS:
            raise ConfigError(
                f"problem: unknown id {self.problem!r} (known: {', '.join(corpus.BUILTIN_IDS)})"
            )
        if self.n_coeffs < 0:
            raise ConfigError("n-coeffs: must be >= 0")
        _check_finite("epsilon", self.epsilon)
        if self.epsilon < 0.0:
            raise ConfigError("epsilon: must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be in 0..2^64-1")
        if self.n_max < 0:
            raise ConfigError("n-max: must be >= 0")
        if not 0.0 < self.plateau_theta < reconstruct.DIVERGENCE_GROWTH:
            raise ConfigError(f"plateau-theta: must be > 0 and < {reconstruct.DIVERGENCE_GROWTH}")
        if self.plateau_window < 2:
            raise ConfigError("plateau-window: must be >= 2")
        if self.emit not in ("json", "csv", "both"):
            raise ConfigError("emit: must be one of json, csv, both")
        if self.p_exponent is not None:
            _check_finite("p-exponent", self.p_exponent)
            if self.p_exponent <= 1.0:
                raise ConfigError("p-exponent: must exceed 1")
        if self.f_mode not in ("none", "k_plus_1", "k"):
            raise ConfigError("f-mode: must be one of none, k_plus_1, k")

    def policy(self) -> reconstruct.PlateauPolicy:
        return reconstruct.PlateauPolicy(theta=self.plateau_theta, w_min=self.plateau_window)

    def stem(self) -> str:
        if self.problem is not None:
            return self.problem
        return Path(self.input_path).stem

    def echo(self) -> dict:
        return {
            "problem": self.problem,
            "input": self.input_path,
            "n_coeffs": self.n_coeffs,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "n_max": self.n_max,
            "plateau_theta": self.plateau_theta,
            "plateau_window": self.plateau_window,
        }


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
        if self.base.problem is None:
            raise ConfigError("problem: sweeps need a built-in problem")
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
        if any(n < 1 for n in self.ns):
            raise ConfigError("n-list: entries must be >= 1")
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        n_cells = len(self.ns) * len(self.epsilons)
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


def _write_samples_csv(path: Path, var: str, xs, j_rec, j_true=None) -> None:
    lines = [f"{var},J_rec" + (",J_true" if j_true is not None else "")]
    for i, x in enumerate(xs):
        row = f"{_fmt(float(x))},{_fmt(float(j_rec[i]))}"
        if j_true is not None:
            row += f",{_fmt(float(j_true[i]))}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_payload(kind: str, config: RunConfig, report_dict: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config.echo(), **report_dict}


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_moments(config: RunConfig) -> int:
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = config.p_exponent
    if config.problem is not None:
        spec = corpus.builtin(config.problem)
        if config.f_mode == "none":
            seq = moments.MomentSequence.from_function(spec.exact_rule, exact=True)
            report = moments.hausdorff_check(
                seq, config.n_max, p if p is not None else moments.DEFAULT_P_POWER
            )
        else:
            g = corpus.coefficients(spec, config.n_coeffs, config.epsilon, config.seed)
            report = moments.check_f_sequence(g, config.f_mode, n_max=config.n_max, p=p)
    else:
        cs = corpus.load_coefficients(config.input_path)
        if config.f_mode == "none":
            seq = moments.MomentSequence.from_values(cs.values)
            n_rows = min(config.n_max, cs.N)
            report = moments.hausdorff_check(
                seq, n_rows, p if p is not None else moments.DEFAULT_P_POWER
            )
        else:
            report = moments.check_f_sequence(cs, config.f_mode, n_max=min(config.n_max, cs.N), p=p)

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
    config: RunConfig, is_thermal: bool
) -> tuple[corpus.CoefficientSet, corpus.JumpGroundTruth | None]:
    """The coefficient set of a run, noise included, and its truth (None for
    file input); InputError if the problem belongs to the other variant."""
    if config.problem is None:
        load = corpus.load_thermal_coefficients if is_thermal else corpus.load_coefficients
        cs = load(config.input_path)
        if config.epsilon > 0.0:
            cs = corpus.add_noise(cs, config.epsilon, config.seed)
        return cs, None
    spec = corpus.builtin(config.problem)
    if is_thermal and spec.start_index != 1:
        raise InputError(f"{spec.id} is not a thermal problem")
    if not is_thermal and spec.start_index != 0:
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
        kind, var, grid, errors, label = "thermal", "v", report.vs, report.weighted_errors, "l2w_rel"
    else:
        report = reconstruct.build_report(cs, n_max=config.n_max, policy=config.policy(), truth=truth)
        kind, var, grid, errors, label = "reconstruction", "x", report.xs, report.errors, "l2_rel"
    payload = _report_payload(kind, config, report.to_dict())
    stem = config.stem()
    if config.emit in ("json", "both"):
        _write_json(out_dir / f"{stem}_report.json", payload)
    if config.emit in ("csv", "both"):
        _write_samples_csv(out_dir / f"{stem}_samples.csv", var, grid, report.j_rec, report.j_true)
    plateau = report.plateau if report.plateau is not None else "none"
    err = f", {label}={errors.l2_rel:.4f}" if errors and errors.l2_rel else ""
    print(f"{command}: plateau={plateau}, m_t={report.m_t}, confident={report.confident}{err}")
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
        report = reconstruct.build_report(cs, n_max=config.n_max, policy=config.policy(), truth=truth)
        row["plateau_lo"], row["plateau_hi"] = report.plateau
        row["m_t"] = report.m_t
        row["confident"] = report.confident
        if report.errors is not None:
            row["l2_abs"] = report.errors.l2_abs
            row["l2_rel"] = report.errors.l2_rel
    except Exception as exc:  # cell failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _worker_count(n_cells: int) -> int:
    env = os.environ.get("CUTJUMP_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("CUTJUMP_THREADS: must be an integer") from None
        if cap < 1:
            raise ConfigError("CUTJUMP_THREADS: must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_cells))


def cmd_sweep(sweep: SweepConfig) -> int:
    sweep.validate()
    base = sweep.base
    out_dir = Path(base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = sweep.cells()
    workers = _worker_count(len(cells))
    if workers == 1:
        rows = [_sweep_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    rows.sort(key=lambda r: (r["N"], r["epsilon"], r["repeat"]))
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with configuration (flags override it)")
    p.add_argument("--problem", help=f"built-in problem id ({', '.join(corpus.BUILTIN_IDS)})")
    p.add_argument("--input", dest="input_path", help="coefficient CSV file")
    p.add_argument("--n-coeffs", dest="n_coeffs", type=int, help="highest coefficient index N")
    p.add_argument("--epsilon", type=float, help="uniform noise bound")
    p.add_argument("--seed", type=int, help="noise seed (64-bit)")
    p.add_argument("--n-max", dest="n_max", type=int, help="synthesis depth")
    p.add_argument("--plateau-theta", dest="plateau_theta", type=float, help="flatness threshold")
    p.add_argument("--plateau-window", dest="plateau_window", type=int, help="minimum run length")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--emit", choices=("json", "csv", "both"), help="which files to write")


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
    hints = typing.get_type_hints(RunConfig)
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or a too-long integer
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in raw.items():
            if key not in hints:
                raise ConfigError(f"config: unknown field {key!r}")
            _check_config_type(key, value, hints[key])
            setattr(config, key, value)
    for name in hints:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    return config


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR (exit code 2 means failed
    positivity); subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutjump",
        description="Reconstruct the jump function across a power-series cut "
        "from finitely many noisy coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moments", help="moment-sequence diagnostics")
    _add_common(p_mom)
    p_mom.add_argument("--p-exponent", dest="p_exponent", type=float, help="L^p exponent (> 1)")
    p_mom.add_argument(
        "--f-mode",
        dest="f_mode",
        choices=("none", "k_plus_1", "k"),
        help="check the derived sequence (k+1) g_k or k g_k instead of g itself",
    )
    p_mom.add_argument(
        "--expect-positive",
        dest="expect_positive",
        action="store_true",
        default=None,  # unset, so a config file's value stands
        help="exit 2 when weight positivity fails",
    )

    p_rec = sub.add_parser("reconstruct", help="power-series jump reconstruction")
    _add_common(p_rec)

    p_th = sub.add_parser("thermal", help="thermal (boson) reconstruction")
    _add_common(p_th)

    p_sw = sub.add_parser("sweep", help="noise/size sweeps, aggregated CSV")
    _add_common(p_sw)
    p_sw.add_argument("--epsilons", help="comma-separated noise bounds")
    p_sw.add_argument("--n-list", dest="n_list", help="comma-separated coefficient counts")
    p_sw.add_argument("--repeats", type=int, help="repeats per cell")
    p_sw.add_argument("--seed-base", dest="seed_base", type=int, help="base for cell seeds")

    return parser


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}") from None


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "moments":
            return cmd_moments(_config_from_args(args))
        if args.command in ("reconstruct", "thermal"):
            return cmd_run(args.command, _config_from_args(args))
        if args.command == "sweep":
            base = _config_from_args(args)
            if base.problem is None and base.input_path is None:
                base.problem = "normalized_rational"
            sweep = SweepConfig(base=base)
            if getattr(args, "epsilons", None):
                sweep.epsilons = _parse_float_list(args.epsilons, "epsilons")
            if getattr(args, "n_list", None):
                sweep.ns = _parse_int_list(args.n_list, "n-list")
            if getattr(args, "repeats", None) is not None:
                sweep.repeats = args.repeats
            if getattr(args, "seed_base", None) is not None:
                sweep.seed_base = args.seed_base
            return cmd_sweep(sweep)
        parser.error(f"unknown command {args.command!r}")
    except (CutjumpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
