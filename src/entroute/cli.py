"""Command-line entry point.

Subcommands:
    entroute schedule  --config FILE [--algorithm NAME] [--seed N]
                       [--out PATH] [--format csv|json]
    entroute sweep     --config FILE [--axis NAME --values V1,V2,...]
                       [--out PATH] [--raw PATH] [--format csv|json]
    entroute fidelity  --config FILE [--dephasing-rates ...]
                       [--depolarization-rates ...] [--distances ...] [--out PATH]
    entroute gridcheck --rows R --cols C --demands D --seed N

Exit codes: 0 success, 2 configuration error, 3 generation failure,
4 internal invariant breach.

``--config`` accepts a path or the name of a shipped preset (fig4, fig5a,
fig5b, fig5c, fig5d, fig6).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from .errors import GenerationFailureError, InvalidParameterError, InvariantViolationError
from .fidelity import write_fidelity_csv
from .harness import (
    ExperimentConfig,
    load_config,
    run_fidelity,
    run_grid_check,
    run_single,
    run_sweep,
    write_aggregate_csv,
    write_raw_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_INVARIANT = 4

PRESETS = ("fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig6")


def _resolve_config(name_or_path: str) -> ExperimentConfig:
    if Path(name_or_path).exists():
        return load_config(name_or_path)
    if name_or_path in PRESETS:
        text = resources.files("entroute").joinpath(
            f"presets/{name_or_path}.json"
        ).read_text()
        return ExperimentConfig.from_dict(json.loads(text))
    raise InvalidParameterError(f"config not found: {name_or_path}")


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _parse_float_list(text: str) -> list[float]:
    """Comma-separated numbers; an empty entry, trailing comma included, is an error."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"bad numeric list '{text}'") from exc


def _cmd_schedule(args) -> int:
    config = _resolve_config(args.config)
    if args.algorithm is not None:
        config = dataclasses.replace(config, algorithms=(args.algorithm,))
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    rows = run_single(config, 0)
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            json.dump([dataclasses.asdict(r) for r in rows], out, indent=2)
            out.write("\n")
        else:
            write_raw_csv(rows, out)
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _resolve_config(args.config)
    if args.axis is not None:
        config = dataclasses.replace(config, sweep_axis=args.axis)
    if args.values is not None:
        config = dataclasses.replace(
            config, sweep_values=tuple(_parse_float_list(args.values))
        )
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    result = run_sweep(config)
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            json.dump([dataclasses.asdict(a) for a in result.aggregates], out, indent=2)
            out.write("\n")
        else:
            write_aggregate_csv(result.aggregates, out)
    finally:
        if close:
            out.close()
    if args.raw is not None:
        with open(args.raw, "w", encoding="utf-8", newline="") as raw_out:
            write_raw_csv(result.raw_rows, raw_out)
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    config = _resolve_config(args.config)
    rows = run_fidelity(
        config,
        dephasing_rates_hz=(
            _parse_float_list(args.dephasing_rates)
            if args.dephasing_rates is not None
            else None
        ),
        depolarization_rates_hz=(
            _parse_float_list(args.depolarization_rates)
            if args.depolarization_rates is not None
            else None
        ),
        distances_km=(
            _parse_float_list(args.distances)
            if args.distances is not None
            else (1.0, 2.5, 5.0, 7.5)
        ),
    )
    out, close = _open_out(args.out)
    try:
        write_fidelity_csv(rows, out)
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_gridcheck(args) -> int:
    report = run_grid_check(args.rows, args.cols, args.demands, args.seed)
    print("true" if report.satisfied else "false")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroute",
        description="k-entangled routing simulator for quantum networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule", help="run one seeded instance")
    schedule.add_argument("--config", required=True)
    schedule.add_argument("--algorithm", choices=["smpsa", "mcsa", "rmpsa", "dmpsa"])
    schedule.add_argument("--seed", type=int)
    schedule.add_argument("--out")
    schedule.add_argument("--format", choices=["csv", "json"], default="csv")
    schedule.set_defaults(func=_cmd_schedule)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--axis", choices=[
        "avg_capacity", "avg_distance", "node_count", "demand_count", "iterations",
    ])
    sweep.add_argument("--values", help="comma-separated sweep values")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.add_argument("--raw", help="also write raw per-iteration rows here")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    fid = sub.add_parser("fidelity", help="run the noise/fidelity sweep")
    fid.add_argument("--config", required=True)
    fid.add_argument("--dephasing-rates", help="comma-separated rates in Hz")
    fid.add_argument("--depolarization-rates", help="comma-separated rates in Hz")
    fid.add_argument("--distances", help="comma-separated distances in km")
    fid.add_argument("--out")
    fid.set_defaults(func=_cmd_fidelity)

    grid = sub.add_parser("gridcheck", help="grid boundary-demand feasibility check")
    grid.add_argument("--rows", type=int, required=True)
    grid.add_argument("--cols", type=int, required=True)
    grid.add_argument("--demands", type=int, required=True)
    grid.add_argument("--seed", type=int, required=True)
    grid.set_defaults(func=_cmd_gridcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"entroute: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationFailureError as exc:
        print(f"entroute: generation failure: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except InvariantViolationError as exc:
        print(f"entroute: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
