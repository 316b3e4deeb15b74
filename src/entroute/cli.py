"""Command-line entry point.

Subcommands:
    entroute schedule  --config FILE [--algorithm NAME] [--seed N]
                       [--out PATH] [--format csv|json]
    entroute sweep     --config FILE [--axis NAME --values V1,V2,...]
                       [--out PATH] [--raw PATH] [--format csv|json]
    entroute fidelity  --config FILE [--dephasing-rates ...]
                       [--depolarization-rates ...] [--distances ...] [--out PATH]
    entroute gridcheck --rows R --cols C --demands D --seed N

Exit codes: 0 success, 2 configuration error (an unwritable ``--out`` or
``--raw`` among them), 3 generation failure, 4 internal invariant breach.
Every positive finite ``avg_distance_km`` runs: link distances saturate at
the largest float over the node count, so no path length overflows.

``--config`` accepts a path or the name of a shipped preset (fig4, fig5a,
fig5b, fig5c, fig5d, fig6). ``--out`` and ``--raw`` write to stdout when
absent or ``-`` and must not name the same file; files are opened only
after the run succeeds, all of them before any is written, and a file
created for a failed write is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .errors import GenerationFailureError, InvalidParameterError, InvariantViolationError
from .fidelity import write_fidelity_csv
from .harness import (
    ALGORITHMS,
    SWEEP_AXES,
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


@contextlib.contextmanager
def _output(path: str | None):
    """Where ``--out`` or ``--raw`` writes: stdout for None or ``-``, else the file.

    Stdout is flushed and a file closed on the way out, so an ``OSError``
    from any open, write, flush or close ends here, as a configuration error.
    """
    to_stdout = path is None or path == "-"
    created = not to_stdout and not os.path.lexists(path)
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                yield handle
    except BaseException as exc:
        # A file created here goes again if a later output cannot be
        # opened or a write fails; an existing path is never removed.
        if created and os.path.lexists(path):
            os.unlink(path)
        if not isinstance(exc, OSError):
            raise
        if to_stdout:
            # A failed flush leaves its bytes buffered, and the interpreter
            # flushes them again at exit; sent to the null device, they cannot
            # fail there too and turn exit code 2 into 120.
            with contextlib.suppress(AttributeError, OSError, ValueError), \
                    open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        name = "stdout" if to_stdout else path
        raise InvalidParameterError(f"cannot write {name}: {exc.strerror or exc}") from exc


def _write_rows(rows, out, fmt: str, write_csv) -> None:
    if fmt == "json":
        json.dump([dataclasses.asdict(r) for r in rows], out, indent=2)
        out.write("\n")
    else:
        write_csv(rows, out)


def _parse_float_list(text: str) -> list[float]:
    """Comma-separated numbers; an empty entry, trailing comma included, is an error."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"bad numeric list '{text}'") from exc


def _config(args) -> ExperimentConfig:
    """``--config`` with the overrides that the subcommand's flags give."""
    config = load_config(args.config)
    overrides = {}
    if getattr(args, "algorithm", None) is not None:
        overrides["algorithms"] = (args.algorithm,)
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "axis", None) is not None:
        overrides["sweep_axis"] = args.axis
    if getattr(args, "values", None) is not None:
        overrides["sweep_values"] = tuple(_parse_float_list(args.values))
    return dataclasses.replace(config, **overrides)


def _cmd_schedule(args) -> int:
    rows = run_single(_config(args), 0)
    with _output(args.out) as out:
        _write_rows(rows, out, args.format, write_raw_csv)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    files = [os.path.realpath(p) for p in (args.out, args.raw) if p not in (None, "-")]
    if len(files) == 2 and files[0] == files[1]:
        raise InvalidParameterError(f"--out and --raw both name {args.out}")
    result = run_sweep(_config(args))
    # Both targets are open before either is written, so an unwritable one
    # leaves no file behind.
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_output(args.out))
        raw = None if args.raw is None else stack.enter_context(_output(args.raw))
        _write_rows(result.aggregates, out, args.format, write_aggregate_csv)
        if raw is not None:
            _write_rows(result.raw_rows, raw, "csv", write_raw_csv)
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    config = load_config(args.config)
    # Only the grids given on the command line; run_fidelity owns the defaults.
    grids = {}
    if args.dephasing_rates is not None:
        grids["dephasing_rates_hz"] = _parse_float_list(args.dephasing_rates)
    if args.depolarization_rates is not None:
        grids["depolarization_rates_hz"] = _parse_float_list(args.depolarization_rates)
    if args.distances is not None:
        grids["distances_km"] = _parse_float_list(args.distances)
    rows = run_fidelity(config, **grids)
    with _output(args.out) as out:
        write_fidelity_csv(rows, out)
    return EXIT_OK


def _cmd_gridcheck(args) -> int:
    report = run_grid_check(args.rows, args.cols, args.demands, args.seed)
    with _output(None) as out:
        out.write("true\n" if report.satisfied else "false\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroute",
        description="k-entangled routing simulator for quantum networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule", help="run one seeded instance")
    schedule.add_argument("--config", required=True)
    schedule.add_argument("--algorithm", choices=ALGORITHMS)
    schedule.add_argument("--seed", type=int)
    schedule.add_argument("--out")
    schedule.add_argument("--format", choices=["csv", "json"], default="csv")
    schedule.set_defaults(func=_cmd_schedule)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--axis", choices=SWEEP_AXES)
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
