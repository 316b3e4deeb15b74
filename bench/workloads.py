"""The benchmark's workloads: seeded operation streams on entroute's entry points.

Every workload turns a master seed into an unbounded, deterministic stream of
operations. Operation ``j`` is one call of a public entry point
(``run_single``, ``run_grid_check`` or ``run_fidelity``) on arguments that
depend only on the seed and ``j``; the program never sees anything else. No
input repeats within a timed loop, so a result cache in the program gains
nothing here unless real sweeps would gain from it too.

The outputs of the first ``digest_ops`` operations are hashed with SHA-256.
At ``DEFAULT_SEED`` that digest must equal the reference recorded in
``REFERENCE_DIGESTS``; at other seeds it is printed only. Every output, digested
or not, is checked against invariants that hold at any seed.
"""

from __future__ import annotations

import io
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PRESETS = SRC / "entroute" / "presets"

DEFAULT_SEED = 42

# SHA-256 of the first ``digest_ops`` outputs of each workload at DEFAULT_SEED,
# recorded at the commit that introduced the benchmark. A change that alters a
# single output byte of these operations fails the run.
REFERENCE_DIGESTS = {
    "sweep_nodes": "52bc0a1bae28ba03e42a9ce8339c8c72c14a03e9cd3ee8d9c79c180a97c85af1",
    "mcsa_dense": "b711394b5a7afab263b7fa5368464df756184baf587354c1ad5df4c407876bcd",
    "gridcheck": "32988eff648d518a85bb6098a75efbffa080c101639488f8fbf766ed8fd1b30b",
    "fidelity_grid": "4647f64f0c6f29f67593cda84ab4b15827931eaacf526b9135ce2879ca1b135b",
}


class SourceMissing(RuntimeError):
    """The checkout has no entroute sources to benchmark."""


class OutputError(AssertionError):
    """An operation returned an output that breaks a workload invariant."""


def import_entroute():
    """Import entroute from this checkout's ``src`` and nowhere else."""
    package = SRC / "entroute"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no entroute sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entroute

    if Path(entroute.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"entroute was imported from {entroute.__file__}, not {package}")
    return entroute


@dataclass(frozen=True)
class Workload:
    name: str
    entry: Callable[..., Any]
    args: Callable[[int], tuple]
    serialize: Callable[[Any], bytes]
    check: Callable[[tuple, Any], None]
    digest_ops: int
    # Per-layer metrics that must be nonzero in a traced run of this workload.
    must_fire: tuple[str, ...]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


# --- run_single workloads -------------------------------------------------

_ROUTING_MUST_FIRE = (
    "generation.topology_calls",
    "generation.bell_attempts",
    "generation.bell_pairs",
    "rng.draws",
    "rng.hash64_calls",
    "network.to_json_calls",
    "network.copy_calls",
    "harness.guard_ms",
    "harness.demands_ms",
    "routing.smpsa_ms",
    "routing.mcsa_ms",
    "routing.mincut_calls",
    "routing.augmentations",
    "routing.shortest_path_calls",
    "routing.paths_allocated",
    "metrics.compute_ms",
)


def _serialize_rows(rows) -> bytes:
    """Result rows without ``runtime_ms``, floats at full precision."""
    return "".join(
        f"{r.seed},{r.algorithm},{r.sweep_value!r},{r.k},{r.avg_hop_count!r},"
        f"{r.depletion_ratio!r},{r.total_paths}\n"
        for r in rows
    ).encode()


def _check_rows(args: tuple, rows) -> None:
    config = args[0]
    sweep_value = args[3] if len(args) > 3 else None
    _expect(
        [r.algorithm for r in rows] == sorted(set(config.algorithms)),
        f"rows for {[r.algorithm for r in rows]}, expected {sorted(set(config.algorithms))}",
    )
    for r in rows:
        _expect(r.sweep_value == sweep_value, f"sweep value {r.sweep_value} != {sweep_value}")
        _expect(r.k >= 0 and r.k * config.demand_count <= r.total_paths,
                f"{r.algorithm}: k={r.k} with {r.total_paths} paths")
        if r.total_paths == 0:
            _expect(r.avg_hop_count == 0.0, f"{r.algorithm}: hops without paths")
        else:
            _expect(1.0 <= r.avg_hop_count < config.node_count,
                    f"{r.algorithm}: avg hop count {r.avg_hop_count}")
        _expect(0.0 <= r.depletion_ratio <= 1.0,
                f"{r.algorithm}: depletion ratio {r.depletion_ratio}")


def sweep_nodes(er, seed: int) -> Workload:
    """The fig5c node-count sweep, one instance per operation.

    Operation j runs size ``j % 5`` at iteration ``j // 5``, the same
    (iteration, axis index) pair that ``run_sweep`` would give it, so every
    run sees all five sizes in equal numbers.
    """
    base = replace(er.load_config(str(PRESETS / "fig5c.json")), master_seed=seed)
    values = base.sweep_values
    configs = [replace(base, node_count=int(v)) for v in values]

    def args(j: int) -> tuple:
        axis = j % len(configs)
        return (configs[axis], j // len(configs), axis, values[axis])

    return Workload(
        "sweep_nodes", er.run_single, args, _serialize_rows, _check_rows,
        digest_ops=100,
        must_fire=_ROUTING_MUST_FIRE + ("routing.rmpsa_ms", "routing.dmpsa_ms"),
    )


def mcsa_dense(er, seed: int) -> Workload:
    """The c9 instance (n=250, D=25, capacity 11), consecutive iterations."""
    config = er.ExperimentConfig(
        node_count=250, demand_count=25, avg_capacity=11, avg_distance_km=7.44,
        iterations=1, master_seed=seed, algorithms=("smpsa", "mcsa"),
    )
    return Workload(
        "mcsa_dense", er.run_single, lambda j: (config, j, 0),
        _serialize_rows, _check_rows,
        digest_ops=20,
        must_fire=_ROUTING_MUST_FIRE,
    )


# --- run_grid_check -------------------------------------------------------

# The c6 acceptance slice: every (demand_count, rows, cols) with
# rows >= D + 2 and cols >= max(2, D), up to a 10 x 10 grid.
GRID_TRIPLES = tuple(
    (demand_count, rows, cols)
    for demand_count in range(1, 6)
    for rows in range(demand_count + 2, 11)
    for cols in range(max(2, demand_count), 11)
)
# Grid seeds of one benchmark seed: seed * stride + pass, so the seed ranges
# of different benchmark seeds never overlap.
GRID_SEED_STRIDE = 1_000_000


def _serialize_grid(report) -> bytes:
    return (
        f"{report.rows},{report.cols},{report.demand_count},{report.seed},"
        f"{int(report.satisfied)},{'/'.join(map(str, report.paths_per_demand))}\n"
    ).encode()


def _check_grid(args: tuple, report) -> None:
    rows, cols, demand_count, seed = args
    _expect((report.rows, report.cols, report.demand_count, report.seed)
            == (rows, cols, demand_count, seed), f"report for another input: {report}")
    counts = report.paths_per_demand
    _expect(len(counts) == demand_count and all(c in (0, 1) for c in counts),
            f"paths per demand {counts} for {demand_count} demands capped at 1")
    _expect(report.satisfied == all(c == 1 for c in counts),
            f"satisfied={report.satisfied} with counts {counts}")


def gridcheck(er, seed: int) -> Workload:
    """The c6 grid-feasibility slice; one pass covers all 242 grid shapes."""

    def args(j: int) -> tuple:
        demand_count, rows, cols = GRID_TRIPLES[j % len(GRID_TRIPLES)]
        return (rows, cols, demand_count, seed * GRID_SEED_STRIDE + j // len(GRID_TRIPLES))

    return Workload(
        "gridcheck", er.run_grid_check, args, _serialize_grid, _check_grid,
        digest_ops=10 * len(GRID_TRIPLES),
        must_fire=(
            "generation.grid_ms",
            "generation.entanglement_ms",
            "generation.bell_attempts",
            "generation.bell_pairs",
            "rng.draws",
            "rng.hash64_calls",
            "network.copy_calls",
            "routing.mcsa_ms",
            "routing.mincut_calls",
            "routing.augmentations",
            "routing.shortest_path_calls",
            "routing.paths_allocated",
        ),
    )


# --- run_fidelity ---------------------------------------------------------

# Distance grids of five sizes, each log-spaced over 0.1 .. 100 km. Cycling
# through them gives latencies the spread of a real mix of sweep sizes, so the
# p50 and p90 fall on the 48- and 80-point grids instead of on host noise.
FIDELITY_DISTANCE_GRIDS_KM = tuple(
    tuple(10.0 ** (-1.0 + 3.0 * i / (size - 1)) for i in range(size))
    for size in (16, 32, 48, 64, 80)
)
# Rates are log-spaced over 1e2 .. 1e8 Hz, which with the distances above
# spans fidelities from 1 down to saturation.
RATE_EXP_LOW, RATE_EXP_HIGH = 2.0, 8.0
_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def _serialize_fidelity(rows) -> bytes:
    out = io.StringIO()
    sys.modules["entroute.fidelity"].write_fidelity_csv(rows, out)
    return out.getvalue().encode()


def _check_fidelity(args: tuple, rows) -> None:
    distances = args[3]
    _expect(len(rows) == 2 * len(distances), f"{len(rows)} cells for {len(distances)} distances")
    for channel, floor, chunk in (
        ("dephasing", 0.5, rows[: len(distances)]),
        ("depolarizing", 0.25, rows[len(distances):]),
    ):
        _expect(all(r.channel == channel for r in chunk), f"channel order broken in {chunk}")
        values = [r.fidelity for r in chunk]
        _expect(all(floor - 1e-6 <= v <= 1.0 for v in values), f"{channel} fidelity out of range")
        _expect(all(a >= b - 1e-12 for a, b in zip(values, values[1:])),
                f"{channel} fidelity rises with distance: {values}")


def fidelity_grid(er, seed: int) -> Workload:
    """The fig4 noise constants over a log-spaced grid of rates x distances.

    Operation j sweeps one rate on both channels over distance grid
    ``j % 5``. Rate exponents follow a golden-ratio sequence with a seeded
    offset, so each run covers the exponent range evenly.
    """
    config = replace(er.load_config(str(PRESETS / "fig4.json")), master_seed=seed)
    offset = random.Random(seed).random()

    def args(j: int) -> tuple:
        fraction = (offset + j * _GOLDEN_FRACTION) % 1.0
        rate = 10.0 ** (RATE_EXP_LOW + (RATE_EXP_HIGH - RATE_EXP_LOW) * fraction)
        grid = FIDELITY_DISTANCE_GRIDS_KM[j % len(FIDELITY_DISTANCE_GRIDS_KM)]
        return (config, [rate], [rate], grid)

    return Workload(
        "fidelity_grid", er.run_fidelity, args, _serialize_fidelity, _check_fidelity,
        digest_ops=100,
        must_fire=(
            "fidelity.channel_ms",
            "fidelity.uhlmann_ms",
            "fidelity.density_checks",
            "fidelity.cells",
        ),
    )


WORKLOADS = {
    "sweep_nodes": sweep_nodes,
    "mcsa_dense": mcsa_dense,
    "gridcheck": gridcheck,
    "fidelity_grid": fidelity_grid,
}
