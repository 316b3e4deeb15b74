"""Config-driven experiment harness: seeded sweeps, aggregation, CSV output.

Seed discipline
---------------
Every simulation instance derives its seed as

    child = hash64(master_seed, iteration_index, axis_value_index)

and splits it into fixed-purpose substreams: hash64(child, 0) drives topology
generation, hash64(child, 1) entanglement, hash64(child, 2) demand sampling,
and hash64(child, 3) the randomized scheduler (derived only when rmpsa is
selected); ``_instance`` alone writes this layout. Demand i is the i-th
``(src, dst)`` pair sampled, and the randomized scheduler reads its words
from substream i of that stream. Within one instance every selected algorithm
gets the same entangled graph and demand set; each scheduler claims links
only in its own ``copy()`` of the graph's allocation flags. The graph's
structure is frozen, so a run can leak into the next only through those
flags. To enforce that, a digest of the serialized graph and its flags is
taken before the first run and checked before each run after the first; a
single algorithm needs no digest. The graph builds its JSON text on the first
call, so the guard serializes once per instance and only rehashes later.

A sweep lists the ``run_single`` arguments of all its instances, runs them
in that order, and averages each aggregate row over a window of consecutive
instances; only that list and the windows depend on the sweep axis.

Raw result rows carry a measured ``runtime_ms``; it is excluded from row
equality and from the default sweep output so that sweep results are
byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    require_finite,
    require_integer,
)
from .fidelity import FidelitySweepRow, NoiseConfig, fidelity_sweep
from .generation import generate_entanglement, generate_grid, generate_topology
from .metrics import compute_metrics
from .network import EntangledGraph
from .routing import (
    RoutingSchedule,
    dmpsa_schedule,
    mcsa_schedule,
    rmpsa_schedule,
    smpsa_schedule,
)
from .rng import RngStream, hash64

ALGORITHMS = ("smpsa", "mcsa", "rmpsa", "dmpsa")
# The config field each sweep axis replaces; ``iterations`` is cumulative
# and replaces none.
_AXIS_FIELDS = {"avg_capacity": "avg_capacity", "avg_distance": "avg_distance_km",
                "node_count": "node_count", "demand_count": "demand_count"}
SWEEP_AXES = (*_AXIS_FIELDS, "iterations")

_STREAM_TOPOLOGY = 0
_STREAM_ENTANGLEMENT = 1
_STREAM_DEMANDS = 2
_STREAM_RMPSA = 3


@dataclass(frozen=True)
class ExperimentConfig:
    node_count: int
    demand_count: int
    avg_capacity: float
    avg_distance_km: float
    alpha_per_km: float = 0.05
    algorithms: tuple[str, ...] = ALGORITHMS
    iterations: int = 100
    master_seed: int = 0
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = ()
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        for name in ("node_count", "demand_count", "iterations", "master_seed"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name)))
        for name in ("avg_capacity", "avg_distance_km", "alpha_per_km"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        # A bare string would otherwise be read one character per name.
        if not isinstance(self.algorithms, (list, tuple)):
            raise InvalidParameterError(
                f"algorithms must be a list of names, got {self.algorithms!r}"
            )
        if not isinstance(self.sweep_values, (list, tuple)):
            raise InvalidParameterError(
                f"sweep_values must be a list of numbers, got {self.sweep_values!r}"
            )
        # Checked, not converted: rows echo them, so an int stays an int.
        for value in self.sweep_values:
            require_finite("sweep_values", value)
        if not isinstance(self.noise, NoiseConfig):
            raise InvalidParameterError("noise must be an object")
        if self.node_count < 2:
            raise InvalidParameterError("node_count must be >= 2")
        if self.avg_capacity < 1:
            raise InvalidParameterError(f"avg_capacity must be >= 1, got {self.avg_capacity}")
        if self.avg_distance_km <= 0:
            raise InvalidParameterError(f"avg_distance_km must be > 0, got {self.avg_distance_km}")
        max_demands = self.node_count * (self.node_count - 1) // 2
        if not (1 <= self.demand_count <= max_demands):
            raise InvalidParameterError(
                f"demand_count must be in [1, {max_demands}], got {self.demand_count}"
            )
        if self.iterations < 1:
            raise InvalidParameterError("iterations must be >= 1")
        if not self.algorithms:
            raise InvalidParameterError("at least one algorithm must be selected")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise InvalidParameterError(f"unknown algorithm '{name}'")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise InvalidParameterError(f"unknown sweep axis '{self.sweep_axis}'")
            if not self.sweep_values:
                raise InvalidParameterError("sweep_values must be nonempty when sweep_axis is set")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        # An absent or null "noise" keeps the default noise constants.
        noise = kwargs.pop("noise", None)
        if noise is not None:
            if not isinstance(noise, dict):
                raise InvalidParameterError("noise must be an object")
            noise_known = {f.name for f in fields(NoiseConfig)}
            noise_unknown = set(noise) - noise_known
            if noise_unknown:
                raise InvalidParameterError(f"unknown noise keys: {sorted(noise_unknown)}")
            kwargs["noise"] = NoiseConfig(**noise)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidParameterError(str(exc)) from exc


def load_config(name_or_path: str) -> ExperimentConfig:
    """Config from a JSON file or, if no such file exists, a shipped preset.

    A file takes precedence over the preset of the same name, so adding a
    preset is adding ``presets/<name>.json``.
    """
    try:
        source = Path(name_or_path)
    except TypeError as exc:  # not a str or path-like
        raise InvalidParameterError(f"config must be a name or a path: {exc}") from exc
    if not source.exists():
        source = resources.files("entroute").joinpath(f"presets/{name_or_path}.json")
        if not source.is_file():
            raise InvalidParameterError(f"config not found: {name_or_path}")
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
        raise InvalidParameterError(f"cannot read config {name_or_path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameterError("config root must be a JSON object")
    return ExperimentConfig.from_dict(data)


@dataclass(frozen=True)
class ResultRow:
    seed: int
    algorithm: str
    sweep_value: float | None
    k: int
    avg_hop_count: float
    depletion_ratio: float
    total_paths: int
    runtime_ms: float = field(compare=False)


@dataclass(frozen=True)
class AggregateRow:
    sweep_axis: str
    sweep_value: float
    algorithm: str
    iterations: int
    mean_k: float
    mean_avg_hop_count: float
    mean_depletion_ratio: float
    mean_total_paths: float


@dataclass(frozen=True)
class SweepResult:
    raw_rows: tuple[ResultRow, ...]
    aggregates: tuple[AggregateRow, ...]


@dataclass(frozen=True)
class GridCheckReport:
    rows: int
    cols: int
    demand_count: int
    seed: int
    satisfied: bool
    paths_per_demand: tuple[int, ...]


def _sample_demands(
    node_count: int, demand_count: int, rng: RngStream
) -> tuple[tuple[int, int], ...]:
    """Distinct unordered pairs, src != dst, sampled uniformly by rejection."""
    seen: set[frozenset[int]] = set()
    demands: list[tuple[int, int]] = []
    while len(demands) < demand_count:
        u = rng.randrange(node_count)
        v = rng.randrange(node_count)
        if u == v:
            continue
        pair = frozenset((u, v))
        if pair in seen:
            continue
        seen.add(pair)
        demands.append((u, v))
    return tuple(demands)


def _run_algorithm(
    name: str, g: EntangledGraph, demands, rmpsa_rng: RngStream | None
) -> RoutingSchedule:
    if name == "smpsa":
        return smpsa_schedule(g, demands)
    if name == "mcsa":
        return mcsa_schedule(g, demands)
    if name == "rmpsa":
        return rmpsa_schedule(g, demands, rmpsa_rng)
    return dmpsa_schedule(g, demands)  # ExperimentConfig admits no other name


def _instance(
    config: ExperimentConfig, iteration_index: int, axis_index: int
) -> tuple[int, EntangledGraph, tuple[tuple[int, int], ...], RngStream | None]:
    """The seed, entangled graph, demands and RMPSA stream of one instance."""
    require_integer("iteration_index", iteration_index)
    require_integer("axis_index", axis_index)
    child = hash64(config.master_seed, iteration_index, axis_index)
    net = generate_topology(
        config.node_count,
        config.avg_distance_km,
        config.avg_capacity,
        RngStream(hash64(child, _STREAM_TOPOLOGY)),
    )
    graph = generate_entanglement(
        net, config.alpha_per_km, RngStream(hash64(child, _STREAM_ENTANGLEMENT))
    )
    demands = _sample_demands(
        config.node_count, config.demand_count, RngStream(hash64(child, _STREAM_DEMANDS))
    )
    rmpsa_rng = (
        RngStream(hash64(child, _STREAM_RMPSA)) if "rmpsa" in config.algorithms else None
    )
    return child, graph, demands, rmpsa_rng


def run_single(
    config: ExperimentConfig,
    iteration_index: int,
    axis_index: int = 0,
    sweep_value: float | None = None,
) -> list[ResultRow]:
    """One seeded instance: generate once, run every selected algorithm."""
    seed, graph, demands, rmpsa_rng = _instance(config, iteration_index, axis_index)

    def graph_digest() -> str:
        # The wire schema omits allocation flags, so fold them in explicitly:
        # leaked allocations are exactly what this guard must catch.
        flags = bytes(graph.allocated)
        return hashlib.sha256(graph.to_json().encode() + flags).hexdigest()

    # Alphabetical algorithm order keeps emitted rows independent of any
    # execution interleaving.
    algorithms = sorted(set(config.algorithms))
    # Nothing runs between the pristine digest and the first run, so the
    # digest is checked only before each later one.
    pristine_digest = graph_digest() if len(algorithms) > 1 else None
    rows: list[ResultRow] = []
    for position, name in enumerate(algorithms):
        if position and graph_digest() != pristine_digest:
            raise InvariantViolationError(
                "entangled graph changed between algorithm runs"
            )
        start = time.perf_counter()
        schedule = _run_algorithm(name, graph, demands, rmpsa_rng)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        avg_hop_count, depletion_ratio = compute_metrics(schedule, graph.physical)
        rows.append(
            ResultRow(
                seed=seed,
                algorithm=name,
                sweep_value=sweep_value,
                k=schedule.k,
                avg_hop_count=avg_hop_count,
                depletion_ratio=depletion_ratio,
                total_paths=schedule.total_paths,
                runtime_ms=elapsed_ms,
            )
        )
    return rows


def _substitute_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    name = _AXIS_FIELDS[axis]
    if name.endswith("_count"):
        if value != int(value):
            raise InvalidParameterError(f"{name} sweep value must be an integer, got {value}")
        value = int(value)
    return replace(config, **{name: value})


def _aggregate(axis: str, value: float, instances: list[list[ResultRow]]) -> list[AggregateRow]:
    """Per-algorithm means over the rows of a window of instances."""
    rows = [r for instance in instances for r in instance]
    out = []
    for name in sorted({r.algorithm for r in rows}):
        sub = [r for r in rows if r.algorithm == name]
        n = len(sub)
        out.append(
            AggregateRow(
                sweep_axis=axis,
                sweep_value=value,
                algorithm=name,
                iterations=n,
                mean_k=sum(r.k for r in sub) / n,
                mean_avg_hop_count=sum(r.avg_hop_count for r in sub) / n,
                mean_depletion_ratio=sum(r.depletion_ratio for r in sub) / n,
                mean_total_paths=sum(r.total_paths for r in sub) / n,
            )
        )
    return out


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every instance of the configured sweep, then average windows of them.

    All instances' ``run_single`` arguments are listed, and every sweep value
    checked, before the first runs. Checkpoint ``c`` of the cumulative
    ``iterations`` axis averages instances ``[0, c)``. Value ``j`` of any
    other axis sets its config field in ``n = config.iterations`` instances
    with axis index ``j`` and averages instances ``[j * n, (j + 1) * n)``.
    """
    axis = config.sweep_axis
    if axis is None:
        raise InvalidParameterError("run_sweep requires sweep_axis and sweep_values")
    if axis == "iterations":
        if any(v != int(v) or v < 1 for v in config.sweep_values):
            raise InvalidParameterError("iteration checkpoints must be positive integers")
        checkpoints = sorted(int(v) for v in config.sweep_values)
        instances = [(config, i, 0, None) for i in range(checkpoints[-1])]
        windows = [(float(c), 0, c) for c in checkpoints]
    else:
        n = config.iterations
        instances, windows = [], []
        for j, value in enumerate(config.sweep_values):
            sub = _substitute_axis(config, axis, value)
            instances += [(sub, i, j, value) for i in range(n)]
            windows.append((value, j * n, (j + 1) * n))
    results = [run_single(*args) for args in instances]
    aggregates = []
    for value, start, end in windows:
        aggregates += _aggregate(axis, value, results[start:end])
    raw = tuple(r for instance in results for r in instance)
    return SweepResult(raw, tuple(aggregates))


# Uniform node capacity used for grid feasibility checks; at least the
# maximum grid degree, so every physical link gets an entanglement attempt.
GRID_CHECK_CAPACITY = 4


def run_grid_check(rows: int, cols: int, demand_count: int, seed: int) -> GridCheckReport:
    """Feasibility of 1-path-per-demand routing between grid boundaries.

    ``demand_count`` column-aligned demands (source on the top row,
    destination on the bottom row, one distinct column each) are scheduled
    with the min-cut-prioritized scheduler capped at one path per demand.
    The report says whether every demand received a path.
    """
    rows, cols = require_integer("rows", rows), require_integer("cols", cols)
    demand_count = require_integer("demand_count", demand_count)
    seed = require_integer("seed", seed)
    if demand_count < 1:
        raise InvalidParameterError("demand_count must be >= 1")
    if rows < demand_count + 2:
        raise InvalidParameterError(
            f"grid check needs rows >= demand_count + 2, got {rows} rows for "
            f"{demand_count} demands"
        )
    if cols < demand_count:
        raise InvalidParameterError(
            f"grid check needs cols >= demand_count, got {cols} cols for "
            f"{demand_count} demands"
        )

    net = generate_grid(rows, cols, 1.0, GRID_CHECK_CAPACITY)
    # alpha = 0 makes every attempted pair succeed: the fully entangled grid.
    graph = generate_entanglement(net, 0.0, RngStream(hash64(seed, _STREAM_ENTANGLEMENT)))
    columns = RngStream(hash64(seed, _STREAM_DEMANDS)).sample(cols, demand_count)
    demands = tuple((column, (rows - 1) * cols + column) for column in columns)
    schedule = mcsa_schedule(graph, demands, per_demand_cap=1)
    counts = tuple(len(ps) for ps in schedule.paths)
    return GridCheckReport(
        rows=rows,
        cols=cols,
        demand_count=demand_count,
        seed=seed,
        satisfied=all(c >= 1 for c in counts),
        paths_per_demand=counts,
    )


def run_fidelity(
    config: ExperimentConfig,
    dephasing_rates_hz=None,
    depolarization_rates_hz=None,
    distances_km=(1.0, 2.5, 5.0, 7.5),
) -> list[FidelitySweepRow]:
    """Fidelity sweep using the config's noise constants.

    Rate grids default to the config's scalar rates; callers (and the CLI)
    may pass explicit lists to sweep whole ranges.
    """
    noise = config.noise
    if dephasing_rates_hz is None:
        dephasing_rates_hz = [noise.dephasing_rate_hz]
    if depolarization_rates_hz is None:
        depolarization_rates_hz = [noise.depolarization_rate_hz]
    return fidelity_sweep(
        dephasing_rates_hz,
        depolarization_rates_hz,
        distances_km,
        noise.propagation_speed_km_per_s,
    )


RAW_CSV_HEADER = "seed,algorithm,sweep_value,k,avg_hop_count,depletion_ratio,total_paths,runtime_ms"
AGGREGATE_CSV_HEADER = (
    "sweep_axis,sweep_value,algorithm,iterations,"
    "mean_k,mean_avg_hop_count,mean_depletion_ratio,mean_total_paths"
)


def _format_sweep_value(value: float | None) -> str:
    """Empty for None, else ``:g`` if that reads back as the same float, else ``repr``."""
    if value is None:
        return ""
    text = f"{value:g}"
    return text if float(text) == float(value) else repr(float(value))


def write_raw_csv(rows, out) -> None:
    """Rows arrive in (sweep_value, iteration, algorithm-name) order already."""
    out.write(RAW_CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.seed},{r.algorithm},{_format_sweep_value(r.sweep_value)},"
            f"{r.k},{r.avg_hop_count:.6f},{r.depletion_ratio:.6f},"
            f"{r.total_paths},{r.runtime_ms:.3f}\n"
        )


def write_aggregate_csv(aggregates, out) -> None:
    out.write(AGGREGATE_CSV_HEADER + "\n")
    for a in aggregates:
        out.write(
            f"{a.sweep_axis},{_format_sweep_value(a.sweep_value)},{a.algorithm},{a.iterations},"
            f"{a.mean_k:.6f},{a.mean_avg_hop_count:.6f},"
            f"{a.mean_depletion_ratio:.6f},{a.mean_total_paths:.6f}\n"
        )
