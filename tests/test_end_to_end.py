"""The harness against a composition of the references in ``oracles``.

Each stage has its own reference test; these compare whole runs, so they
also pin the glue between the stages: the seed of each instance and its
substreams, the RMPSA stream, the algorithm order, the metric formulas and
the cumulative ``iterations`` windows. Rows are compared exactly, floats
at full precision.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, replace

from hypothesis import example, given, settings, strategies as st

from entroute.harness import (
    ALGORITHMS,
    ExperimentConfig,
    _instance,
    run_grid_check,
    run_single,
    run_sweep,
)
from oracles import (
    instance_reference,
    run_grid_check_reference,
    run_single_reference,
    run_sweep_reference,
)

MAX = sys.float_info.max


def _rows(rows) -> list[tuple]:
    # runtime_ms, the last field, is measured.
    return [astuple(row)[:-1] for row in rows]


@st.composite
def _configs(draw, max_nodes: int) -> ExperimentConfig:
    node_count = draw(st.integers(2, max_nodes))
    pairs = node_count * (node_count - 1) // 2
    # Every pair is a demand only on small networks, where that stays cheap.
    demand_limit = pairs if node_count <= 12 else 10
    # One config in four draws from the top range, where distances saturate
    # at the largest float over n.
    saturated = draw(st.integers(0, 3)) == 0
    return ExperimentConfig(
        node_count=node_count,
        demand_count=draw(st.integers(1, demand_limit)),
        avg_capacity=draw(st.floats(1.0, 11.0)),
        avg_distance_km=draw(st.floats(MAX / 100, MAX) if saturated else st.floats(0.5, 30.0)),
        alpha_per_km=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5))),
        algorithms=tuple(draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=5))),
        iterations=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


_EVERY_ALGORITHM = ExperimentConfig(
    node_count=30, demand_count=5, avg_capacity=6.5, avg_distance_km=7.44, master_seed=42
)


@settings(max_examples=120, deadline=None)
@given(
    config=_configs(max_nodes=80),
    iteration=st.integers(0, 10**6),
    axis_index=st.integers(0, 10),
    sweep_value=st.one_of(st.none(), st.floats(1.0, 100.0)),
)
@example(config=_EVERY_ALGORITHM, iteration=0, axis_index=0, sweep_value=None)
@example(config=_EVERY_ALGORITHM, iteration=3, axis_index=2, sweep_value=12.87)
def test_run_single_matches_the_reference(config, iteration, axis_index, sweep_value):
    seed, graph, demands, rmpsa_rng = _instance(config, iteration, axis_index)
    child, reference_graph, reference_demands = instance_reference(config, iteration, axis_index)
    assert seed == child.seed
    assert graph.to_json() == reference_graph.to_json()
    assert list(demands) == reference_demands
    if "rmpsa" in config.algorithms:
        assert rmpsa_rng.seed == child.substream(3).seed
    else:
        assert rmpsa_rng is None
    rows = run_single(config, iteration, axis_index, sweep_value)
    assert _rows(rows) == run_single_reference(config, iteration, axis_index, sweep_value)


def _assert_sweep_matches(config: ExperimentConfig) -> None:
    result = run_sweep(config)
    raw, aggregates = run_sweep_reference(config)
    assert _rows(result.raw_rows) == raw
    assert [astuple(row) for row in result.aggregates] == aggregates


@settings(max_examples=25, deadline=None)
@given(
    config=_configs(max_nodes=12),
    checkpoints=st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
@example(config=_EVERY_ALGORITHM, checkpoints=[3, 1, 3])
def test_cumulative_iterations_sweep_matches_the_reference(config, checkpoints):
    _assert_sweep_matches(replace(config, sweep_axis="iterations", sweep_values=checkpoints))


@st.composite
def _axis_sweeps(draw) -> ExperimentConfig:
    config = draw(_configs(max_nodes=12))
    axis = draw(st.sampled_from(["avg_capacity", "avg_distance", "node_count", "demand_count"]))
    pairs = config.node_count * (config.node_count - 1) // 2
    # The fewest nodes with as many pairs as the config has demands.
    min_nodes = 2
    while min_nodes * (min_nodes - 1) // 2 < config.demand_count:
        min_nodes += 1
    values = {
        "avg_capacity": st.floats(1.0, 11.0),
        "avg_distance": st.floats(0.5, 30.0),
        "node_count": st.integers(min_nodes, 12),
        "demand_count": st.integers(1, pairs),
    }[axis]
    sweep_values = draw(st.lists(values, min_size=1, max_size=3))
    return replace(config, sweep_axis=axis, sweep_values=sweep_values)


@settings(max_examples=25, deadline=None)
@given(config=_axis_sweeps())
def test_axis_sweep_matches_the_reference(config):
    _assert_sweep_matches(config)


# The shapes of the c6 acceptance check.
_C6_SHAPES = [
    (rows, cols, demand_count)
    for demand_count in range(1, 6)
    for rows in range(demand_count + 2, 11)
    for cols in range(max(2, demand_count), 11)
]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_C6_SHAPES), seed=st.integers(0, 2**64 - 1))
@example(shape=(10, 10, 5), seed=0)
def test_grid_check_matches_the_reference(shape, seed):
    assert astuple(run_grid_check(*shape, seed)) == run_grid_check_reference(*shape, seed)
