import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest

import entroute
from entroute.errors import InvalidParameterError
from entroute.fidelity import NoiseConfig
from entroute.harness import (
    AGGREGATE_CSV_HEADER,
    RAW_CSV_HEADER,
    ExperimentConfig,
    load_config,
    run_fidelity,
    run_grid_check,
    run_single,
    run_sweep,
    write_aggregate_csv,
    write_raw_csv,
)

from conftest import build_graph

PRESETS = Path(entroute.__file__).parent / "presets"


def small_config(**overrides):
    base = dict(
        node_count=20,
        demand_count=3,
        avg_capacity=4,
        avg_distance_km=7.44,
        alpha_per_km=0.05,
        iterations=5,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict({"node_count": 10, "bogus": 1})

    def test_rejects_unknown_noise_keys(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict(
                {
                    "node_count": 10,
                    "demand_count": 2,
                    "avg_capacity": 3,
                    "avg_distance_km": 5.0,
                    "noise": {"dephasing_rate_hz": 1.0, "oops": 2},
                }
            )

    def test_demand_count_bound(self):
        with pytest.raises(InvalidParameterError):
            small_config(node_count=4, demand_count=7)

    def test_sweep_axis_requires_values(self):
        with pytest.raises(InvalidParameterError):
            small_config(sweep_axis="avg_capacity")

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_config(sweep_axis="bogus", sweep_values=(1,))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_config(algorithms=("smpsa", "qkd"))

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "node_count": 20,
                    "demand_count": 3,
                    "avg_capacity": 4,
                    "avg_distance_km": 7.44,
                    "algorithms": ["smpsa", "mcsa"],
                    "iterations": 2,
                    "master_seed": 5,
                    "noise": {"dephasing_rate_hz": 100.0, "propagation_speed_km_per_s": 2.5},
                }
            )
        )
        config = load_config(str(path))
        assert config.algorithms == ("smpsa", "mcsa")
        assert config.noise == NoiseConfig(
            dephasing_rate_hz=100.0, propagation_speed_km_per_s=2.5
        )

    def test_null_noise_keeps_defaults(self):
        config = ExperimentConfig.from_dict(
            {"node_count": 10, "demand_count": 2, "avg_capacity": 3,
             "avg_distance_km": 5.0, "noise": None}
        )
        assert config.noise == NoiseConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("demand_count", 2.0),
            ("iterations", "5"),
            ("master_seed", 1.5),
            ("alpha_per_km", math.nan),
            ("avg_capacity", 10**400),
            ("algorithms", ["smpsa", 3]),
            ("sweep_values", (3, math.inf)),
            ("noise", {"distance_km": 1.0}),
        ],
    )
    def test_rejects_wrong_type_or_non_finite(self, field, value):
        with pytest.raises(InvalidParameterError):
            small_config(**{field: value})

    def test_load_config_missing_file(self):
        with pytest.raises(InvalidParameterError):
            load_config("/nonexistent/config.json")

    def test_load_config_resolves_a_preset_name(self):
        assert load_config("fig5c") == load_config(str(PRESETS / "fig5c.json"))

    def test_load_config_prefers_a_file_to_a_preset(self, tmp_path, monkeypatch):
        (tmp_path / "fig5c").write_text(json.dumps({"node_count": 7, "demand_count": 2,
                                                    "avg_capacity": 3, "avg_distance_km": 1.0}))
        monkeypatch.chdir(tmp_path)
        assert load_config("fig5c").node_count == 7

    def test_load_config_unknown_name(self):
        with pytest.raises(InvalidParameterError, match="config not found: fig99"):
            load_config("fig99")


class TestRunSingle:
    def test_rows_per_algorithm_in_name_order(self):
        rows = run_single(small_config(), 0)
        assert [r.algorithm for r in rows] == ["dmpsa", "mcsa", "rmpsa", "smpsa"]
        assert len({r.seed for r in rows}) == 1

    def test_deterministic_rows(self):
        config = small_config()
        # runtime_ms is excluded from row equality by design.
        assert run_single(config, 3) == run_single(config, 3)

    def test_different_iterations_differ(self):
        config = small_config()
        assert run_single(config, 0) != run_single(config, 1)

    @pytest.mark.parametrize(
        "indices", [(1.5,), (1.0,), (True,), ("1",), (0, "a"), (0, 1.0), (0, False)]
    )
    def test_indices_must_be_integers(self, indices):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            run_single(small_config(algorithms=("smpsa",)), *indices)

    def test_disconnected_demand_gives_zero_row(self):
        config = small_config(node_count=30, alpha_per_km=1e9, algorithms=("smpsa",))
        row = run_single(config, 0)[0]
        assert row.k == 0
        assert row.total_paths == 0
        assert row.depletion_ratio == 0.0

    @pytest.mark.parametrize(
        "algorithms, rmpsa_streams",
        [(("smpsa", "mcsa"), 0), (("smpsa", "mcsa", "rmpsa", "dmpsa"), 1)],
    )
    def test_rmpsa_stream_derived_only_for_rmpsa(
        self, algorithms, rmpsa_streams, monkeypatch
    ):
        import entroute.harness as harness

        calls = []

        def recording(*words):
            calls.append(words)
            return real(*words)

        real = harness.hash64
        monkeypatch.setattr(harness, "hash64", recording)
        run_single(small_config(algorithms=algorithms), 0)
        child = real(*calls[0])  # the first call derives the instance seed
        assert calls.count((child, harness._STREAM_RMPSA)) == rmpsa_streams

    def test_dmpsa_runs_at_the_largest_average_distance(self):
        # Path lengths must stay finite here: at inf every descent key ties
        # and DMPSA's descent can walk into a dead end.
        config = small_config(avg_distance_km=sys.float_info.max, alpha_per_km=0.0,
                              algorithms=("dmpsa",))
        for iteration in range(5):
            [row] = run_single(config, iteration)
            assert row.k >= 0

    def test_metrics_are_finite_and_bounded(self):
        for row in run_single(small_config(), 1):
            assert 0.0 <= row.depletion_ratio <= 1.0
            assert row.k >= 0
            assert row.avg_hop_count >= 0.0
            assert row.runtime_ms >= 0.0


class TestRunSweep:
    def test_requires_axis(self):
        with pytest.raises(InvalidParameterError):
            run_sweep(small_config())

    def test_axis_substitution_and_aggregation(self):
        config = small_config(
            algorithms=("smpsa",),
            iterations=4,
            sweep_axis="avg_capacity",
            sweep_values=(2, 6),
        )
        result = run_sweep(config)
        assert len(result.raw_rows) == 2 * 4
        assert len(result.aggregates) == 2
        for agg, value in zip(result.aggregates, (2.0, 6.0)):
            rows = [r for r in result.raw_rows if r.sweep_value == value]
            assert agg.sweep_value == value
            assert agg.iterations == 4
            assert agg.mean_k == pytest.approx(sum(r.k for r in rows) / 4)
            assert agg.mean_depletion_ratio == pytest.approx(
                sum(r.depletion_ratio for r in rows) / 4
            )

    def test_capacity_growth_does_not_hurt_mean_k(self):
        config = small_config(
            node_count=40,
            demand_count=2,
            algorithms=("smpsa", "mcsa"),
            iterations=30,
            sweep_axis="avg_capacity",
            sweep_values=(3, 10.96),
        )
        result = run_sweep(config)
        by_algo = {}
        for agg in result.aggregates:
            by_algo.setdefault(agg.algorithm, []).append((agg.sweep_value, agg.mean_k))
        for pairs in by_algo.values():
            pairs.sort()
            assert pairs[0][1] <= pairs[1][1]

    def test_iterations_axis_cumulative(self):
        config = small_config(
            algorithms=("smpsa",),
            sweep_axis="iterations",
            sweep_values=(2, 5),
        )
        result = run_sweep(config)
        assert len(result.raw_rows) == 5
        first, second = result.aggregates
        assert (first.sweep_value, first.iterations) == (2.0, 2)
        assert (second.sweep_value, second.iterations) == (5.0, 5)
        assert first.mean_k == pytest.approx(
            sum(r.k for r in result.raw_rows[:2]) / 2
        )
        assert second.mean_k == pytest.approx(
            sum(r.k for r in result.raw_rows) / 5
        )

    def test_node_count_axis_must_be_integral(self):
        config = small_config(sweep_axis="node_count", sweep_values=(20.5,))
        with pytest.raises(InvalidParameterError):
            run_sweep(config)

    def test_single_iteration_aggregate_equals_row(self):
        config = small_config(
            algorithms=("mcsa",), iterations=1,
            sweep_axis="avg_capacity", sweep_values=(5,),
        )
        result = run_sweep(config)
        (row,) = result.raw_rows
        (agg,) = result.aggregates
        assert agg.iterations == 1
        assert agg.mean_k == row.k
        assert agg.mean_avg_hop_count == row.avg_hop_count
        assert agg.mean_depletion_ratio == row.depletion_ratio
        assert agg.mean_total_paths == row.total_paths


def _leak_flag(g):
    g.allocated[0] = True


def _replace_physical_links(g):
    g.physical.links = g.physical.links[:-1]


class TestFairComparison:
    ALL = ("dmpsa", "mcsa", "rmpsa", "smpsa")

    @pytest.mark.parametrize(
        "corrupt",
        [_leak_flag, _replace_physical_links],
        ids=["leaked_flag", "replaced_physical_links"],
    )
    @pytest.mark.parametrize(
        "position", range(len(ALL) - 1), ids=[f"after_{n}" for n in ALL[:-1]]
    )
    def test_graph_mutation_between_algorithms_is_caught(
        self, corrupt, position, monkeypatch
    ):
        import entroute.harness as harness
        from entroute.errors import InvariantViolationError

        real = harness._run_algorithm
        ran = []

        def corrupting(name, g, demands, rmpsa_rng):
            schedule = real(name, g, demands, rmpsa_rng)
            ran.append(name)
            if name == self.ALL[position]:
                corrupt(g)  # violate the shared-graph contract
            return schedule

        monkeypatch.setattr(harness, "_run_algorithm", corrupting)
        with pytest.raises(InvariantViolationError):
            run_single(small_config(algorithms=self.ALL), 0)
        assert ran == list(self.ALL[: position + 1])

    def test_shared_links_cannot_be_moved(self):
        # Entangled links are the network's frozen fibers, so no run can move
        # one under the next.
        g = build_graph(2, [(0, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.links[0].u = 1

    def test_shared_adjacency_cannot_be_changed(self):
        # Every copy shares one adjacency of tuples, so no run can reorder or
        # extend it under the next.
        g = build_graph(3, [(0, 2), (0, 1), (0, 1)])
        assert g.copy().adjacency is g.adjacency
        with pytest.raises(AttributeError):
            g.adjacency[0].sort(reverse=True)
        with pytest.raises(AttributeError):
            g.adjacency[0].append((2, 0))
        with pytest.raises(TypeError):
            g.adjacency[0][0] = (2, 0)
        with pytest.raises(TypeError):
            g.adjacency[0] = ()

    @pytest.mark.parametrize(
        "algorithms",
        [("smpsa",), ("rmpsa",), ("smpsa", "mcsa"), ("mcsa", "rmpsa", "dmpsa"), ALL],
        ids="-".join,
    )
    def test_graph_serialized_once_per_algorithm_when_compared(
        self, algorithms, monkeypatch
    ):
        from entroute.network import EntangledGraph

        real = EntangledGraph.to_json
        calls = []

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(EntangledGraph, "to_json", counting)
        run_single(small_config(algorithms=algorithms), 0)
        assert len(calls) == (len(algorithms) if len(algorithms) > 1 else 0)


class TestCsvWriters:
    def test_raw_csv_shape(self):
        rows = run_single(small_config(algorithms=("smpsa", "mcsa")), 0)
        out = io.StringIO()
        write_raw_csv(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == RAW_CSV_HEADER
        assert len(lines) == 3
        # sweep_value column is empty outside sweeps
        assert lines[1].split(",")[2] == ""

    def test_aggregate_csv_deterministic(self):
        config = small_config(
            algorithms=("smpsa",), iterations=3,
            sweep_axis="avg_distance", sweep_values=(5.0, 10.0),
        )
        a, b = io.StringIO(), io.StringIO()
        write_aggregate_csv(run_sweep(config).aggregates, a)
        write_aggregate_csv(run_sweep(config).aggregates, b)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().splitlines()[0] == AGGREGATE_CSV_HEADER


class TestGridCheck:
    def test_minimal_grid_single_demand(self):
        assert run_grid_check(3, 3, 1, 0).satisfied

    def test_seven_by_five_with_five_demands(self):
        report = run_grid_check(7, 5, 5, 12345)
        assert report.satisfied
        assert all(c >= 1 for c in report.paths_per_demand)

    def test_row_precondition(self):
        with pytest.raises(InvalidParameterError):
            run_grid_check(4, 5, 3, 0)

    def test_column_precondition(self):
        with pytest.raises(InvalidParameterError):
            run_grid_check(9, 2, 3, 0)

    @pytest.mark.parametrize(
        "args", [(7, 5, 2, 2.5), (7, 5, 2.5, 42), (7.0, 5, 2, 2), (7, 5.0, 2, 2)]
    )
    def test_arguments_must_be_integers(self, args):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            run_grid_check(*args)


class TestRunFidelity:
    def test_defaults_to_config_rates(self):
        config = small_config()  # zero-rate noise by default
        rows = run_fidelity(config)
        assert len(rows) == 2 * 1 * 4
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-9) for r in rows)

    def test_rate_grid_override(self):
        config = small_config()
        rows = run_fidelity(
            config, dephasing_rates_hz=[1e10], depolarization_rates_hz=[1e10],
            distances_km=[7.5],
        )
        by_channel = {r.channel: r.fidelity for r in rows}
        assert by_channel["dephasing"] == pytest.approx(0.5, abs=1e-3)
        assert by_channel["depolarizing"] == pytest.approx(0.25, abs=1e-3)
