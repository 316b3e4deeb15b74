import math
import sys
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute import generation
from entroute.errors import InvalidParameterError
from entroute.generation import (
    entanglement_probability,
    generate_entanglement,
    generate_grid,
    generate_topology,
)
from entroute.network import PhysicalLink, PhysicalNetwork, QuantumNode
from entroute.rng import RngStream
from oracles import generate_topology_scalar


class TestEntanglementProbability:
    def test_zero_distance(self):
        assert entanglement_probability(0.0, 0.05) == 1.0

    def test_known_values_against_decimal_oracle(self):
        # Frozen from Decimal(-x).exp() at 50 digits.
        assert entanglement_probability(7.44, 0.05) == pytest.approx(
            float(Decimal("0.68935424252422242284799411702265630203800131590590")),
            abs=1e-12,
        )
        assert abs(entanglement_probability(7.44, 0.05) - 0.6894) < 1e-4
        assert entanglement_probability(27.5, 0.05) == pytest.approx(
            float(Decimal("0.25283959580474647781098749981932527796853388863228")),
            abs=1e-12,
        )
        assert abs(entanglement_probability(27.5, 0.05) - 0.2528) < 1e-4

    def test_strictly_decreasing_in_distance(self):
        probs = [entanglement_probability(d, 0.05) for d in (1, 5, 10, 20, 40)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            entanglement_probability(-1.0, 0.05)
        with pytest.raises(InvalidParameterError):
            entanglement_probability(1.0, -0.05)

    @pytest.mark.parametrize(
        "distance, alpha",
        [(math.nan, 0.1), (1.0, math.nan), (math.inf, 0.0), (1.0, math.inf)],
    )
    def test_non_finite_inputs_rejected(self, distance, alpha):
        with pytest.raises(InvalidParameterError, match=r"must be in \[0, inf\)"):
            entanglement_probability(distance, alpha)


class TestGenerateTopology:
    def test_two_nodes_forces_single_link(self):
        net = generate_topology(2, 7.44, 3, RngStream(1))
        assert net.node_count == 2
        assert len(net.links) == 1

    def test_hundred_nodes_connected_with_target_mean_distance(self):
        net = generate_topology(100, 7.44, 9.09, RngStream(42))
        # Independent BFS connectivity check over the raw link list.
        adjacency: dict[int, list[int]] = {}
        for link in net.links:
            adjacency.setdefault(link.u, []).append(link.v)
            adjacency.setdefault(link.v, []).append(link.u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adjacency.get(x, []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert len(seen) == 100
        mean_distance = sum(l.distance_km for l in net.links) / len(net.links)
        assert 7.07 <= mean_distance <= 7.81

    def test_capacities_at_least_one(self):
        net = generate_topology(50, 27.5, 3, RngStream(7))
        assert all(node.capacity >= 1 for node in net.nodes)

    def test_deterministic_given_seed(self):
        a = generate_topology(40, 12.87, 5.05, RngStream(3))
        b = generate_topology(40, 12.87, 5.05, RngStream(3))
        assert a.to_json() == b.to_json()

    def test_distance_bounds(self):
        net = generate_topology(60, 10.0, 4, RngStream(2))
        assert all(5.0 <= l.distance_km <= 15.0 for l in net.links)

    def test_rejects_tiny_node_count(self):
        with pytest.raises(InvalidParameterError):
            generate_topology(1, 7.44, 3, RngStream(0))

    @pytest.mark.parametrize("node_count", [10.5, 10.0, "10", None, True])
    def test_rejects_non_integer_node_count(self, node_count):
        with pytest.raises(InvalidParameterError):
            generate_topology(node_count, 7.44, 3, RngStream(0))

    @pytest.mark.parametrize("distance, capacity", [
        (math.nan, 3), (math.inf, 3), (7.44, math.nan), (7.44, math.inf),
    ])
    def test_rejects_non_finite_averages(self, distance, capacity):
        with pytest.raises(InvalidParameterError):
            generate_topology(10, distance, capacity, RngStream(0))


def test_distances_saturate_at_the_largest_float_over_n():
    net = generate_topology(30, sys.float_info.max, 3, RngStream(5))
    cap = sys.float_info.max / 30
    assert all(0 < l.distance_km <= cap for l in net.links)
    assert sum(l.distance_km == cap for l in net.links) > 1
    _assert_matches_scalar_oracle(30, sys.float_info.max, 3, 5)


def _assert_matches_scalar_oracle(node_count, avg_distance_km, avg_capacity, seed):
    fast_rng, slow_rng = RngStream(seed), RngStream(seed)
    fast = generate_topology(node_count, avg_distance_km, avg_capacity, fast_rng)
    slow = generate_topology_scalar(node_count, avg_distance_km, avg_capacity, slow_rng)
    assert fast.to_json() == slow.to_json()
    # Both leave their stream at the same position.
    assert fast_rng.random() == slow_rng.random()
    return fast


class TestTopologyMatchesScalarOracle:
    @pytest.mark.parametrize(
        "node_count, avg_distance_km, avg_capacity",
        [(2, 7.44, 3), (3, 10, 5.05), (50, 27.5, 9.09), (100, 7.44, 10.96), (250, 12.87, 11),
         (400, 7.44, 4)],
    )
    def test_sizes(self, node_count, avg_distance_km, avg_capacity):
        _assert_matches_scalar_oracle(node_count, avg_distance_km, avg_capacity, 1000 + node_count)

    def test_redraw_after_disconnected_graph(self):
        # Seed 6 at n=50 draws a disconnected graph first, so the accepted
        # graph comes from the second attempt of 1225 pair draws.
        net = _assert_matches_scalar_oracle(50, 7.44, 4, 6)
        consumed = 2 * 1225 + len(net.links) + 50
        rng, skip = RngStream(6), RngStream(6)
        generate_topology(50, 7.44, 4, rng)
        skip.random_array(consumed)
        assert rng.random() == skip.random()

    @pytest.mark.parametrize("seed", [6, 42])
    def test_pair_blocks_that_split_rows(self, monkeypatch, seed):
        # Blocks of 7 pairs end mid-row and the last one is short.
        monkeypatch.setattr(generation, "PAIR_BLOCK", 7)
        _assert_matches_scalar_oracle(50, 7.44, 4, seed)

    @pytest.mark.parametrize("seed", [2**64 - 3, 2**64 - 2, 2**64 - 1])
    def test_seeds_at_the_top_of_the_range(self, seed):
        _assert_matches_scalar_oracle(50, 7.44, 4, seed)


class TestGenerateGrid:
    def test_2x2(self):
        net = generate_grid(2, 2, 1.0, 4)
        assert net.node_count == 4
        assert len(net.links) == 4

    def test_3x4(self):
        net = generate_grid(3, 4, 1.0, 4)
        assert net.node_count == 12
        assert len(net.links) == 17  # 3*3 + 4*2

    def test_5x5(self):
        net = generate_grid(5, 5, 2.5, 6)
        assert net.node_count == 25
        assert len(net.links) == 40
        assert all(l.distance_km == 2.5 for l in net.links)
        assert all(n.capacity == 6 for n in net.nodes)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
    def test_structure_formula(self, rows, cols):
        net = generate_grid(rows, cols, 1.0, 4)
        assert net.node_count == rows * cols
        assert len(net.links) == rows * (cols - 1) + cols * (rows - 1)

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            generate_grid(1, 5, 1.0, 4)
        with pytest.raises(InvalidParameterError):
            generate_grid(5, 1, 1.0, 4)

    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, 2.5), (3.0, 3), (True, 3)])
    def test_rejects_non_integer_shape(self, rows, cols):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            generate_grid(rows, cols, 1.0, 1)

    @pytest.mark.parametrize("distance", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_non_positive_distance(self, distance):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            generate_grid(3, 3, distance, 4)

    @pytest.mark.parametrize("distance", ["1", None, True, np.float64(math.nan)])
    def test_rejects_non_numeric_distance(self, distance):
        with pytest.raises(InvalidParameterError, match="distance_km"):
            generate_grid(3, 3, distance, 4)

    @pytest.mark.parametrize("capacity", ["4", 4.0, 2.5, True])
    def test_rejects_non_integer_capacity(self, capacity):
        with pytest.raises(InvalidParameterError, match="capacity must be an integer"):
            generate_grid(3, 3, 1.0, capacity)

    def test_accepts_integer_distance_and_numpy_capacity(self):
        net = generate_grid(3, 3, 2, np.int64(4))
        assert all(l.distance_km == 2 for l in net.links)
        assert all(n.capacity == 4 for n in net.nodes)


def _line_network(capacities, distance=1.0):
    nodes = tuple(QuantumNode(i, c) for i, c in enumerate(capacities))
    links = tuple(
        PhysicalLink(i, i + 1, distance) for i in range(len(capacities) - 1)
    )
    return PhysicalNetwork(nodes, links)


class TestGenerateEntanglement:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, True])
    def test_rejects_non_finite_alpha(self, alpha):
        net = _line_network([2, 2])
        with pytest.raises(InvalidParameterError, match="alpha"):
            generate_entanglement(net, alpha, RngStream(0))

    def test_huge_alpha_yields_no_edges(self):
        net = generate_topology(20, 7.44, 3, RngStream(5))
        g = generate_entanglement(net, 1e9, RngStream(6))
        assert len(g.links) == 0

    def test_certain_success_follows_slot_assignment(self):
        # alpha = 0 gives success probability exactly 1 on every attempt.
        net = _line_network([2, 2, 2])
        g = generate_entanglement(net, 0.0, RngStream(0))
        pairs = Counter((l.u, l.v) for l in g.links)
        # The middle node splits its two slots one per incident link.
        assert pairs == Counter({(0, 1): 1, (1, 2): 1})

    def test_spare_capacity_creates_parallel_links(self):
        net = _line_network([4, 4])
        g = generate_entanglement(net, 0.0, RngStream(0))
        assert len(g.links) == 4  # both nodes commit all four slots to one link

    def test_capacity_respected(self):
        for seed in range(10):
            net = generate_topology(30, 7.44, 4, RngStream(seed))
            g = generate_entanglement(net, 0.0, RngStream(seed + 100))
            for node in net.nodes:
                assert len(g.adjacency[node.id]) <= node.capacity

    def test_locality(self):
        net = generate_topology(25, 7.44, 5, RngStream(8))
        g = generate_entanglement(net, 0.05, RngStream(9))
        physical_pairs = {(l.u, l.v) for l in net.links}
        assert all((l.u, l.v) in physical_pairs for l in g.links)

    def test_monotone_in_alpha_for_fixed_seed(self):
        net = generate_topology(30, 7.44, 5, RngStream(11))
        counts = [
            len(generate_entanglement(net, alpha, RngStream(99)).links)
            for alpha in (0.3, 0.1, 0.05, 0.0)
        ]
        assert counts == sorted(counts)

    def test_deterministic(self):
        net = generate_topology(30, 7.44, 5, RngStream(11))
        a = generate_entanglement(net, 0.05, RngStream(99))
        b = generate_entanglement(net, 0.05, RngStream(99))
        assert a.to_json() == b.to_json()

    def test_links_are_fibers_in_network_order(self):
        net = generate_topology(30, 7.44, 5, RngStream(11))
        g = generate_entanglement(net, 0.05, RngStream(99))
        index = {id(link): i for i, link in enumerate(net.links)}
        assert len(g.links) > 0
        assert all(id(link) in index for link in g.links)
        order = [index[id(link)] for link in g.links]
        assert order == sorted(order)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_capacity_and_locality_properties(self, node_count, seed):
        net = generate_topology(node_count, 7.44, 3, RngStream(seed))
        g = generate_entanglement(net, 0.02, RngStream(seed ^ 0xABCDEF))
        physical_pairs = {(l.u, l.v) for l in net.links}
        for node in net.nodes:
            assert len(g.adjacency[node.id]) <= node.capacity
        assert all((l.u, l.v) in physical_pairs for l in g.links)
