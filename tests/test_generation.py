import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute import generation
from entroute.errors import GenerationFailureError, InvalidParameterError
from entroute.generation import (
    generate_entanglement,
    generate_grid,
    generate_topology,
)
from entroute.network import PhysicalLink, PhysicalNetwork
from entroute.rng import RngStream, hash64
from entroute.routing import RoutingSchedule, allocate_path, shortest_entangled_path
from oracles import (
    generate_entanglement_scalar,
    generate_topology_scalar,
    slot_pair_counts_rescan,
    uniform,
    unmix64,
)


class TestGenerateTopology:
    def test_two_nodes_forces_single_link(self):
        net = generate_topology(2, 7.44, 3, RngStream(1))
        assert len(net.nodes) == 2
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
        assert all(capacity >= 1 for capacity in net.nodes)

    @pytest.mark.parametrize("avg_capacity", [1.0, 1.2, 1.24])
    def test_averages_below_one_and_a_quarter_give_capacity_one(self, avg_capacity):
        # round(2 * avg - 1) is 1 here, so the capacity range is [1, 1].
        for seed in range(5):
            net = generate_topology(30, 7.44, avg_capacity, RngStream(seed))
            assert net.nodes == (1,) * 30

    def test_deterministic_given_seed(self):
        a = generate_topology(40, 12.87, 5.05, RngStream(3))
        b = generate_topology(40, 12.87, 5.05, RngStream(3))
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "distance, capacity",
        [(np.float32(7.44), np.float32(5.05)), (Fraction(37, 5), Fraction(101, 20)), (7, 5)],
        ids=["float32", "fraction", "int"],
    )
    def test_averages_give_the_network_of_their_floats(self, distance, capacity):
        net = generate_topology(40, distance, capacity, RngStream(3))
        assert net == generate_topology(40, float(distance), float(capacity), RngStream(3))
        assert all(type(l.distance_km) is float for l in net.links)

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

    @pytest.mark.parametrize("distance, capacity, message", [
        (0.0, 3, "average distance must be positive"),
        (-1.0, 3, "average distance must be positive"),
        (7.44, 0.5, "average capacity must be >= 1"),
    ])
    def test_rejects_out_of_range_averages(self, distance, capacity, message):
        with pytest.raises(InvalidParameterError, match=message):
            generate_topology(10, distance, capacity, RngStream(0))

    def test_spent_retry_budget_raises(self, monkeypatch):
        monkeypatch.setattr(generation, "_is_connected", lambda *args: False)
        with pytest.raises(GenerationFailureError, match="no connected graph on 10 nodes"):
            generate_topology(10, 7.44, 3, RngStream(0))


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
    assert uniform(fast_rng) == uniform(slow_rng)
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
        assert uniform(rng) == uniform(skip)

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
        assert len(net.nodes) == 4
        assert len(net.links) == 4

    def test_3x4(self):
        net = generate_grid(3, 4, 1.0, 4)
        assert len(net.nodes) == 12
        assert len(net.links) == 17  # 3*3 + 4*2

    def test_5x5(self):
        net = generate_grid(5, 5, 2.5, 6)
        assert len(net.nodes) == 25
        assert len(net.links) == 40
        assert all(l.distance_km == 2.5 for l in net.links)
        assert net.nodes == (6,) * 25

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
    def test_structure_formula(self, rows, cols):
        net = generate_grid(rows, cols, 1.0, 4)
        assert len(net.nodes) == rows * cols
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

    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidParameterError, match="capacity must be >= 1, got 0"):
            generate_grid(3, 3, 1.0, 0)

    def test_accepts_integer_distance_and_numpy_capacity(self):
        net = generate_grid(3, 3, 2, np.int64(4))
        assert all(l.distance_km == 2 for l in net.links)
        assert net.nodes == (4,) * 9
        assert all(type(capacity) is int for capacity in net.nodes)

    @pytest.mark.parametrize(
        "distance", [2, np.float32(0.1), np.float64(7.44), Fraction(1, 3)],
        ids=["int", "float32", "float64", "fraction"],
    )
    def test_stores_the_distance_as_a_float(self, distance):
        net = generate_grid(3, 4, distance, 4)
        assert all(type(l.distance_km) is float for l in net.links)
        assert net == generate_grid(3, 4, float(distance), 4)

    def test_equal_validated_arguments_share_one_network(self):
        assert generate_grid(3, 4, 1.0, 4) is generate_grid(3, np.int64(4), 1, 4)

    @pytest.mark.parametrize(
        "rows, cols, distance, capacity, message",
        [
            (3, 3, True, 4, "distance_km must be a number"),
            (3.0, 3, 1.0, 1, "rows must be an integer"),
            (3, 3, 1.0, True, "capacity must be an integer"),
        ],
    )
    def test_checks_run_before_the_cache(self, rows, cols, distance, capacity, message):
        # Warm keys that compare equal to the rejected arguments.
        generate_grid(3, 3, 1.0, 4)
        generate_grid(3, 3, 1.0, 1)
        with pytest.raises(InvalidParameterError, match=message):
            generate_grid(rows, cols, distance, capacity)


def _line_network(capacities, distance=1.0):
    links = tuple(
        PhysicalLink(i, i + 1, distance) for i in range(len(capacities) - 1)
    )
    return PhysicalNetwork(tuple(capacities), links)


class TestGenerateEntanglement:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, True, -0.05])
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
            for node, capacity in enumerate(net.nodes):
                assert len(g.adjacency[node]) <= capacity

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

    @pytest.mark.parametrize(
        "alpha", [np.float32(0.05), Fraction(1, 20), 0], ids=["float32", "fraction", "int"]
    )
    def test_alpha_gives_the_graph_of_its_float(self, alpha):
        net = generate_topology(60, 7.44, 5, RngStream(11))
        graph = generate_entanglement(net, alpha, RngStream(99))
        assert graph.links == generate_entanglement(net, float(alpha), RngStream(99)).links

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
        for node, capacity in enumerate(net.nodes):
            assert len(g.adjacency[node]) <= capacity
        assert all((l.u, l.v) in physical_pairs for l in g.links)


# Generated topologies (n, average distance, average capacity) and grids
# (rows, cols, capacity) for the oracle comparisons below.
_TOPOLOGIES = [(2, 7.44, 3), (20, 7.44, 1), (50, 27.5, 9.09), (100, 7.44, 4), (250, 12.87, 11)]
_GRIDS = [(2, 2, 1), (3, 4, 2), (5, 5, 3), (4, 9, 8)]


def _networks():
    for i, (n, distance, capacity) in enumerate(_TOPOLOGIES):
        yield generate_topology(n, distance, capacity, RngStream(300 + i))
    for rows, cols, capacity in _GRIDS:
        yield generate_grid(rows, cols, 1.5, capacity)


@st.composite
def _shuffled_networks(draw):
    """Small networks whose links come in any order, not only (u, v) order."""
    node_count = draw(st.integers(min_value=2, max_value=8))
    capacities = draw(st.lists(
        st.integers(min_value=1, max_value=5), min_size=node_count, max_size=node_count
    ))
    pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return PhysicalNetwork(tuple(capacities), tuple(PhysicalLink(u, v, 1.0) for u, v in chosen))


class TestEntanglementMatchesScalarOracle:
    def test_slot_pair_counts(self):
        for net in _networks():
            assert generation._slot_pair_counts(net) == tuple(slot_pair_counts_rescan(net))

    @settings(max_examples=200, deadline=None)
    @given(_shuffled_networks())
    def test_slot_pair_counts_in_any_link_order(self, net):
        assert generation._slot_pair_counts(net) == tuple(slot_pair_counts_rescan(net))

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 1e3])
    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
    def test_graphs(self, alpha, seed):
        for net in _networks():
            fast = generate_entanglement(net, alpha, RngStream(seed))
            slow = generate_entanglement_scalar(net, alpha, RngStream(seed))
            assert fast.to_json() == slow.to_json()
            # Each Bell pair is the network's own link object.
            assert [id(l) for l in fast.links] == [id(l) for l in slow.links]

    def test_one_draw_per_attempt(self, monkeypatch):
        # The benchmark tracer counts Bell-pair attempts as RngStream.next_u64
        # calls inside generate_entanglement, so each attempt takes exactly one.
        calls = 0
        next_u64 = RngStream.next_u64

        def counting(self):
            nonlocal calls
            calls += 1
            return next_u64(self)

        monkeypatch.setattr(RngStream, "next_u64", counting)
        for alpha in (0.0, 0.05):
            for net in _networks():
                calls = 0
                generate_entanglement(net, alpha, RngStream(5))
                assert calls == sum(generation._slot_pair_counts(net))


def _rng_whose_first_link_draws(word: int) -> RngStream:
    """A stream whose link 0, in generate_entanglement, draws ``word`` first.

    Link 0's stream has seed hash64(seed, 0) = mix64(mix64(G + seed) + G),
    G the golden step, and its first word is mix64(link seed + G).
    """
    golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    link_seed = (unmix64(word) - golden) & mask
    seed = (unmix64((unmix64(link_seed) - golden) & mask) - golden) & mask
    assert hash64(seed, 0) == link_seed
    assert RngStream(link_seed).next_u64() == word
    return RngStream(seed)


@pytest.mark.parametrize(
    "word, pairs", [(2**63 - 2**11, 1), (2**63, 0)], ids=["just_below_p", "equal_to_p"]
)
def test_a_draw_equal_to_the_success_probability_fails(word, pairs):
    # exp(-1.0 * ln 2) is 0.5 exactly, and the word 2**63 draws 0.5: an
    # attempt succeeds when its uniform is below p, so that draw is a failure.
    net = PhysicalNetwork((1, 1), (PhysicalLink(0, 1, math.log(2)),))
    assert math.exp(-1.0 * math.log(2)) == 0.5
    graph = generate_entanglement(net, 1.0, _rng_whose_first_link_draws(word))
    assert len(graph.links) == pairs


def _grid_check_network() -> PhysicalNetwork:
    """A cached grid whose full multigraph every alpha = 0 run has cached."""
    net = generate_grid(4, 5, 1.0, 3)
    generate_entanglement(net, 0.0, RngStream(0))
    return net


class TestFullGraphReuse:
    """Runs in which every attempt succeeds share the network's full graph."""

    def test_every_run_matches_the_oracle_with_shared_structure(self):
        net = _grid_check_network()
        runs = [generate_entanglement(net, 0.0, RngStream(seed)) for seed in (1, 42, 2**64 - 1)]
        for seed, graph in zip((1, 42, 2**64 - 1), runs):
            slow = generate_entanglement_scalar(net, 0.0, RngStream(seed))
            assert graph.to_json() == slow.to_json()
            assert [id(l) for l in graph.links] == [id(l) for l in slow.links]
            assert graph.allocated == [False] * len(slow.links)
        assert all(graph.adjacency is runs[0].adjacency for graph in runs)
        assert len({id(graph.allocated) for graph in runs}) == len(runs)
        assert all(graph is not net._full_graph for graph in runs)

    def test_a_claimed_path_stays_in_its_own_run(self):
        net = _grid_check_network()
        for seed in (3, 4, 5):
            first = generate_entanglement(net, 0.0, RngStream(seed))
            text = first.to_json()
            allocate_path(RoutingSchedule([[]]), first, 0, shortest_entangled_path(first, 0, 19))
            assert any(first.allocated)
            second = generate_entanglement(net, 0.0, RngStream(seed))
            assert second.allocated == [False] * len(second.links)
            assert second.to_json() == text

    def test_one_failed_attempt_builds_a_fresh_graph(self):
        net = _grid_check_network()
        full = net._full_graph
        total = sum(generation._slot_pair_counts(net))
        alpha = -math.log1p(-1.0 / total)  # about one failure per run
        seed = next(
            seed for seed in range(500)
            if len(generate_entanglement_scalar(net, alpha, RngStream(seed)).links) == total - 1
        )
        graph = generate_entanglement(net, alpha, RngStream(seed))
        slow = generate_entanglement_scalar(net, alpha, RngStream(seed))
        assert graph.to_json() == slow.to_json()
        assert [id(l) for l in graph.links] == [id(l) for l in slow.links]
        assert graph.adjacency is not full.adjacency
        assert net._full_graph is full

    def test_the_memos_are_invisible(self):
        def twin():
            return PhysicalNetwork((2, 3, 1, 2), ((0, 1, 1.0), (1, 2, 2.0), (0, 3, 0.5), (1, 3, 1.5)))

        net, fresh = twin(), twin()
        before = (repr(net), hash(net))
        generate_entanglement(net, 0.0, RngStream(8))
        generate_entanglement(net, 0.7, RngStream(8))
        assert net._slot_pairs == tuple(slot_pair_counts_rescan(fresh))
        assert net._full_graph is not None
        assert (repr(net), hash(net)) == before == (repr(fresh), hash(fresh))
        assert net == fresh
        assert fresh._slot_pairs is None and fresh._full_graph is None
