import itertools
import math
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entroute import generation, routing
from entroute.errors import InvalidParameterError, InvariantViolationError
from entroute.generation import generate_entanglement, generate_grid, generate_topology
from entroute.network import EntangledGraph
from entroute.routing import (
    CutResult,
    Path,
    RoutingSchedule,
    allocate_path,
    dmpsa_schedule,
    mcsa_schedule,
    rmpsa_schedule,
    shortest_entangled_path,
    smpsa_schedule,
    st_min_cut,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import (
    connected,
    draw_int,
    max_edge_disjoint_paths_bruteforce,
    min_cut_size_bruteforce,
    mcsa_schedule_reference,
    min_distance_path_reference,
    shortest_entangled_path_reference,
    st_min_cut_reference,
    uniform,
)


class TestShortestPath:
    def test_single_link(self):
        g = build_graph(2, [(0, 1)])
        p = shortest_entangled_path(g, 0, 1)
        assert p.nodes == (0, 1)
        assert p.edges == (0,)
        assert p.hop_count == 1

    def test_four_cycle_prefers_lower_id_midpoint(self, four_cycle):
        p = shortest_entangled_path(four_cycle, 0, 1)
        assert p.nodes == (0, 2, 1)

    def test_disconnected_returns_none(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert shortest_entangled_path(g, 0, 3) is None

    def test_equal_endpoints_rejected(self, four_cycle):
        with pytest.raises(InvalidParameterError):
            shortest_entangled_path(four_cycle, 1, 1)

    def test_skips_allocated_links(self):
        g = build_graph(2, [(0, 1)])
        g.allocated[0] = True
        assert shortest_entangled_path(g, 0, 1) is None

    def test_parallel_links_pick_smallest_id(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        assert shortest_entangled_path(g, 0, 1).edges == (0,)
        g.allocated[0] = True
        assert shortest_entangled_path(g, 0, 1).edges == (1,)

    def test_minimum_hop_count_matches_enumeration(self):
        g = build_graph(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        p = shortest_entangled_path(g, 0, 4)
        assert p.hop_count == 2
        assert p.nodes == (0, 1, 4)

    def test_forward_meet_takes_the_first_discovered_node(self):
        """The meeting layer's first node, not its smallest, ends the prefix.

        The forward layer from nodes 1 and 2 meets the backward frontier {3, 5}
        at node 5 first, reached from node 1; node 3, reached from node 2,
        has the smaller id but the larger path from src.
        """
        g = build_graph(6, [(0, 1), (0, 2), (1, 5), (2, 3), (5, 4), (3, 4)])
        p = shortest_entangled_path(g, 0, 4)
        assert p == shortest_entangled_path_reference(g, 0, 4)
        assert p.nodes == (0, 1, 5, 4)

    def test_forward_meet_stops_at_its_first_meeting_node(self):
        """Node 1 reaches two nodes of the backward tree {5, 6, 7, 8}; 5 wins."""
        g = build_graph(10, [(0, 1), (0, 2), (9, 5), (9, 6), (9, 7), (9, 8), (1, 5), (1, 6)])
        p = shortest_entangled_path(g, 0, 9)
        assert p == shortest_entangled_path_reference(g, 0, 9)
        assert p.nodes == (0, 1, 5, 9)

    def test_backward_meet_takes_the_first_forward_frontier_node(self):
        """A backward layer labels two frontier nodes; the earlier one wins.

        The forward frontier is [1, 2, 3, 4] and the backward one [7, 8].
        Growing the backward tree labels node 4 (from 7) before node 2
        (from 8), and node 2 comes first in the forward frontier.
        """
        g = build_graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (9, 7), (9, 8), (7, 4), (8, 2)])
        p = shortest_entangled_path(g, 0, 9)
        assert p == shortest_entangled_path_reference(g, 0, 9)
        assert p.nodes == (0, 2, 8, 9)
        assert shortest_entangled_path(g, 9, 0) == shortest_entangled_path_reference(g, 9, 0)

    def test_parallel_links_with_some_claimed(self):
        """The first free link among parallel ones, on the direct and meeting arcs."""
        g = build_graph(3, [(0, 1), (0, 1), (0, 1), (0, 2), (2, 1)])
        g.allocated[0] = g.allocated[1] = True
        p = shortest_entangled_path(g, 0, 1)
        assert p == shortest_entangled_path_reference(g, 0, 1)
        assert (p.nodes, p.edges) == ((0, 1), (2,))
        g.allocated[2] = True
        p = shortest_entangled_path(g, 1, 0)
        assert p == shortest_entangled_path_reference(g, 1, 0)
        assert (p.nodes, p.edges) == ((1, 2, 0), (4, 3))

        h = build_graph(4, [(0, 1), (1, 2), (1, 2), (1, 2), (2, 3)])
        h.allocated[1] = True
        for src, dst in ((0, 3), (3, 0), (0, 2), (2, 0)):
            assert shortest_entangled_path(h, src, dst) == (
                shortest_entangled_path_reference(h, src, dst)), (src, dst)
        assert shortest_entangled_path(h, 0, 3).edges == (0, 2, 4)


class TestStMinCut:
    """``st_min_cut`` gives the value; the reference also gives the cut."""

    def test_single_link(self):
        g = build_graph(2, [(0, 1)])
        assert st_min_cut(g, 0, 1) == CutResult(1)
        assert st_min_cut_reference(g, 0, 1) == (frozenset({0}), 1)

    def test_four_cycle(self, four_cycle):
        assert st_min_cut(four_cycle, 0, 1).flexibility == 2
        cut, value = st_min_cut_reference(four_cycle, 0, 1)
        assert len(cut) == value == 2

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert st_min_cut(g, 0, 2).flexibility == 0
        assert st_min_cut_reference(g, 0, 2) == (frozenset(), 0)

    def test_equal_endpoints_rejected(self, four_cycle):
        with pytest.raises(InvalidParameterError):
            st_min_cut(four_cycle, 2, 2)

    def test_cut_disconnects(self, four_cycle):
        cut, _ = st_min_cut_reference(four_cycle, 0, 1)
        edges = [(l.u, l.v) for l in four_cycle.links]
        assert not connected(edges, 0, 1, cut)

    def test_respects_allocation(self, four_cycle):
        four_cycle.allocated[0] = True
        assert st_min_cut(four_cycle, 0, 1).flexibility == 1


class TestPathFlexibility:
    def test_bridge(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert st_min_cut(g, 0, 3).flexibility == 1

    def test_2x2_grid_corner_to_corner(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert st_min_cut(g, 0, 3).flexibility == 2

    def test_parallel_double_link(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        assert st_min_cut(g, 0, 1).flexibility == 2


class TestAllocatePath:
    def test_consumes_edges(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[]])
        allocate_path(schedule, g, 0, shortest_entangled_path(g, 0, 1))
        assert g.allocated[0]
        assert shortest_entangled_path(g, 0, 1) is None
        assert [p.edges for p in schedule.paths[0]] == [(0,)]

    def test_parallel_link_survives(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        schedule = RoutingSchedule([[]])
        allocate_path(schedule, g, 0, shortest_entangled_path(g, 0, 1))
        remaining = shortest_entangled_path(g, 0, 1)
        assert remaining is not None
        assert remaining.edges == (1,)

    def test_double_allocation_rejected(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[]])
        p = shortest_entangled_path(g, 0, 1)
        allocate_path(schedule, g, 0, p)
        with pytest.raises(InvariantViolationError):
            allocate_path(schedule, g, 0, p)

    def test_unknown_demand_rejected_before_any_claim(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[]])
        with pytest.raises(InvalidParameterError, match="unknown demand 5"):
            allocate_path(schedule, g, 5, Path((0, 1), (0,)))
        assert g.allocated == [False]
        assert schedule.total_paths == 0

    @staticmethod
    def assert_rejected(p, match):
        # The chain 0-1-2: link 0 joins nodes 0 and 1, link 1 joins 1 and 2.
        g = build_graph(3, [(0, 1), (1, 2)])
        schedule = RoutingSchedule([[]])
        with pytest.raises(InvalidParameterError, match=match):
            allocate_path(schedule, g, 0, p)
        assert g.allocated == [False, False]
        assert schedule.total_paths == 0

    def test_link_must_join_its_path_nodes(self):
        self.assert_rejected(Path((0, 2), (0,)), r"link 0 \(0,1\) does not join path nodes 0 and 2")

    def test_negative_link_id_rejected(self):
        self.assert_rejected(Path((0, 1), (-1,)), "path names link -1, not a link")

    def test_link_id_past_the_end_rejected(self):
        self.assert_rejected(Path((1, 2), (2,)), "path names link 2, not a link")

    @pytest.mark.parametrize("demand_id", [True, 1.0, [], None, "1"])
    def test_non_integer_demand_id_rejected_before_any_claim(self, demand_id):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[], []])
        with pytest.raises(InvalidParameterError, match="demand must be an integer"):
            allocate_path(schedule, g, demand_id, Path((0, 1), (0,)))
        assert g.allocated == [False]
        assert schedule.total_paths == 0

    @pytest.mark.parametrize("demand", [-1, 2])
    def test_demand_index_outside_the_schedule_rejected(self, demand):
        # A bare list index would file -1 under the last demand.
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[], []])
        with pytest.raises(InvalidParameterError, match=f"unknown demand {demand}"):
            allocate_path(schedule, g, demand, Path((0, 1), (0,)))
        assert g.allocated == [False]
        assert schedule.total_paths == 0

    def test_numpy_integer_demand_id_accepted(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule([[], []])
        allocate_path(schedule, g, np.int64(1), Path((0, 1), (0,)))
        assert [len(ps) for ps in schedule.paths] == [0, 1]

    def test_numpy_typed_path_is_filed_as_ints(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        schedule = RoutingSchedule([[]])
        allocate_path(schedule, g, 0, Path((np.int64(2), np.int64(1)), (np.int32(1),)))
        p = schedule.paths[0][0]
        assert all(type(x) is int for x in p.nodes + p.edges)
        assert g.allocated == [False, True]
        assert schedule.to_json() == '{"k":1,"demands":[{"id":0,"paths":[{"nodes":[2,1],"edges":[1]}]}]}'


def _random_multigraph(rng: RngStream, max_nodes=6, max_edges=12):
    n = draw_int(rng, 2, max_nodes)
    m = draw_int(rng, 0, max_edges)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    src = rng.randrange(n)
    dst = (src + 1 + rng.randrange(n - 1)) % n
    return n, edges, src, dst


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_menger_equivalence_small_graphs(seed):
    rng = RngStream(seed)
    n, edges, src, dst = _random_multigraph(rng, max_nodes=5, max_edges=8)
    g = build_graph(n, edges)
    allocated = frozenset(lid for lid in range(len(edges)) if uniform(rng) < 0.3)
    for lid in allocated:
        g.allocated[lid] = True
    free_edges = [e for lid, e in enumerate(edges) if lid not in allocated]
    value = st_min_cut(g, src, dst).flexibility
    assert value == max_edge_disjoint_paths_bruteforce(free_edges, src, dst)
    assert value == min_cut_size_bruteforce(free_edges, src, dst)
    cut, reference_value = st_min_cut_reference(g, src, dst)
    assert reference_value == value
    assert len(cut) == value
    assert not cut & allocated
    assert not connected(edges, src, dst, cut | allocated)


def _generated_graph(node_count: int, seed: int, allocated_share: float) -> EntangledGraph:
    """A generated entangled graph with a seeded share of its links allocated."""
    rng = RngStream(seed)
    net = generate_topology(node_count, 7.44, 11, rng.substream(1))
    g = generate_entanglement(net, 0.05, rng.substream(2))
    marks = rng.substream(3)
    for lid in range(len(g.links)):
        if uniform(marks) < allocated_share:
            g.allocated[lid] = True
    return g


def _endpoint_pairs(g: EntangledGraph, rng: RngStream, count: int):
    """Random pairs, then the endpoints of sampled free links both ways."""
    n = g.node_count
    pairs = []
    for _ in range(count):
        src = rng.randrange(n)
        pairs.append((src, (src + 1 + rng.randrange(n - 1)) % n))
    free = [l for l, taken in zip(g.links, g.allocated) if not taken]
    for index in rng.sample(len(free), min(count // 4, len(free))):
        pairs += [(free[index].u, free[index].v), (free[index].v, free[index].u)]
    return pairs


class TestStMinCutAgainstReference:
    """The bidirectional flow value against the one-directional reference.

    The reference also returns the cut around its residual source side and
    checks its size against the flow; that cut must avoid allocated links.
    """

    @pytest.mark.parametrize("node_count", [50, 100, 250])
    def test_generated_graphs(self, node_count, monkeypatch):
        dried: list[int] = []
        grow = routing._grow_layer

        def watched(g, flow, front, side, via, sign):
            grown, meet = grow(g, flow, front, side, via, sign)
            if not grown and meet is None:
                dried.append(sign)
            return grown, meet

        monkeypatch.setattr(routing, "_grow_layer", watched)
        seen = {"adjacent": 0, "parallel": 0, "disconnected": 0,
                "backward_dry": 0, "forward_dry": 0}
        for case, share in enumerate((0.0, 0.3, 0.6)):
            g = _generated_graph(node_count, 1000 * node_count + case, share)
            rng = RngStream(node_count).substream(case)
            pairs = _endpoint_pairs(g, rng, 60)
            # Cut one node off by allocating its links.
            lonely = rng.randrange(g.node_count)
            for _, lid in g.adjacency[lonely]:
                g.allocated[lid] = True
            pairs += [(lonely, (lonely + 1) % g.node_count),
                      ((lonely + 2) % g.node_count, lonely)]
            for src, dst in pairs:
                free = [lid for y, lid in g.adjacency[src]
                        if y == dst and not g.allocated[lid]]
                dried.clear()
                value = st_min_cut(g, src, dst).flexibility
                _assert_matches_reference(g, src, dst, value)
                seen["adjacent"] += len(free) > 0
                seen["parallel"] += len(free) > 1
                seen["disconnected"] += value == 0
                seen["backward_dry" if -1 in dried else "forward_dry"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (5, 5), (4, 9)])
    def test_unit_grids(self, rows, cols):
        """Grids give many equal-length augmenting paths at every step."""
        net = generate_grid(rows, cols, 1.0, 4)
        rng = RngStream(rows * 100 + cols).substream(5)
        g = generate_entanglement(net, 0.0, rng.substream(0))
        marks = rng.substream(1)
        for share in (0.0, 0.3):
            h = g.copy()
            for lid in range(len(h.links)):
                if uniform(marks) < share:
                    h.allocated[lid] = True
            n = h.node_count
            pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
            if len(pairs) > 300:
                pairs = [pairs[i] for i in rng.substream(2).sample(len(pairs), 300)]
            for src, dst in pairs:
                value = st_min_cut(h, src, dst).flexibility
                _assert_matches_reference(h, src, dst, value)
                assert value == _networkx_max_flow(h, src, dst), (share, src, dst)

    def test_parallel_link_multigraphs(self):
        """Random multigraphs where most node pairs repeat a link."""
        rng = RngStream(78)
        for case in range(300):
            n, edges, src, dst = _random_multigraph(rng, max_nodes=7, max_edges=20)
            edges += edges[: rng.randrange(len(edges) + 1)]
            g = build_graph(n, edges)
            for lid in range(len(g.links)):
                if uniform(rng) < 0.2:
                    g.allocated[lid] = True
            for s, t in ((src, dst), (dst, src)):
                value = st_min_cut(g, s, t).flexibility
                _assert_matches_reference(g, s, t, value)
                assert value == _networkx_max_flow(g, s, t), case


def _assert_matches_reference(g: EntangledGraph, src: int, dst: int, value: int) -> None:
    """The reference agrees on the value, and its cut is that many free links."""
    cut, reference_value = st_min_cut_reference(g, src, dst)
    assert value == reference_value, (src, dst)
    assert len(cut) == value
    assert not any(g.allocated[lid] for lid in cut)


def _networkx_max_flow(g: EntangledGraph, src: int, dst: int) -> int:
    """Max flow with one unit of capacity per free link in each direction."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(g.node_count))
    for link, taken in zip(g.links, g.allocated):
        if taken:
            continue
        for a, b in ((link.u, link.v), (link.v, link.u)):
            if digraph.has_edge(a, b):
                digraph[a][b]["capacity"] += 1
            else:
                digraph.add_edge(a, b, capacity=1)
    return nx.maximum_flow_value(digraph, src, dst)


@pytest.mark.parametrize("node_count", [20, 100, 250])
def test_flexibility_matches_networkx(node_count):
    for case, share in enumerate((0.0, 0.4)):
        g = _generated_graph(node_count, 2000 * node_count + case, share)
        for src, dst in _endpoint_pairs(g, RngStream(node_count).substream(case, 1), 25):
            assert st_min_cut(g, src, dst).flexibility == _networkx_max_flow(
                g, src, dst
            ), (case, src, dst)


def _assert_valid_flow(g: EntangledGraph, flow: list[int], src: int, dst: int) -> int:
    """Check ``flow`` as an s-t flow over free links and return its value.

    Every link carries a net unit or none, every claimed link none; flow is
    conserved at every node but src and dst, and none enters src.
    """
    surplus = [0] * g.node_count
    for lid, (link, f) in enumerate(zip(g.links, flow)):
        assert f in (-1, 0, 1), (lid, f)
        assert not (f and g.allocated[lid]), f"claimed link {lid} carries flow"
        surplus[link.u] += f
        surplus[link.v] -= f
    assert all(flow[lid] * (1 if src < y else -1) >= 0 for y, lid in g.adjacency[src])
    assert surplus[src] == -surplus[dst] >= 0
    assert not any(surplus[x] for x in range(g.node_count) if x not in (src, dst))
    return surplus[src]


class TestStMinCutWarmFlow:
    """Augmenting a repaired flow reaches the value of a cold call."""

    @pytest.mark.parametrize("make", [
        lambda: _generated_graph(50, 31, 0.0),
        lambda: _generated_graph(250, 32, 0.2),
        lambda: generate_entanglement(generate_grid(5, 6, 1.0, 4), 0.0, RngStream(33)),
    ])
    def test_repair_after_random_claims(self, make):
        g = make()
        rng = RngStream(len(g.links))
        cancelled = 0
        for src, dst in _endpoint_pairs(g, rng, 12):
            h = g.copy()
            flow = [0] * len(h.links)
            value = st_min_cut(h, src, dst, flow=flow).flexibility
            assert _assert_valid_flow(h, flow, src, dst) == value
            for _ in range(4):
                free = [lid for lid, taken in enumerate(h.allocated) if not taken]
                claimed = [free[i] for i in rng.sample(len(free), len(free) // 8)]
                for lid in claimed:
                    h.allocated[lid] = True
                for lid in claimed:
                    if flow[lid]:
                        routing._cancel_unit(h, flow, lid)
                        cancelled += 1
                assert _assert_valid_flow(h, flow, src, dst) <= value
                warm = st_min_cut(h, src, dst, flow=flow).flexibility
                assert warm == st_min_cut(h, src, dst).flexibility, (src, dst)
                _assert_matches_reference(h, src, dst, warm)
                value = _assert_valid_flow(h, flow, src, dst)
                assert value == warm
        assert cancelled > 0

    def test_circulation_through_the_claimed_link_keeps_its_value(self):
        # One unit runs 0 -> 2 -> 3, and a circulation 2 -> 4 -> 1 -> 2
        # passes link 2 (2-4), which a path then claims. The walk from 4
        # ends back at 2 and leaves the unit through 2 alone.
        g = build_graph(5, [(0, 2), (2, 3), (2, 4), (1, 4), (1, 2)])
        flow = [1, 1, 1, -1, 1]
        assert _assert_valid_flow(g, flow, 0, 3) == 1
        g.allocated[2] = True
        routing._cancel_unit(g, flow, 2)
        assert flow == [1, 1, 0, 0, 0]
        assert st_min_cut(g, 0, 3, flow=flow) == st_min_cut(g, 0, 3) == CutResult(1)
        assert flow == [1, 1, 0, 0, 0]

    def test_cancel_walks_to_both_endpoints(self):
        # The unit 0 -> 1 -> 2 -> 3 loses its middle link.
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        flow = [0] * 4
        assert st_min_cut(g, 0, 3, flow=flow).flexibility == 2
        assert flow == [1, 1, 1, 1]
        g.allocated[1] = True
        routing._cancel_unit(g, flow, 1)
        assert flow == [0, 0, 0, 1]
        assert st_min_cut(g, 0, 3, flow=flow).flexibility == 1

    @pytest.mark.parametrize("flow", [[], "x", [0] * 3, [0] * 5, (0,) * 4, {0: 0}])
    def test_rejects_a_flow_that_is_not_a_list_per_link(self, flow):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2), (0, 2)])
        with pytest.raises(InvalidParameterError, match="flow must be None or a list of 4"):
            st_min_cut(g, 0, 2, flow=flow)

    def test_flow_is_keyword_only(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(TypeError):
            st_min_cut(g, 0, 1, [0])  # type: ignore[misc]



MEMO_ROWS, MEMO_COLS = 6, 5


@pytest.fixture
def full() -> EntangledGraph:
    """A copy of a cached grid's full multigraph at alpha 0, its memo emptied."""
    g = generate_entanglement(generate_grid(MEMO_ROWS, MEMO_COLS, 1.0, 4), 0.0, RngStream(3))
    assert g._cuts is g.physical._full_graph._cuts
    g._cuts.clear()  # cold, whatever earlier tests stored for this grid
    return g


def _twin(g: EntangledGraph) -> EntangledGraph:
    """The same multigraph built without a memo."""
    twin = EntangledGraph(list(g.links), g.physical)
    assert twin._cuts is None
    return twin


def _column_demands() -> list[tuple[int, int]]:
    return [(c, (MEMO_ROWS - 1) * MEMO_COLS + c) for c in range(MEMO_COLS)]


class TestFullGraphCutMemo:
    """Cuts from the zero flow on a full multigraph answer as computed ones do."""

    def test_cold_and_warm_calls_match_the_twin(self, full):
        twin = _twin(full)
        # The column demands, then one source to every bottom node.
        bottom = [dst for _, dst in _column_demands()]
        pairs = _column_demands() + [(0, dst) for dst in bottom[1:]]
        for src, dst in pairs:
            expected_flow = [0] * len(full.links)
            expected = st_min_cut(twin, src, dst, flow=expected_flow)
            assert expected.flexibility == st_min_cut_reference(full, src, dst)[1]
            for call in ("cold", "warm"):
                flow = [0] * len(full.links)
                assert st_min_cut(full.copy(), src, dst, flow=flow) == expected, call
                assert flow == expected_flow, call
                assert st_min_cut(full.copy(), src, dst) == expected, call
            assert (src, dst) in full._cuts
        assert len(full._cuts) == len(pairs)
        assert all(type(value) is int for value, _, _ in full._cuts.values())

    def test_a_claimed_link_adds_no_entry(self, full):
        twin = _twin(full)
        (src, dst), (cold_src, cold_dst) = _column_demands()[:2]
        warm = st_min_cut(full.copy(), src, dst).flexibility
        entries = dict(full._cuts)
        h, t = full.copy(), twin.copy()
        lid = full.adjacency[src][0][1]
        h.allocated[lid] = t.allocated[lid] = True
        for pair in ((src, dst), (cold_src, cold_dst)):
            h_flow, t_flow = [0] * len(full.links), [0] * len(full.links)
            assert st_min_cut(h, *pair, flow=h_flow) == st_min_cut(t, *pair, flow=t_flow)
            assert h_flow == t_flow
        # The claimed link is one of src's, and src's links bound the cut.
        assert st_min_cut(t, src, dst).flexibility == warm - 1
        assert full._cuts == entries

    def test_a_resumed_flow_adds_no_entry(self, full):
        twin = _twin(full)
        for src, dst in _column_demands()[:2]:
            flow = [0] * len(full.links)
            value = st_min_cut(twin, src, dst, flow=flow).flexibility
            # Take one unit off: a valid flow of one less on the same links.
            routing._cancel_unit(twin, flow, next(lid for lid, f in enumerate(flow) if f))
            assert _assert_valid_flow(twin, flow, src, dst) == value - 1
            st_min_cut(full.copy(), src, dst)  # the pair's cut is stored
            entries = dict(full._cuts)
            h_flow, t_flow = flow.copy(), flow.copy()
            assert st_min_cut(full.copy(), src, dst, flow=h_flow) == (
                st_min_cut(twin, src, dst, flow=t_flow))
            assert h_flow == t_flow
            assert full._cuts == entries

    def test_a_flow_of_none_raises_warm_as_cold(self, full):
        src, dst = _column_demands()[0]
        with pytest.raises(TypeError) as cold:
            st_min_cut(full.copy(), src, dst, flow=[None] * len(full.links))
        assert not full._cuts
        st_min_cut(full.copy(), src, dst)
        with pytest.raises(TypeError) as warm:
            st_min_cut(full.copy(), src, dst, flow=[None] * len(full.links))
        assert (type(warm.value), str(warm.value)) == (type(cold.value), str(cold.value))

    def test_a_flow_of_float_zeros_computes_warm_as_cold(self, full):
        src, dst = _column_demands()[0]
        cold = st_min_cut(full.copy(), src, dst, flow=[0.0] * len(full.links)).flexibility
        assert type(cold) is float and not full._cuts
        value = st_min_cut(full.copy(), src, dst).flexibility
        assert type(value) is int and value == cold
        warm = st_min_cut(full.copy(), src, dst, flow=[0.0] * len(full.links)).flexibility
        assert type(warm) is float and warm == cold

    def test_only_a_full_multigraph_keeps_a_memo(self):
        net = generate_grid(MEMO_ROWS, MEMO_COLS, 1.0, 4)
        failed = generate_entanglement(net, 1.0, RngStream(3))
        assert len(failed.links) < sum(generation._slot_pair_counts(net))
        assert failed._cuts is None
        assert build_graph(2, [(0, 1)])._cuts is None

    def test_mcsa_with_capacity_budgets_matches_the_reference(self, full):
        net = full.physical
        calls = 0
        for seed in range(24):
            g = generate_entanglement(net, 0.0, RngStream(seed))
            columns = RngStream(seed).substream(1).sample(MEMO_COLS, 2 + seed % 4)
            demands = [(c, (MEMO_ROWS - 1) * MEMO_COLS + c) for c in columns]
            calls += len(demands)
            assert mcsa_schedule(g, demands).to_json() == (
                mcsa_schedule_reference(g, demands).to_json()), seed
        # The first rankings of later seeds found their cuts stored.
        assert 0 < len(full._cuts) <= MEMO_COLS < calls


_SEARCHES = {
    "shortest": shortest_entangled_path,
    # int() only indexes the distances; the search itself checks the endpoints.
    "min_distance": lambda g, src, dst: routing._min_distance_path(
        g, src, dst, routing._distances_from(g, int(src))
    ),
    "random": lambda g, src, dst: routing._random_simple_path(
        g, src, dst, RngStream(0).words().__next__
    ),
    "min_cut": st_min_cut,
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
@pytest.mark.parametrize("src, dst", [(0, 1.5), (0.0, 1), (0, True), (False, 1), (0, "1")])
def test_searches_reject_non_integer_endpoints(search, src, dst):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        _SEARCHES[search](g, src, dst)


# The scheduler built on each search.
_SCHEDULERS = {
    "shortest": smpsa_schedule,
    "min_distance": dmpsa_schedule,
    "random": lambda g, demands: rmpsa_schedule(g, demands, RngStream(0)),
    "min_cut": mcsa_schedule,
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_searches_accept_numpy_integer_endpoints(search):
    edges = [(0, 1), (1, 2), (0, 2), (0, 2)]
    g = build_graph(3, edges)
    found = _SEARCHES[search](g, np.int64(0), np.int64(2))
    assert found == _SEARCHES[search](g, 0, 2)
    if isinstance(found, Path):
        assert all(type(x) is int for x in found.nodes)
    # NumPy-typed links and demands give the schedule of int-typed ones.
    g_np = build_graph(3, [(np.int64(u), np.int32(v)) for u, v in edges])
    demands = ((0, 2), (1, 2))
    demands_np = tuple((np.int32(src), np.int64(dst)) for src, dst in demands)
    schedule = _SCHEDULERS[search](g, demands)
    assert _SCHEDULERS[search](g_np, demands_np).to_json() == schedule.to_json()


def test_path_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        Path((1,), ())
    with pytest.raises(InvalidParameterError):
        Path((1, 2, 1), (0, 1))
    with pytest.raises(InvalidParameterError):
        Path((1, 2, 3), (0,))


@pytest.mark.parametrize(
    "nodes, edges", [((0, 1.0), (0,)), ((0, True), (0,)), ((0, 1), (0.0,)), ((0, 1), ("0",))]
)
def test_path_rejects_non_integer_nodes_and_links(nodes, edges):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        Path(nodes, edges)


@pytest.mark.parametrize("nodes, edges", [(None, (0,)), ((0, 1), None), (5, (0,))])
def test_path_rejects_nodes_or_links_that_are_not_sequences(nodes, edges):
    with pytest.raises(InvalidParameterError, match="must be sequences"):
        Path(nodes, edges)


@pytest.mark.parametrize(
    "nodes, edges",
    [(iter((0, 1)), (0,)), ((0, 1), iter((0,))), ([0, 1], [0]), (range(2), (x for x in [0]))],
    ids=["iterator-nodes", "iterator-links", "lists", "range-and-generator"],
)
def test_path_reads_nodes_or_links_given_as_other_iterables_once(nodes, edges):
    path = Path(nodes, edges)
    assert path == Path((0, 1), (0,))
    assert type(path.nodes) is tuple and type(path.edges) is tuple


def _free_multigraph(g: EntangledGraph) -> nx.MultiGraph:
    """The unallocated links as a networkx multigraph keyed by link id."""
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(g.node_count))
    for lid, link in enumerate(g.links):
        if not g.allocated[lid]:
            multi.add_edge(link.u, link.v, key=lid, weight=link.distance_km)
    return multi


def _reference_or_error(kernel, *args):
    try:
        return kernel(*args)
    except InvariantViolationError as error:
        return type(error)


class TestPathKernelsAgainstReference:
    """The bounded searches against the full-labeling references.

    Whole ``Path``s must agree: node sequence, link ids and demand id.
    """

    @pytest.mark.parametrize("node_count", [30, 100, 250])
    def test_generated_graphs(self, node_count):
        seen = {"adjacent": 0, "parallel": 0, "disconnected": 0, "tie": 0}
        for case, share in enumerate((0.0, 0.3, 0.6)):
            g = _generated_graph(node_count, 3000 * node_count + case, share)
            rng = RngStream(node_count).substream(case, 2)
            pairs = _endpoint_pairs(g, rng, 60)
            lonely = rng.randrange(g.node_count)
            for _, lid in g.adjacency[lonely]:
                g.allocated[lid] = True
            pairs += [(lonely, (lonely + 1) % g.node_count),
                      ((lonely + 2) % g.node_count, lonely)]
            multi = _free_multigraph(g)
            for src, dst in pairs:
                p = shortest_entangled_path(g, src, dst)
                assert p == shortest_entangled_path_reference(g, src, dst), (
                    case, src, dst)
                q = routing._min_distance_path(g, src, dst, routing._distances_from(g, src))
                assert q == min_distance_path_reference(g, src, dst), (
                    case, src, dst)
                seen["adjacent"] += multi.number_of_edges(src, dst) > 0
                seen["parallel"] += multi.number_of_edges(src, dst) > 1
                seen["disconnected"] += p is None
                if p is not None and p.hop_count > 1:
                    seen["tie"] += len(list(itertools.islice(
                        nx.all_shortest_paths(multi, src, dst), 2))) > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 7), (3, 5), (5, 5), (4, 9), (10, 10)])
    def test_unit_distance_grids(self, rows, cols):
        """Grids tie hop counts and distance labels at nearly every step."""
        net = generate_grid(rows, cols, 1.0, 4)
        rng = RngStream(rows * 100 + cols)
        g = generate_entanglement(net, 0.0, rng.substream(0))
        marks = rng.substream(1)
        for share in (0.0, 0.3):
            h = g.copy()
            for lid in range(len(h.links)):
                if uniform(marks) < share:
                    h.allocated[lid] = True
            n = h.node_count
            pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
            if len(pairs) > 600:
                pairs = [pairs[i] for i in rng.substream(2).sample(len(pairs), 600)]
            for src, dst in pairs:
                assert shortest_entangled_path(h, src, dst) == (
                    shortest_entangled_path_reference(h, src, dst)), (share, src, dst)
                assert routing._min_distance_path(h, src, dst, routing._distances_from(h, src)) == (
                    min_distance_path_reference(h, src, dst)), (share, src, dst)

    def test_near_zero_weight_detour(self):
        """A link that rounds away ties a later-popped node with src.

        Links 0-1 (1e-20), 1-2 and 0-2 (both 1): node 1 pops after src with
        the same label, and its key 1e-20 + 1 == 1 ties dst's while its id
        is smaller, so the descent must see node 1's label.
        """
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)],
                        distances={(0, 1): 1e-20, (1, 2): 1.0, (0, 2): 1.0})
        p = routing._min_distance_path(g, 0, 2, routing._distances_from(g, 0))
        assert p == min_distance_path_reference(g, 0, 2)
        assert p.nodes == (0, 1, 2)

    def test_near_zero_weight_backtrack(self):
        """The descent steps onto a node whose only way on is labeled late.

        The reference walks 0, 1, 2 on tied labels of 1 and then has to
        leave node 2 through node 4, whose label 6 exceeds src's 2.
        """
        g = build_graph(
            5,
            [(0, 1), (0, 2), (1, 3), (1, 2), (2, 4), (3, 4)],
            distances={(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (1, 2): 1e-20,
                       (2, 4): 5.0, (3, 4): 10.0},
        )
        p = routing._min_distance_path(g, 0, 3, routing._distances_from(g, 0))
        assert p == min_distance_path_reference(g, 0, 3)
        assert p.nodes == (0, 1, 2, 4, 3)

    def test_rounding_tie_off_the_corridor(self):
        """A rounded sum ties the direct route, and the smaller id wins it.

        From 6 to 4, the route 6-0-7-4 (0.2, 0.1, 1e-16) sums in float to
        exactly what 6-3-4 (0.3, 1e-16) does, and node 0 is smaller than 3.
        Node 7, through which node 0 is labeled, keys one rounding step above
        ``best + h[src]``, so a resume bound without slack never labels node
        0 and the search takes 6-3-4.
        """
        g = build_graph(
            8,
            [(0, 6), (0, 7), (1, 6), (2, 3), (2, 4), (3, 4), (3, 6), (4, 7)],
            distances={(0, 6): 0.2, (0, 7): 0.1, (1, 6): 1.0, (2, 3): 1e-16,
                       (2, 4): 0.3, (3, 4): 1e-16, (3, 6): 0.3, (4, 7): 1e-16},
        )
        p = routing._min_distance_path(g, 6, 4, routing._distances_from(g, 6))
        assert p == min_distance_path_reference(g, 6, 4)
        assert p.nodes == (6, 0, 7, 4)

    def test_random_multigraphs_with_extreme_weights(self):
        """Near-zero weights, and weights whose sums overflow to inf."""
        weights = (1e-20, 1e-300, 0.5, 1.0, 1.0, 2.0, 1e308)
        rng = RngStream(77)
        for case in range(400):
            n, edges, src, dst = _random_multigraph(rng, max_nodes=8, max_edges=16)
            pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
            g = build_graph(n, edges, distances={
                pair: weights[rng.randrange(len(weights))] for pair in pairs})
            for lid in range(len(g.links)):
                if uniform(rng) < 0.2:
                    g.allocated[lid] = True
            for s, t in ((src, dst), (dst, src)):
                assert shortest_entangled_path(g, s, t) == (
                    shortest_entangled_path_reference(g, s, t)), case
                h = routing._distances_from(g, s)
                assert _reference_or_error(routing._min_distance_path, g, s, t, h) == (
                    _reference_or_error(min_distance_path_reference, g, s, t)), case


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_min_distance_path_matches_reference_with_extreme_weights(seed):
    """Whole paths against full Dijkstra, on every ordered endpoint pair.

    Weights come from near-zero values, whose sums round away, decimal
    fractions, whose sums round to neighboring floats, and overflow-scale
    ones: 1e308, whose sums reach inf, and the largest float over n, at
    which generated distances saturate.
    """
    rng = RngStream(seed)
    n, edges, _, _ = _random_multigraph(rng, max_nodes=8, max_edges=16)
    weights = (1e-20, 1e-300, 0.1, 0.3, 0.5, 1.0, 2.0, 1e308, sys.float_info.max / n)
    pairs = sorted(set(edges))
    g = build_graph(n, edges, distances={
        pair: weights[rng.randrange(len(weights))] for pair in pairs})
    share = uniform(rng)
    for lid in range(len(g.links)):
        if uniform(rng) < share:
            g.allocated[lid] = True
    for src in range(n):
        for dst in range(n):
            if src != dst:
                h = routing._distances_from(g, src)
                assert _reference_or_error(routing._min_distance_path, g, src, dst, h) == (
                    _reference_or_error(min_distance_path_reference, g, src, dst))


def test_float32_distances_add_up_as_floats():
    """A float32 distance is stored as a float, so sums round in float64.

    As floats, 0.1f + 0.2f is below 0.3f and 0-2-1 is shorter than the
    direct link 0-1. Added in float32, as NumPy 2 adds a float32 to a
    float, the two tie and the search took the direct link.
    """
    f32 = np.float32
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)],
                    distances={(0, 1): f32(0.3), (1, 2): f32(0.2), (0, 2): f32(0.1)})
    p = routing._min_distance_path(g, 0, 1, routing._distances_from(g, 0))
    assert p.nodes == (0, 2, 1)
    assert dmpsa_schedule(g, [(0, 1)]).paths[0][0] == p


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(1200)
@example(97)
def test_min_distance_path_with_float32_weights_matches_reference_with_floats(seed):
    """Decimal float32 weights, whose float sums nearly tie, against full Dijkstra.

    The reference runs on the same graph with each weight given as the
    float of its float32, which the network stores for either.
    """
    rng = RngStream(seed)
    n, edges, _, _ = _random_multigraph(rng, max_nodes=9, max_edges=18)
    weights = (0.1, 0.2, 0.3, 0.7, 1.0, 1.3)
    chosen = {pair: np.float32(weights[rng.randrange(len(weights))]) for pair in sorted(set(edges))}
    g32 = build_graph(n, edges, distances=chosen)
    g = build_graph(n, edges, distances={pair: float(w) for pair, w in chosen.items()})
    share = uniform(rng)
    for lid in range(len(g.links)):
        if uniform(rng) < share:
            g32.allocated[lid] = g.allocated[lid] = True
    for src in range(n):
        for dst in range(n):
            if src != dst:
                h = routing._distances_from(g32, src)
                assert _reference_or_error(routing._min_distance_path, g32, src, dst, h) == (
                    _reference_or_error(min_distance_path_reference, g, src, dst))


@pytest.mark.parametrize("node_count", [30, 120])
def test_path_lengths_match_networkx(node_count):
    for case, share in enumerate((0.0, 0.3, 0.6)):
        g = _generated_graph(node_count, 4000 * node_count + case, share)
        multi = _free_multigraph(g)
        for src, dst in _endpoint_pairs(g, RngStream(node_count).substream(case, 3), 40):
            p = shortest_entangled_path(g, src, dst)
            q = routing._min_distance_path(g, src, dst, routing._distances_from(g, src))
            if not nx.has_path(multi, src, dst):
                assert p is None and q is None, (case, src, dst)
                continue
            assert p.hop_count == nx.shortest_path_length(multi, src, dst), (case, src, dst)
            length = sum(g.links[lid].distance_km for lid in q.edges)
            assert math.isclose(
                length, nx.dijkstra_path_length(multi, src, dst), rel_tol=1e-12
            ), (case, src, dst)
