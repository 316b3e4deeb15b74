import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute import routing
from entroute.errors import InvalidParameterError, InvariantViolationError
from entroute.generation import generate_entanglement, generate_grid, generate_topology
from entroute.network import Demand, EntangledGraph
from entroute.routing import (
    CutResult,
    Path,
    RoutingSchedule,
    allocate_path,
    path_flexibility,
    shortest_entangled_path,
    st_min_cut,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import (
    connected,
    max_edge_disjoint_paths_bruteforce,
    min_cut_size_bruteforce,
    min_distance_path_reference,
    shortest_entangled_path_reference,
    st_min_cut_reference,
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
        assert path_flexibility(g, Demand(0, 0, 3)) == 1

    def test_2x2_grid_corner_to_corner(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert path_flexibility(g, Demand(0, 0, 3)) == 2

    def test_parallel_double_link(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        assert path_flexibility(g, Demand(0, 0, 1)) == 2


class TestAllocatePath:
    def test_consumes_edges(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule({0: []})
        allocate_path(schedule, g, 0, shortest_entangled_path(g, 0, 1))
        assert g.allocated[0]
        assert shortest_entangled_path(g, 0, 1) is None
        assert [p.edges for p in schedule.paths[0]] == [(0,)]

    def test_parallel_link_survives(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        schedule = RoutingSchedule({0: []})
        allocate_path(schedule, g, 0, shortest_entangled_path(g, 0, 1))
        remaining = shortest_entangled_path(g, 0, 1)
        assert remaining is not None
        assert remaining.edges == (1,)

    def test_double_allocation_rejected(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule({0: []})
        p = shortest_entangled_path(g, 0, 1)
        allocate_path(schedule, g, 0, p)
        with pytest.raises(InvariantViolationError):
            allocate_path(schedule, g, 0, p)

    def test_unknown_demand_rejected_before_any_claim(self):
        g = build_graph(2, [(0, 1)])
        schedule = RoutingSchedule({0: []})
        with pytest.raises(InvalidParameterError, match="unknown demand 5"):
            allocate_path(schedule, g, 5, Path((0, 1), (0,)))
        assert g.allocated == [False]
        assert schedule.total_paths == 0


def _random_multigraph(rng: RngStream, max_nodes=6, max_edges=12):
    n = rng.randint(2, max_nodes)
    m = rng.randint(0, max_edges)
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
    allocated = frozenset(lid for lid in range(len(edges)) if rng.random() < 0.3)
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
        if marks.random() < allocated_share:
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

        def watched(g, flow, front, tree, other, sign):
            grown, meet = grow(g, flow, front, tree, other, sign)
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
                if marks.random() < share:
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
                if rng.random() < 0.2:
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


_SEARCHES = {
    "shortest": shortest_entangled_path,
    "min_distance": routing._min_distance_path,
    "random": lambda g, src, dst: routing._random_simple_path(g, src, dst, RngStream(0)),
    "min_cut": st_min_cut,
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
@pytest.mark.parametrize("src, dst", [(0, 1.5), (0.0, 1), (0, True), (False, 1), (0, "1")])
def test_searches_reject_non_integer_endpoints(search, src, dst):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        _SEARCHES[search](g, src, dst)


@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_searches_accept_numpy_integer_endpoints(search):
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert _SEARCHES[search](g, np.int64(0), np.int64(2)) == _SEARCHES[search](g, 0, 2)


def test_path_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        Path((1,), ())
    with pytest.raises(InvalidParameterError):
        Path((1, 2, 1), (0, 1))
    with pytest.raises(InvalidParameterError):
        Path((1, 2, 3), (0,))


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
                q = routing._min_distance_path(g, src, dst)
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
                if marks.random() < share:
                    h.allocated[lid] = True
            n = h.node_count
            pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
            if len(pairs) > 600:
                pairs = [pairs[i] for i in rng.substream(2).sample(len(pairs), 600)]
            for src, dst in pairs:
                assert shortest_entangled_path(h, src, dst) == (
                    shortest_entangled_path_reference(h, src, dst)), (share, src, dst)
                assert routing._min_distance_path(h, src, dst) == (
                    min_distance_path_reference(h, src, dst)), (share, src, dst)

    def test_near_zero_weight_detour(self):
        """A link that rounds away ties a later-popped node with src.

        Links 0-1 (1e-20), 1-2 and 0-2 (both 1): node 1 pops after src with
        the same label, and its key 1e-20 + 1 == 1 ties dst's while its id
        is smaller, so the descent must see node 1's label.
        """
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)],
                        distances={(0, 1): 1e-20, (1, 2): 1.0, (0, 2): 1.0})
        p = routing._min_distance_path(g, 0, 2)
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
        p = routing._min_distance_path(g, 0, 3)
        assert p == min_distance_path_reference(g, 0, 3)
        assert p.nodes == (0, 1, 2, 4, 3)

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
                if rng.random() < 0.2:
                    g.allocated[lid] = True
            for s, t in ((src, dst), (dst, src)):
                assert shortest_entangled_path(g, s, t) == (
                    shortest_entangled_path_reference(g, s, t)), case
                assert _reference_or_error(routing._min_distance_path, g, s, t) == (
                    _reference_or_error(min_distance_path_reference, g, s, t)), case


@pytest.mark.parametrize("node_count", [30, 120])
def test_path_lengths_match_networkx(node_count):
    for case, share in enumerate((0.0, 0.3, 0.6)):
        g = _generated_graph(node_count, 4000 * node_count + case, share)
        multi = _free_multigraph(g)
        for src, dst in _endpoint_pairs(g, RngStream(node_count).substream(case, 3), 40):
            p = shortest_entangled_path(g, src, dst)
            q = routing._min_distance_path(g, src, dst)
            if not nx.has_path(multi, src, dst):
                assert p is None and q is None, (case, src, dst)
                continue
            assert p.hop_count == nx.shortest_path_length(multi, src, dst), (case, src, dst)
            length = sum(g.links[lid].distance_km for lid in q.edges)
            assert math.isclose(
                length, nx.dijkstra_path_length(multi, src, dst), rel_tol=1e-12
            ), (case, src, dst)
