import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute import routing
from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_grid, generate_topology
from entroute.harness import _sample_demands
from entroute.network import PhysicalLink, PhysicalNetwork
from entroute.routing import (
    dmpsa_schedule,
    mcsa_schedule,
    rmpsa_schedule,
    smpsa_schedule,
    st_min_cut,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import (
    dmpsa_schedule_reference,
    draw_int,
    draw_uniform,
    max_edge_disjoint_paths_bruteforce,
    max_min_disjoint_paths_milp,
    mcsa_schedule_reference,
    min_total_distance_bruteforce,
    random_simple_path_reference,
    rmpsa_schedule_reference,
    unmix64,
    validate_schedule,
)


class TestSmpsa:
    def test_single_demand_two_disjoint_routes(self, four_cycle):
        demands = ((0, 1),)
        schedule = smpsa_schedule(four_cycle, demands)
        assert schedule.k == 2
        assert schedule.total_paths == 2
        validate_schedule(schedule, four_cycle, demands)

    def test_disconnected_demand(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        schedule = smpsa_schedule(g, ((0, 3),))
        assert schedule.k == 0
        assert schedule.total_paths == 0

    def test_bridge_contention_first_demand_wins(self):
        # Path graph: every route of both demands shares the middle edges.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        demands = ((0, 4), (1, 3))
        schedule = smpsa_schedule(g, demands)
        assert schedule.k == 0
        assert len(schedule.paths[0]) == 1
        assert len(schedule.paths[1]) == 0
        validate_schedule(schedule, g, demands)

    def test_original_graph_untouched(self, four_cycle):
        smpsa_schedule(four_cycle, ((0, 1),))
        assert not any(four_cycle.allocated)

    def test_round_robin_fairness(self, monkeypatch):
        net = generate_topology(40, 7.44, 6, RngStream(21))
        g = generate_entanglement(net, 0.02, RngStream(22))
        demands = tuple((2 * i, 2 * i + 1) for i in range(4))
        seq = []
        allocate = routing.allocate_path

        def recording(schedule, work, demand, p):
            allocate(schedule, work, demand, p)
            seq.append(demand)

        monkeypatch.setattr(routing, "allocate_path", recording)
        smpsa_schedule(g, demands)
        assert seq
        # Demands appearing at or after position i were still queued when the
        # i-th path was allocated; round-robin keeps their counts within 1.
        for i in range(len(seq)):
            active = {d for d in seq[i:]}
            if len(active) < 2:
                continue
            counts = {d: seq[:i].count(d) for d in active}
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_empty_demands_rejected(self, four_cycle):
        with pytest.raises(InvalidParameterError):
            smpsa_schedule(four_cycle, ())


_SCHEDULES = {
    "smpsa": smpsa_schedule,
    "mcsa": mcsa_schedule,
    "rmpsa": lambda g, ds: rmpsa_schedule(g, ds, RngStream(0)),
    "dmpsa": dmpsa_schedule,
}


@pytest.mark.parametrize("demands, message", [
    (((0, 4),), "endpoint outside graph: src=0 dst=4"),
    pytest.param((None,), r"^demand 0 is not \(src, dst\): None", id="none"),
    pytest.param(((0, 1), (1,)), r"^demand 1 is not \(src, dst\): \(1,\)", id="one_endpoint"),
    pytest.param(((1, 2, 3),), r"^demand 0 is not \(src, dst\): \(1, 2, 3\)", id="three_endpoints"),
    pytest.param(((0, 0),), "^demand 0: src and dst must differ, got 0", id="equal_endpoints"),
    pytest.param(((1.5, 2),), "^demand 0: src must be an integer", id="float_src"),
    pytest.param(((0, 1), (1, 2.0)), "^demand 1: dst must be an integer", id="float_dst"),
    pytest.param(((True, 2),), "^demand 0: src must be an integer", id="bool_src"),
    pytest.param(((0, 1), (2, 3), ("1", 2)), "^demand 2: src must be an integer", id="str_src"),
])
@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
def test_malformed_demands_rejected(four_cycle, demands, message, schedule):
    with pytest.raises(InvalidParameterError, match=message):
        _SCHEDULES[schedule](four_cycle, demands)


@pytest.mark.parametrize("demands", [None, 5])
@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
def test_demand_set_that_is_not_iterable_rejected(four_cycle, demands, schedule):
    with pytest.raises(InvalidParameterError, match=f"^demand set must be iterable, got {demands}$"):
        _SCHEDULES[schedule](four_cycle, demands)


# Each entry makes a fresh copy of the pairs, since a generator is read once.
_DEMAND_FORMS = {
    "tuples": lambda pairs: pairs,
    "lists": lambda pairs: [list(pair) for pair in pairs],
    "numpy_integers": lambda pairs: [(np.int64(s), np.int32(t)) for s, t in pairs],
    "array_rows": np.array,
    "generator": lambda pairs: (pair for pair in pairs),
}


@pytest.mark.parametrize("form", sorted(_DEMAND_FORMS))
@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
def test_demand_forms_give_one_schedule(form, schedule):
    net = generate_topology(30, 7.44, 6, RngStream(31))
    g = generate_entanglement(net, 0.02, RngStream(32))
    pairs = ((0, 29), (3, 17), (17, 3), (8, 21))
    expected = _SCHEDULES[schedule](g, pairs)
    assert expected.total_paths > 0
    assert _SCHEDULES[schedule](g, _DEMAND_FORMS[form](pairs)).to_json() == expected.to_json()


class TestMcsa:
    def test_triple_parallel_capped_by_capacity(self):
        g = build_graph(2, [(0, 1), (0, 1), (0, 1)], capacities=[2, 2])
        demands = ((0, 1),)
        schedule = mcsa_schedule(g, demands)
        assert schedule.total_paths == 2
        assert schedule.k == 2

    def test_prioritizes_low_flexibility_demand(self):
        # d0 has three 2-hop routes; its lexicographically first one passes
        # through the only route available to d1.  Served in id order (as the
        # sequential scheduler does) d1 starves; min-cut priority saves it.
        g = build_graph(6, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
        demands = ((3, 4), (0, 4))
        assert smpsa_schedule(g, demands).k == 0
        schedule = mcsa_schedule(g, demands)
        assert schedule.k == 1
        assert len(schedule.paths[1]) == 1
        validate_schedule(schedule, g, demands)

    def test_rounds_leave_bottleneck_links_to_later_demands(self):
        # Both demands have min-cut 2.  d0's second route (0,5,3,6,1) takes
        # both links at node 3; one path per demand per round leaves them to
        # d1, whose two routes then keep d0 from finding a second path.
        g = build_graph(7, [(0, 1), (0, 5), (3, 5), (3, 6), (6, 1), (5, 4), (6, 4)])
        demands = ((0, 1), (3, 4))
        schedule = mcsa_schedule(g, demands)
        assert schedule.k == 1
        assert [p.nodes for p in schedule.paths[0]] == [(0, 1)]
        assert [p.nodes for p in schedule.paths[1]] == [(3, 5, 4), (3, 6, 4)]
        validate_schedule(schedule, g, demands)

    def test_zero_flexibility_selected_first(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        demands = ((2, 4), (0, 4))
        schedule = mcsa_schedule(g, demands)
        assert schedule.k == 0
        assert len(schedule.paths[1]) == 0
        assert len(schedule.paths[0]) >= 1

    def test_capacity_cap_uses_configured_capacities(self):
        counts = {}
        for cap in (1, 2, 3):
            g = build_graph(2, [(0, 1)] * 3, capacities=[cap, 3])
            counts[cap] = mcsa_schedule(g, ((0, 1),)).total_paths
        assert counts == {1: 1, 2: 2, 3: 3}

    def test_per_demand_cap_override(self, four_cycle):
        schedule = mcsa_schedule(four_cycle, ((0, 1),), per_demand_cap=1)
        assert schedule.total_paths == 1

    @pytest.mark.parametrize("cap", [1.5, 2.0, True, math.nan])
    def test_per_demand_cap_must_be_an_integer(self, four_cycle, cap):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            mcsa_schedule(four_cycle, ((0, 1),), per_demand_cap=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_per_demand_cap_must_be_positive(self, four_cycle, cap):
        with pytest.raises(InvalidParameterError, match="per_demand_cap must be >= 1"):
            mcsa_schedule(four_cycle, ((0, 1),), per_demand_cap=cap)

    def test_single_demand_gets_flexibility_many_paths(self):
        for seed in range(5):
            net = generate_topology(25, 7.44, 8, RngStream(seed))
            g = generate_entanglement(net, 0.01, RngStream(seed + 50))
            src, dst = 0, len(net.nodes) - 1
            flex = st_min_cut(g, src, dst).flexibility
            cap = min(net.nodes[src], net.nodes[dst])
            schedule = mcsa_schedule(g, ((src, dst),))
            assert len(schedule.paths[0]) == min(flex, cap)


class TestRmpsa:
    def test_unique_path_found_regardless_of_randomness(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        demands = ((0, 2),)
        schedule = rmpsa_schedule(g, demands, RngStream(123))
        assert schedule.k == 1
        assert schedule.paths[0][0].nodes == (0, 1, 2)

    def test_disconnected_demand_dropped(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        schedule = rmpsa_schedule(g, ((0, 2),), RngStream(1))
        assert schedule.k == 0

    def test_seed_reproducible(self):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple((i, 29 - i) for i in range(3))
        a = rmpsa_schedule(g, demands, RngStream(77))
        b = rmpsa_schedule(g, demands, RngStream(77))
        assert a.to_json() == b.to_json()

    def test_different_seeds_can_differ(self):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple((i, 29 - i) for i in range(3))
        serialized = {
            rmpsa_schedule(g, demands, RngStream(s)).to_json() for s in range(8)
        }
        assert len(serialized) > 1

    def test_one_substream_per_demand(self, monkeypatch):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple((i, 29 - i) for i in range(3))
        keys = []
        substream = RngStream.substream

        def counting(self, *args):
            keys.append(args)
            return substream(self, *args)

        monkeypatch.setattr(RngStream, "substream", counting)
        schedule = rmpsa_schedule(g, iter(demands), RngStream(77))
        # A demand is searched once per path it gets and once more, so this
        # run makes more searches than there are demands.
        assert schedule.total_paths > len(demands)
        assert keys == [(i,) for i in range(len(demands))]


class TestDmpsa:
    def test_prefers_low_total_distance_over_fewer_hops(self):
        g = build_graph(
            3,
            [(0, 2), (2, 1), (0, 1)],
            distances={(0, 2): 1.0, (1, 2): 1.0, (0, 1): 5.0},
        )
        schedule = dmpsa_schedule(g, ((0, 1),))
        assert schedule.paths[0][0].nodes == (0, 2, 1)
        oracle = min_total_distance_bruteforce(
            [(0, 2), (1, 2), (0, 1)], [1.0, 1.0, 5.0], 0, 1
        )
        assert sum(
            g.links[e].distance_km for e in schedule.paths[0][0].edges
        ) == pytest.approx(oracle)

    def test_uniform_distances_match_hop_count(self):
        net = generate_topology(30, 7.44, 6, RngStream(41))
        # Uniform distances: rebuild the fibers at a fixed length.
        net = PhysicalNetwork(
            net.nodes, tuple(PhysicalLink(l.u, l.v, 2.0) for l in net.links)
        )
        g = generate_entanglement(net, 0.0, RngStream(42))
        demands = ((0, 29),)
        d_schedule = dmpsa_schedule(g, demands)
        s_schedule = smpsa_schedule(g, demands)
        d_hops = [p.hop_count for p in d_schedule.paths[0]]
        s_hops = [p.hop_count for p in s_schedule.paths[0]]
        assert d_hops == s_hops

    def test_disconnected_demand_dropped(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert dmpsa_schedule(g, ((0, 2),)).k == 0


def _isolate(g, node: int) -> None:
    """Allocate every link of ``node``, leaving it no free link."""
    for _, lid in g.adjacency[node]:
        g.allocated[lid] = True


def _fig5c_like_instances():
    """fig5c settings (capacity 9.09, alpha 0.05, 5 demands) at three sizes.

    Every instance also gets a demand from and a demand to a node whose
    links were all allocated beforehand, so both searches fail at once.
    """
    for node_count in (50, 150, 250):
        for case in range(4):
            rng = RngStream(5000 + node_count).substream(case)
            net = generate_topology(node_count, 7.44, 9.09, rng.substream(0))
            g = generate_entanglement(net, 0.05, rng.substream(1))
            demands = list(_sample_demands(node_count, 5, rng.substream(2)))
            lonely = rng.randrange(node_count)
            _isolate(g, lonely)
            demands += [
                (lonely, (lonely + 1) % node_count),
                ((lonely + 2) % node_count, lonely),
            ]
            yield g, tuple(demands), rng.substream(3)


def _grid_instances():
    """Unit grids with alpha 0, where distances tie at nearly every step."""
    for rows, cols in ((3, 3), (4, 6), (6, 6)):
        rng = RngStream(rows * 100 + cols)
        net = generate_grid(rows, cols, 1.0, 4)
        g = generate_entanglement(net, 0.0, rng.substream(0))
        n = len(net.nodes)
        demands = list(_sample_demands(n, 4, rng.substream(1)))
        _isolate(g, n - 1)
        demands.append((n - 1, 0))
        yield g, tuple(demands), rng.substream(2)


def _dense_instances():
    """Small graphs with many parallel Bell pairs, so one shuffle can be long.

    Each has a demand to a node whose links were all allocated beforehand.
    """
    for case in range(3):
        rng = RngStream(7000).substream(case)
        net = generate_topology(12, 7.44, 40.0, rng.substream(0))
        g = generate_entanglement(net, 0.0, rng.substream(1))
        demands = list(_sample_demands(12, 3, rng.substream(2)))
        lonely = rng.randrange(12)
        _isolate(g, lonely)
        demands.append(((lonely + 1) % 12, lonely))
        yield g, tuple(demands), rng.substream(3)


class TestFcfsBaselinesAgainstReference:
    """RMPSA and DMPSA against FCFS driven by the full-search references.

    The kernels fail at once when an endpoint has no free link and DMPSA
    labels only a corridor; whole schedules must still agree byte for byte.
    """

    @staticmethod
    def _count_searches(monkeypatch) -> tuple[list[int], Counter]:
        """Count searches with an isolated endpoint, and words read per word source."""
        hits, words = [0], Counter()
        search = routing._random_simple_path

        def counting(g, src, dst, next_word):
            hits[0] += not (routing._has_free_link(g, src) and routing._has_free_link(g, dst))

            def counted_word():
                words[next_word] += 1
                return next_word()

            return search(g, src, dst, counted_word)

        monkeypatch.setattr(routing, "_random_simple_path", counting)
        return hits, words

    @pytest.mark.parametrize(
        "instances", [_fig5c_like_instances, _grid_instances, _dense_instances]
    )
    def test_rmpsa(self, instances, monkeypatch):
        hits, words = self._count_searches(monkeypatch)
        for g, demands, rng in instances():
            seed = rng.next_u64()
            assert rmpsa_schedule(g, demands, RngStream(seed)).to_json() == (
                rmpsa_schedule_reference(g, demands, RngStream(seed)).to_json())
        assert hits[0] > 0
        if instances is not _grid_instances:
            # Some demand reads past its first block of 256 words.
            assert max(words.values()) > 256

    def test_random_search_rejects_a_word_at_its_threshold(self):
        # 2**64 % 3 == 1, so the word 2**64 - 1 is redrawn at node 0's three
        # candidates. Which of 1, 2 and 3 leads to 4 follows the draws.
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        seed = (unmix64(2**64 - 1) - 0x9E3779B97F4A7C15) % 2**64
        next_word = RngStream(seed).words().__next__
        assert next_word() == 2**64 - 1
        next_word = RngStream(seed).words().__next__
        reference = RngStream(seed)
        path = routing._random_simple_path(g, 0, 4, next_word)
        assert path == random_simple_path_reference(g, 0, 4, reference)
        # Both took the same three words: the rejected one and two more.
        assert reference._state == (seed + 3 * 0x9E3779B97F4A7C15) % 2**64
        assert next_word() == reference.next_u64()

    @pytest.mark.parametrize("instances", [_fig5c_like_instances, _grid_instances])
    def test_dmpsa(self, instances):
        for g, demands, _ in instances():
            assert dmpsa_schedule(g, demands).to_json() == (
                dmpsa_schedule_reference(g, demands).to_json())

    @pytest.mark.parametrize("rng", [None, 5, 0.5, "rng"])
    def test_rmpsa_rejects_a_non_stream_rng(self, rng):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidParameterError, match="rng must be an RngStream"):
            rmpsa_schedule(g, ((0, 2),), rng)


def _mcsa_generated_instances():
    """Generated graphs (capacity 11, alpha 0.05) with up to 25 demands.

    So many demands take many rounds, and each round's paths break flows
    that the next ranking repairs. One demand per instance runs to a node
    whose links were all allocated beforehand.
    """
    for node_count, demand_count in ((50, 10), (50, 25), (150, 25), (250, 12), (250, 25)):
        rng = RngStream(9000 + node_count).substream(demand_count)
        net = generate_topology(node_count, 7.44, 11, rng.substream(0))
        g = generate_entanglement(net, 0.05, rng.substream(1))
        demands = list(_sample_demands(node_count, demand_count - 1, rng.substream(2)))
        lonely = rng.randrange(node_count)
        _isolate(g, lonely)
        demands.append(((lonely + 1) % node_count, lonely))
        yield g, tuple(demands)


def _parallel_link_instances():
    """Random multigraphs in which most node pairs repeat a link."""
    rng = RngStream(77)
    for _ in range(40):
        n = draw_int(rng, 4, 9)
        edges = []
        for _ in range(draw_int(rng, 6, 24)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges += [(min(u, v), max(u, v))] * draw_int(rng, 1, 3)
        demands, pairs = [], set()
        for _ in range(draw_int(rng, 2, 5)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in pairs:
                pairs.add((u, v))
                demands.append((u, v))
        if len(demands) > 1:
            yield build_graph(n, edges), tuple(demands)


class TestMcsaAgainstReference:
    """MCSA, which repairs each demand's flow between rounds, against MCSA
    that ranks every round by the one-directional reference from scratch."""

    @pytest.fixture
    def cancels(self, monkeypatch) -> list[int]:
        """Count the flow units MCSA cancels on claimed links."""
        counted = [0]
        cancel = routing._cancel_unit

        def counting(g, flow, lid):
            counted[0] += 1
            return cancel(g, flow, lid)

        monkeypatch.setattr(routing, "_cancel_unit", counting)
        return counted

    def test_generated_graphs(self, cancels):
        for g, demands in _mcsa_generated_instances():
            assert mcsa_schedule(g, demands).to_json() == (
                mcsa_schedule_reference(g, demands).to_json())
        assert cancels[0] > 0

    @pytest.mark.parametrize("cap", [None, 1, 2])
    def test_unit_grids(self, cap, cancels):
        for g, demands, _ in _grid_instances():
            assert mcsa_schedule(g, demands, per_demand_cap=cap).to_json() == (
                mcsa_schedule_reference(g, demands, per_demand_cap=cap).to_json())
        # One path per demand leaves no second ranking to repair a flow for.
        assert (cancels[0] == 0) == (cap == 1)

    def test_parallel_link_multigraphs(self, cancels):
        instances = [(g, demands) for g, demands, _ in _dense_instances()]
        for g, demands in instances + list(_parallel_link_instances()):
            assert mcsa_schedule(g, demands).to_json() == (
                mcsa_schedule_reference(g, demands).to_json())
        assert cancels[0] > 0


class TestCrossAlgorithmProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_edge_disjoint_and_valid_everywhere(self, seed):
        rng = RngStream(seed)
        n = draw_int(rng, 4, 40)
        net = generate_topology(n, 7.44, 4, rng.substream(0))
        g = generate_entanglement(net, 0.05, rng.substream(1))
        demand_count = draw_int(rng, 1, min(5, n // 2))
        pairs = set()
        demands = []
        while len(demands) < demand_count:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or frozenset((u, v)) in pairs:
                continue
            pairs.add(frozenset((u, v)))
            demands.append((u, v))
        demands = tuple(demands)
        for schedule in (
            smpsa_schedule(g, demands),
            mcsa_schedule(g, demands),
            rmpsa_schedule(g, demands, rng.substream(2)),
            dmpsa_schedule(g, demands),
        ):
            validate_schedule(schedule, g, demands)

    def test_deterministic_schedulers_are_stable(self, four_cycle):
        demands = ((0, 1), (2, 3))
        for fn in (smpsa_schedule, mcsa_schedule, dmpsa_schedule):
            assert fn(four_cycle, demands).to_json() == fn(four_cycle, demands).to_json()

    def test_schedule_serialization_shape(self, four_cycle):
        schedule = smpsa_schedule(four_cycle, ((0, 1),))
        data = json.loads(schedule.to_json())
        assert set(data) == {"k", "demands"}
        assert data["demands"][0]["id"] == 0
        first = data["demands"][0]["paths"][0]
        assert set(first) == {"nodes", "edges"}


class TestExactOptimum:
    """Every scheduler's k against the exact optimum k* of the MILP oracle.

    k* is the most edge-disjoint paths that every demand can hold at once,
    so no schedule exceeds it, and no demand holds more than its min cut.
    """

    def test_oracle_on_hand_built_graphs(self):
        cycle = [(0, 2), (2, 1), (0, 3), (3, 1)]
        assert max_min_disjoint_paths_milp(4, cycle, [(0, 1)]) == 2
        # Both demands need the double link 1-2, though each has a cut of 2.
        chain = [(0, 1), (0, 1), (1, 2), (1, 2)]
        assert max_min_disjoint_paths_milp(3, chain, [(0, 2), (1, 2)]) == 1
        assert max_min_disjoint_paths_milp(3, [(0, 1)], [(0, 2)]) == 0

    @pytest.mark.parametrize("case", range(20))
    def test_oracle_matches_brute_force_for_one_demand(self, case):
        rng = RngStream(6900).substream(case)
        n = draw_int(rng, 3, 6)
        edge_count = draw_int(rng, 3, 8)
        edges = []
        while len(edges) < edge_count:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        assert max_min_disjoint_paths_milp(n, edges, [(0, n - 1)]) == (
            max_edge_disjoint_paths_bruteforce(edges, 0, n - 1))

    @staticmethod
    def _check(g, demands, rng) -> None:
        edges = [(link.u, link.v) for link in g.links]
        k_star = max_min_disjoint_paths_milp(g.node_count, edges, list(demands))
        assert k_star <= min(st_min_cut(g, src, dst).flexibility for src, dst in demands)
        for schedule in (
            smpsa_schedule(g, demands),
            mcsa_schedule(g, demands),
            rmpsa_schedule(g, demands, rng),
            dmpsa_schedule(g, demands),
        ):
            assert schedule.k <= k_star

    @pytest.mark.parametrize("case", range(30))
    def test_k_within_optimum_on_small_graphs(self, case):
        rng = RngStream(7000).substream(case)
        n = draw_int(rng, 10, 30)
        net = generate_topology(n, 7.44, draw_uniform(rng, 4.0, 12.0), rng.substream(0))
        # Low loss, so that most instances have k* >= 1.
        g = generate_entanglement(net, 0.01, rng.substream(1))
        demands = _sample_demands(n, draw_int(rng, 2, 5), rng.substream(2))
        self._check(g, demands, rng.substream(3))

    @pytest.mark.parametrize("case", range(3))
    def test_k_within_optimum_at_fig5_defaults(self, case):
        rng = RngStream(7100).substream(case)
        net = generate_topology(100, 7.44, 9.09, rng.substream(0))
        g = generate_entanglement(net, 0.05, rng.substream(1))
        self._check(g, _sample_demands(100, 5, rng.substream(2)), rng.substream(3))
