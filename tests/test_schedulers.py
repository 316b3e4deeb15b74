import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_topology
from entroute.network import Demand
from entroute.routing import (
    dmpsa_schedule,
    mcsa_schedule,
    rmpsa_schedule,
    smpsa_schedule,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import min_total_distance_bruteforce, validate_schedule


class TestSmpsa:
    def test_single_demand_two_disjoint_routes(self, four_cycle):
        demands = (Demand(0, 0, 1),)
        schedule = smpsa_schedule(four_cycle, demands)
        assert schedule.k == 2
        assert schedule.total_paths == 2
        validate_schedule(schedule, four_cycle, demands)

    def test_disconnected_demand(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        schedule = smpsa_schedule(g, (Demand(0, 0, 3),))
        assert schedule.k == 0
        assert schedule.total_paths == 0

    def test_bridge_contention_first_demand_wins(self):
        # Path graph: every route of both demands shares the middle edges.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        demands = (Demand(0, 0, 4), Demand(1, 1, 3))
        schedule = smpsa_schedule(g, demands)
        assert schedule.k == 0
        assert len(schedule.paths[0]) == 1
        assert len(schedule.paths[1]) == 0
        validate_schedule(schedule, g, demands)

    def test_original_graph_untouched(self, four_cycle):
        smpsa_schedule(four_cycle, (Demand(0, 0, 1),))
        assert not any(four_cycle.allocated)

    def test_round_robin_fairness(self):
        net = generate_topology(40, 7.44, 6, RngStream(21))
        g = generate_entanglement(net, 0.02, RngStream(22))
        demands = tuple(Demand(i, 2 * i, 2 * i + 1) for i in range(4))
        schedule = smpsa_schedule(g, demands)
        seq = schedule.allocation_sequence
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


class TestMcsa:
    def test_triple_parallel_capped_by_capacity(self):
        g = build_graph(2, [(0, 1), (0, 1), (0, 1)], capacities=[2, 2])
        demands = (Demand(0, 0, 1),)
        schedule = mcsa_schedule(g, demands)
        assert schedule.total_paths == 2
        assert schedule.k == 2

    def test_prioritizes_low_flexibility_demand(self):
        # d0 has three 2-hop routes; its lexicographically first one passes
        # through the only route available to d1.  Served in id order (as the
        # sequential scheduler does) d1 starves; min-cut priority saves it.
        g = build_graph(6, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
        demands = (Demand(0, 3, 4), Demand(1, 0, 4))
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
        demands = (Demand(0, 0, 1), Demand(1, 3, 4))
        schedule = mcsa_schedule(g, demands)
        assert schedule.k == 1
        assert [p.nodes for p in schedule.paths[0]] == [(0, 1)]
        assert [p.nodes for p in schedule.paths[1]] == [(3, 5, 4), (3, 6, 4)]
        validate_schedule(schedule, g, demands)

    def test_zero_flexibility_selected_first(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        demands = (Demand(0, 2, 4), Demand(1, 0, 4))
        schedule = mcsa_schedule(g, demands)
        assert schedule.k == 0
        assert len(schedule.paths[1]) == 0
        assert len(schedule.paths[0]) >= 1

    def test_capacity_cap_uses_configured_capacities(self):
        counts = {}
        for cap in (1, 2, 3):
            g = build_graph(2, [(0, 1)] * 3, capacities=[cap, 3])
            counts[cap] = mcsa_schedule(g, (Demand(0, 0, 1),)).total_paths
        assert counts == {1: 1, 2: 2, 3: 3}

    def test_per_demand_cap_override(self, four_cycle):
        schedule = mcsa_schedule(four_cycle, (Demand(0, 0, 1),), per_demand_cap=1)
        assert schedule.total_paths == 1

    def test_single_demand_gets_flexibility_many_paths(self):
        for seed in range(5):
            net = generate_topology(25, 7.44, 8, RngStream(seed))
            g = generate_entanglement(net, 0.01, RngStream(seed + 50))
            d = Demand(0, 0, net.node_count - 1)
            from entroute.routing import path_flexibility

            flex = path_flexibility(g, d)
            cap = min(g.capacity_of(d.src), g.capacity_of(d.dst))
            schedule = mcsa_schedule(g, (d,))
            assert len(schedule.paths[0]) == min(flex, cap)


class TestRmpsa:
    def test_unique_path_found_regardless_of_randomness(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        demands = (Demand(0, 0, 2),)
        schedule = rmpsa_schedule(g, demands, RngStream(123))
        assert schedule.k == 1
        assert schedule.paths[0][0].nodes == (0, 1, 2)

    def test_disconnected_demand_dropped(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        schedule = rmpsa_schedule(g, (Demand(0, 0, 2),), RngStream(1))
        assert schedule.k == 0

    def test_seed_reproducible(self):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple(Demand(i, i, 29 - i) for i in range(3))
        a = rmpsa_schedule(g, demands, RngStream(77))
        b = rmpsa_schedule(g, demands, RngStream(77))
        assert a.to_json() == b.to_json()

    def test_different_seeds_can_differ(self):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple(Demand(i, i, 29 - i) for i in range(3))
        serialized = {
            rmpsa_schedule(g, demands, RngStream(s)).to_json() for s in range(8)
        }
        assert len(serialized) > 1

    def test_one_substream_per_demand(self, monkeypatch):
        net = generate_topology(30, 7.44, 6, RngStream(31))
        g = generate_entanglement(net, 0.02, RngStream(32))
        demands = tuple(Demand(i, i, 29 - i) for i in range(3))
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
        assert keys == [(d.id,) for d in demands]


class TestDmpsa:
    def test_prefers_low_total_distance_over_fewer_hops(self):
        g = build_graph(
            3,
            [(0, 2), (2, 1), (0, 1)],
            distances={(0, 2): 1.0, (1, 2): 1.0, (0, 1): 5.0},
        )
        schedule = dmpsa_schedule(g, (Demand(0, 0, 1),))
        assert schedule.paths[0][0].nodes == (0, 2, 1)
        oracle = min_total_distance_bruteforce(
            [(0, 2), (1, 2), (0, 1)], [1.0, 1.0, 5.0], 0, 1
        )
        assert sum(
            g.links[e].physical_distance_km for e in schedule.paths[0][0].edges
        ) == pytest.approx(oracle)

    def test_uniform_distances_match_hop_count(self):
        net = generate_topology(30, 7.44, 6, RngStream(41))
        # Uniform distances: rebuild links at a fixed length.
        g = generate_entanglement(net, 0.0, RngStream(42))
        for link in g.links:
            link.physical_distance_km = 2.0
        demands = (Demand(0, 0, 29),)
        d_schedule = dmpsa_schedule(g, demands)
        s_schedule = smpsa_schedule(g, demands)
        d_hops = [p.hop_count for p in d_schedule.paths[0]]
        s_hops = [p.hop_count for p in s_schedule.paths[0]]
        assert d_hops == s_hops

    def test_disconnected_demand_dropped(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert dmpsa_schedule(g, (Demand(0, 0, 2),)).k == 0


class TestCrossAlgorithmProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_edge_disjoint_and_valid_everywhere(self, seed):
        rng = RngStream(seed)
        n = rng.randint(4, 40)
        net = generate_topology(n, 7.44, 4, rng.substream(0))
        g = generate_entanglement(net, 0.05, rng.substream(1))
        demand_count = rng.randint(1, min(5, n // 2))
        pairs = set()
        demands = []
        while len(demands) < demand_count:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or frozenset((u, v)) in pairs:
                continue
            pairs.add(frozenset((u, v)))
            demands.append(Demand(len(demands), u, v))
        demands = tuple(demands)
        for schedule in (
            smpsa_schedule(g, demands),
            mcsa_schedule(g, demands),
            rmpsa_schedule(g, demands, rng.substream(2)),
            dmpsa_schedule(g, demands),
        ):
            validate_schedule(schedule, g, demands)

    def test_deterministic_schedulers_are_stable(self, four_cycle):
        demands = (Demand(0, 0, 1), Demand(1, 2, 3))
        for fn in (smpsa_schedule, mcsa_schedule, dmpsa_schedule):
            assert fn(four_cycle, demands).to_json() == fn(four_cycle, demands).to_json()

    def test_schedule_serialization_shape(self, four_cycle):
        schedule = smpsa_schedule(four_cycle, (Demand(0, 0, 1),))
        data = schedule.to_json_dict()
        assert set(data) == {"k", "demands"}
        assert data["demands"][0]["id"] == 0
        first = data["demands"][0]["paths"][0]
        assert set(first) == {"nodes", "edges"}
