from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_topology
from entroute.metrics import (
    avg_hop_count,
    compute_metrics,
    qubit_depletion_ratio,
)
from entroute.network import Demand, PhysicalLink, PhysicalNetwork, QuantumNode
from entroute.routing import Path, RoutingSchedule, smpsa_schedule
from entroute.rng import RngStream


def _schedule_with(path_specs):
    """RoutingSchedule stub: {demand_id: [(nodes, edges), ...]}."""
    schedule = RoutingSchedule(tuple(path_specs))
    for did, paths in path_specs.items():
        for nodes, edges in paths:
            schedule.paths[did].append(Path(did, nodes, edges))
    return schedule


class TestComputeK:
    def test_min_of_counts(self):
        schedule = _schedule_with(
            {
                0: [((0, 1), (0,)), ((0, 2, 1), (1, 2))],
                1: [((3, 4), (3,)), ((3, 5), (4,)), ((3, 6), (5,))],
            }
        )
        assert schedule.k == 2

    def test_zero_when_any_demand_empty(self):
        schedule = _schedule_with({0: [((0, 1), (0,))], 1: []})
        assert schedule.k == 0

    def test_uniform_counts(self):
        schedule = _schedule_with(
            {i: [((0, 1), (0,))] * 4 for i in range(3)}
        )
        assert schedule.k == 4


class TestAvgHopCount:
    def test_empty(self):
        assert avg_hop_count(_schedule_with({0: []})) == 0.0

    def test_mean(self):
        schedule = _schedule_with(
            {0: [((0, 1, 2), (0, 1)), ((0, 3, 4, 5, 2), (2, 3, 4, 5))]}
        )
        assert avg_hop_count(schedule) == 3.0

    def test_single_hop(self):
        assert avg_hop_count(_schedule_with({0: [((0, 1), (0,))]})) == 1.0


class TestDepletionRatio:
    def test_no_allocations(self):
        net = PhysicalNetwork(
            (QuantumNode(0, 5), QuantumNode(1, 5)), (PhysicalLink(0, 1, 1.0),)
        )
        assert qubit_depletion_ratio(_schedule_with({0: []}), net) == 0.0

    def test_two_hop_path_on_capacity_twenty(self):
        nodes = tuple(QuantumNode(i, 5) for i in range(4))
        net = PhysicalNetwork(
            nodes, (PhysicalLink(0, 1, 1.0), PhysicalLink(1, 2, 1.0))
        )
        schedule = _schedule_with({0: [((0, 1, 2), (0, 1))]})
        assert qubit_depletion_ratio(schedule, net) == pytest.approx(0.2)

    def test_saturated_generation_consumes_all_entangled_qubits(self):
        # p_s = 1: every slot pair becomes a link; allocate everything via a
        # chain of single demands and compare against 2|L_e| / C_N.
        net = generate_topology(12, 7.44, 2, RngStream(13))
        g = generate_entanglement(net, 0.0, RngStream(14))
        schedule = RoutingSchedule((0,))
        for link in g.links:
            schedule.paths.setdefault(0, []).append(
                Path(0, (link.u, link.v), (link.id,))
            )
        expected = Fraction(2 * g.edge_count, net.total_capacity())
        assert qubit_depletion_ratio(schedule, net) == pytest.approx(float(expected))
        assert qubit_depletion_ratio(schedule, net) <= 1.0

    def test_zero_capacity_rejected(self):
        net = PhysicalNetwork((), ())
        with pytest.raises(InvalidParameterError):
            qubit_depletion_ratio(_schedule_with({0: []}), net)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_consumption_accounting_property(seed):
    rng = RngStream(seed)
    n = rng.randint(5, 30)
    net = generate_topology(n, 7.44, 4, rng.substream(0))
    g = generate_entanglement(net, 0.03, rng.substream(1))
    demands = (Demand(0, 0, n - 1), Demand(1, 1, n - 2))
    schedule = smpsa_schedule(g, demands)
    report = compute_metrics(schedule, net)
    total_hops = sum(p.hop_count for ps in schedule.paths.values() for p in ps)
    assert report.depletion_ratio == 2 * total_hops / net.total_capacity()
    assert 0.0 <= report.depletion_ratio <= 1.0
    assert report.k == min(len(schedule.paths[d.id]) for d in demands)
    assert report.k == 0 or all(len(schedule.paths[d.id]) > 0 for d in demands)
