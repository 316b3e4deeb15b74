from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_topology
from entroute.metrics import compute_metrics
from entroute.network import PhysicalLink, PhysicalNetwork
from entroute.routing import Path, RoutingSchedule, smpsa_schedule
from entroute.rng import RngStream

from oracles import draw_int


def _schedule_with(path_specs):
    """RoutingSchedule stub: one [(nodes, edges), ...] list per demand, in demand order."""
    return RoutingSchedule(
        [[Path(nodes, edges) for nodes, edges in paths] for paths in path_specs]
    )


class TestComputeK:
    def test_min_of_counts(self):
        schedule = _schedule_with(
            [
                [((0, 1), (0,)), ((0, 2, 1), (1, 2))],
                [((3, 4), (3,)), ((3, 5), (4,)), ((3, 6), (5,))],
            ]
        )
        assert schedule.k == 2

    def test_zero_when_any_demand_empty(self):
        schedule = _schedule_with([[((0, 1), (0,))], []])
        assert schedule.k == 0

    def test_uniform_counts(self):
        schedule = _schedule_with(
            [[((0, 1), (0,))] * 4 for _ in range(3)]
        )
        assert schedule.k == 4

    def test_no_demands_rejected(self):
        # A min over no demands is undefined; the schedulers never build one.
        with pytest.raises(InvalidParameterError, match="no demands"):
            RoutingSchedule([]).k
        net = PhysicalNetwork((5, 5), (PhysicalLink(0, 1, 1.0),))
        # compute_metrics reads no k, so an empty schedule scores zero.
        assert compute_metrics(RoutingSchedule([]), net) == (0.0, 0.0)


def _avg_hop_count(schedule):
    # Each schedule here holds at most 7 hops, within the capacity of 14.
    net = PhysicalNetwork((7, 7), (PhysicalLink(0, 1, 1.0),))
    return compute_metrics(schedule, net)[0]


class TestAvgHopCount:
    def test_empty(self):
        assert _avg_hop_count(_schedule_with([[]])) == 0.0

    def test_mean(self):
        schedule = _schedule_with(
            [[((0, 1, 2), (0, 1)), ((0, 3, 4, 5, 2), (2, 3, 4, 5))]]
        )
        assert _avg_hop_count(schedule) == 3.0

    def test_single_hop(self):
        assert _avg_hop_count(_schedule_with([[((0, 1), (0,))]])) == 1.0


class TestDepletionRatio:
    def test_no_allocations(self):
        net = PhysicalNetwork((5, 5), (PhysicalLink(0, 1, 1.0),))
        assert compute_metrics(_schedule_with([[]]), net) == (0.0, 0.0)

    def test_two_hop_path_on_capacity_twenty(self):
        net = PhysicalNetwork((5,) * 4, (PhysicalLink(0, 1, 1.0), PhysicalLink(1, 2, 1.0)))
        schedule = _schedule_with([[((0, 1, 2), (0, 1))]])
        assert compute_metrics(schedule, net) == (2.0, pytest.approx(0.2))

    def test_saturated_generation_consumes_all_entangled_qubits(self):
        # p_s = 1: every slot pair becomes a link; allocate everything via a
        # chain of single demands and compare against 2|L_e| / C_N.
        net = generate_topology(12, 7.44, 2, RngStream(13))
        g = generate_entanglement(net, 0.0, RngStream(14))
        schedule = RoutingSchedule(
            [[Path((link.u, link.v), (lid,)) for lid, link in enumerate(g.links)]]
        )
        expected = Fraction(2 * len(g.links), sum(net.nodes))
        avg_hops, depletion = compute_metrics(schedule, net)
        assert avg_hops == 1.0
        assert depletion == pytest.approx(float(expected))
        assert depletion <= 1.0

    def test_zero_capacity_rejected(self):
        net = PhysicalNetwork((), ())
        with pytest.raises(InvalidParameterError, match="capacity must be positive"):
            compute_metrics(_schedule_with([[]]), net)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_consumption_accounting_property(seed):
    rng = RngStream(seed)
    n = draw_int(rng, 5, 30)
    net = generate_topology(n, 7.44, 4, rng.substream(0))
    g = generate_entanglement(net, 0.03, rng.substream(1))
    demands = ((0, n - 1), (1, n - 2))
    schedule = smpsa_schedule(g, demands)
    avg_hops, depletion = compute_metrics(schedule, net)
    total_hops = sum(p.hop_count for ps in schedule.paths for p in ps)
    total_paths = sum(len(ps) for ps in schedule.paths)
    assert avg_hops == (total_hops / total_paths if total_paths else 0.0)
    assert depletion == 2 * total_hops / sum(net.nodes)
    assert 0.0 <= depletion <= 1.0
    assert len(schedule.paths) == len(demands)
    assert schedule.k == min(len(ps) for ps in schedule.paths)
    assert schedule.k == 0 or all(len(ps) > 0 for ps in schedule.paths)
