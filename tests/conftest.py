from __future__ import annotations

import pytest

from entroute.network import EntangledGraph, PhysicalLink, PhysicalNetwork


def build_graph(
    node_count: int,
    edges: list[tuple[int, int]],
    capacities: list[int] | None = None,
    distances: dict[tuple[int, int], float] | None = None,
) -> EntangledGraph:
    """Hand-built entangled multigraph for routing tests.

    ``edges`` may repeat a pair to create parallel entangled links; the
    physical network gets one link per distinct pair.  Capacities default to
    each node's entangled degree so capacity-derived budgets never bind
    unless a test overrides them.
    """
    distances = distances or {}
    degree = [0] * node_count
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if capacities is None:
        capacities = [max(1, d) for d in degree]

    distance_of: dict[tuple[int, int], float] = {}
    for u, v in edges:
        pair = (min(u, v), max(u, v))
        distance_of.setdefault(pair, distances.get(pair, 1.0))
    net = PhysicalNetwork(
        tuple(capacities), tuple(PhysicalLink(u, v, d) for (u, v), d in distance_of.items())
    )
    # Entangled links are the network's own records, as the generator's are.
    link_of = dict(zip(distance_of, net.links))
    return EntangledGraph([link_of[min(u, v), max(u, v)] for u, v in edges], net)


@pytest.fixture
def four_cycle() -> EntangledGraph:
    """s=0, t=1 joined through a=2 and b=3: two edge-disjoint 2-hop routes."""
    return build_graph(4, [(0, 2), (2, 1), (0, 3), (3, 1)])
