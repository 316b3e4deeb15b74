from __future__ import annotations

import pytest

from entroute.network import (
    EntangledGraph,
    EntangledLink,
    PhysicalLink,
    PhysicalNetwork,
    QuantumNode,
)


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
    nodes = tuple(QuantumNode(i, capacities[i]) for i in range(node_count))

    seen_pairs = []
    for u, v in edges:
        pair = (min(u, v), max(u, v))
        if pair not in seen_pairs:
            seen_pairs.append(pair)
    plinks = tuple(
        PhysicalLink(u, v, distances.get((u, v), 1.0)) for u, v in seen_pairs
    )
    net = PhysicalNetwork(nodes, plinks)

    elinks = []
    for i, (u, v) in enumerate(edges):
        pair = (min(u, v), max(u, v))
        elinks.append(EntangledLink(i, u, v, distances.get(pair, 1.0)))
    return EntangledGraph(elinks, net)


@pytest.fixture
def four_cycle() -> EntangledGraph:
    """s=0, t=1 joined through a=2 and b=3: two edge-disjoint 2-hop routes."""
    return build_graph(4, [(0, 2), (2, 1), (0, 3), (3, 1)])
