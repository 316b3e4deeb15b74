import json

import pytest

from entroute.errors import InvalidParameterError
from entroute.network import (
    Demand,
    EntangledGraph,
    EntangledLink,
    PhysicalLink,
    PhysicalNetwork,
    QuantumNode,
)

from conftest import build_graph


def test_node_capacity_must_be_positive():
    with pytest.raises(InvalidParameterError):
        QuantumNode(0, 0)


def test_link_normalizes_endpoints():
    link = PhysicalLink(5, 2, 1.0)
    assert (link.u, link.v) == (2, 5)


def test_link_rejects_self_loop_and_bad_distance():
    with pytest.raises(InvalidParameterError):
        PhysicalLink(1, 1, 1.0)
    with pytest.raises(InvalidParameterError):
        PhysicalLink(0, 1, 0.0)


def test_network_rejects_duplicate_pair():
    nodes = (QuantumNode(0, 1), QuantumNode(1, 1))
    with pytest.raises(InvalidParameterError):
        PhysicalNetwork(nodes, (PhysicalLink(0, 1, 1.0), PhysicalLink(1, 0, 2.0)))


def test_network_rejects_noncontiguous_ids():
    with pytest.raises(InvalidParameterError):
        PhysicalNetwork((QuantumNode(0, 1), QuantumNode(2, 1)), ())


def test_network_rejects_dangling_link():
    nodes = (QuantumNode(0, 1), QuantumNode(1, 1))
    with pytest.raises(InvalidParameterError):
        PhysicalNetwork(nodes, (PhysicalLink(0, 5, 1.0),))


def test_demand_rejects_equal_endpoints():
    with pytest.raises(InvalidParameterError):
        Demand(0, 3, 3)


def test_serialization_schema():
    nodes = (QuantumNode(0, 3), QuantumNode(1, 2))
    net = PhysicalNetwork(nodes, (PhysicalLink(0, 1, 7.44),))
    assert net.to_json() == (
        '{"nodes":[{"id":0,"capacity":3},{"id":1,"capacity":2}],'
        '"links":[{"u":0,"v":1,"distance_km":7.44}]}'
    )
    g = EntangledGraph([EntangledLink(0, 0, 1, 7.44)], net)
    data = json.loads(g.to_json())
    assert list(data.keys()) == ["nodes", "links", "entangled"]
    assert data["entangled"] == [{"id": 0, "u": 0, "v": 1}]


def test_entangled_ids_ascending_required():
    nodes = (QuantumNode(0, 2), QuantumNode(1, 2))
    net = PhysicalNetwork(nodes, (PhysicalLink(0, 1, 1.0),))
    with pytest.raises(InvalidParameterError):
        EntangledGraph([EntangledLink(1, 0, 1, 1.0)], net)


def test_copy_isolates_allocation_flags():
    g = build_graph(2, [(0, 1), (0, 1)])
    clone = g.copy()
    clone.allocated[0] = True
    assert g.allocated == [False, False]
    assert clone.allocated == [True, False]
    assert clone.links is g.links
    assert clone.incident(0) == g.incident(0)


def test_multigraph_adjacency_sorted():
    g = build_graph(3, [(0, 2), (0, 1), (0, 1)])
    assert g.incident(0) == [(1, 1), (1, 2), (2, 0)]
    assert g.entangled_degree(0) == 3
