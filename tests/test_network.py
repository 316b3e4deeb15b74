import json
import math
import sys

import numpy as np
import pytest

from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_grid, generate_topology
from entroute.network import (
    Demand,
    EntangledGraph,
    PhysicalLink,
    PhysicalNetwork,
    QuantumNode,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import graph_to_json_reference


def test_node_capacity_must_be_positive():
    with pytest.raises(InvalidParameterError):
        QuantumNode(0, 0)


@pytest.mark.parametrize("capacity", [1.5, 2.0, math.nan, True])
def test_node_capacity_must_be_an_integer(capacity):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        QuantumNode(0, capacity)


def test_node_capacity_accepts_numpy_integers():
    assert QuantumNode(0, np.int64(2)).capacity == 2


def test_link_normalizes_endpoints():
    link = PhysicalLink(5, 2, 1.0)
    assert (link.u, link.v) == (2, 5)


def test_link_rejects_self_loop_and_bad_distance():
    with pytest.raises(InvalidParameterError):
        PhysicalLink(1, 1, 1.0)
    with pytest.raises(InvalidParameterError):
        PhysicalLink(0, 1, 0.0)


@pytest.mark.parametrize("distance", [0.0, -3.0, math.nan, math.inf, -math.inf])
def test_link_rejects_non_finite_or_non_positive_distance(distance):
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        PhysicalLink(0, 1, distance)


@pytest.mark.parametrize(
    "u, v", [(0.5, 1), (0, 1.0), (True, 2), (0, "1"), (None, 1)]
)
def test_link_rejects_non_integer_endpoints(u, v):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        PhysicalLink(u, v, 1.0)


@pytest.mark.parametrize("distance", ["1", None, True, np.float64(math.nan)])
def test_link_rejects_non_numeric_distance(distance):
    with pytest.raises(InvalidParameterError, match="link distance must be"):
        PhysicalLink(0, 1, distance)


def test_link_accepts_numpy_endpoints_and_integer_distance():
    link = PhysicalLink(np.int64(3), np.int32(1), 2)
    assert (link.u, link.v, link.distance_km) == (1, 3, 2)


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


def test_network_rejects_negative_node_id():
    nodes = (QuantumNode(0, 1), QuantumNode(1, 1))
    with pytest.raises(InvalidParameterError, match="unknown node"):
        PhysicalNetwork(nodes, (PhysicalLink(-1, 1, 1.0),))


@pytest.mark.parametrize(
    "stray",
    [PhysicalLink(-1, 1, 1.0), PhysicalLink(0, 2, 1.0), PhysicalLink(0, 1, 1.0)],
    ids=["negative_node", "no_fiber", "equal_copy"],
)
def test_entangled_graph_rejects_links_that_are_not_fibers(stray):
    nodes = (QuantumNode(0, 1), QuantumNode(1, 1), QuantumNode(2, 1))
    net = PhysicalNetwork(nodes, (PhysicalLink(0, 1, 1.0),))
    with pytest.raises(InvalidParameterError, match="not a link of the physical"):
        EntangledGraph([net.links[0], stray], net)


def test_demand_rejects_equal_endpoints():
    with pytest.raises(InvalidParameterError):
        Demand(0, 3, 3)


@pytest.mark.parametrize(
    "fields", [(0, 1.5, 8), (0, 1, 8.0), (0.0, 1, 8), (True, 1, 8), (0, "1", 8)]
)
def test_demand_rejects_non_integer_ids_and_endpoints(fields):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        Demand(*fields)


def test_demand_accepts_numpy_integers():
    assert Demand(np.int64(0), np.int32(1), np.int64(8)).dst == 8


def test_serialization_schema():
    nodes = (QuantumNode(0, 3), QuantumNode(1, 2))
    net = PhysicalNetwork(nodes, (PhysicalLink(0, 1, 7.44),))
    assert net.to_json() == (
        '{"nodes":[{"id":0,"capacity":3},{"id":1,"capacity":2}],'
        '"links":[{"u":0,"v":1,"distance_km":7.44}]}'
    )
    g = EntangledGraph([net.links[0]], net)
    data = json.loads(g.to_json())
    assert list(data.keys()) == ["nodes", "links", "entangled"]
    assert data["entangled"] == [{"id": 0, "u": 0, "v": 1}]


def test_copy_isolates_allocation_flags():
    g = build_graph(2, [(0, 1), (0, 1)])
    clone = g.copy()
    clone.allocated[0] = True
    assert g.allocated == [False, False]
    assert clone.allocated == [True, False]
    assert clone.links is g.links
    assert clone.adjacency is g.adjacency


def test_multigraph_adjacency_sorted():
    g = build_graph(3, [(0, 2), (0, 1), (0, 1)])
    assert g.adjacency == (((1, 1), (1, 2), (2, 0)), ((0, 1), (0, 2)), ((0, 0),))


class TestSerializerOracle:
    """Both ``to_json`` serializers against the dict-plus-``json.dumps`` body."""

    @staticmethod
    def assert_matches(graph):
        assert graph.to_json() == graph_to_json_reference(graph)
        assert graph.physical.to_json() == graph_to_json_reference(graph.physical)

    @pytest.mark.parametrize("node_count", [50, 100, 150, 200, 250])
    @pytest.mark.parametrize("allocated_share", [0.0, 0.3])
    def test_generated_fig5c_graphs(self, node_count, allocated_share):
        net = generate_topology(node_count, 7.44, 9.09, RngStream(node_count))
        graph = generate_entanglement(net, 0.05, RngStream(node_count + 1))
        picks = RngStream(node_count + 2).sample(
            len(graph.links), round(allocated_share * len(graph.links))
        )
        for link_id in picks:
            graph.allocated[link_id] = True
        self.assert_matches(graph)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (7, 5)])
    def test_grids(self, rows, cols):
        net = generate_grid(rows, cols, 1.0, 4)
        self.assert_matches(generate_entanglement(net, 0.0, RngStream(rows * cols)))

    @pytest.mark.parametrize(
        "distance",
        [
            5e-324,
            1e-300,
            0.1 + 0.2,
            1e16,
            1e22,
            sys.float_info.max / 3,
            5,
            np.float64(7.44),
        ],
    )
    def test_hand_built_distances(self, distance):
        nodes = (QuantumNode(0, 3), QuantumNode(1, 2), QuantumNode(2, 1))
        plinks = (PhysicalLink(0, 1, distance), PhysicalLink(1, 2, 2.5))
        self.assert_matches(
            EntangledGraph([plinks[0], plinks[0]], PhysicalNetwork(nodes, plinks))
        )
