import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from entroute.errors import InvalidParameterError
from entroute.generation import generate_entanglement, generate_grid, generate_topology
from entroute.harness import _instance, load_config
from entroute.network import (
    EntangledGraph,
    PhysicalLink,
    PhysicalNetwork,
)
from entroute.rng import RngStream

from conftest import build_graph
from oracles import graph_to_json_reference


def test_node_capacity_must_be_positive():
    with pytest.raises(InvalidParameterError, match="node 0: capacity must be >= 1, got 0"):
        PhysicalNetwork((0,), ())
    with pytest.raises(InvalidParameterError, match="node 2: capacity must be >= 1, got -1"):
        PhysicalNetwork((2, 1, -1), ())


@pytest.mark.parametrize("capacity", [1.5, 2.0, math.nan, True])
def test_node_capacity_must_be_an_integer(capacity):
    with pytest.raises(InvalidParameterError, match="node 1: capacity must be an integer"):
        PhysicalNetwork((2, capacity), ())


def test_node_capacity_accepts_numpy_integers():
    net = PhysicalNetwork([np.int32(3), 2, np.int64(1)], ())
    assert net.nodes == (3, 2, 1)
    assert all(type(capacity) is int for capacity in net.nodes)
    assert net.to_json() == graph_to_json_reference(net)


def _network_of(*links):
    """The network checks and canonicalizes its links; six nodes of capacity 1."""
    return PhysicalNetwork((1,) * 6, links)


def test_link_normalizes_endpoints():
    reversed_link = PhysicalLink(5, 2, 1.0)
    net = _network_of(reversed_link)
    assert net.links[0] == (2, 5, 1.0)
    assert type(net.links[0]) is PhysicalLink
    assert reversed_link == (5, 2, 1.0)
    assert net.to_json() == graph_to_json_reference(net)


def test_link_rejects_self_loop_and_bad_distance():
    with pytest.raises(InvalidParameterError, match="self-loop at node 1"):
        _network_of(PhysicalLink(1, 1, 1.0))
    with pytest.raises(InvalidParameterError, match=r"link \(0,1\): distance"):
        _network_of(PhysicalLink(0, 1, 0.0))


@pytest.mark.parametrize("distance", [0.0, -3.0, math.nan, math.inf, -math.inf])
def test_link_rejects_non_finite_or_non_positive_distance(distance):
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        _network_of(PhysicalLink(0, 1, 1.0), PhysicalLink(0, 2, distance))


@pytest.mark.parametrize(
    "u, v", [(0.5, 1), (0, 1.0), (True, 2), (0, "1"), (None, 1)]
)
def test_link_rejects_non_integer_endpoints(u, v):
    with pytest.raises(InvalidParameterError, match="link endpoint must be an integer"):
        _network_of(PhysicalLink(u, v, 1.0))


@pytest.mark.parametrize("distance", ["1", None, True, np.float64(math.nan)])
def test_link_rejects_non_numeric_distance(distance):
    with pytest.raises(InvalidParameterError, match="link distance must be"):
        _network_of(PhysicalLink(0, 1, distance))


def test_link_accepts_numpy_endpoints_and_integer_distance():
    net = _network_of(PhysicalLink(np.int64(3), np.int32(1), 2))
    link = net.links[0]
    assert (link.u, link.v, link.distance_km) == (1, 3, 2)
    assert type(link) is PhysicalLink
    assert type(link.u) is int and type(link.v) is int
    assert type(link.distance_km) is float
    assert net.to_json() == graph_to_json_reference(net)


def test_canonical_links_are_stored_as_they_are():
    # Every generated link is canonical, so EntangledGraph's identity check
    # finds the generator's own records in the network. A canonical record
    # has int endpoints, u < v and a float distance.
    canonical = (PhysicalLink(0, 1, 1.0), PhysicalLink(2, 5, 3.0), PhysicalLink(1, 4, 2.5))
    others = (
        PhysicalLink(np.int64(0), 3, 1.0),
        PhysicalLink(5, 1, 1.0),
        PhysicalLink(2, 4, 3),
        PhysicalLink(3, 5, np.float64(2.5)),
        (0, 2, 1.5),
    )
    net = _network_of(*canonical, *others)
    assert all(stored is link for stored, link in zip(net.links, canonical))
    assert not any(stored is link for stored, link in zip(net.links[3:], others))
    assert net.links[3:] == ((0, 3, 1.0), (1, 5, 1.0), (2, 4, 3.0), (3, 5, 2.5), (0, 2, 1.5))
    assert all(type(l) is PhysicalLink and type(l.distance_km) is float for l in net.links)
    graph = EntangledGraph([net.links[4], net.links[1], net.links[3], net.links[6]], net)
    assert graph.to_json() == graph_to_json_reference(graph)
    with pytest.raises(InvalidParameterError, match="not a link of the physical"):
        EntangledGraph([PhysicalLink(5, 1, 1.0)], net)


def test_link_checks_run_in_link_order():
    # Each link passes every check before the next is looked at.
    with pytest.raises(InvalidParameterError, match="references unknown node"):
        _network_of(PhysicalLink(0, 6, 1.0), PhysicalLink(1, 1, 1.0))
    with pytest.raises(InvalidParameterError, match=r"duplicate physical link \(1, 2\)"):
        _network_of(PhysicalLink(1, 2, 1.0), PhysicalLink(2, 1, 1.0), PhysicalLink(3, 3, 1.0))


@pytest.mark.parametrize("entry", [(0, 1), 5, (0, 1, 1.0, 2), None])
def test_network_rejects_a_link_that_is_not_a_triple(entry):
    with pytest.raises(InvalidParameterError, match=r"^link 0 is not \(u, v, distance\)"):
        PhysicalNetwork((1, 1), (entry,))
    # The message names the entry's index.
    with pytest.raises(InvalidParameterError, match=r"^link 1 is not"):
        PhysicalNetwork((1, 1, 1), (PhysicalLink(0, 1, 1.0), entry))


def test_network_stores_a_link_given_as_a_one_shot_iterator():
    # The entry is unpacked once and never indexed.
    net = PhysicalNetwork((1, 1), [iter((0, 1, 1.0))])
    assert net.links == (PhysicalLink(0, 1, 1.0),)
    assert type(net.links[0]) is PhysicalLink
    net = PhysicalNetwork((1, 1), [iter((1, np.int64(0), 2))])
    assert net.links == ((0, 1, 2),) and type(net.links[0].u) is int


def test_network_rejects_duplicate_pair():
    nodes = (1, 1)
    with pytest.raises(InvalidParameterError):
        PhysicalNetwork(nodes, (PhysicalLink(0, 1, 1.0), PhysicalLink(1, 0, 2.0)))


def test_network_rejects_dangling_link():
    nodes = (1, 1)
    with pytest.raises(InvalidParameterError):
        PhysicalNetwork(nodes, (PhysicalLink(0, 5, 1.0),))


def test_network_rejects_negative_node_id():
    nodes = (1, 1)
    with pytest.raises(InvalidParameterError, match="unknown node"):
        PhysicalNetwork(nodes, (PhysicalLink(-1, 1, 1.0),))


@pytest.mark.parametrize(
    "stray",
    [PhysicalLink(-1, 1, 1.0), PhysicalLink(0, 2, 1.0), PhysicalLink(0, 1, 1.0)],
    ids=["negative_node", "no_fiber", "equal_copy"],
)
def test_entangled_graph_rejects_links_that_are_not_fibers(stray):
    nodes = (1, 1, 1)
    net = PhysicalNetwork(nodes, (PhysicalLink(0, 1, 1.0),))
    with pytest.raises(InvalidParameterError, match="not a link of the physical"):
        EntangledGraph([net.links[0], stray], net)


def test_serialization_schema():
    nodes = (3, 2)
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
            np.float32(0.1),
            Fraction(1, 3),
            2**60 + 1,
        ],
    )
    def test_hand_built_distances(self, distance):
        # The network stores a float for any real distance, so the entangled
        # links are taken from its records, not from the ones given.
        net = PhysicalNetwork((3, 2, 1), (PhysicalLink(0, 1, distance), PhysicalLink(1, 2, 2.5)))
        assert type(net.links[0].distance_km) is float
        graph = EntangledGraph([net.links[0], net.links[0]], net)
        assert json.loads(graph.to_json())["links"][0]["distance_km"] == float(distance)
        self.assert_matches(graph)


def _seed42_sweep_nodes_graph():
    # The graph of sweep_nodes' largest size (n = 250, axis index 4) on the
    # fig5c preset's master seed 42, iteration 0.
    config = replace(load_config("fig5c"), node_count=250)
    return _instance(config, 0, 4)[1]


def _hand_built_graph():
    nodes = (3, 2, 1)
    plinks = (PhysicalLink(0, 1, 0.1 + 0.2), PhysicalLink(1, 2, 2.5))
    net = PhysicalNetwork(nodes, plinks)
    return EntangledGraph([plinks[1], plinks[0], plinks[0]], net)


@pytest.mark.parametrize(
    "make", [_seed42_sweep_nodes_graph, _hand_built_graph], ids=["seed42_n250", "hand_built"]
)
def test_to_json_is_built_once_and_stays_exact(make):
    graph = make()
    early = graph.copy()
    reference = graph_to_json_reference(graph)
    first = graph.to_json()
    assert first == reference
    assert graph.to_json() is first
    late = graph.copy()
    assert late.to_json() is first
    assert early.to_json() == reference
    for clone in (early, late):
        for link_id in range(0, len(clone.links), 2):
            clone.allocated[link_id] = True
        assert clone.to_json() == reference
    assert graph.to_json() == reference
    assert not any(graph.allocated)
