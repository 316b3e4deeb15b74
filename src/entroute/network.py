"""Domain types: physical quantum networks and entangled multigraphs.

A physical network is a simple undirected graph of qubit-capacitated nodes.
Entanglement generation turns it into an entangled multigraph whose
unit-weight edges are individual Bell pairs; parallel edges between the same
node pair are allowed and consume one qubit at each endpoint.

All types are treated as immutable after construction, with one exception:
``EntangledGraph.allocated``, one flag per link id, flips when a routing
path claims the link. ``EntangledGraph.copy`` gives each scheduler run its
own flags over the shared links and adjacency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InvalidParameterError


@dataclass(frozen=True, slots=True)
class QuantumNode:
    id: int
    capacity: int

    def __post_init__(self):
        if self.capacity < 1:
            raise InvalidParameterError(
                f"node {self.id}: capacity must be >= 1, got {self.capacity}"
            )


@dataclass(frozen=True, slots=True)
class PhysicalLink:
    """Fiber link between two distinct nodes; endpoints stored as u < v."""

    u: int
    v: int
    distance_km: float

    def __post_init__(self):
        if self.u == self.v:
            raise InvalidParameterError(f"self-loop at node {self.u}")
        if self.distance_km <= 0:
            raise InvalidParameterError(
                f"link ({self.u},{self.v}): distance must be positive"
            )
        if self.u > self.v:
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)


@dataclass(slots=True)
class PhysicalNetwork:
    nodes: tuple[QuantumNode, ...]
    links: tuple[PhysicalLink, ...]

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.links = tuple(self.links)
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise InvalidParameterError("node ids must be contiguous 0..N-1")
        seen_pairs = set()
        for link in self.links:
            if link.u >= len(ids) or link.v >= len(ids):
                raise InvalidParameterError(
                    f"link ({link.u},{link.v}) references unknown node"
                )
            pair = (link.u, link.v)
            if pair in seen_pairs:
                raise InvalidParameterError(f"duplicate physical link {pair}")
            seen_pairs.add(pair)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def capacity_of(self, node_id: int) -> int:
        return self.nodes[node_id].capacity

    def total_capacity(self) -> int:
        return sum(n.capacity for n in self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": n.id, "capacity": n.capacity} for n in self.nodes],
            "links": [
                {"u": l.u, "v": l.v, "distance_km": l.distance_km}
                for l in self.links
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass(slots=True)
class EntangledLink:
    """One generated Bell pair; unit edge weight, one qubit per endpoint."""

    id: int
    u: int
    v: int
    physical_distance_km: float

    def __post_init__(self):
        if self.u > self.v:
            self.u, self.v = self.v, self.u
        if self.u == self.v:
            raise InvalidParameterError(f"entangled self-loop at node {self.u}")


@dataclass(slots=True)
class EntangledGraph:
    """Multigraph of entangled links over the nodes of a physical network.

    The nodes are those of ``physical``. Link ids are contiguous 0..E-1 and
    double as indices into ``links`` and ``allocated``, whose flag is set
    once a routing path claims the link. Adjacency is sorted by (neighbor,
    link id) so traversals are deterministic.
    """

    links: tuple[EntangledLink, ...]
    physical: PhysicalNetwork
    allocated: list[bool] = field(init=False, repr=False)
    _adjacency: list[list[tuple[int, int]]] = field(init=False, repr=False)

    def __post_init__(self):
        self.links = tuple(self.links)
        self.allocated = [False] * len(self.links)
        for index, link in enumerate(self.links):
            if link.id != index:
                raise InvalidParameterError(
                    f"entangled link ids must be contiguous, got {link.id} at {index}"
                )
        node_count = len(self.physical.nodes)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        for link in self.links:
            if link.u >= node_count or link.v >= node_count:
                raise InvalidParameterError(
                    f"entangled link ({link.u},{link.v}) references unknown node"
                )
            adjacency[link.u].append((link.v, link.id))
            adjacency[link.v].append((link.u, link.id))
        for entries in adjacency:
            entries.sort()
        self._adjacency = adjacency

    @property
    def nodes(self) -> tuple[QuantumNode, ...]:
        return self.physical.nodes

    @property
    def node_count(self) -> int:
        return len(self.physical.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.links)

    def incident(self, node_id: int) -> list[tuple[int, int]]:
        """(neighbor, link id) pairs, including allocated links."""
        return self._adjacency[node_id]

    def entangled_degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def capacity_of(self, node_id: int) -> int:
        return self.physical.capacity_of(node_id)

    def copy(self) -> "EntangledGraph":
        """Copy with its own allocation flags; everything else is shared."""
        clone = EntangledGraph.__new__(EntangledGraph)
        clone.links = self.links
        clone.physical = self.physical
        clone.allocated = self.allocated.copy()
        clone._adjacency = self._adjacency
        return clone

    def to_json_dict(self) -> dict:
        base = self.physical.to_json_dict()
        base["entangled"] = [{"id": l.id, "u": l.u, "v": l.v} for l in self.links]
        return base

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class Demand:
    """A source-destination pair requesting entangled paths."""

    id: int
    src: int
    dst: int

    def __post_init__(self):
        if self.src == self.dst:
            raise InvalidParameterError(
                f"demand {self.id}: src and dst must differ, got {self.src}"
            )
