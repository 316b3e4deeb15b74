"""Domain types: physical quantum networks and entangled multigraphs.

A physical network is a simple undirected graph of qubit-capacitated nodes.
Entanglement generation turns it into an entangled multigraph whose
unit-weight edges are individual Bell pairs; parallel edges between the same
node pair are allowed and consume one qubit at each endpoint. Each Bell pair
is generated over one fiber, so the multigraph stores it as that fiber's own
``PhysicalLink``: entangled link ``i`` is ``links[i]``, with the fiber's
endpoints and distance.

Nodes, links and demands are frozen, and graphs hold them and the entangled
adjacency in tuples. The one mutable field, ``EntangledGraph.allocated``,
holds one flag per link id that flips when a routing path claims the link;
``EntangledGraph.copy`` gives each scheduler run its own flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .errors import InvalidParameterError, require_finite, require_integer


@dataclass(frozen=True, slots=True)
class QuantumNode:
    id: int
    capacity: int

    def __post_init__(self):
        # The exact type test spares generated nodes the slower full check.
        if type(self.capacity) is not int:
            require_integer(f"node {self.id}: capacity", self.capacity)
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
        # The exact type test spares generated links the slower full check.
        if not (type(self.u) is int and type(self.v) is int and type(self.distance_km) is float):
            require_integer("link endpoint", self.u)
            require_integer("link endpoint", self.v)
            require_finite("link distance", self.distance_km)
        if self.u == self.v:
            raise InvalidParameterError(f"self-loop at node {self.u}")
        if not 0 < self.distance_km < inf:
            raise InvalidParameterError(
                f"link ({self.u},{self.v}): distance must be positive and finite,"
                f" got {self.distance_km}"
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
            # Endpoints are stored as u < v, so these two bounds cover both.
            if link.u < 0 or link.v >= len(ids):
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

    def _json_members(self) -> str:
        """``"nodes":[...],"links":[...]``, the members both graphs share."""
        nodes = ",".join(
            [f'{{"id":{n.id},"capacity":{n.capacity}}}' for n in self.nodes]
        )
        # json.dumps writes any float, NumPy float64 included, with
        # float.__repr__ and an int with its plain digits.
        float_repr = float.__repr__
        links = ",".join(
            [
                f'{{"u":{l.u},"v":{l.v},"distance_km":'
                f"{float_repr(l.distance_km) if isinstance(l.distance_km, float) else l.distance_km}}}"
                for l in self.links
            ]
        )
        return f'"nodes":[{nodes}],"links":[{links}]'

    def to_json(self) -> str:
        """Compact JSON, byte for byte what ``json.dumps`` would write."""
        return f"{{{self._json_members()}}}"


@dataclass(slots=True)
class EntangledGraph:
    """Multigraph of Bell pairs over the nodes of a physical network.

    ``links`` holds one entry per Bell pair: the ``PhysicalLink`` object of
    ``physical`` it was generated over, repeated once per pair. A link's id
    is its index into ``links`` and ``allocated``, whose flag is set once a
    routing path claims the link. ``adjacency[x]`` holds node x's sorted
    ``(neighbor, link id)`` entries, allocated links included.
    """

    links: tuple[PhysicalLink, ...]
    physical: PhysicalNetwork
    allocated: list[bool] = field(init=False, repr=False)
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.links = tuple(self.links)
        self.allocated = [False] * len(self.links)
        # Identity, not equality: value hashing of the frozen links is slow,
        # and an equal copy is not a fiber of this network.
        fibers = {id(link) for link in self.physical.links}
        adjacency: list[list[tuple[int, int]]] = [
            [] for _ in range(len(self.physical.nodes))
        ]
        for index, link in enumerate(self.links):
            if id(link) not in fibers:
                raise InvalidParameterError(
                    f"entangled link {index} ({link.u},{link.v}) is not a"
                    " link of the physical network"
                )
            adjacency[link.u].append((link.v, index))
            adjacency[link.v].append((link.u, index))
        self.adjacency = tuple([tuple(sorted(entries)) for entries in adjacency])

    @property
    def node_count(self) -> int:
        return len(self.physical.nodes)

    def capacity_of(self, node_id: int) -> int:
        return self.physical.capacity_of(node_id)

    def copy(self) -> "EntangledGraph":
        """Copy with its own allocation flags; everything else is shared."""
        clone = EntangledGraph.__new__(EntangledGraph)
        clone.links = self.links
        clone.physical = self.physical
        clone.allocated = self.allocated.copy()
        clone.adjacency = self.adjacency
        return clone

    def to_json(self) -> str:
        """The physical network's JSON plus ``"entangled"``; flags are left out."""
        entangled = ",".join(
            [f'{{"id":{i},"u":{l.u},"v":{l.v}}}' for i, l in enumerate(self.links)]
        )
        return f'{{{self.physical._json_members()},"entangled":[{entangled}]}}'


@dataclass(frozen=True, slots=True)
class Demand:
    """A source-destination pair requesting entangled paths."""

    id: int
    src: int
    dst: int

    def __post_init__(self):
        # The exact type test spares sampled demands the slower full check.
        if not (type(self.id) is int and type(self.src) is int and type(self.dst) is int):
            require_integer("demand id", self.id)
            require_integer(f"demand {self.id}: src", self.src)
            require_integer(f"demand {self.id}: dst", self.dst)
        if self.src == self.dst:
            raise InvalidParameterError(
                f"demand {self.id}: src and dst must differ, got {self.src}"
            )
