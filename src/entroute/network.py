"""Domain types: physical quantum networks and entangled multigraphs.

A physical network is a simple undirected graph over nodes 0..N-1, and node
``i`` is nothing but its qubit capacity, ``PhysicalNetwork.nodes[i]``.
Entanglement generation turns it into an entangled multigraph whose
unit-weight edges are individual Bell pairs; parallel edges between the same
node pair are allowed and consume one qubit at each endpoint. Each Bell pair
is generated over one fiber, so the multigraph stores it as that fiber's own
``PhysicalLink``: entangled link ``i`` is ``links[i]``, with the fiber's
endpoints and distance.

Links are ``NamedTuple`` records that ``PhysicalNetwork`` checks in one loop
and stores with int endpoints, ``u < v`` and a float distance; a record
already in that form, as every generated one is, is kept as the same
object. Records and both graph types are immutable, and graphs hold
the node capacities, links and entangled adjacency in tuples. The one
mutable state is ``EntangledGraph.allocated``, a list of one flag per link
id that flips in place when a routing path claims the link;
``EntangledGraph.copy`` gives each scheduler run its own flags. Since
nothing that ``to_json`` writes can change, an entangled graph builds its
JSON text once. For the same reason a network keeps what entanglement
generation derives from it alone, set by the first run: its slot pairing
and, once a run has had every attempt succeed, that full multigraph. The
full multigraph and its copies share one dict of the min cuts that
``routing.st_min_cut`` computes on them from the zero flow. These memos
take no part in ``repr``, ``==`` or ``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

from .errors import InvalidParameterError, require_finite, require_integer


class PhysicalLink(NamedTuple):
    """Fiber link between two distinct nodes; a network stores it with u < v."""

    u: int
    v: int
    distance_km: float


@dataclass(frozen=True, slots=True)
class PhysicalNetwork:
    """Fiber links over nodes ``0..N-1``; ``nodes[i]`` is node i's qubit capacity, an int >= 1."""

    nodes: tuple[int, ...]
    links: tuple[PhysicalLink, ...]
    # Set by entanglement generation: the attempts per link of the slot
    # pairing, and the graph of a run in which every attempt succeeded.
    _slot_pairs: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _full_graph: EntangledGraph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        # The exact type test spares generated capacities the slower full check.
        if not all([type(c) is int for c in nodes]):
            nodes = tuple([require_integer(f"node {i}: capacity", c) for i, c in enumerate(nodes)])
        for i, c in enumerate(nodes):
            if c < 1:
                raise InvalidParameterError(f"node {i}: capacity must be >= 1, got {c}")
        object.__setattr__(self, "nodes", nodes)
        links = []
        seen_pairs = set()
        for link in self.links:
            try:
                u, v, distance = link
            except (TypeError, ValueError):  # links holds every earlier entry
                raise InvalidParameterError(f"link {len(links)} is not (u, v, distance): {link!r}") from None
            # The exact type test spares generated links the slower full check.
            if not (type(u) is int and type(v) is int and type(distance) is float):
                u = require_integer("link endpoint", u)
                v = require_integer("link endpoint", v)
                distance = require_finite("link distance", distance)
                link = None  # not canonical: rebuilt below
            if u == v:
                raise InvalidParameterError(f"self-loop at node {u}")
            if not 0 < distance < inf:
                raise InvalidParameterError(
                    f"link ({u},{v}): distance must be positive and finite, got {distance}"
                )
            if u > v:
                u, v = v, u
                link = None
            if u < 0 or v >= len(nodes):
                raise InvalidParameterError(f"link ({u},{v}) references unknown node")
            pair = (u, v)
            if pair in seen_pairs:
                raise InvalidParameterError(f"duplicate physical link {pair}")
            seen_pairs.add(pair)
            if type(link) is not PhysicalLink:
                link = PhysicalLink(u, v, distance)
            links.append(link)
        object.__setattr__(self, "links", tuple(links))

    def _json_members(self) -> str:
        """``"nodes":[...],"links":[...]``, the members both graphs share."""
        nodes = ",".join(
            [f'{{"id":{i},"capacity":{c}}}' for i, c in enumerate(self.nodes)]
        )
        links = ",".join(
            [f'{{"u":{l.u},"v":{l.v},"distance_km":{l.distance_km!r}}}' for l in self.links]
        )
        return f'"nodes":[{nodes}],"links":[{links}]'

    def to_json(self) -> str:
        """Compact JSON, byte for byte what ``json.dumps`` would write."""
        return f"{{{self._json_members()}}}"


@dataclass(frozen=True, slots=True)
class EntangledGraph:
    """Multigraph of Bell pairs over the nodes of a physical network.

    ``links`` holds one entry per Bell pair: the ``PhysicalLink`` object of
    ``physical`` it was generated over, repeated once per pair. A link's id
    is its index into ``links`` and ``allocated``, whose flag is set in
    place once a routing path claims the link. ``adjacency[x]`` holds node
    x's sorted ``(neighbor, link id)`` entries, allocated links included.
    """

    links: tuple[PhysicalLink, ...]
    physical: PhysicalNetwork
    allocated: list[bool] = field(init=False, repr=False)
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)
    # The text of to_json(), built by its first call.
    _json: str | None = field(default=None, init=False, repr=False, compare=False)
    # A network's full multigraph and its copies share one memo of min cuts
    # from the zero flow, (src, dst) -> (value, link ids, units), that
    # routing.st_min_cut fills; every other graph holds None.
    _cuts: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "allocated", [False] * len(links))
        # Identity, not equality: value hashing of the frozen links is slow,
        # and an equal copy is not a fiber of this network.
        fibers = {id(link) for link in self.physical.links}
        adjacency: list[list[tuple[int, int]]] = [
            [] for _ in range(len(self.physical.nodes))
        ]
        for index, link in enumerate(links):
            if id(link) not in fibers:
                raise InvalidParameterError(
                    f"entangled link {index} ({link.u},{link.v}) is not a"
                    " link of the physical network"
                )
            adjacency[link.u].append((link.v, index))
            adjacency[link.v].append((link.u, index))
        object.__setattr__(
            self, "adjacency", tuple([tuple(sorted(entries)) for entries in adjacency])
        )

    @property
    def node_count(self) -> int:
        return len(self.physical.nodes)

    def copy(self) -> "EntangledGraph":
        """Copy with its own allocation flags; everything else is shared."""
        clone = EntangledGraph.__new__(EntangledGraph)
        setattr_ = object.__setattr__
        setattr_(clone, "links", self.links)
        setattr_(clone, "physical", self.physical)
        setattr_(clone, "allocated", self.allocated.copy())
        setattr_(clone, "adjacency", self.adjacency)
        setattr_(clone, "_json", self._json)
        setattr_(clone, "_cuts", self._cuts)
        return clone

    def to_json(self) -> str:
        """The physical network's JSON plus ``"entangled"``; flags are left out.

        The text is built on the first call and returned by later ones.
        """
        text = self._json
        if text is None:
            entangled = ",".join(
                [f'{{"id":{i},"u":{l.u},"v":{l.v}}}' for i, l in enumerate(self.links)]
            )
            text = f'{{{self.physical._json_members()},"entangled":[{entangled}]}}'
            object.__setattr__(self, "_json", text)
        return text

