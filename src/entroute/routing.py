"""Path search, s-t min-cut, and the four demand-scheduling algorithms.

All searches operate on the unallocated portion of an entangled multigraph,
reading ``g.allocated[lid]``. Scheduling never mutates the caller's graph:
each scheduler works on a ``copy()`` that has its own allocation flags and
records its paths in the returned schedule.

Determinism rules used throughout:
  * shortest paths break ties toward the lexicographically smallest node-id
    sequence, and toward the smallest link id among parallel edges;
  * equal path flexibilities resolve to the smallest demand id;
  * the randomized scheduler draws from substreams keyed by demand id.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field

from .errors import InvalidParameterError, InvariantViolationError
from .network import Demand, EntangledGraph
from .rng import RngStream


@dataclass(frozen=True, slots=True)
class Path:
    """A simple path of entangled links allocated to one demand."""

    demand_id: int
    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2 or len(self.edges) != len(self.nodes) - 1:
            raise InvalidParameterError(
                f"malformed path: {len(self.nodes)} nodes, {len(self.edges)} edges"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidParameterError(f"path repeats a node: {self.nodes}")

    @property
    def hop_count(self) -> int:
        return len(self.edges)


@dataclass(slots=True)
class CutResult:
    """A minimum s-t disconnecting set over unallocated entangled links."""

    demand_id: int
    cut_edge_ids: frozenset[int]
    flexibility: int


@dataclass(slots=True)
class RoutingSchedule:
    """Edge-disjoint path sets per demand and the traffic floor k they give."""

    demand_ids: tuple[int, ...]
    paths: dict[int, list[Path]] = field(default_factory=dict)
    allocation_sequence: list[int] = field(default_factory=list)

    def __post_init__(self):
        for did in self.demand_ids:
            self.paths.setdefault(did, [])

    @property
    def k(self) -> int:
        """Traffic flexibility: the fewest paths that any demand holds."""
        return min(len(self.paths[d]) for d in self.demand_ids)

    @property
    def total_paths(self) -> int:
        return sum(len(ps) for ps in self.paths.values())

    @property
    def total_hops(self) -> int:
        return sum(p.hop_count for ps in self.paths.values() for p in ps)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "demands": [
                {
                    "id": did,
                    "paths": [
                        {"nodes": list(p.nodes), "edges": list(p.edges)}
                        for p in self.paths[did]
                    ],
                }
                for did in self.demand_ids
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _check_endpoints(g: EntangledGraph, src: int, dst: int) -> None:
    if src == dst:
        raise InvalidParameterError(f"src and dst must differ, got {src}")
    n = g.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise InvalidParameterError(f"endpoint outside graph: src={src} dst={dst}")


def shortest_entangled_path(
    g: EntangledGraph, src: int, dst: int, demand_id: int = -1
) -> Path | None:
    """Minimum-hop simple path over unallocated links, or None if disconnected.

    Among all minimum-hop paths the lexicographically smallest node sequence
    is returned; parallel links resolve to the smallest link id.
    """
    _check_endpoints(g, src, dst)
    allocated = g.allocated

    # Hop distances to dst restricted to unallocated links.
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        x = queue.popleft()
        if x == src:
            break
        d_next = dist[x] + 1
        for y, lid in g.incident(x):
            if y not in dist and not allocated[lid]:
                dist[y] = d_next
                queue.append(y)
    if src not in dist:
        return None

    # Greedy descent: the smallest feasible next node is always extendable
    # to a minimum-hop completion, which yields the lexicographic minimum.
    nodes = [src]
    edges = []
    here = src
    while here != dst:
        step = None
        want = dist[here] - 1
        for y, lid in g.incident(here):
            if allocated[lid] or dist.get(y) != want:
                continue
            if step is None or (y, lid) < step:
                step = (y, lid)
        if step is None:  # unreachable given the BFS above
            raise InvariantViolationError("shortest-path descent lost its frontier")
        nodes.append(step[0])
        edges.append(step[1])
        here = step[0]
    return Path(demand_id, tuple(nodes), tuple(edges))


def _grow_layer(
    g: EntangledGraph,
    flow: list[int],
    front: list[int],
    tree: dict[int, tuple[int, int] | None],
    other: dict[int, tuple[int, int] | None],
    sign: int,
) -> tuple[list[int], tuple[int, int, int] | None]:
    """Grow a BFS tree over the residual graph by one full layer.

    ``sign`` is 1 for the tree rooted at src, which follows arcs
    ``here -> y``, and -1 for the tree rooted at dst, which follows arcs
    ``y -> here`` backwards. Links store ``u < v`` and ``flow`` is the net
    flow from u to v, so the arc ``here -> y`` is closed exactly when
    ``flow > 0`` for ``here < y`` and ``flow < 0`` for ``here > y``; negating
    the flow turns that into the test for the reverse arc.

    Stops at the first neighbor that already lies in ``other`` and returns
    the meeting arc ``(x, y, lid)``, with x in the src tree and y in the dst
    tree; otherwise returns the next frontier and None.
    """
    allocated = g.allocated
    incident = g.incident
    grown = []
    for here in front:
        for y, lid in incident(here):
            if y in tree or allocated[lid]:
                continue
            f = flow[lid] * sign
            if f > 0 if here < y else f < 0:
                continue
            if y in other:
                return grown, (here, y, lid) if sign > 0 else (y, here, lid)
            tree[y] = (here, lid)
            grown.append(y)
    return grown, None


def st_min_cut(
    g: EntangledGraph, src: int, dst: int, demand_id: int = -1
) -> CutResult:
    """Exact minimum s-t cut of the unallocated multigraph.

    A maximum flow on unit capacities, grown one augmenting path at a time;
    by Menger's theorem its value equals the cut size and the maximum number
    of edge-disjoint s-t paths. Each augmenting path comes from a
    bidirectional BFS over the residual graph that expands the smaller
    frontier by one layer per step. The cut returned is the set of links
    leaving the nodes reachable from src in the final residual graph. That
    set is the same for every maximum flow, so the cut does not depend on
    which augmenting paths were found.
    """
    _check_endpoints(g, src, dst)
    allocated = g.allocated
    # Net flow per link, oriented from link.u to link.v.
    flow = [0] * len(allocated)
    value = 0
    while True:
        fwd: dict[int, tuple[int, int] | None] = {src: None}
        bwd: dict[int, tuple[int, int] | None] = {dst: None}
        ffront, bfront = [src], [dst]
        meet = None
        while meet is None and ffront and bfront:
            if len(ffront) <= len(bfront):
                ffront, meet = _grow_layer(g, flow, ffront, fwd, bwd, 1)
            else:
                bfront, meet = _grow_layer(g, flow, bfront, bwd, fwd, -1)
        if meet is None:
            break
        # Push one unit along src ~> x -> y ~> dst.
        x, y, lid = meet
        flow[lid] += 1 if x < y else -1
        while x != src:
            px, plid = fwd[x]  # type: ignore[misc]
            flow[plid] += 1 if px < x else -1
            x = px
        while y != dst:
            ny, nlid = bwd[y]  # type: ignore[misc]
            flow[nlid] += 1 if y < ny else -1
            y = ny
        value += 1

    # No augmenting path is left. If the forward frontier ran dry, ``fwd``
    # holds every node reachable from src; otherwise finish its BFS. It can
    # no longer meet ``bwd``, which holds every node that reaches dst.
    while ffront:
        ffront, _ = _grow_layer(g, flow, ffront, fwd, bwd, 1)
    cut = frozenset(
        lid
        for x in fwd
        for y, lid in g.incident(x)
        if y not in fwd and not allocated[lid]
    )
    if len(cut) != value:
        raise InvariantViolationError(
            f"max-flow/min-cut mismatch: flow {value}, cut size {len(cut)}"
        )
    return CutResult(demand_id, cut, value)


def path_flexibility(g: EntangledGraph, d: Demand) -> int:
    """Size of the minimum cut separating the demand's endpoints."""
    return st_min_cut(g, d.src, d.dst, d.id).flexibility


def allocate_path(schedule: RoutingSchedule, g: EntangledGraph, p: Path) -> None:
    """Claim a path's links and append it to its demand's path set."""
    allocated = g.allocated
    for lid in p.edges:
        if allocated[lid]:
            raise InvariantViolationError(
                f"double allocation of entangled link {lid}"
            )
    for lid in p.edges:
        allocated[lid] = True
    schedule.paths.setdefault(p.demand_id, []).append(p)
    schedule.allocation_sequence.append(p.demand_id)


def _validate_demands(g: EntangledGraph, demands) -> tuple[Demand, ...]:
    demands = tuple(demands)
    if not demands:
        raise InvalidParameterError("demand set must be nonempty")
    seen = set()
    for d in demands:
        _check_endpoints(g, d.src, d.dst)
        if d.id in seen:
            raise InvalidParameterError(f"duplicate demand id {d.id}")
        seen.add(d.id)
    return demands


def _fcfs_schedule(g: EntangledGraph, demands, find_path) -> RoutingSchedule:
    """Queue discipline shared by the sequential-style schedulers.

    Pop the front demand and seek a path: on success allocate it and requeue
    the demand at the rear; on failure drop the demand for good (keeping any
    paths it already holds).
    """
    demands = _validate_demands(g, demands)
    work = g.copy()
    schedule = RoutingSchedule(tuple(d.id for d in demands))
    queue = deque(demands)
    while queue:
        d = queue.popleft()
        p = find_path(work, d)
        if p is not None:
            allocate_path(schedule, work, p)
            queue.append(d)
    return schedule


def smpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """Sequential scheduler: FCFS round-robin over minimum-hop paths."""
    return _fcfs_schedule(
        g, demands, lambda work, d: shortest_entangled_path(work, d.src, d.dst, d.id)
    )


def rmpsa_schedule(g: EntangledGraph, demands, rng: RngStream) -> RoutingSchedule:
    """FCFS round-robin baseline that picks a random simple path per service."""
    demand_rngs: dict[int, RngStream] = {}

    def find_random(work: EntangledGraph, d: Demand) -> Path | None:
        sub = demand_rngs.get(d.id)
        if sub is None:
            sub = demand_rngs[d.id] = rng.substream(d.id)
        return _random_simple_path(work, d.src, d.dst, sub, d.id)

    return _fcfs_schedule(g, demands, find_random)


def dmpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """FCFS round-robin baseline minimizing total physical distance."""
    return _fcfs_schedule(
        g, demands, lambda work, d: _min_distance_path(work, d.src, d.dst, d.id)
    )


def mcsa_schedule(
    g: EntangledGraph, demands, per_demand_cap: int | None = None
) -> RoutingSchedule:
    """Min-cut-prioritized scheduler, serving in rounds.

    Each round ranks the demands still being served by their path
    flexibility on the current graph (ties to the smallest id) and gives
    each of them one shortest path in that order. A demand retires when no
    path is left for it or its budget min(C_src, C_dst) is spent. Serving
    one path per round keeps the bottleneck links of the most constrained
    demands from going to paths that cannot raise k; the paper text held
    here does not fix the per-round budget, and one path is the choice made.

    ``per_demand_cap`` overrides the capacity-derived budget; the grid
    feasibility check uses it to probe 1-path-per-demand schedules.
    """
    demands = _validate_demands(g, demands)
    work = g.copy()
    schedule = RoutingSchedule(tuple(d.id for d in demands))
    budgets = {
        d.id: per_demand_cap
        if per_demand_cap is not None
        else min(work.capacity_of(d.src), work.capacity_of(d.dst))
        for d in demands
    }
    active = [d for d in demands if budgets[d.id] > 0]
    while active:
        if len(active) > 1:
            active.sort(key=lambda d: (path_flexibility(work, d), d.id))
        served = []
        for d in active:
            p = shortest_entangled_path(work, d.src, d.dst, d.id)
            if p is None:
                continue
            allocate_path(schedule, work, p)
            budgets[d.id] -= 1
            if budgets[d.id] > 0:
                served.append(d)
        active = served
    return schedule


def _random_simple_path(
    g: EntangledGraph, src: int, dst: int, rng: RngStream, demand_id: int
) -> Path | None:
    """Depth-first search with per-node shuffled neighbor order.

    Returns the DFS tree path to dst, which is simple by construction and an
    exact function of the stream state.
    """
    _check_endpoints(g, src, dst)
    allocated = g.allocated
    parents: dict[int, tuple[int, int] | None] = {src: None}
    stack = [src]
    while stack:
        x = stack.pop()
        if x == dst:
            break
        candidates = [
            (y, lid)
            for y, lid in g.incident(x)
            if y not in parents and not allocated[lid]
        ]
        rng.shuffle(candidates)
        for y, lid in candidates:
            if y not in parents:
                parents[y] = (x, lid)
                stack.append(y)
    if dst not in parents:
        return None
    nodes = [dst]
    edges = []
    node = dst
    while node != src:
        x, lid = parents[node]  # type: ignore[misc]
        edges.append(lid)
        nodes.append(x)
        node = x
    return Path(demand_id, tuple(reversed(nodes)), tuple(reversed(edges)))


def _min_distance_path(
    g: EntangledGraph, src: int, dst: int, demand_id: int
) -> Path | None:
    """Minimum total physical distance path over unallocated links."""
    _check_endpoints(g, src, dst)
    links = g.links
    allocated = g.allocated

    # Dijkstra labels toward dst; weights are strictly positive.
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, dst)]
    while heap:
        d_x, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d_x
        for y, lid in g.incident(x):
            if y not in dist and not allocated[lid]:
                heapq.heappush(heap, (d_x + links[lid].physical_distance_km, y))
    if src not in dist:
        return None

    nodes = [src]
    edges = []
    here = src
    seen = {src}
    while here != dst:
        step = None
        for y, lid in g.incident(here):
            if allocated[lid] or y not in dist or y in seen:
                continue
            key = (links[lid].physical_distance_km + dist[y], y, lid)
            if step is None or key < step:
                step = key
        if step is None:
            raise InvariantViolationError("distance descent lost its frontier")
        _, y, lid = step
        nodes.append(y)
        edges.append(lid)
        seen.add(y)
        here = y
    return Path(demand_id, tuple(nodes), tuple(edges))
