"""Path search, s-t min-cut, and the four demand-scheduling algorithms.

Every search is a function of the graph alone: it reads ``g.adjacency``
and skips allocated links, ``g.allocated[lid]``. Scheduling never mutates
the caller's graph: each scheduler works on a ``copy()`` with its own
allocation flags, and its schedule is the one place demand ids are kept.

The path searches label only what their answer depends on. The minimum-hop
search is a bidirectional BFS (Pohl, "Bi-directional search", 1971) that
stops after the layer where its two trees meet, and the minimum-distance
search runs Dijkstra from dst only as far as the descent from src needs.
Both return exactly the path that labeling the whole component would give.

Determinism rules used throughout:
  * shortest paths break ties toward the lexicographically smallest node-id
    sequence, and toward the smallest link id among parallel edges;
  * equal path flexibilities resolve to the smallest demand id;
  * the randomized scheduler draws from substreams keyed by demand id.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass

from .errors import InvalidParameterError, InvariantViolationError, require_integer
from .network import Demand, EntangledGraph
from .rng import RngStream


@dataclass(frozen=True, slots=True)
class Path:
    """A simple path of entangled links."""

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
    """Size of a minimum s-t cut over unallocated entangled links."""

    flexibility: int


@dataclass(slots=True)
class RoutingSchedule:
    """Edge-disjoint paths per demand id, in demand order, and their floor k."""

    paths: dict[int, list[Path]]

    @property
    def k(self) -> int:
        """Traffic flexibility: the fewest paths that any demand holds."""
        return min(len(ps) for ps in self.paths.values())

    @property
    def total_paths(self) -> int:
        return sum(len(ps) for ps in self.paths.values())

    @property
    def total_hops(self) -> int:
        return sum(p.hop_count for ps in self.paths.values() for p in ps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "demands": [
                    {
                        "id": did,
                        "paths": [
                            {"nodes": list(p.nodes), "edges": list(p.edges)}
                            for p in ps
                        ],
                    }
                    for did, ps in self.paths.items()
                ],
            },
            separators=(",", ":"),
        )


def _check_endpoints(g: EntangledGraph, src: int, dst: int) -> None:
    # The exact type test spares well-typed callers the slower full check.
    if not (type(src) is int and type(dst) is int):
        require_integer("src", src)
        require_integer("dst", dst)
    if src == dst:
        raise InvalidParameterError(f"src and dst must differ, got {src}")
    n = g.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise InvalidParameterError(f"endpoint outside graph: src={src} dst={dst}")


def shortest_entangled_path(g: EntangledGraph, src: int, dst: int) -> Path | None:
    """Minimum-hop simple path over unallocated links, or None if disconnected.

    Among all minimum-hop paths the lexicographically smallest node sequence
    is returned; parallel links resolve to the smallest link id.

    A bidirectional BFS expands the smaller frontier by one full layer per
    step. The layer in which the two trees first touch is completed, and its
    nodes that lie in the other tree form the meeting layer: exactly the
    nodes at one forward depth ``a`` that lie on some shortest path. Walking
    back from it over the forward BFS layers marks the shortest-path nodes
    at every depth below ``a``; past it, the backward depths lead to dst.
    Taking the smallest ``(node, link id)`` among those at each step gives
    the lexicographic minimum, since each one extends to a shortest path.
    """
    _check_endpoints(g, src, dst)
    allocated = g.allocated
    adjacency = g.adjacency

    # Hop distances from src and to dst over unallocated links.
    fdist = {src: 0}
    bdist = {dst: 0}
    ffront, bfront = [src], [dst]
    while True:
        forward = len(ffront) <= len(bfront)
        if forward:
            front, tree, other = ffront, fdist, bdist
        else:
            front, tree, other = bfront, bdist, fdist
        depth = tree[front[0]] + 1
        grown = []
        meet = []
        for here in front:
            for y, lid in adjacency[here]:
                if y not in tree and not allocated[lid]:
                    tree[y] = depth
                    grown.append(y)
                    if y in other:
                        meet.append(y)
        if meet:
            break
        if not grown:
            return None
        if forward:
            ffront = grown
        else:
            bfront = grown

    # levels[i] holds the shortest-path nodes at forward depth a - i.
    levels = [set(meet)]
    for depth in range(fdist[meet[0]] - 1, 0, -1):
        below = set()
        for x in levels[-1]:
            for y, lid in adjacency[x]:
                if fdist.get(y) == depth and not allocated[lid]:
                    below.add(y)
        levels.append(below)

    # Adjacency is sorted by (neighbor, link id), so the first qualifying
    # entry of a scan is the smallest.
    nodes = [src]
    edges = []
    here = src
    for level in reversed(levels):
        for y, lid in adjacency[here]:
            if y in level and not allocated[lid]:
                break
        else:  # unreachable given the marking above
            raise InvariantViolationError("shortest-path descent lost its frontier")
        nodes.append(y)
        edges.append(lid)
        here = y
    for want in range(bdist[here] - 1, -1, -1):
        for y, lid in adjacency[here]:
            if bdist.get(y) == want and not allocated[lid]:
                break
        else:  # unreachable given the backward BFS
            raise InvariantViolationError("shortest-path descent lost its frontier")
        nodes.append(y)
        edges.append(lid)
        here = y
    return Path(tuple(nodes), tuple(edges))


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
    adjacency = g.adjacency
    grown = []
    for here in front:
        for y, lid in adjacency[here]:
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


def st_min_cut(g: EntangledGraph, src: int, dst: int) -> CutResult:
    """Size of the minimum s-t cut of the unallocated multigraph.

    A maximum flow on unit capacities, grown one augmenting path at a time;
    by Menger's theorem its value equals the cut size and the maximum number
    of edge-disjoint s-t paths. Each augmenting path comes from a
    bidirectional BFS over the residual graph that expands the smaller
    frontier by one layer per step, and the first search that fails ends
    the flow. Only the value is computed; which links form the cut is left
    out, since no scheduler reads it.
    """
    _check_endpoints(g, src, dst)
    # Net flow per link, oriented from link.u to link.v.
    flow = [0] * len(g.links)
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
            return CutResult(value)
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


def path_flexibility(g: EntangledGraph, d: Demand) -> int:
    """Size of the minimum cut separating the demand's endpoints."""
    return st_min_cut(g, d.src, d.dst).flexibility


def allocate_path(
    schedule: RoutingSchedule, g: EntangledGraph, demand_id: int, p: Path
) -> None:
    """Claim a path's links and append it to the demand's path set."""
    paths = schedule.paths.get(demand_id)
    if paths is None:
        raise InvalidParameterError(f"path for unknown demand {demand_id}")
    allocated = g.allocated
    for lid in p.edges:
        if allocated[lid]:
            raise InvariantViolationError(
                f"double allocation of entangled link {lid}"
            )
    for lid in p.edges:
        allocated[lid] = True
    paths.append(p)


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
    schedule = RoutingSchedule({d.id: [] for d in demands})
    queue = deque(demands)
    while queue:
        d = queue.popleft()
        p = find_path(work, d)
        if p is not None:
            allocate_path(schedule, work, d.id, p)
            queue.append(d)
    return schedule


def smpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """Sequential scheduler: FCFS round-robin over minimum-hop paths."""
    return _fcfs_schedule(
        g, demands, lambda work, d: shortest_entangled_path(work, d.src, d.dst)
    )


def rmpsa_schedule(g: EntangledGraph, demands, rng: RngStream) -> RoutingSchedule:
    """FCFS round-robin baseline that picks a random simple path per service."""
    demand_rngs: dict[int, RngStream] = {}

    def find_random(work: EntangledGraph, d: Demand) -> Path | None:
        sub = demand_rngs.get(d.id)
        if sub is None:
            sub = demand_rngs[d.id] = rng.substream(d.id)
        return _random_simple_path(work, d.src, d.dst, sub)

    return _fcfs_schedule(g, demands, find_random)


def dmpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """FCFS round-robin baseline minimizing total physical distance."""
    return _fcfs_schedule(
        g, demands, lambda work, d: _min_distance_path(work, d.src, d.dst)
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

    ``per_demand_cap``, an integer >= 1, overrides the capacity-derived
    budget; the grid check uses it to probe 1-path-per-demand schedules.
    """
    if per_demand_cap is not None:
        require_integer("per_demand_cap", per_demand_cap)
        if per_demand_cap < 1:
            raise InvalidParameterError(
                f"per_demand_cap must be >= 1, got {per_demand_cap}"
            )
    demands = _validate_demands(g, demands)
    work = g.copy()
    schedule = RoutingSchedule({d.id: [] for d in demands})
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
            p = shortest_entangled_path(work, d.src, d.dst)
            if p is None:
                continue
            allocate_path(schedule, work, d.id, p)
            budgets[d.id] -= 1
            if budgets[d.id] > 0:
                served.append(d)
        active = served
    return schedule


def _random_simple_path(
    g: EntangledGraph, src: int, dst: int, rng: RngStream
) -> Path | None:
    """Depth-first search with per-node shuffled neighbor order.

    Returns the DFS tree path to dst, which is simple by construction and an
    exact function of the stream state.
    """
    _check_endpoints(g, src, dst)
    allocated = g.allocated
    adjacency = g.adjacency
    parents: dict[int, tuple[int, int] | None] = {src: None}
    stack = [src]
    while stack:
        x = stack.pop()
        if x == dst:
            break
        candidates = [
            (y, lid)
            for y, lid in adjacency[x]
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
    return Path(tuple(reversed(nodes)), tuple(reversed(edges)))


def _min_distance_path(g: EntangledGraph, src: int, dst: int) -> Path | None:
    """Minimum total physical distance path over unallocated links.

    Dijkstra labels distances to dst only as far as the descent from src
    needs them. It first stops when src pops. A descent step then takes the
    smallest ``(w + dist[y], y, link id)`` over labeled, unseen neighbors y.
    An unlabeled node z has ``dist[z]`` at least the smallest key left in
    the heap, so its own key ``w + dist[z]`` is too; only when the best
    labeled key reaches that bound does labeling resume, up to it. Every
    step therefore matches the one over a fully labeled component.
    """
    _check_endpoints(g, src, dst)
    links = g.links
    allocated = g.allocated
    adjacency = g.adjacency

    # Dijkstra labels toward dst; weights are positive and finite.
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, dst)]

    def label_up_to(bound: float, stop: int = -1) -> None:
        while heap and heap[0][0] <= bound:
            d_x, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d_x
            for y, lid in adjacency[x]:
                if y not in dist and not allocated[lid]:
                    heapq.heappush(heap, (d_x + links[lid].distance_km, y))
            if x == stop:
                return

    label_up_to(math.inf, src)
    if src not in dist:
        return None

    nodes = [src]
    edges = []
    here = src
    seen = {src}
    while here != dst:
        while True:
            # Scanning in (y, link id) order keeps the first of equal keys.
            best, step = math.inf, None
            for y, lid in adjacency[here]:
                if allocated[lid] or y in seen:
                    continue
                d_y = dist.get(y)
                if d_y is None:
                    continue
                key = links[lid].distance_km + d_y
                if step is None or key < best:
                    best, step = key, (y, lid)
            if not heap or best < heap[0][0]:
                break
            label_up_to(best)
        if step is None:
            raise InvariantViolationError("distance descent lost its frontier")
        y, lid = step
        nodes.append(y)
        edges.append(lid)
        seen.add(y)
        here = y
    return Path(tuple(nodes), tuple(edges))
