"""Path search, s-t min-cut, and the four demand-scheduling algorithms.

Every search is a function of the graph alone: it reads ``g.adjacency``
and skips allocated links, ``g.allocated[lid]``. Scheduling never mutates
the caller's graph: each scheduler works on a ``copy()`` with its own
allocation flags. A demand is a ``(src, dst)`` pair; demand i is the i-th
pair given, and its schedule files its paths in ``paths[i]``.

The path searches label only what their answer depends on. The minimum-hop
search is a bidirectional BFS (Pohl, "Bi-directional search", 1971) that
stops where its two trees meet, and it reads the path up to there from the
parent through which the forward search first reached each node. The
minimum-distance search is A* (Hart, Nilsson and Raphael, 1968) from dst
toward src, guided by each demand source's distances over all links, a
lower bound that holds while links are only ever claimed (Goldberg and
Harrelson's landmark bounds, 2005), and it labels only as far as the
descent from src needs. Both return exactly the path that labeling the
whole component would give. The minimum-distance and random searches fail
at once when src or dst has no free link left. The min cut's flow stops at
the first augmenting search that fails, or once it fills the free links at
src or dst; MCSA resumes each demand's flow from its last ranking once the
units on links claimed since are cancelled. On a network's full multigraph
with no link claimed, a cut from the zero flow is fixed by (src, dst), so
the graph's memo keeps each pair's value and final flow from the first such
call and answers later ones, on any copy, without a search.

Determinism rules used throughout:
  * shortest paths break ties toward the lexicographically smallest node-id
    sequence, and toward the smallest link id among parallel edges;
  * equal path flexibilities resolve to the smallest demand index;
  * the randomized scheduler reads demand i's words from substream i.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress

from .errors import InvalidParameterError, InvariantViolationError, require_integer
from .network import EntangledGraph
from .rng import RngStream

_FLOAT_MIN = sys.float_info.min
_HIGH_WORDS = 2**64 - 2**32  # below every word that randrange(n <= 2**32) rejects


@dataclass(frozen=True, slots=True)
class Path:
    """A simple path of entangled links."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        # The exact type tests spare the searches' tuples of ints the slower
        # full check; any other iterable, a one-shot iterator too, is read once.
        setattr_ = object.__setattr__
        try:
            if type(self.nodes) is not tuple or type(self.edges) is not tuple:
                setattr_(self, "nodes", tuple(self.nodes))
                setattr_(self, "edges", tuple(self.edges))
            exact = all([type(x) is int for x in (*self.nodes, *self.edges)])
        except TypeError as exc:  # nodes or edges not iterable
            raise InvalidParameterError(f"path nodes and links must be sequences: {exc}") from exc
        if not exact:
            setattr_(self, "nodes", tuple([require_integer("path node", x) for x in self.nodes]))
            setattr_(self, "edges", tuple([require_integer("path link id", x) for x in self.edges]))
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
    """Edge-disjoint paths of demand i in ``paths[i]``, and their floor k."""

    paths: list[list[Path]]

    @property
    def k(self) -> int:
        """Traffic flexibility: the fewest paths that any demand holds."""
        if not self.paths:
            raise InvalidParameterError("k is undefined for a schedule with no demands")
        return min(len(ps) for ps in self.paths)

    @property
    def total_paths(self) -> int:
        return sum(len(ps) for ps in self.paths)

    @property
    def total_hops(self) -> int:
        return sum(p.hop_count for ps in self.paths for p in ps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "demands": [
                    {
                        "id": i,
                        "paths": [
                            {"nodes": list(p.nodes), "edges": list(p.edges)}
                            for p in ps
                        ],
                    }
                    for i, ps in enumerate(self.paths)
                ],
            },
            separators=(",", ":"),
        )


def _check_endpoints(g: EntangledGraph, src: int, dst: int) -> tuple[int, int]:
    """``(src, dst)`` as ints, once both are distinct nodes of ``g``."""
    # The exact type test spares well-typed callers the slower full check.
    if not (type(src) is int and type(dst) is int):
        src, dst = require_integer("src", src), require_integer("dst", dst)
    if src == dst:
        raise InvalidParameterError(f"src and dst must differ, got {src}")
    n = g.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise InvalidParameterError(f"endpoint outside graph: src={src} dst={dst}")
    return src, dst


def _has_free_link(g: EntangledGraph, x: int) -> bool:
    allocated = g.allocated
    for _, lid in g.adjacency[x]:
        if not allocated[lid]:
            return True
    return False


def shortest_entangled_path(g: EntangledGraph, src: int, dst: int) -> Path | None:
    """Minimum-hop simple path over unallocated links, or None if disconnected.

    Among all minimum-hop paths the lexicographically smallest node sequence
    is returned; parallel links resolve to the smallest link id.

    A bidirectional BFS expands the smaller frontier by one full layer per
    step. While the two trees are apart, every node at forward depth a or
    less lies at backward depth b + 1 or more, so the distance is at least
    a + b + 1; the layer in which they first touch makes it exactly that.
    Every meeting node then lies at one forward and one backward depth, and
    the meeting nodes are exactly the nodes at that forward depth which lie
    on some shortest path.

    The forward BFS scans each layer in discovery order over sorted
    adjacency, so by induction each layer is discovered in the
    lexicographic order of its nodes' smallest shortest paths from src,
    and the parent that first discovered a node ends that path. Shortest
    paths through different meeting nodes first differ at or before them,
    so the answer runs through the meeting node whose path from src is
    smallest: the first meeting node a forward layer discovers, or the
    first node of the forward frontier that a backward layer labels. The
    answer is that node's chain of first-discovery parents, then the
    descent that takes the smallest ``(node, link id)`` one backward depth
    nearer dst at each step; every such node extends to a shortest path.
    """
    src, dst = _check_endpoints(g, src, dst)
    allocated = g.allocated
    adjacency = g.adjacency
    n = g.node_count

    # fvia[x] is (parent, link id) from x's first forward discovery, and
    # src is its own parent; bdist[x] is x's hop distance to dst, -1 unseen.
    fvia: list[tuple[int, int] | None] = [None] * n
    fvia[src] = (src, -1)
    bdist = [-1] * n
    bdist[dst] = 0
    ffront, bfront = [src], [dst]
    depth = 0
    meet = -1
    while meet < 0:
        grown = []
        if len(ffront) <= len(bfront):
            for here in ffront:
                for y, lid in adjacency[here]:
                    if fvia[y] is None and not allocated[lid]:
                        fvia[y] = (here, lid)
                        if bdist[y] >= 0:
                            meet = y
                            break
                        grown.append(y)
                if meet >= 0:
                    break
            ffront = grown
        else:
            depth += 1
            met = False
            for here in bfront:
                for y, lid in adjacency[here]:
                    if bdist[y] < 0 and not allocated[lid]:
                        bdist[y] = depth
                        grown.append(y)
                        if fvia[y] is not None:
                            met = True
            if met:
                for y in ffront:
                    if bdist[y] >= 0:
                        meet = y
                        break
            bfront = grown
        if not grown and meet < 0:
            return None

    nodes = []
    edges = []
    x = meet
    while x != src:
        x, lid = fvia[x]  # type: ignore[misc]
        nodes.append(x)
        edges.append(lid)
    nodes.reverse()
    edges.reverse()
    nodes.append(meet)
    # Adjacency is sorted by (neighbor, link id), so the first qualifying
    # entry of a scan is the smallest.
    here = meet
    for want in range(bdist[meet] - 1, -1, -1):
        for y, lid in adjacency[here]:
            if bdist[y] == want and not allocated[lid]:
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
    side: list[int],
    via: list[tuple[int, int] | None],
    sign: int,
) -> tuple[list[int], tuple[int, int, int] | None]:
    """Grow a BFS tree over the residual graph by one full layer.

    ``sign`` is 1 for the tree rooted at src, which follows arcs
    ``here -> y``, and -1 for the tree rooted at dst, which follows arcs
    ``y -> here`` backwards. Links store ``u < v`` and ``flow`` is the net
    flow from u to v, so the arc ``here -> y`` is closed exactly when
    ``flow > 0`` for ``here < y`` and ``flow < 0`` for ``here > y``; negating
    the flow turns that into the test for the reverse arc.

    ``side[x]`` is 1 for a node of the src tree, -1 for one of the dst tree
    and 0 for one in neither; a node newly labeled ``sign`` keeps its
    ``(parent, link id)`` in ``via``. Stops at the first neighbor that the
    other tree already holds and returns the meeting arc ``(x, y, lid)``,
    with x in the src tree and y in the dst tree; otherwise returns the next
    frontier and None.
    """
    allocated = g.allocated
    adjacency = g.adjacency
    grown = []
    for here in front:
        for y, lid in adjacency[here]:
            s = side[y]
            if s == sign or allocated[lid]:
                continue
            f = flow[lid] * sign
            if f > 0 if here < y else f < 0:
                continue
            if s:
                return grown, (here, y, lid) if sign > 0 else (y, here, lid)
            side[y] = sign
            via[y] = (here, lid)
            grown.append(y)
    return grown, None


def st_min_cut(
    g: EntangledGraph, src: int, dst: int, *, flow: list[int] | None = None
) -> CutResult:
    """Size of the minimum s-t cut of the unallocated multigraph.

    A maximum flow on unit capacities, grown one augmenting path at a time;
    by Menger's theorem its value equals the cut size and the maximum number
    of edge-disjoint s-t paths. Each augmenting path comes from a
    bidirectional BFS over the residual graph that expands the smaller
    frontier by one layer per step. The flow ends at the first search that
    fails, or once it fills the free links at src or at dst, which bound the
    cut from above. Only the value is computed; which links form the cut is
    left out, since no scheduler reads it.

    ``flow``, a list of one net flow per link id, is augmented in place, and
    its value is read from src's links. It must be a flow that this function
    left on ``g`` for the same src and dst, with every unit on a link claimed
    since then removed by ``_cancel_unit``; augmenting from any valid flow
    reaches the same maximum value. None starts from the zero flow.

    On a network's full multigraph (a graph whose ``_cuts`` is a dict) with
    no link allocated, a call from the zero flow of exact ints has its value
    and final flow fixed by (src, dst). The first such call for a pair
    stores both, the flow as its nonzero entries, and later ones write those
    entries into ``flow`` and return the stored value.
    """
    src, dst = _check_endpoints(g, src, dst)
    adjacency, allocated = g.adjacency, g.allocated
    if flow is None:
        flow = [0] * len(g.links)
    elif type(flow) is not list or len(flow) != len(g.links):
        raise InvalidParameterError(f"flow must be None or a list of {len(g.links)} net flows")
    cuts, key = g._cuts, None
    # The int sum keeps a flow of float or NumPy zeros out of the memo.
    if (cuts is not None and True not in allocated
            and flow.count(0) == len(flow) and type(sum(flow)) is int):
        key = (src, dst)
        stored = cuts.get(key)
        if stored is not None:
            value, lids, units = stored
            for lid, unit in zip(lids, units):
                flow[lid] = unit
            return CutResult(value)
    # Net flow per link, oriented from link.u to link.v; none enters src.
    value = sum([flow[lid] if src < y else -flow[lid] for y, lid in adjacency[src]])
    bound = min([sum([not allocated[lid] for _, lid in adjacency[x]]) for x in (src, dst)])
    n = g.node_count
    # Only nodes that side marks read their entry of via, so via is shared
    # by every search of this call.
    via: list[tuple[int, int] | None] = [None] * n
    while value < bound:
        side = [0] * n
        side[src], side[dst] = 1, -1
        ffront, bfront = [src], [dst]
        meet = None
        while meet is None and ffront and bfront:
            if len(ffront) <= len(bfront):
                ffront, meet = _grow_layer(g, flow, ffront, side, via, 1)
            else:
                bfront, meet = _grow_layer(g, flow, bfront, side, via, -1)
        if meet is None:
            break
        # Push one unit along src ~> x -> y ~> dst.
        x, y, lid = meet
        flow[lid] += 1 if x < y else -1
        while x != src:
            px, plid = via[x]  # type: ignore[misc]
            flow[plid] += 1 if px < x else -1
            x = px
        while y != dst:
            ny, nlid = via[y]  # type: ignore[misc]
            flow[nlid] += 1 if y < ny else -1
            y = ny
        value += 1
    if key is not None:
        lids = tuple(compress(range(len(flow)), flow))
        cuts[key] = (value, lids, tuple([flow[lid] for lid in lids]))
    return CutResult(value)


def _cancel_unit(g: EntangledGraph, flow: list[int], lid: int) -> None:
    """Remove from ``flow`` the unit that crosses link ``lid``.

    The unit is followed forward from the link's head to dst and backward
    from its tail to src, and each link it passes is zeroed; augmenting
    paths never enter src or leave dst, so the walks end there, where no
    unit goes on. A unit on a circulation comes back to the tail and ends
    the forward walk, and the flow value stays the same.
    """
    link = g.links[lid]
    tail, head = (link.u, link.v) if flow[lid] > 0 else (link.v, link.u)
    flow[lid] = 0
    adjacency = g.adjacency
    for x, sign in ((head, 1), (tail, -1)):
        while True:
            # The same orientation test as _grow_layer's, for arcs that carry a unit.
            for y, l in adjacency[x]:
                f = flow[l] * sign
                if f > 0 if x < y else f < 0:
                    break
            else:
                break
            flow[l] = 0
            if sign > 0 and y == tail:
                return
            x = y


def allocate_path(
    schedule: RoutingSchedule, g: EntangledGraph, demand: int, p: Path
) -> None:
    """Claim a path's links, each a free link of ``g`` joining its two path nodes, and file it."""
    # Exact ints skip the call; True or 1.0 would otherwise file under demand 1.
    if type(demand) is not int:
        demand = require_integer("demand", demand)
    # A bare list index would take -1 as the last demand.
    if not 0 <= demand < len(schedule.paths):
        raise InvalidParameterError(f"path for unknown demand {demand}")
    links, allocated, nodes = g.links, g.allocated, p.nodes
    for i, lid in enumerate(p.edges):
        if not 0 <= lid < len(links):
            raise InvalidParameterError(f"path names link {lid}, not a link of the graph")
        a, b = nodes[i], nodes[i + 1]
        link = links[lid]
        if (link.u, link.v) != ((a, b) if a < b else (b, a)):
            raise InvalidParameterError(
                f"link {lid} ({link.u},{link.v}) does not join path nodes {a} and {b}"
            )
        if allocated[lid]:
            raise InvariantViolationError(
                f"double allocation of entangled link {lid}"
            )
    for lid in p.edges:
        allocated[lid] = True
    schedule.paths[demand].append(p)


def _validate_demands(g: EntangledGraph, demands) -> tuple[tuple[int, int], ...]:
    """Each ``(src, dst)`` entry of ``demands`` as a pair of distinct nodes of ``g``."""
    try:
        entries = enumerate(demands)
    except TypeError:  # not iterable
        raise InvalidParameterError(f"demand set must be iterable, got {demands!r}") from None
    pairs = []
    for i, demand in entries:
        try:
            src, dst = demand
        except (TypeError, ValueError):  # not an iterable of two
            raise InvalidParameterError(f"demand {i} is not (src, dst): {demand!r}") from None
        try:
            pairs.append(_check_endpoints(g, src, dst))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"demand {i}: {exc}") from None
    if not pairs:
        raise InvalidParameterError("demand set must be nonempty")
    return tuple(pairs)


def _fcfs_schedule(g: EntangledGraph, demands, find_path) -> RoutingSchedule:
    """Queue discipline shared by the sequential-style schedulers.

    ``demands`` are pairs ``_validate_demands`` returned. Pop the front
    demand and seek a path with ``find_path(work, i, src, dst)``: on success
    allocate it and requeue the demand at the rear; on failure drop the
    demand for good (keeping any paths it already holds).
    """
    work = g.copy()
    schedule = RoutingSchedule([[] for _ in demands])
    queue = deque(range(len(demands)))
    while queue:
        i = queue.popleft()
        p = find_path(work, i, *demands[i])
        if p is not None:
            allocate_path(schedule, work, i, p)
            queue.append(i)
    return schedule


def smpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """Sequential scheduler: FCFS round-robin over minimum-hop paths."""
    return _fcfs_schedule(
        g,
        _validate_demands(g, demands),
        lambda work, i, src, dst: shortest_entangled_path(work, src, dst),
    )


def rmpsa_schedule(g: EntangledGraph, demands, rng: RngStream) -> RoutingSchedule:
    """FCFS round-robin baseline that picks a random simple path per service."""
    if not isinstance(rng, RngStream):
        raise InvalidParameterError(
            f"rng must be an RngStream, got {type(rng).__name__}"
        )
    demands = _validate_demands(g, demands)
    words = [rng.substream(i).words().__next__ for i in range(len(demands))]
    return _fcfs_schedule(
        g, demands, lambda work, i, src, dst: _random_simple_path(work, src, dst, words[i])
    )


def dmpsa_schedule(g: EntangledGraph, demands) -> RoutingSchedule:
    """FCFS round-robin baseline minimizing total physical distance.

    Each demand source's distances over all links are computed once, at its
    first service, and bound every later search toward it from below.
    """
    to_src: dict[int, list[float | None]] = {}

    def find_nearest(work: EntangledGraph, i: int, src: int, dst: int) -> Path | None:
        h = to_src.get(src)
        if h is None:
            h = to_src[src] = _distances_from(work, src)
        return _min_distance_path(work, src, dst, h)

    return _fcfs_schedule(g, _validate_demands(g, demands), find_nearest)


def mcsa_schedule(
    g: EntangledGraph, demands, per_demand_cap: int | None = None
) -> RoutingSchedule:
    """Min-cut-prioritized scheduler, serving in rounds.

    Each round ranks the demands still being served by their path
    flexibility on the current graph (ties to the smallest index) and gives
    each of them one shortest path in that order. A demand retires when no
    path is left for it or its budget min(C_src, C_dst) is spent. Serving
    one path per round keeps the bottleneck links of the most constrained
    demands from going to paths that cannot raise k; the paper text held
    here does not fix the per-round budget, and one path is the choice made.
    Each demand's flow is kept from one ranking to the next: the units on
    the links a round claimed are cancelled, and ``st_min_cut`` augments
    the rest to the value a fresh flow would reach.

    ``per_demand_cap``, an integer >= 1, overrides the capacity-derived
    budget; the grid check uses it to probe 1-path-per-demand schedules.
    """
    if per_demand_cap is not None:
        per_demand_cap = require_integer("per_demand_cap", per_demand_cap)
        if per_demand_cap < 1:
            raise InvalidParameterError(
                f"per_demand_cap must be >= 1, got {per_demand_cap}"
            )
    demands = _validate_demands(g, demands)
    work = g.copy()
    schedule = RoutingSchedule([[] for _ in demands])
    capacities = work.physical.nodes
    budgets = [
        per_demand_cap if per_demand_cap is not None else min(capacities[src], capacities[dst])
        for src, dst in demands
    ]
    # Indices of the demands still served.
    active = list(range(len(demands)))
    # Each demand's flow of its last ranking, and the links claimed since.
    flows = [[0] * len(work.links) for _ in demands]
    claimed: list[int] = []
    while active:
        if len(active) > 1:
            for i in active:
                flow = flows[i]
                # Read lazily, so a unit an earlier cancel removed reads as gone.
                for lid in compress(claimed, map(flow.__getitem__, claimed)):
                    _cancel_unit(work, flow, lid)
            active.sort(key=lambda i: (st_min_cut(work, *demands[i], flow=flows[i]).flexibility, i))
        claimed = []
        served = []
        for i in active:
            p = shortest_entangled_path(work, *demands[i])
            if p is None:
                continue
            allocate_path(schedule, work, i, p)
            claimed += p.edges
            budgets[i] -= 1
            if budgets[i] > 0:
                served.append(i)
        active = served
    return schedule


def _random_simple_path(
    g: EntangledGraph, src: int, dst: int, next_word: Callable[[], int]
) -> Path | None:
    """Depth-first search with per-node shuffled neighbor order.

    Fisher-Yates draws each swap position as ``RngStream.randrange`` would,
    from the words ``next_word()`` returns. Returns the DFS tree path to dst,
    which is simple by construction and an exact function of the words. When
    src or dst has no free link the search fails at once, without the draws
    a full DFS would take; the scheduler drops a demand for good after its
    first failure, so nothing reads that demand's words again.
    """
    src, dst = _check_endpoints(g, src, dst)
    if not (_has_free_link(g, src) and _has_free_link(g, dst)):
        return None
    allocated = g.allocated
    adjacency = g.adjacency
    # via[x] is (parent, link id) once x is pushed; src is its own parent.
    via: list[tuple[int, int] | None] = [None] * g.node_count
    via[src] = (src, -1)
    stack = [src]
    while stack:
        x = stack.pop()
        if x == dst:
            break
        candidates = [
            (y, lid)
            for y, lid in adjacency[x]
            if via[y] is None and not allocated[lid]
        ]
        if len(candidates) > 1:
            for i in range(len(candidates) - 1, 0, -1):
                word = next_word()
                if word >= _HIGH_WORDS:
                    while word >= 2**64 - 2**64 % (i + 1):
                        word = next_word()
                j = word % (i + 1)
                candidates[i], candidates[j] = candidates[j], candidates[i]
        for y, lid in candidates:
            if via[y] is None:
                via[y] = (x, lid)
                stack.append(y)
    if via[dst] is None:
        return None
    nodes = [dst]
    edges = []
    node = dst
    while node != src:
        x, lid = via[node]  # type: ignore[misc]
        edges.append(lid)
        nodes.append(x)
        node = x
    return Path(tuple(reversed(nodes)), tuple(reversed(edges)))


def _distances_from(g: EntangledGraph, src: int) -> list[float | None]:
    """Dijkstra distances from src over every link, allocated or not.

    None marks a node that src cannot reach. Each value is the least
    left-to-right float sum over the paths from src, so for every link x-y
    of weight w the values satisfy ``h[x] <= h[y] + w`` as computed in float.
    Parallel links share their fiber's distance and sit next to each other
    in the adjacency, so only the first of them is relaxed.
    """
    links = g.links
    adjacency = g.adjacency
    dist: list[float | None] = [None] * g.node_count
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d_x, x = heapq.heappop(heap)
        if d_x > dist[x]:  # type: ignore[operator]
            continue
        prev = -1
        for y, lid in adjacency[x]:
            if y == prev:
                continue
            prev = y
            d_y = d_x + links[lid].distance_km
            old = dist[y]
            if old is None or d_y < old:
                dist[y] = d_y
                heapq.heappush(heap, (d_y, y))
    return dist


def _min_distance_path(
    g: EntangledGraph,
    src: int,
    dst: int,
    h: list[float | None],
) -> Path | None:
    """Minimum total physical distance path over unallocated links.

    The answer is that of labeling dst's whole free component with Dijkstra
    and descending from src by the smallest ``(w + dist[y], y, link id)``
    over unseen neighbors y, where ``dist`` is each node's least float sum
    over the free paths from dst. Only a corridor is labeled to find it.

    ``h`` holds the distances from src over all links, allocated or not
    (``_distances_from``). Links are only ever claimed, so they stay lower
    bounds on every later distance to src. A* labels from dst in
    ``(g + h, g, node)`` order until src pops.
    Labels are label-correcting: a node whose label improves is pushed
    again, and only then, so each label is the float sum of some free path from dst, never
    below ``dist``, and a node's label equals ``dist`` once every node of
    its Dijkstra tree path has popped with its exact label. Which labels
    are exact therefore does not depend on the pop order.

    The descent at ``here`` takes the smallest key ``best`` over neighbors
    with a label, and resumes labeling while the smallest heap key is at
    most ``(best + h[here]) * slack``. A neighbor y whose label is not exact
    has a node v on its tree path whose exact entry is still in the heap,
    so ``dist[v] + h[v]`` is at least the heap minimum K. Consistency of h
    along the path from v through y to here, with every float sum within a
    factor ``1 +- 2**-53`` of the real one (the network stores distances as
    Python floats, so sums round in float64) and at most n of them on a path,
    gives ``K <= (1 + (2n + 4) * 2**-53) * (w + dist[y] + h[here])``. With
    the slack above that, a neighbor that is not exact keys above ``best``,
    so every neighbor that could win or tie is exact and the step equals
    the full-labeling one. A key that overflows to inf stands for a real sum
    of at least the largest float, and then the bound is inf as well, so
    the search labels the whole component, as the reference does; the
    absolute term keeps the slack when the bound is subnormal.
    """
    src, dst = _check_endpoints(g, src, dst)
    if not (_has_free_link(g, src) and _has_free_link(g, dst)):
        return None
    if h[dst] is None:
        return None
    links = g.links
    allocated = g.allocated
    adjacency = g.adjacency

    # Tentative labels toward dst; None until a free path reaches the node.
    label: list[float | None] = [None] * g.node_count
    label[dst] = 0.0
    heap: list[tuple[float, float, int]] = [(h[dst], 0.0, dst)]  # type: ignore[list-item]

    def label_up_to(bound: float, stop: int = -1) -> bool:
        while heap and heap[0][0] <= bound:
            _, g_x, x = heapq.heappop(heap)
            if g_x > label[x]:  # type: ignore[operator]
                continue  # superseded by a shorter path
            prev = -1
            for y, lid in adjacency[x]:
                # Parallel links share a distance, so the first free one
                # stands for them all.
                if y == prev or allocated[lid]:
                    continue
                prev = y
                g_y = g_x + links[lid].distance_km
                old = label[y]
                if old is None or g_y < old:
                    label[y] = g_y
                    heapq.heappush(heap, (g_y + h[y], g_y, y))  # type: ignore[operator]
            if x == stop:
                return True
        return False

    if not label_up_to(math.inf, src):
        return None

    slack = 1.0 + (g.node_count + 2) * 2.0**-50
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
                g_y = label[y]
                if g_y is None:
                    continue
                key = links[lid].distance_km + g_y
                if step is None or key < best:
                    best, step = key, (y, lid)
            bound = (best + h[here]) * slack + _FLOAT_MIN  # type: ignore[operator]
            if not heap or heap[0][0] > bound:
                break
            label_up_to(bound)
        if step is None:
            raise InvariantViolationError("distance descent lost its frontier")
        y, lid = step
        nodes.append(y)
        edges.append(lid)
        seen.add(y)
        here = y
    return Path(tuple(nodes), tuple(edges))
