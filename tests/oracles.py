"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately independent of the package's graph
algorithms: plain edge lists, exhaustive enumeration, no shared code paths.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import deque
from functools import lru_cache
from itertools import combinations

from entroute.errors import GenerationFailureError, InvariantViolationError
from entroute.network import EntangledGraph, PhysicalLink, PhysicalNetwork, QuantumNode
from entroute.routing import Path, _check_endpoints

Edge = tuple[int, int]  # (u, v); index in the list is the edge id


def connected(edges: list[Edge], src: int, dst: int, removed: frozenset[int] = frozenset()) -> bool:
    """Is dst reachable from src ignoring the removed edge ids?"""
    frontier = [src]
    seen = {src}
    while frontier:
        x = frontier.pop()
        if x == dst:
            return True
        for eid, (u, v) in enumerate(edges):
            if eid in removed:
                continue
            if u == x and v not in seen:
                seen.add(v)
                frontier.append(v)
            elif v == x and u not in seen:
                seen.add(u)
                frontier.append(u)
    return False


def min_cut_size_bruteforce(edges: list[Edge], src: int, dst: int) -> int:
    """Smallest number of edges whose removal disconnects src from dst."""
    if not connected(edges, src, dst):
        return 0
    ids = range(len(edges))
    for size in range(1, len(edges) + 1):
        for subset in combinations(ids, size):
            if not connected(edges, src, dst, frozenset(subset)):
                return size
    raise AssertionError("graph cannot be disconnected by removing all edges?")


def simple_paths(edges: list[Edge], src: int, dst: int, available: frozenset[int]):
    """All simple src-dst paths over the available edge ids, as edge-id tuples."""
    results: list[tuple[int, ...]] = []

    def extend(node: int, visited: set[int], used: list[int]):
        if node == dst:
            results.append(tuple(used))
            return
        for eid in available:
            if eid in used:
                continue
            u, v = edges[eid]
            nxt = v if u == node else u if v == node else None
            if nxt is None or nxt in visited:
                continue
            visited.add(nxt)
            used.append(eid)
            extend(nxt, visited, used)
            used.pop()
            visited.remove(nxt)

    extend(src, {src}, [])
    return results


def max_edge_disjoint_paths_bruteforce(edges: list[Edge], src: int, dst: int) -> int:
    """Maximum cardinality of a set of pairwise edge-disjoint src-dst paths."""

    @lru_cache(maxsize=None)
    def best(available: frozenset[int]) -> int:
        paths = simple_paths(edges, src, dst, available)
        if not paths:
            return 0
        return 1 + max(best(available - frozenset(p)) for p in paths)

    result = best(frozenset(range(len(edges))))
    best.cache_clear()
    return result


def min_total_distance_bruteforce(
    edges: list[Edge], weights: list[float], src: int, dst: int
) -> float | None:
    """Exhaustive minimum path weight, or None when disconnected."""
    paths = simple_paths(edges, src, dst, frozenset(range(len(edges))))
    if not paths:
        return None
    return min(sum(weights[eid] for eid in p) for p in paths)


def validate_schedule(schedule, graph, demands) -> None:
    """Assert edge-disjointness and per-path structural validity."""
    used: set[int] = set()
    by_id = {d.id: d for d in demands}
    assert list(schedule.paths) == list(by_id), "schedule demand ids or order mismatch"
    for did, paths in schedule.paths.items():
        d = by_id[did]
        for p in paths:
            assert p.nodes[0] == d.src and p.nodes[-1] == d.dst, (
                f"path endpoints {p.nodes[0]}..{p.nodes[-1]} != demand "
                f"({d.src},{d.dst})"
            )
            assert len(set(p.nodes)) == len(p.nodes), "path repeats a node"
            assert len(p.edges) == len(p.nodes) - 1
            for i, eid in enumerate(p.edges):
                link = graph.links[eid]
                assert {link.u, link.v} == {p.nodes[i], p.nodes[i + 1]}, (
                    f"edge {eid} does not join consecutive path nodes"
                )
                assert eid not in used, f"link {eid} allocated twice"
                used.add(eid)
    counts = [len(schedule.paths[d.id]) for d in demands]
    assert schedule.k == min(counts), "k is not the minimum path count"


def _spans_all_nodes(node_count: int, edges: list[Edge]) -> bool:
    """Union-find connectivity over the raw edge list."""
    parent = list(range(node_count))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = node_count
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def graph_to_json_reference(graph: PhysicalNetwork | EntangledGraph) -> str:
    """Reference for both ``to_json`` serializers: a dict through ``json.dumps``.

    Takes a ``PhysicalNetwork`` or an ``EntangledGraph``; the latter adds
    its links under ``"entangled"``. Allocation flags are not serialized.
    """
    physical = graph if isinstance(graph, PhysicalNetwork) else graph.physical
    data = {
        "nodes": [{"id": n.id, "capacity": n.capacity} for n in physical.nodes],
        "links": [
            {"u": l.u, "v": l.v, "distance_km": l.distance_km}
            for l in physical.links
        ],
    }
    if isinstance(graph, EntangledGraph):
        data["entangled"] = [
            {"id": i, "u": l.u, "v": l.v} for i, l in enumerate(graph.links)
        ]
    return json.dumps(data, separators=(",", ":"))


def generate_topology_scalar(
    node_count: int, avg_distance_km: float, avg_capacity: float, rng
) -> PhysicalNetwork:
    """Pair-by-pair reference for ``entroute.generation.generate_topology``.

    One scalar ``rng.random()`` per node pair (u, v), u < v, in row-major
    order per Erdos-Renyi attempt, redrawn until connected within 100
    attempts; then one per link for its distance, saturated at the largest
    float over the node count, and one per node for its capacity.
    """
    p = min(1.0, 2.0 * math.log(node_count) / node_count)
    for _ in range(100):
        edges = [
            (u, v)
            for u in range(node_count)
            for v in range(u + 1, node_count)
            if rng.random() < p
        ]
        if _spans_all_nodes(node_count, edges):
            break
    else:
        raise GenerationFailureError(f"no connected graph on {node_count} nodes")
    cap = sys.float_info.max / node_count
    links = tuple(
        PhysicalLink(u, v, min((0.5 + rng.random()) * avg_distance_km, cap))
        for u, v in edges
    )
    cap_max = max(1, round(2.0 * avg_capacity - 1.0))
    nodes = tuple(
        QuantumNode(i, 1 + min(int(rng.random() * cap_max), cap_max - 1))
        for i in range(node_count)
    )
    return PhysicalNetwork(nodes, links)


def st_min_cut_reference(
    g: EntangledGraph, src: int, dst: int
) -> tuple[frozenset[int], int]:
    """One-directional reference for ``entroute.routing.st_min_cut``.

    Each augmenting path comes from a plain BFS out of src; a last BFS
    collects the nodes reachable from src in the residual graph, and the cut
    is every unallocated link with exactly one endpoint among them. Returns
    ``(cut link ids, flow value)``; ``st_min_cut`` returns only the value.
    """
    _check_endpoints(g, src, dst)
    links = g.links
    usable = [not flag for flag in g.allocated]
    # Net flow per link, oriented from link.u to link.v.
    flow = [0] * len(links)

    def residual_ok(x: int, lid: int) -> bool:
        oriented = flow[lid] if x == links[lid].u else -flow[lid]
        return oriented < 1

    value = 0
    while True:
        parents: dict[int, tuple[int, int] | None] = {src: None}
        queue = deque([src])
        found = False
        while queue and not found:
            x = queue.popleft()
            for y, lid in g.adjacency[x]:
                if y in parents or not usable[lid] or not residual_ok(x, lid):
                    continue
                parents[y] = (x, lid)
                if y == dst:
                    found = True
                    break
                queue.append(y)
        if not found:
            break
        node = dst
        while node != src:
            x, lid = parents[node]  # type: ignore[misc]
            flow[lid] += 1 if x == links[lid].u else -1
            node = x
        value += 1

    reachable = {src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, lid in g.adjacency[x]:
            if y not in reachable and usable[lid] and residual_ok(x, lid):
                reachable.add(y)
                queue.append(y)
    cut = frozenset(
        lid
        for lid, l in enumerate(links)
        if usable[lid] and ((l.u in reachable) != (l.v in reachable))
    )
    if len(cut) != value:
        raise InvariantViolationError(
            f"max-flow/min-cut mismatch: flow {value}, cut size {len(cut)}"
        )
    return cut, value


def shortest_entangled_path_reference(
    g: EntangledGraph, src: int, dst: int
) -> Path | None:
    """One-directional reference for ``entroute.routing.shortest_entangled_path``.

    A plain BFS labels hop distances to dst until src pops; a greedy descent
    from src then takes the smallest ``(node, link id)`` one hop closer to
    dst at every step, comparing over each whole adjacency list.
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
        for y, lid in g.adjacency[x]:
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
        for y, lid in g.adjacency[here]:
            if allocated[lid] or dist.get(y) != want:
                continue
            if step is None or (y, lid) < step:
                step = (y, lid)
        if step is None:  # unreachable given the BFS above
            raise InvariantViolationError("shortest-path descent lost its frontier")
        nodes.append(step[0])
        edges.append(step[1])
        here = step[0]
    return Path(tuple(nodes), tuple(edges))


def min_distance_path_reference(
    g: EntangledGraph, src: int, dst: int
) -> Path | None:
    """Full-Dijkstra reference for ``entroute.routing._min_distance_path``.

    Labels every node of dst's free component, then descends from src by
    the smallest ``(w + dist[y], y, link id)`` over unseen neighbors.
    """
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
        for y, lid in g.adjacency[x]:
            if y not in dist and not allocated[lid]:
                heapq.heappush(heap, (d_x + links[lid].distance_km, y))
    if src not in dist:
        return None

    nodes = [src]
    edges = []
    here = src
    seen = {src}
    while here != dst:
        step = None
        for y, lid in g.adjacency[here]:
            if allocated[lid] or y not in dist or y in seen:
                continue
            key = (links[lid].distance_km + dist[y], y, lid)
            if step is None or key < step:
                step = key
        if step is None:
            raise InvariantViolationError("distance descent lost its frontier")
        _, y, lid = step
        nodes.append(y)
        edges.append(lid)
        seen.add(y)
        here = y
    return Path(tuple(nodes), tuple(edges))
