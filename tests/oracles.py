"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately independent of the package's graph
algorithms: plain edge lists, exhaustive enumeration or an integer program,
no shared code paths.
The end-to-end references compose these into whole harness runs, with
the harness's stream layout and the metric formulas of ``metrics.py``.
The fidelity reference works on plain 4x4 ndarrays, one cell at a time.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import deque
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from entroute.errors import GenerationFailureError, InvariantViolationError
from entroute.network import EntangledGraph, PhysicalLink, PhysicalNetwork
from entroute.rng import RngStream, hash64
from entroute.routing import Path, RoutingSchedule, _check_endpoints

Edge = tuple[int, int]  # (u, v); index in the list is the edge id


def _unxorshift(y: int, shift: int) -> int:
    """Inverse of ``x ^ (x >> shift)`` on 64-bit words."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix64(z: int) -> int:
    """Inverse of ``entroute.rng.mix64``: the word that mixes to ``z``.

    Undoes the finalizer's steps in reverse order: each xorshift by
    ``_unxorshift`` and each odd multiplier by its inverse mod 2**64.
    """
    mask = (1 << 64) - 1
    z = _unxorshift(z & mask, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return _unxorshift(z, 30)


def uniform(stream) -> float:
    """Uniform float in [0, 1) from the top 53 bits of one ``next_u64`` word."""
    return (stream.next_u64() >> 11) * 2.0**-53


def draw_int(rng, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from one bounded ``RngStream`` draw."""
    return lo + rng.randrange(hi - lo + 1)


def draw_uniform(rng, lo: float, hi: float) -> float:
    """Uniform float in [lo, hi) from one ``uniform`` draw."""
    return lo + (hi - lo) * uniform(rng)


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


def max_min_disjoint_paths_milp(
    node_count: int, edges: list[Edge], pairs: list[tuple[int, int]]
) -> int:
    """Exact ``k*``: the most paths every pair can hold at once, edge-disjoint.

    An integer program solved by HiGHS. Variable ``x[d, e, r]`` is 1 when
    pair d's flow crosses edge e in direction r (0: u to v, 1: v to u). Flow
    is conserved per pair at every node but its two ends, each edge carries
    at most one unit over all pairs and directions, and ``k`` is at most
    every pair's net outflow from its source. Maximizing ``k`` gives
    ``k*``, since an integral flow of value f splits into f edge-disjoint
    paths plus cycles.
    """
    edge_count, pair_count = len(edges), len(pairs)
    k_var = 2 * edge_count * pair_count
    rows, cols, vals = [], [], []
    lower, upper = [], []
    row = 0
    for d, (src, dst) in enumerate(pairs):
        # Row (d, x) sums the net outflow of pair d at node x: 0 at every
        # inner node, at least k at src and free at dst.
        base = row
        for e, (u, v) in enumerate(edges):
            var = 2 * (d * edge_count + e)
            rows += [base + u, base + v, base + v, base + u]
            cols += [var, var, var + 1, var + 1]
            vals += [1.0, -1.0, 1.0, -1.0]
        rows.append(base + src)
        cols.append(k_var)
        vals.append(-1.0)
        lower += [0.0] * node_count
        upper += [0.0] * node_count
        upper[base + src] = math.inf
        lower[base + dst], upper[base + dst] = -math.inf, math.inf
        row += node_count
    for e in range(edge_count):
        for d in range(pair_count):
            var = 2 * (d * edge_count + e)
            rows += [row, row]
            cols += [var, var + 1]
            vals += [1.0, 1.0]
        lower.append(0.0)
        upper.append(1.0)
        row += 1
    matrix = coo_array((vals, (rows, cols)), shape=(row, k_var + 1))
    objective = np.zeros(k_var + 1)
    objective[k_var] = -1.0
    result = milp(
        objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(k_var + 1),
        bounds=Bounds(0, np.r_[np.ones(k_var), math.inf]),
    )
    assert result.status == 0, result.message
    return round(result.x[k_var])


def min_total_distance_bruteforce(
    edges: list[Edge], weights: list[float], src: int, dst: int
) -> float | None:
    """Exhaustive minimum path weight, or None when disconnected."""
    paths = simple_paths(edges, src, dst, frozenset(range(len(edges))))
    if not paths:
        return None
    return min(sum(weights[eid] for eid in p) for p in paths)


def validate_schedule(schedule, graph, demands) -> None:
    """Assert edge-disjointness and per-path structural validity.

    ``demands`` are ``(src, dst)`` pairs, and ``schedule.paths[i]`` holds
    the paths of the i-th.
    """
    used: set[int] = set()
    assert len(schedule.paths) == len(demands), "schedule does not hold one entry per demand"
    for (src, dst), paths in zip(demands, schedule.paths):
        for p in paths:
            assert p.nodes[0] == src and p.nodes[-1] == dst, (
                f"path endpoints {p.nodes[0]}..{p.nodes[-1]} != demand ({src},{dst})"
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
    assert schedule.k == min(len(paths) for paths in schedule.paths), (
        "k is not the minimum path count"
    )


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
        "nodes": [{"id": i, "capacity": c} for i, c in enumerate(physical.nodes)],
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

    One scalar ``uniform(rng)`` per node pair (u, v), u < v, in row-major
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
            if uniform(rng) < p
        ]
        if _spans_all_nodes(node_count, edges):
            break
    else:
        raise GenerationFailureError(f"no connected graph on {node_count} nodes")
    cap = sys.float_info.max / node_count
    links = tuple(
        PhysicalLink(u, v, min((0.5 + uniform(rng)) * avg_distance_km, cap))
        for u, v in edges
    )
    cap_max = max(1, round(2.0 * avg_capacity - 1.0))
    nodes = tuple(
        1 + min(int(uniform(rng) * cap_max), cap_max - 1) for _ in range(node_count)
    )
    return PhysicalNetwork(nodes, links)


def slot_pair_counts_rescan(net: PhysicalNetwork) -> list[int]:
    """Full-rescan reference for ``entroute.generation._slot_pair_counts``.

    Every round visits every link in network order; rounds stop when one
    pairs nothing.
    """
    free = list(net.nodes)
    attempts = [0] * len(net.links)
    paired = True
    while paired:
        paired = False
        for index, link in enumerate(net.links):
            if free[link.u] > 0 and free[link.v] > 0:
                free[link.u] -= 1
                free[link.v] -= 1
                attempts[index] += 1
                paired = True
    return attempts


def generate_entanglement_scalar(net: PhysicalNetwork, alpha: float, rng) -> EntangledGraph:
    """Per-link reference for ``entroute.generation.generate_entanglement``.

    Link i with attempts derives ``rng.substream(i)`` (one scalar ``hash64``)
    and draws one ``uniform`` per attempt against exp(-alpha * distance).
    """
    links = []
    for link_index, (plink, attempts) in enumerate(
        zip(net.links, slot_pair_counts_rescan(net))
    ):
        if attempts == 0:
            continue
        p_success = math.exp(-alpha * plink.distance_km)
        link_rng = rng.substream(link_index)
        for _ in range(attempts):
            if uniform(link_rng) < p_success:
                links.append(plink)
    return EntangledGraph(links, net)


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


def shuffle(rng, items: list) -> None:
    """In-place Fisher-Yates shuffle, one ``rng.randrange`` per position."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def random_simple_path_reference(
    g: EntangledGraph, src: int, dst: int, rng
) -> Path | None:
    """Full-DFS reference for ``entroute.routing._random_simple_path``.

    Depth-first search with a list of free neighbors per popped node,
    shuffled by ``shuffle`` from the ``RngStream`` ``rng``. It runs to the
    end even when src or dst has no free link, so every search takes the
    draws its DFS order asks for.
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
            for y, lid in g.adjacency[x]
            if y not in parents and not allocated[lid]
        ]
        shuffle(rng, candidates)
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


def fcfs_schedule_reference(g: EntangledGraph, demands, find_path) -> RoutingSchedule:
    """First-come-first-served round robin on a copy of ``g``.

    ``demands`` are ``(src, dst)`` pairs. ``find_path(work, i, src, dst)``
    returns a path for demand i or None. A found path is claimed and its
    demand goes to the back of the queue; a demand with no path leaves the
    queue for good.
    """
    work = g.copy()
    paths: list[list[Path]] = [[] for _ in demands]
    queue = deque(range(len(demands)))
    while queue:
        i = queue.popleft()
        p = find_path(work, i, *demands[i])
        if p is None:
            continue
        for lid in p.edges:
            assert not work.allocated[lid], f"link {lid} claimed twice"
            work.allocated[lid] = True
        paths[i].append(p)
        queue.append(i)
    return RoutingSchedule(paths)


def rmpsa_schedule_reference(g: EntangledGraph, demands, rng) -> RoutingSchedule:
    """RMPSA from the full DFS; demand i draws from substream i of ``rng``."""
    streams = {}

    def find(work: EntangledGraph, i: int, src: int, dst: int) -> Path | None:
        if i not in streams:
            streams[i] = rng.substream(i)
        return random_simple_path_reference(work, src, dst, streams[i])

    return fcfs_schedule_reference(g, demands, find)


def dmpsa_schedule_reference(g: EntangledGraph, demands) -> RoutingSchedule:
    """DMPSA from the full-Dijkstra path reference."""
    return fcfs_schedule_reference(
        g, demands, lambda work, i, src, dst: min_distance_path_reference(work, src, dst)
    )


def mcsa_schedule_reference(
    g: EntangledGraph, demands, per_demand_cap: int | None = None
) -> RoutingSchedule:
    """MCSA that ranks every round by ``st_min_cut_reference`` from scratch.

    The rounds of ``entroute.routing.mcsa_schedule``: while more than one
    demand is still served they are ranked by (min-cut value, index), then
    each takes one path from ``shortest_entangled_path_reference`` in that
    order. A demand leaves when it finds no path or has spent its budget,
    ``per_demand_cap`` or else min(C_src, C_dst).
    """
    work = g.copy()
    capacities = work.physical.nodes
    budgets = [per_demand_cap or min(capacities[src], capacities[dst]) for src, dst in demands]
    paths: list[list[Path]] = [[] for _ in demands]
    active = list(range(len(demands)))
    while active:
        if len(active) > 1:
            active.sort(key=lambda i: (st_min_cut_reference(work, *demands[i])[1], i))
        served = []
        for i in active:
            p = shortest_entangled_path_reference(work, *demands[i])
            if p is None:
                continue
            for lid in p.edges:
                assert not work.allocated[lid], f"link {lid} claimed twice"
                work.allocated[lid] = True
            paths[i].append(p)
            budgets[i] -= 1
            if budgets[i] > 0:
                served.append(i)
        active = served
    return RoutingSchedule(paths)


# --- end to end -------------------------------------------------------------

# An instance seed's substreams, by purpose, as the harness docstring lays out.
_TOPOLOGY, _ENTANGLEMENT, _DEMANDS, _RMPSA = range(4)
# The config field that each sweep axis but ``iterations`` replaces.
_AXIS_FIELDS = {
    "avg_capacity": "avg_capacity",
    "avg_distance": "avg_distance_km",
    "node_count": "node_count",
    "demand_count": "demand_count",
}


def sample_demands_reference(node_count: int, demand_count: int, rng) -> list[tuple[int, int]]:
    """Distinct unordered pairs by rejection, two ``randrange`` draws per try."""
    demands: list[tuple[int, int]] = []
    while len(demands) < demand_count:
        u, v = rng.randrange(node_count), rng.randrange(node_count)
        if u != v and (u, v) not in demands and (v, u) not in demands:
            demands.append((u, v))
    return demands


def _schedule_reference(name: str, graph: EntangledGraph, demands, rmpsa_rng) -> RoutingSchedule:
    if name == "smpsa":
        return fcfs_schedule_reference(
            graph, demands,
            lambda work, i, src, dst: shortest_entangled_path_reference(work, src, dst),
        )
    if name == "mcsa":
        return mcsa_schedule_reference(graph, demands)
    if name == "rmpsa":
        return rmpsa_schedule_reference(graph, demands, rmpsa_rng)
    return dmpsa_schedule_reference(graph, demands)


def instance_reference(config, iteration_index: int, axis_index: int) -> tuple:
    """Reference for ``entroute.harness._instance``: (seed stream, graph, demands).

    The instance seed is ``hash64(master seed, iteration, axis index)``. Its
    substreams 0, 1 and 2 draw the topology, the Bell pairs and the demands;
    substream 3, which the caller takes from the returned stream, draws
    RMPSA's paths.
    """
    child = RngStream(hash64(config.master_seed, iteration_index, axis_index))
    net = generate_topology_scalar(
        config.node_count, config.avg_distance_km, config.avg_capacity,
        child.substream(_TOPOLOGY),
    )
    graph = generate_entanglement_scalar(net, config.alpha_per_km, child.substream(_ENTANGLEMENT))
    demands = sample_demands_reference(
        config.node_count, config.demand_count, child.substream(_DEMANDS)
    )
    return child, graph, demands


def run_single_reference(
    config, iteration_index: int, axis_index: int = 0, sweep_value=None
) -> list[tuple]:
    """Reference for ``entroute.harness.run_single``; rows as tuples without ``runtime_ms``.

    Each distinct selected algorithm, in name order, schedules the graph and
    demands of ``instance_reference``, RMPSA from substream 3 of its seed.
    Its row holds k, the fewest paths of any demand; the mean hop count over
    all paths, 0 with none; the depletion ratio, 2 qubits per hop over the
    network's total capacity; and the number of paths.
    """
    child, graph, demands = instance_reference(config, iteration_index, axis_index)
    net = graph.physical
    rows = []
    for name in sorted(set(config.algorithms)):
        schedule = _schedule_reference(name, graph, demands, child.substream(_RMPSA))
        hops = [len(p.edges) for paths in schedule.paths for p in paths]
        rows.append((
            child.seed,
            name,
            sweep_value,
            min(len(paths) for paths in schedule.paths),
            sum(hops) / len(hops) if hops else 0.0,
            2 * sum(hops) / sum(net.nodes),
            len(hops),
        ))
    return rows


def _aggregates_reference(axis: str, value, rows: list[tuple]) -> list[tuple]:
    """Per-algorithm means of k, hop count, depletion and paths, in name order."""
    out = []
    for name in sorted({row[1] for row in rows}):
        sub = [row for row in rows if row[1] == name]
        means = [sum(row[i] for row in sub) / len(sub) for i in (3, 4, 5, 6)]
        out.append((axis, value, name, len(sub), *means))
    return out


def run_sweep_reference(config) -> tuple[list[tuple], list[tuple]]:
    """Reference for ``entroute.harness.run_sweep``: raw and aggregate rows as tuples.

    On the ``iterations`` axis, instances 0, 1, ... run once, up to the
    largest checkpoint, and each checkpoint c, in ascending order, averages
    the rows of the first c instances. On any other axis, value j of the
    sweep replaces its config field and runs ``config.iterations`` instances
    with axis index j, averaged on their own.
    """
    axis = config.sweep_axis
    raw: list[tuple] = []
    aggregates: list[tuple] = []
    if axis == "iterations":
        checkpoints = sorted(int(v) for v in config.sweep_values)
        for iteration in range(checkpoints[-1]):
            raw += run_single_reference(config, iteration)
        per_instance = len(set(config.algorithms))
        for checkpoint in checkpoints:
            window = raw[: checkpoint * per_instance]
            aggregates += _aggregates_reference(axis, float(checkpoint), window)
        return raw, aggregates
    field = _AXIS_FIELDS[axis]
    for axis_index, value in enumerate(config.sweep_values):
        sub = replace(config, **{field: int(value) if field.endswith("_count") else value})
        rows = [
            row
            for iteration in range(config.iterations)
            for row in run_single_reference(sub, iteration, axis_index, value)
        ]
        raw += rows
        aggregates += _aggregates_reference(axis, value, rows)
    return raw, aggregates


def run_grid_check_reference(rows: int, cols: int, demand_count: int, seed: int) -> tuple:
    """Reference for ``entroute.harness.run_grid_check``; the report's fields as a tuple.

    A rows x cols grid of capacity-4 nodes and 1 km links, each node linked
    to its right and then its lower neighbor in row-major order, entangled
    at alpha 0 from substream 1 of ``seed``. Demand i joins column c_i of
    the top row to the same column of the bottom row, the columns a
    ``sample`` of substream 2, and MCSA serves at most one path each.
    """
    n = rows * cols
    links = []
    for x in range(n):
        if x % cols + 1 < cols:
            links.append(PhysicalLink(x, x + 1, 1.0))
        if x + cols < n:
            links.append(PhysicalLink(x, x + cols, 1.0))
    net = PhysicalNetwork((4,) * n, tuple(links))
    graph = generate_entanglement_scalar(net, 0.0, RngStream(seed).substream(_ENTANGLEMENT))
    columns = RngStream(seed).substream(_DEMANDS).sample(cols, demand_count)
    demands = [(c, (rows - 1) * cols + c) for c in columns]
    schedule = mcsa_schedule_reference(graph, demands, per_demand_cap=1)
    counts = tuple(len(paths) for paths in schedule.paths)
    return (rows, cols, demand_count, seed, all(counts), counts)


# --- fidelity ---------------------------------------------------------------

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _dephase_scalar(m: np.ndarray, rate: float, t: float, qubit: int) -> np.ndarray:
    p = (1.0 - math.exp(-rate * t)) / 2.0
    z = np.kron(_Z, _I2) if qubit == 0 else np.kron(_I2, _Z)
    return (1.0 - p) * m + p * (z @ m @ z)


def _depolarize_scalar(m: np.ndarray, rate: float, t: float, qubit: int) -> np.ndarray:
    p = 1.0 - math.exp(-rate * t)
    halves = m.reshape(2, 2, 2, 2)
    if qubit == 0:
        mixed = np.kron(_I2 / 2.0, np.einsum("abad->bd", halves))
    else:
        mixed = np.kron(np.einsum("abcb->ac", halves), _I2 / 2.0)
    return (1.0 - p) * m + p * mixed


def _fidelity_scalar(rho: np.ndarray, sigma: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh(rho)
    s = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = s @ sigma @ s
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    floor = vals.max() * 1e-12 if vals.max() > 0 else 0.0
    vals = np.where(vals < floor, 0.0, vals)
    return min(max(float(np.sqrt(vals).sum() ** 2), 0.0), 1.0)


def fidelity_sweep_scalar(
    dephasing_rates_hz, depolarization_rates_hz, distances_km,
    propagation_speed_km_per_s: float = 200000.0,
) -> list[tuple[str, float, float, float]]:
    """Cell-by-cell reference for ``entroute.fidelity.fidelity_sweep``.

    Two channel applications and one Uhlmann fidelity per cell, each on a
    4x4 ndarray, in the sweep's row order; no validation. Rows are
    ``(channel, rate_hz, distance_km, fidelity)`` tuples.
    """
    ideal = np.zeros((4, 4), dtype=complex)
    ideal[np.ix_((0, 3), (0, 3))] = 0.5
    rows = []
    for name, rates, apply in (
        ("dephasing", dephasing_rates_hz, _dephase_scalar),
        ("depolarizing", depolarization_rates_hz, _depolarize_scalar),
    ):
        for rate in sorted(rates):
            for distance in sorted(distances_km):
                t = distance / propagation_speed_km_per_s
                noisy = apply(apply(ideal, rate, t, 0), rate, t, 1)
                rows.append((name, rate, distance, _fidelity_scalar(noisy, ideal)))
    return rows
