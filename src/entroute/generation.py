"""Topology generators and probabilistic entanglement generation.

Random topologies are Erdos-Renyi G(n, p) with p = min(1, 2 ln n / n),
redrawn until connected (bounded retries).  Link distances are uniform on
[0.5, 1.5] times the requested average, saturated at the largest float over
n so that path lengths stay finite; node capacities are uniform integers
on [1, round(2 * avg - 1)] so their mean tracks the requested average while
staying >= 1.

Topology draws come in blocks from ``RngStream.random_array``: one uniform per
node pair (u, v), u < v, in row-major order for each Erdos-Renyi attempt,
then one per link for distances and one per node for capacities.  Uniform i
of a block is ``(w >> 11) * 2**-53`` for the i-th ``next_u64()`` word w, so the
generated network is exactly the one a pair-by-pair loop would draw.

Entanglement generation budgets each node's qubits across its incident
links in synchronized rounds.  In every round each link, visited in
ascending (u, v) order (which walks each node's neighbors in ascending id
order), claims one qubit-slot pair while both endpoints still have free
qubits; rounds repeat until no link can pair.  A link that fails to pair has
an endpoint with no free qubit left, and free qubits never come back, so
each round visits only the links that paired in the round before, in the
same order, and claims exactly the slots a full rescan would.  Each claimed
slot pair makes exactly one Bell-pair attempt, succeeding independently with
probability exp(-alpha * distance); failed attempts release their qubits but
are not retried.

Link i draws from the substream ``rng.substream(i)``.  The seeds of all
links come in one block from ``hash64_range``, and a stream is built only
for links with attempts.  Each attempt takes one ``next_u64()`` word w from its
link's stream and succeeds when ``(w >> 11) * 2**-53`` is below that
probability, so lowering alpha never shrinks the edge set for a fixed seed.

Grids are built and checked once per validated (rows, cols, distance,
capacity) and kept in a 128-entry LRU cache: a network is frozen, so every
caller of ``generate_grid`` with equal arguments shares one.  A network pairs
its slots once and keeps the attempt counts.  A run in which every attempt
succeeds, as every grid check's at alpha = 0 does, has the network's full
multigraph as its links; the network keeps that graph, built by the first
such run, and each run gets a copy of it with fresh allocation flags.  That
graph and its copies share one memo of min cuts from the zero flow, which
``routing.st_min_cut`` fills; a graph built for a run with a failed attempt
has none.  The draws are made all the same, one per attempt.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import (
    GenerationFailureError,
    InvalidParameterError,
    require_finite,
    require_integer,
)
from .network import EntangledGraph, PhysicalLink, PhysicalNetwork
from .rng import RngStream, hash64_range

CONNECTIVITY_RETRY_BUDGET = 100
# Node pairs drawn per block: caps the memory of an Erdos-Renyi attempt at a
# few MB whatever the node count (up to n = 362 all pairs fit in one block).
PAIR_BLOCK = 1 << 16


def _is_connected(node_count: int, us: list[int], vs: list[int]) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in zip(us, vs):
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * node_count
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == node_count


def generate_topology(
    node_count: int,
    avg_distance_km: float,
    avg_capacity: float,
    rng: RngStream,
) -> PhysicalNetwork:
    """Connected random network with the requested average distance/capacity."""
    node_count = require_integer("node_count", node_count)
    avg_distance_km = require_finite("avg_distance_km", avg_distance_km)
    avg_capacity = require_finite("avg_capacity", avg_capacity)
    if node_count < 2:
        raise InvalidParameterError(f"need at least 2 nodes, got {node_count}")
    if avg_distance_km <= 0:
        raise InvalidParameterError("average distance must be positive")
    if avg_capacity < 1:
        raise InvalidParameterError("average capacity must be >= 1")

    p = min(1.0, 2.0 * math.log(node_count) / node_count)
    # One coin flip per node pair (u, v), u < v, in row-major order.  Pair
    # (u, v) has index row_start[u] + v - u - 1 in that order.
    pair_count = node_count * (node_count - 1) // 2
    row_start = np.concatenate(([0], np.cumsum(np.arange(node_count - 1, 0, -1))))
    for _ in range(CONNECTIVITY_RETRY_BUDGET):
        kept = np.concatenate([
            start + np.flatnonzero(rng.random_array(min(PAIR_BLOCK, pair_count - start)) < p)
            for start in range(0, pair_count, PAIR_BLOCK)
        ])
        u = np.searchsorted(row_start, kept, side="right") - 1
        us, vs = u.tolist(), (kept - row_start[u] + u + 1).tolist()
        if _is_connected(node_count, us, vs):
            break
    else:
        raise GenerationFailureError(
            f"no connected graph on {node_count} nodes within "
            f"{CONNECTIVITY_RETRY_BUDGET} attempts"
        )

    # Distances and capacities are monotone transforms of raw uniforms so
    # that sweeping the averages preserves per-seed orderings.  Distances
    # saturate at the largest float over the node count: a simple
    # path has at most n - 1 links, so no path length overflows to inf.
    with np.errstate(over="ignore"):
        distances = (0.5 + rng.random_array(len(us))) * avg_distance_km
    distances = np.minimum(distances, sys.float_info.max / node_count)
    links = tuple(map(PhysicalLink._make, zip(us, vs, distances.tolist())))
    cap_max = max(1, round(2.0 * avg_capacity - 1.0))
    scaled = rng.random_array(node_count) * float(cap_max)
    nodes = tuple([1 + min(int(x), cap_max - 1) for x in scaled.tolist()])
    return PhysicalNetwork(nodes, links)


def generate_grid(
    rows: int, cols: int, distance_km: float, capacity: int
) -> PhysicalNetwork:
    """rows x cols grid with uniform link distance and node capacity.

    The network is built and checked once per validated shape and kept in a
    128-entry LRU cache, so equal arguments return the same frozen network.
    """
    rows, cols = require_integer("rows", rows), require_integer("cols", cols)
    capacity = require_integer("capacity", capacity)
    # Floats go straight to the range check, which also rejects NaN and inf.
    if type(distance_km) is not float:
        distance_km = require_finite("distance_km", distance_km)
    if rows < 2 or cols < 2:
        raise InvalidParameterError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    if capacity < 1:
        raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
    if not 0 < distance_km < math.inf:
        raise InvalidParameterError(
            f"distance must be positive and finite, got {distance_km}"
        )
    return _grid(rows, cols, distance_km, capacity)


# Called only after the checks: True == 1 and 3.0 == 3 are equal cache keys.
@functools.lru_cache()
def _grid(rows: int, cols: int, distance_km: float, capacity: int) -> PhysicalNetwork:
    nodes = (capacity,) * (rows * cols)
    links = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                links.append((here, here + 1, distance_km))
            if r + 1 < rows:
                links.append((here, here + cols, distance_km))
    return PhysicalNetwork(nodes, tuple(map(PhysicalLink._make, links)))


def _slot_pair_counts(net: PhysicalNetwork) -> tuple[int, ...]:
    """Attempts per link from the synchronized-round slot pairing.

    Each round visits only the links that paired in the round before: a link
    that fails has a spent endpoint, and spent endpoints stay spent. The
    first call keeps the result on the network, so later ones return it.
    """
    if net._slot_pairs is not None:
        return net._slot_pairs
    free = list(net.nodes)
    attempts = [0] * len(net.links)
    live = [(index, link.u, link.v) for index, link in enumerate(net.links)]
    while live:
        paired = []
        for entry in live:
            index, u, v = entry
            if free[u] > 0 and free[v] > 0:
                free[u] -= 1
                free[v] -= 1
                attempts[index] += 1
                paired.append(entry)
        live = paired
    object.__setattr__(net, "_slot_pairs", tuple(attempts))
    return net._slot_pairs


def generate_entanglement(
    net: PhysicalNetwork, alpha: float, rng: RngStream
) -> EntangledGraph:
    """One synchronized generation run over every physical link.

    Attempt counts per link come from the round-based slot pairing, which
    never exceeds either endpoint's qubit budget; failed attempts release
    their qubits and are not retried. Each Bell pair is recorded as the
    physical link it was generated over.
    """
    alpha = require_finite("alpha", alpha)
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")

    counts = _slot_pair_counts(net)
    links: list[PhysicalLink] = []
    for plink, attempts, seed in zip(
        net.links, counts, hash64_range(rng.seed, len(net.links))
    ):
        if attempts == 0:
            continue
        # The module docstring's success model; the network checked distance_km.
        p_success = math.exp(-alpha * plink.distance_km)
        next_u64 = RngStream(seed).next_u64
        for _ in range(attempts):
            # A uniform from the word's top 53 bits, one call per attempt.
            if (next_u64() >> 11) * 2.0**-53 < p_success:
                links.append(plink)
    if len(links) == sum(counts):
        # Every attempt succeeded: links is the network's full multigraph,
        # built by the first such run and handed out with fresh flags.
        full = net._full_graph
        if full is None:
            full = EntangledGraph(links, net)
            object.__setattr__(full, "_cuts", {})
            object.__setattr__(net, "_full_graph", full)
        return full.copy()
    return EntangledGraph(links, net)
