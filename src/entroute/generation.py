"""Topology generators and probabilistic entanglement generation.

Random topologies are Erdos-Renyi G(n, p) with p = min(1, 2 ln n / n),
redrawn until connected (bounded retries).  Link distances are uniform on
[0.5, 1.5] times the requested average, saturated at the largest float over
n so that path lengths stay finite; node capacities are uniform integers
on [1, round(2 * avg - 1)] so their mean tracks the requested average while
staying >= 1.

Topology draws come in blocks from ``RngStream.random_array``: one uniform per
node pair (u, v), u < v, in row-major order for each Erdos-Renyi attempt,
then one per link for distances and one per node for capacities.  The blocks
are bit-identical to the same number of scalar ``random()`` calls, so the
generated network is exactly the one a pair-by-pair loop would draw.

Entanglement generation budgets each node's qubits across its incident
links in synchronized rounds.  In every round each link, visited in
ascending (u, v) order (which walks each node's neighbors in ascending id
order), claims one qubit-slot pair while both endpoints still have free
qubits; rounds repeat until no link can pair.  Each claimed slot pair makes
exactly one Bell-pair attempt, succeeding independently with probability
exp(-alpha * distance); failed attempts release their qubits but are not
retried.  One uniform draw per attempt, taken from a per-link substream, is
compared against that threshold, so lowering alpha never shrinks the
generated edge set for a fixed seed.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    GenerationFailureError,
    InvalidParameterError,
    require_finite,
    require_integer,
)
from .network import EntangledGraph, PhysicalLink, PhysicalNetwork, QuantumNode
from .rng import RngStream

CONNECTIVITY_RETRY_BUDGET = 100
# Node pairs drawn per block: caps the memory of an Erdos-Renyi attempt at a
# few MB whatever the node count (up to n = 362 all pairs fit in one block).
PAIR_BLOCK = 1 << 16


def entanglement_probability(distance_km: float, alpha: float) -> float:
    """Per-attempt success probability exp(-alpha * distance)."""
    # Chained comparisons are false for NaN, so these also reject it.
    if not 0 <= distance_km < math.inf:
        raise InvalidParameterError(f"distance must be in [0, inf), got {distance_km}")
    if not 0 <= alpha < math.inf:
        raise InvalidParameterError(f"alpha must be in [0, inf), got {alpha}")
    return math.exp(-alpha * distance_km)


def _is_connected(node_count: int, edges: list[tuple[int, int]]) -> bool:
    if node_count == 0:
        return True
    adjacency: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
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
    require_integer("node_count", node_count)
    require_finite("avg_distance_km", avg_distance_km)
    require_finite("avg_capacity", avg_capacity)
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
    edges: list[tuple[int, int]] | None = None
    for _ in range(CONNECTIVITY_RETRY_BUDGET):
        kept = np.concatenate([
            start + np.flatnonzero(rng.random_array(min(PAIR_BLOCK, pair_count - start)) < p)
            for start in range(0, pair_count, PAIR_BLOCK)
        ])
        u = np.searchsorted(row_start, kept, side="right") - 1
        v = kept - row_start[u] + u + 1
        candidate = list(zip(u.tolist(), v.tolist()))
        if _is_connected(node_count, candidate):
            edges = candidate
            break
    if edges is None:
        raise GenerationFailureError(
            f"no connected graph on {node_count} nodes within "
            f"{CONNECTIVITY_RETRY_BUDGET} attempts"
        )

    # Distances and capacities are monotone transforms of raw uniforms so
    # that sweeping the averages preserves per-seed orderings.  float() is
    # the conversion Python applies to an int operand of a float product.
    # Distances saturate at the largest float over the node count: a simple
    # path has at most n - 1 links, so no path length overflows to inf.
    with np.errstate(over="ignore"):
        distances = (0.5 + rng.random_array(len(edges))) * float(avg_distance_km)
    distances = np.minimum(distances, sys.float_info.max / node_count)
    links = tuple(
        PhysicalLink(u, v, d) for (u, v), d in zip(edges, distances.tolist())
    )
    cap_max = max(1, round(2.0 * avg_capacity - 1.0))
    scaled = rng.random_array(node_count) * float(cap_max)
    nodes = tuple(
        QuantumNode(i, 1 + min(int(x), cap_max - 1))
        for i, x in enumerate(scaled.tolist())
    )
    return PhysicalNetwork(nodes, links)


def generate_grid(
    rows: int, cols: int, distance_km: float, capacity: int
) -> PhysicalNetwork:
    """rows x cols grid with uniform link distance and node capacity."""
    require_integer("rows", rows)
    require_integer("cols", cols)
    require_integer("capacity", capacity)
    # Floats go straight to the range check, which also rejects NaN and inf.
    if type(distance_km) is not float:
        require_finite("distance_km", distance_km)
    if rows < 2 or cols < 2:
        raise InvalidParameterError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    if capacity < 1:
        raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
    if not 0 < distance_km < math.inf:
        raise InvalidParameterError(
            f"distance must be positive and finite, got {distance_km}"
        )

    nodes = tuple(QuantumNode(i, capacity) for i in range(rows * cols))
    links = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                links.append(PhysicalLink(here, here + 1, distance_km))
            if r + 1 < rows:
                links.append(PhysicalLink(here, here + cols, distance_km))
    return PhysicalNetwork(nodes, tuple(links))


def _slot_pair_counts(net: PhysicalNetwork) -> list[int]:
    """Attempts per link from the synchronized-round slot pairing."""
    free = [node.capacity for node in net.nodes]
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


def generate_entanglement(
    net: PhysicalNetwork, alpha: float, rng: RngStream
) -> EntangledGraph:
    """One synchronized generation run over every physical link.

    Attempt counts per link come from the round-based slot pairing, which
    never exceeds either endpoint's qubit budget; failed attempts release
    their qubits and are not retried. Each Bell pair is recorded as the
    physical link it was generated over.
    """
    require_finite("alpha", alpha)
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")

    links: list[PhysicalLink] = []
    for link_index, (plink, attempts) in enumerate(
        zip(net.links, _slot_pair_counts(net))
    ):
        if attempts == 0:
            continue
        p_success = entanglement_probability(plink.distance_km, alpha)
        link_rng = rng.substream(link_index)
        for _ in range(attempts):
            if link_rng.random() < p_success:
                links.append(plink)
    return EntangledGraph(links, net)
