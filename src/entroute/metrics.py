"""Evaluation metrics that a routing schedule does not carry itself.

A path of h hops consumes exactly 2h qubits: one at each terminus and two
at each of the h-1 intermediate swap nodes.  Qubits are only counted as
exhausted once their link is allocated to a path; unallocated entangled
links return their qubits.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .network import PhysicalNetwork
from .routing import RoutingSchedule


def compute_metrics(schedule: RoutingSchedule, net: PhysicalNetwork) -> tuple[float, float]:
    """``(avg_hop_count, depletion_ratio)`` of ``schedule`` on ``net``.

    The mean hop count is 0.0 when nothing was allocated; the depletion
    ratio is the fraction of the network's qubit capacity that the
    allocated paths consume.
    """
    capacity = sum(net.nodes)
    if capacity <= 0:
        raise InvalidParameterError("total network capacity must be positive")
    hops, paths = schedule.total_hops, schedule.total_paths
    return (hops / paths if paths else 0.0), (2 * hops) / capacity
