"""Evaluation metrics computed from a routing schedule.

A path of h hops consumes exactly 2h qubits: one at each terminus and two
at each of the h-1 intermediate swap nodes.  Qubits are only counted as
exhausted once their link is allocated to a path; unallocated entangled
links return their qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .network import PhysicalNetwork
from .routing import RoutingSchedule


@dataclass(frozen=True, slots=True)
class MetricsReport:
    k: int
    avg_hop_count: float
    depletion_ratio: float
    total_paths: int


def avg_hop_count(schedule: RoutingSchedule) -> float:
    """Mean hop count over all allocated paths; 0 when nothing was allocated."""
    total = schedule.total_paths
    if total == 0:
        return 0.0
    return schedule.total_hops / total


def qubit_depletion_ratio(schedule: RoutingSchedule, net: PhysicalNetwork) -> float:
    """Fraction of the network's qubit capacity consumed by allocated paths."""
    capacity = net.total_capacity()
    if capacity <= 0:
        raise InvalidParameterError("total network capacity must be positive")
    return (2 * schedule.total_hops) / capacity


def compute_metrics(schedule: RoutingSchedule, net: PhysicalNetwork) -> MetricsReport:
    return MetricsReport(
        k=schedule.k,
        avg_hop_count=avg_hop_count(schedule),
        depletion_ratio=qubit_depletion_ratio(schedule, net),
        total_paths=schedule.total_paths,
    )
