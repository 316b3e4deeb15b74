"""entroute: deterministic k-entangled multipath routing simulator.

Builds entangled multigraphs over capacity-constrained quantum nodes,
schedules edge-disjoint entangled paths for demand sets with four
scheduling algorithms, computes traffic-flexibility metrics, and models
Bell-pair fidelity decay under dephasing/depolarizing noise.
"""

from .errors import (
    GenerationFailureError,
    InvalidParameterError,
    InvariantViolationError,
)
from .fidelity import (
    DensityMatrix,
    NoiseConfig,
    apply_dephasing,
    apply_depolarizing,
    bell_state,
    fidelity,
    fidelity_sweep,
)
from .generation import (
    entanglement_probability,
    generate_entanglement,
    generate_grid,
    generate_topology,
)
from .harness import (
    ExperimentConfig,
    GridCheckReport,
    ResultRow,
    load_config,
    run_fidelity,
    run_grid_check,
    run_single,
    run_sweep,
)
from .metrics import (
    MetricsReport,
    avg_hop_count,
    compute_metrics,
    qubit_depletion_ratio,
)
from .network import (
    Demand,
    EntangledGraph,
    EntangledLink,
    PhysicalLink,
    PhysicalNetwork,
    QuantumNode,
)
from .routing import (
    CutResult,
    Path,
    RoutingSchedule,
    allocate_path,
    dmpsa_schedule,
    mcsa_schedule,
    path_flexibility,
    rmpsa_schedule,
    shortest_entangled_path,
    smpsa_schedule,
    st_min_cut,
)
from .rng import RngStream, hash64

__version__ = "0.1.0"

__all__ = [
    "Demand",
    "DensityMatrix",
    "EntangledGraph",
    "EntangledLink",
    "ExperimentConfig",
    "GenerationFailureError",
    "GridCheckReport",
    "InvalidParameterError",
    "InvariantViolationError",
    "MetricsReport",
    "NoiseConfig",
    "Path",
    "PhysicalLink",
    "PhysicalNetwork",
    "QuantumNode",
    "ResultRow",
    "RngStream",
    "RoutingSchedule",
    "CutResult",
    "allocate_path",
    "apply_dephasing",
    "apply_depolarizing",
    "avg_hop_count",
    "bell_state",
    "compute_metrics",
    "dmpsa_schedule",
    "entanglement_probability",
    "fidelity",
    "fidelity_sweep",
    "generate_entanglement",
    "generate_grid",
    "generate_topology",
    "hash64",
    "load_config",
    "mcsa_schedule",
    "path_flexibility",
    "qubit_depletion_ratio",
    "rmpsa_schedule",
    "run_fidelity",
    "run_grid_check",
    "run_single",
    "run_sweep",
    "shortest_entangled_path",
    "smpsa_schedule",
    "st_min_cut",
]
