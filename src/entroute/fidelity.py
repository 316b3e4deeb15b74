"""Two-qubit density-matrix engine for Bell-pair fidelity experiments.

Models fidelity decay of a Bell pair under dephasing and depolarizing
memory noise accumulated over the fiber propagation delay.  Channels are
applied analytically, so the expectation that a sampling simulator would
estimate over thousands of shots is computed exactly in one evaluation.

Channel parameterizations (rate r, elapsed time t):
    dephasing      rho -> (1-p) rho + p Z rho Z          p = (1 - exp(-r t)) / 2
    depolarizing   rho -> (1-p) rho + p I/2 (x) tr_q rho  p = 1 - exp(-r t)

Qubit 0 is the first tensor factor (most significant index bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, InvariantViolationError, require_finite

ATOL = 1e-9

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 4x4 two-qubit density matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidParameterError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise InvariantViolationError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > ATOL or abs(np.trace(m).imag) > ATOL:
            raise InvariantViolationError(
                f"density matrix trace is {np.trace(m)}, expected 1"
            )
        if np.linalg.eigvalsh(m).min() < -ATOL:
            raise InvariantViolationError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise rates and fiber propagation speed for fidelity experiments."""

    dephasing_rate_hz: float = 0.0
    depolarization_rate_hz: float = 0.0
    propagation_speed_km_per_s: float = 200000.0

    def __post_init__(self):
        for f in fields(self):
            require_finite(f"noise.{f.name}", getattr(self, f.name))
        if self.dephasing_rate_hz < 0 or self.depolarization_rate_hz < 0:
            raise InvalidParameterError("noise rates must be >= 0")
        if self.propagation_speed_km_per_s <= 0:
            raise InvalidParameterError("propagation speed must be positive")


def bell_state() -> DensityMatrix:
    """|Phi+><Phi+| with |Phi+> = (|00> + |11>) / sqrt(2)."""
    m = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            m[i, j] = 0.5
    return DensityMatrix(m)


def _check_qubit(qubit: int) -> None:
    if type(qubit) is bool or qubit not in (0, 1):
        raise InvalidParameterError(f"qubit must be 0 or 1, got {qubit}")


def _check_rate_time(rate_hz: float, time_s: float) -> None:
    # Chained comparisons are false for NaN, so these also reject it.
    if not 0 <= rate_hz < math.inf:
        raise InvalidParameterError(f"rate must be in [0, inf), got {rate_hz}")
    if not 0 <= time_s < math.inf:
        raise InvalidParameterError(f"time must be in [0, inf), got {time_s}")


def apply_dephasing(
    rho: DensityMatrix, rate_hz: float, time_s: float, qubit: int
) -> DensityMatrix:
    """Phase-flip channel on one qubit with p = (1 - exp(-rate*time)) / 2."""
    _check_rate_time(rate_hz, time_s)
    _check_qubit(qubit)
    p = (1.0 - math.exp(-rate_hz * time_s)) / 2.0
    z = np.kron(_Z, _I2) if qubit == 0 else np.kron(_I2, _Z)
    m = rho.entries
    return DensityMatrix((1.0 - p) * m + p * (z @ m @ z))


def _partial_trace(m: np.ndarray, qubit: int) -> np.ndarray:
    t = m.reshape(2, 2, 2, 2)
    if qubit == 0:
        return np.einsum("abad->bd", t)
    return np.einsum("abcb->ac", t)


def apply_depolarizing(
    rho: DensityMatrix, rate_hz: float, time_s: float, qubit: int
) -> DensityMatrix:
    """Depolarizing channel on one qubit with p = 1 - exp(-rate*time).

    With probability p the chosen qubit is replaced by the maximally mixed
    state while the other qubit keeps its reduced state.
    """
    _check_rate_time(rate_hz, time_s)
    _check_qubit(qubit)
    p = 1.0 - math.exp(-rate_hz * time_s)
    m = rho.entries
    reduced = _partial_trace(m, qubit)
    if qubit == 0:
        mixed = np.kron(_I2 / 2.0, reduced)
    else:
        mixed = np.kron(reduced, _I2 / 2.0)
    return DensityMatrix((1.0 - p) * m + p * mixed)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < -ATOL:
        raise InvariantViolationError("matrix is not positive semidefinite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T

def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (trace sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments, 1 exactly when the states coincide, and for
    pure sigma = |psi><psi| equal to <psi|rho|psi>.
    """
    s = _psd_sqrt(rho.entries)
    inner = s @ sigma.entries @ s
    # inner is Hermitian PSD up to rounding; clamp spectrum before the root.
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    if vals.min() < -ATOL:
        raise InvariantViolationError("fidelity inner matrix lost positivity")
    # Rounding noise shows up as eigenvalues around 1e-16 relative to the
    # top one; square roots would amplify it, so zero anything that small.
    floor = vals.max() * 1e-12 if vals.max() > 0 else 0.0
    vals = np.where(vals < floor, 0.0, vals)
    value = float(np.sqrt(vals).sum() ** 2)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True, slots=True)
class FidelitySweepRow:
    channel: str
    rate_hz: float
    distance_km: float
    fidelity: float


def fidelity_sweep(
    dephasing_rates_hz,
    depolarization_rates_hz,
    distances_km,
    propagation_speed_km_per_s: float = 200000.0,
) -> list[FidelitySweepRow]:
    """Bell-pair fidelity after symmetric noise on both qubits for t = d/c.

    Rows are ordered by (channel, rate, distance); the channel model is
    analytic so each cell is a single exact evaluation.
    """
    for name, values in (
        ("dephasing rate", dephasing_rates_hz),
        ("depolarization rate", depolarization_rates_hz),
        ("distance", distances_km),
    ):
        for value in values:
            require_finite(name, value)
    dephasing_rates_hz = sorted(dephasing_rates_hz)
    depolarization_rates_hz = sorted(depolarization_rates_hz)
    distances_km = sorted(distances_km)
    require_finite("propagation speed", propagation_speed_km_per_s)
    if propagation_speed_km_per_s <= 0:
        raise InvalidParameterError("propagation speed must be positive")
    if not distances_km or not (dephasing_rates_hz or depolarization_rates_hz):
        raise InvalidParameterError("fidelity sweep grid must be nonempty")

    ideal = bell_state()
    rows: list[FidelitySweepRow] = []
    channels = [
        ("dephasing", dephasing_rates_hz, apply_dephasing),
        ("depolarizing", depolarization_rates_hz, apply_depolarizing),
    ]
    for name, rates, apply in channels:
        for rate in rates:
            for distance in distances_km:
                if distance <= 0:
                    raise InvalidParameterError("distances must be positive")
                t = distance / propagation_speed_km_per_s
                noisy = apply(apply(ideal, rate, t, 0), rate, t, 1)
                rows.append(
                    FidelitySweepRow(name, rate, distance, fidelity(noisy, ideal))
                )
    return rows


def write_fidelity_csv(rows, out) -> None:
    """CSV emission: header plus one row per grid cell, fidelity to 6 places."""
    out.write("channel,rate_hz,distance_km,fidelity\n")
    for row in rows:
        out.write(
            f"{row.channel},{row.rate_hz:g},{row.distance_km:g},{row.fidelity:.6f}\n"
        )
