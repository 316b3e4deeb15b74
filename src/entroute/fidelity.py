"""Two-qubit density-matrix engine for Bell-pair fidelity experiments.

Models fidelity decay of a Bell pair under dephasing and depolarizing
memory noise accumulated over the fiber propagation delay.  Channels are
applied analytically, so the expectation that a sampling simulator would
estimate over thousands of shots is computed exactly in one evaluation.

Every kernel takes one matrix or a stack of them.  A ``DensityMatrix``
holds a ``(4, 4)`` matrix or an ``(n, 4, 4)`` stack and validates the
whole stack at once; the channels take one time or a 1-D array of times,
one per matrix; ``fidelity`` returns a float or a list of floats.  Each
matrix of a stack gets, bit for bit, the value it would get alone, so a
sweep evaluates every distance of one (channel, rate) pair as one stack.

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
# Z on qubit 0 and on qubit 1, and the maximally mixed qubit state.
_Z_ON = (np.kron(_Z, _I2), np.kron(_I2, _Z))
_HALF_I2 = _I2 / 2.0


def _require(ok: np.ndarray, subject: str, problem: str, values=None) -> None:
    """Raise InvariantViolationError unless a per-matrix check holds for all.

    ``ok`` holds one bool per matrix (0-d for a single matrix). The message
    names the first failing matrix of a stack by its index, and ``problem``
    may show that matrix's entry of ``values`` through ``{}``.
    """
    if ok.all():
        return
    index = ()
    if ok.ndim:
        index = int(np.argmin(ok))
        subject = f"{subject} {index} of the stack"
    detail = None if values is None else values[index]
    raise InvariantViolationError(f"{subject} {problem.format(detail)}")


def _hermitian(m: np.ndarray) -> np.ndarray:
    """``np.isclose(m, h, atol=ATOL).all(axis=(-2, -1))`` for ``h = m^H``.

    np.isclose's own formula, evaluated inline; the caller runs it under
    ``np.errstate(invalid="ignore", over="ignore")``.
    """
    h = m.swapaxes(-1, -2).conj()
    close = (abs(m - h) <= ATOL + 1e-05 * abs(h)) & np.isfinite(h) | (m == h)
    return close.all(axis=(-2, -1))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit density matrix, or a nonempty stack of them.

    ``entries`` is one ``(4, 4)`` matrix or an ``(n, 4, 4)`` stack.

    The Hermitian test is ``np.isclose(m, h, atol=ATOL)`` with
    ``h = m.swapaxes(-1, -2).conj()``, written out as np.isclose's own
    formula (NumPy 2.x): ``|m - h| <= ATOL + 1e-5 |h|`` where ``h`` is
    finite, or ``m == h``. Inline, it skips np.isclose's per-call argument
    handling, and one ``np.errstate`` covers it and the trace, so huge
    finite entries that overflow there fail their check instead of
    warning. On a stack with finite entries it equals np.isclose per matrix
    on NumPy 1.24 and 2.x. With a non-finite entry it gives NumPy 2.x's
    answer on both; NumPy 1.24's np.isclose multiplies such entries by one,
    and inf * 0 is NaN, so it calls every such matrix not close (and
    warns).
    """

    entries: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.entries, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"density matrix entries are not complex numbers: {exc}"
            ) from None
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise InvalidParameterError(
                f"expected a 4x4 matrix or a stack of them, got {m.shape}"
            )
        if m.size == 0:
            raise InvalidParameterError("density matrix stack is empty")
        with np.errstate(invalid="ignore", over="ignore"):
            hermitian = _hermitian(m)
            trace = np.trace(m, axis1=-2, axis2=-1)
        _require(hermitian, "density matrix", "is not Hermitian")
        unit = (abs(trace.real - 1.0) <= ATOL) & (abs(trace.imag) <= ATOL)
        _require(unit, "density matrix", "trace is {}, expected 1", trace)
        psd = np.linalg.eigvalsh(m).min(axis=-1) >= -ATOL
        _require(psd, "density matrix", "is not positive semidefinite")
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


def _check_range(name: str, value, where: str = "") -> None:
    # Chained comparisons are false for NaN, so this also rejects it.
    if not 0 <= value < math.inf:
        raise InvalidParameterError(f"{name} must be in [0, inf), got {value}{where}")


def _decay(rho: DensityMatrix, rate_hz, time_s, qubit: int):
    """Check a channel's arguments and return exp(-rate * time).

    ``time_s`` is a float, or a 1-D float array with one time per matrix of
    the result; then the result is an ``(n, 1, 1)`` array to broadcast.
    Each entry comes from ``math.exp`` in Python, as for a single time:
    NumPy's ``exp`` is not guaranteed to match it bit for bit.
    """
    if not isinstance(time_s, np.ndarray):
        # The exact type test spares float callers the slower full check.
        if not (type(rate_hz) is float and type(time_s) is float):
            require_finite("rate", rate_hz)
            require_finite("time", time_s)
        _check_range("rate", rate_hz)
        _check_range("time", time_s)
        _check_qubit(qubit)
        return math.exp(-rate_hz * time_s)
    if type(rate_hz) is not float:
        require_finite("rate", rate_hz)
    _check_range("rate", rate_hz)
    if time_s.ndim != 1 or time_s.dtype.kind != "f":
        raise InvalidParameterError(
            f"time must be a float or a 1-D float array, got a {time_s.dtype} "
            f"array of shape {time_s.shape}"
        )
    m = rho.entries
    if m.ndim == 3 and len(time_s) != len(m):
        raise InvalidParameterError(f"{len(time_s)} times for a stack of {len(m)} matrices")
    times = time_s.tolist()
    # One vectorized test; the loop runs only to name the first bad index.
    # isfinite goes first, so no NaN reaches a comparison.
    if not (np.isfinite(time_s).all() and (time_s >= 0).all()):
        for i, t in enumerate(times):
            _check_range("time", t, f" at index {i}")
    _check_qubit(qubit)
    return np.array([math.exp(-rate_hz * t) for t in times]).reshape(-1, 1, 1)


def apply_dephasing(rho: DensityMatrix, rate_hz: float, time_s, qubit: int) -> DensityMatrix:
    """Phase-flip channel on one qubit with p = (1 - exp(-rate*time)) / 2.

    An array of times maps one matrix, or a stack of as many, to a stack.
    """
    p = (1.0 - _decay(rho, rate_hz, time_s, qubit)) / 2.0
    z = _Z_ON[qubit]
    m = rho.entries
    return DensityMatrix((1.0 - p) * m + p * (z @ m @ z))


def _partial_trace(m: np.ndarray, qubit: int) -> np.ndarray:
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if qubit == 0:
        return np.einsum("...abad->...bd", t)
    return np.einsum("...abcb->...ac", t)


def apply_depolarizing(rho: DensityMatrix, rate_hz: float, time_s, qubit: int) -> DensityMatrix:
    """Depolarizing channel on one qubit with p = 1 - exp(-rate*time).

    With probability p the chosen qubit is replaced by the maximally mixed
    state while the other qubit keeps its reduced state. Times broadcast as
    in ``apply_dephasing``.
    """
    p = 1.0 - _decay(rho, rate_hz, time_s, qubit)
    m = rho.entries
    reduced = _partial_trace(m, qubit)
    # np.kron's single complex products, broadcast: mixed[..., 2i+k, 2j+l]
    # is a[i, j] * b[..., k, l] for kron(a, b).
    if qubit == 0:
        mixed = _HALF_I2[:, None, :, None] * reduced[..., None, :, None, :]
    else:
        mixed = reduced[..., :, None, :, None] * _HALF_I2[:, None, :]
    mixed = mixed.reshape(m.shape)
    return DensityMatrix((1.0 - p) * m + p * mixed)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    _require(vals.min(axis=-1) >= -ATOL, "matrix", "is not positive semidefinite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix):
    """Uhlmann fidelity (trace sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments, 1 exactly when the states coincide, and for
    pure sigma = |psi><psi| equal to <psi|rho|psi>. Returns a float, or a
    list of floats when either argument is a stack; a single matrix pairs
    with every matrix of the other stack.
    """
    a, b = rho.entries, sigma.entries
    if a.ndim == b.ndim == 3 and len(a) != len(b):
        raise InvalidParameterError(f"stacks of {len(a)} and {len(b)} matrices do not pair")
    s = _psd_sqrt(a)
    inner = s @ b @ s
    # inner is Hermitian PSD up to rounding; clamp spectrum before the root.
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    _require(vals.min(axis=-1) >= -ATOL, "fidelity inner matrix", "lost positivity")
    # Rounding noise shows up as eigenvalues around 1e-16 relative to the
    # top one; square roots would amplify it, so zero anything that small.
    top = vals.max(axis=-1, keepdims=True)
    floor = np.where(top > 0, top * 1e-12, 0.0)
    vals = np.where(vals < floor, 0.0, vals)
    roots = np.sqrt(vals).sum(axis=-1)
    # Square each root sum with C pow, as a NumPy scalar ** 2 does: an array
    # ** 2 computes x * x, which is one ulp off on some cells, and the
    # pinned outputs were recorded with pow.
    values = [min(max(math.pow(r, 2.0), 0.0), 1.0) for r in roots.reshape(-1).tolist()]
    return values if np.ndim(roots) else values[0]


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

    Rows are ordered by (channel, rate, distance). The channel model is
    analytic, so each cell is one exact evaluation; all distances of one
    (channel, rate) pair are evaluated together as one stack.
    """
    for name, values in (
        ("dephasing rate", dephasing_rates_hz),
        ("depolarization rate", depolarization_rates_hz),
        ("distance", distances_km),
    ):
        for value in values:
            # The exact type test spares float callers the slower full check.
            if type(value) is not float or not math.isfinite(value):
                require_finite(name, value)
    dephasing_rates_hz = sorted(dephasing_rates_hz)
    depolarization_rates_hz = sorted(depolarization_rates_hz)
    distances_km = sorted(distances_km)
    require_finite("propagation speed", propagation_speed_km_per_s)
    if propagation_speed_km_per_s <= 0:
        raise InvalidParameterError("propagation speed must be positive")
    if not distances_km or not (dephasing_rates_hz or depolarization_rates_hz):
        raise InvalidParameterError("fidelity sweep grid must be nonempty")
    if distances_km[0] <= 0:
        raise InvalidParameterError("distances must be positive")

    ideal = bell_state()
    # Divide in Python: a tiny speed then overflows to inf with no
    # RuntimeWarning, and the channels reject that time.
    times = np.array([d / propagation_speed_km_per_s for d in distances_km])
    rows: list[FidelitySweepRow] = []
    channels = [
        ("dephasing", dephasing_rates_hz, apply_dephasing),
        ("depolarizing", depolarization_rates_hz, apply_depolarizing),
    ]
    for name, rates, apply in channels:
        for rate in rates:
            noisy = apply(apply(ideal, rate, times, 0), rate, times, 1)
            rows += [
                FidelitySweepRow(name, rate, distance, value)
                for distance, value in zip(distances_km, fidelity(noisy, ideal))
            ]
    return rows


def write_fidelity_csv(rows, out) -> None:
    """CSV emission: header plus one row per grid cell, fidelity to 6 places."""
    out.write("channel,rate_hz,distance_km,fidelity\n")
    for row in rows:
        out.write(
            f"{row.channel},{row.rate_hz:g},{row.distance_km:g},{row.fidelity:.6f}\n"
        )
