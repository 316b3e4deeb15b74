import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError, InvariantViolationError
from entroute.fidelity import (
    DensityMatrix,
    NoiseConfig,
    apply_dephasing,
    apply_depolarizing,
    bell_state,
    fidelity,
    fidelity_sweep,
    write_fidelity_csv,
)

LN2 = math.log(2.0)


def random_mixed_state(seed: int) -> DensityMatrix:
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


class TestDensityMatrix:
    def test_bell_entries(self):
        m = bell_state().entries
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(m, expected)

    def test_bell_trace_one(self):
        assert np.trace(bell_state().entries) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(InvariantViolationError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolationError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.8, 0.5, -0.3, 0.0]).astype(complex)
        with pytest.raises(InvariantViolationError):
            DensityMatrix(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidParameterError):
            DensityMatrix(np.eye(2, dtype=complex) / 2)


class TestNoiseConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            NoiseConfig(dephasing_rate_hz=-1.0)
        with pytest.raises(InvalidParameterError):
            NoiseConfig(propagation_speed_km_per_s=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "1e6", None, True])
    def test_rejects_non_finite_or_non_numeric(self, value):
        with pytest.raises(InvalidParameterError):
            NoiseConfig(dephasing_rate_hz=value)


class TestDephasing:
    def test_zero_rate_is_identity(self):
        rho = random_mixed_state(1)
        out = apply_dephasing(rho, 0.0, 1.0, 0)
        assert np.allclose(out.entries, rho.entries, atol=1e-12)

    def test_quarter_probability_gives_three_quarters_fidelity(self):
        # rate*time = ln 2 makes p = (1 - 1/2) / 2 = 1/4; the Bell coherence
        # scales by (1 - 2p) so F = (1 + 1/2) / 2.
        noisy = apply_dephasing(bell_state(), LN2, 1.0, 0)
        assert fidelity(noisy, bell_state()) == pytest.approx(0.75, abs=1e-9)

    def test_saturation_kills_coherence(self):
        noisy = apply_dephasing(bell_state(), 1e6, 1.0, 0)
        assert abs(noisy.entries[0, 3]) < 1e-12
        assert fidelity(noisy, bell_state()) == pytest.approx(0.5, abs=1e-9)

    def test_invalid_qubit(self):
        with pytest.raises(InvalidParameterError):
            apply_dephasing(bell_state(), 1.0, 1.0, 2)


@pytest.mark.parametrize("channel", [apply_dephasing, apply_depolarizing])
class TestChannelInputs:
    @pytest.mark.parametrize(
        "rate, time",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
         (-1.0, 1.0), (1.0, -1.0)],
    )
    def test_rejects_nan_infinite_or_negative_rate_and_time(self, channel, rate, time):
        with pytest.raises(InvalidParameterError, match=r"must be in \[0, inf\)"):
            channel(bell_state(), rate, time, 0)

    @pytest.mark.parametrize("qubit", [True, False, "1", None])
    def test_rejects_non_integer_qubit(self, channel, qubit):
        with pytest.raises(InvalidParameterError, match="qubit must be 0 or 1"):
            channel(bell_state(), 1.0, 1.0, qubit)

    def test_accepts_numpy_integer_qubit(self, channel):
        assert np.array_equal(
            channel(bell_state(), 1.0, 1.0, np.int64(1)).entries,
            channel(bell_state(), 1.0, 1.0, 1).entries,
        )


class TestDepolarizing:
    def test_zero_rate_is_identity(self):
        rho = random_mixed_state(2)
        out = apply_depolarizing(rho, 0.0, 1.0, 1)
        assert np.allclose(out.entries, rho.entries, atol=1e-12)

    def test_full_depolarization_one_qubit_yields_maximally_mixed(self):
        # Tracing one half of a Bell pair leaves I/2, so depolarizing either
        # qubit completely yields I/4.
        noisy = apply_depolarizing(bell_state(), 1e9, 1.0, 0)
        assert np.allclose(noisy.entries, np.eye(4) / 4, atol=1e-9)
        assert fidelity(noisy, bell_state()) == pytest.approx(0.25, abs=1e-9)

    def test_full_depolarization_both_qubits(self):
        noisy = apply_depolarizing(bell_state(), 1e9, 1.0, 0)
        noisy = apply_depolarizing(noisy, 1e9, 1.0, 1)
        assert np.allclose(noisy.entries, np.eye(4) / 4, atol=1e-9)
        assert fidelity(noisy, bell_state()) == pytest.approx(0.25, abs=1e-9)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        for seed in range(5):
            rho = random_mixed_state(seed)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        zero_zero = pure_state([1, 0, 0, 0])
        one_one = pure_state([0, 0, 0, 1])
        assert fidelity(zero_zero, one_one) == pytest.approx(0.0, abs=1e-9)

    def test_bell_vs_maximally_mixed(self):
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert fidelity(bell_state(), mixed) == pytest.approx(0.25, abs=1e-9)

    def test_symmetry(self):
        a, b = random_mixed_state(3), random_mixed_state(4)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_pure_state_shortcut_agreement(self):
        psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        sigma = pure_state(psi)
        for seed in range(10):
            rho = random_mixed_state(seed)
            shortcut = float(np.real(psi.conj() @ rho.entries @ psi))
            assert fidelity(rho, sigma) == pytest.approx(shortcut, abs=1e-9)

    def test_bounds(self):
        for seed in range(10):
            f = fidelity(random_mixed_state(seed), random_mixed_state(seed + 100))
            assert 0.0 <= f <= 1.0


class TestChannelInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(min_value=0, max_value=1),
    )
    def test_channels_preserve_density_matrix_invariants(self, seed, rate_time, qubit):
        rho = random_mixed_state(seed)
        for apply in (apply_dephasing, apply_depolarizing):
            out = apply(rho, rate_time, 1.0, qubit)
            m = out.entries
            assert abs(np.trace(m) - 1.0) < 1e-9
            assert np.allclose(m, m.conj().T, atol=1e-9)
            assert np.linalg.eigvalsh(m).min() >= -1e-9


class TestFidelitySweep:
    def test_zero_rates_give_unit_fidelity(self):
        rows = fidelity_sweep([0.0], [0.0], [1.0, 2.5, 5.0, 7.5])
        assert len(rows) == 8
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-9) for r in rows)

    def test_saturation_limits(self):
        rows = fidelity_sweep([1e10], [1e10], [7.5])
        by_channel = {r.channel: r.fidelity for r in rows}
        assert by_channel["dephasing"] == pytest.approx(0.5, abs=1e-3)
        assert by_channel["depolarizing"] == pytest.approx(0.25, abs=1e-3)

    def test_row_ordering_and_count(self):
        rates = [1e7, 1e6]  # deliberately unsorted
        rows = fidelity_sweep(rates, [1e3, 1e5], [2.5, 1.0])
        assert len(rows) == 2 * 2 * 2
        key = [(r.channel, r.rate_hz, r.distance_km) for r in rows]
        assert key == sorted(key)

    def test_monotone_in_rate_and_distance(self):
        rates = [10 ** e for e in range(0, 11)]
        distances = [1.0, 2.5, 5.0, 7.5]
        rows = fidelity_sweep(rates, rates, distances)
        for channel in ("dephasing", "depolarizing"):
            for d in distances:
                series = [
                    r.fidelity for r in rows if r.channel == channel and r.distance_km == d
                ]
                assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
            for rate in rates:
                series = [
                    r.fidelity for r in rows if r.channel == channel and r.rate_hz == rate
                ]
                assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    @pytest.mark.parametrize("speed", [math.nan, math.inf, "2e5", True, 0.0, -1.0])
    def test_rejects_bad_propagation_speed(self, speed):
        with pytest.raises(InvalidParameterError, match="propagation speed"):
            fidelity_sweep([1e6], [1e6], [1.0], speed)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            fidelity_sweep([], [], [1.0])
        with pytest.raises(InvalidParameterError):
            fidelity_sweep([1.0], [1.0], [])

    def test_csv_format(self):
        out = io.StringIO()
        write_fidelity_csv(fidelity_sweep([0.0], [0.0], [1.0]), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "channel,rate_hz,distance_km,fidelity"
        assert lines[1] == "dephasing,0,1,1.000000"
        assert len(lines) == 3
