import io
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroute
from entroute.errors import InvalidParameterError, InvariantViolationError
from entroute.fidelity import (
    ATOL,
    DensityMatrix,
    NoiseConfig,
    apply_dephasing,
    apply_depolarizing,
    bell_state,
    fidelity,
    fidelity_sweep,
    write_fidelity_csv,
    _hermitian,
)
from entroute.harness import load_config, run_fidelity
from oracles import fidelity_sweep_scalar

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

    @pytest.mark.parametrize("entries", ["abc", [[0.25, 0.0], [0.0]], {"a": 1}])
    def test_rejects_entries_that_are_not_numbers(self, entries):
        with pytest.raises(InvalidParameterError, match="not complex numbers"):
            DensityMatrix(entries)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_entries_fail_their_check_without_warning(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1], m[1, 0] = 1e308, -1e308
        with pytest.raises(InvariantViolationError, match="density matrix is not Hermitian"):
            DensityMatrix(m)
        with pytest.raises(InvariantViolationError,
                           match=r"density matrix trace is \(inf\+0j\), expected 1"):
            DensityMatrix(np.full((4, 4), 1e308))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_entries_at_hermitian_places_fail_the_trace(self):
        # NumPy 2.x's np.isclose calls inf close to inf; the inline test
        # does so on every NumPy, so the trace check is the one that fails.
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = m[1, 2] = m[2, 1] = math.inf
        with pytest.raises(InvariantViolationError, match=r"trace is \(inf\+0j\)"):
            DensityMatrix(m)


# Parts of drawn entries: infinities, NaN, signed zeros, subnormals, the
# largest finite magnitudes and any other double.
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.25,
                 1.0, 1e308, -1e308, 1.7976931348623157e308, -8.98846567431158e307,
                 math.inf, -math.inf, math.nan]
PARTS = st.sampled_from(SPECIAL_PARTS) | st.floats(width=64)
ENTRIES = st.builds(complex, PARTS, PARTS)
# Multiples of the tolerance ATOL + 1e-5 |h| just inside, on and past it.
BOUNDARY_FACTORS = [0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0), 1.0,
                    math.nextafter(1.0, 2.0), 1.0 + 1e-12, 2.0]


def isclose_per_matrix(m: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        return np.isclose(m, m.swapaxes(-1, -2).conj(), atol=ATOL).all(axis=(-2, -1))


# NumPy 2.x's np.isclose is the single formula that DensityMatrix inlines.
# NumPy 1.24's takes another path for non-finite input: it multiplies it by
# a complex one, so inf + 0j turns into inf + nanj and equals nothing.
ISCLOSE_IS_ONE_FORMULA = bool(isclose_per_matrix(np.full((4, 4), complex(math.inf, 0.0))))


@st.composite
def near_hermitian_stacks(draw):
    """A (4, 4) matrix or an (n, 4, 4) stack: raw, Hermitian by construction
    (infinities and NaN included), or that with off-diagonal pairs moved to
    the tolerance boundary of an entry or of zero."""
    shape = draw(st.sampled_from([(4, 4), (1, 4, 4), (2, 4, 4), (3, 4, 4)]))
    size = math.prod(shape)
    m = np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size)), dtype=complex)
    m = m.reshape(shape)
    mode = draw(st.sampled_from(["raw", "hermitian", "boundary"]))
    if mode == "raw":
        return m
    upper = np.triu(np.ones((4, 4), dtype=bool))
    m = np.where(upper, m, m.swapaxes(-1, -2).conj())
    if draw(st.booleans()):
        diagonal = np.arange(4)
        m[..., diagonal, diagonal] = m[..., diagonal, diagonal].real
    if mode == "boundary":
        stack = m.reshape(-1, 4, 4)
        for k in range(len(stack)):
            for i, j in draw(st.lists(st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3)]),
                                      max_size=3, unique=True)):
                y = draw(st.sampled_from([0j, complex(stack[k, j, i]).conjugate()]))
                stack[k, j, i] = y.conjugate()
                with np.errstate(over="ignore"):
                    tolerance = ATOL + 1e-05 * abs(np.complex128(y))
                if not math.isfinite(tolerance):
                    tolerance = draw(st.sampled_from([1e-300, 1.0, 1e300]))
                step = draw(st.sampled_from([1.0, 1j, -1.0, (1 + 1j) / math.sqrt(2.0)]))
                stack[k, i, j] = y + step * (draw(st.sampled_from(BOUNDARY_FACTORS)) * tolerance)
    return m


class TestInlineHermitianTest:
    """DensityMatrix's inline Hermitian test against np.isclose itself."""

    @settings(max_examples=400, deadline=None)
    @given(near_hermitian_stacks())
    def test_equals_isclose_per_matrix(self, m):
        with np.errstate(invalid="ignore", over="ignore"):
            got = _hermitian(m)
        expected = isclose_per_matrix(m)
        assert got.shape == expected.shape
        if ISCLOSE_IS_ONE_FORMULA:
            assert np.array_equal(got, expected)
        else:
            finite = np.isfinite(m).all(axis=(-2, -1))
            assert np.array_equal(got[finite], expected[finite])
            assert not expected[~finite].any()

    # The mirrored entry compares against a tolerance from |m[0, 1]|, which
    # differs from the one from |y| by about 1e-5 of it, so the factors stay
    # 1e-3 clear of 1.
    @pytest.mark.parametrize("factor, close", [(0.999, True), (1.001, False)])
    def test_tolerance_boundary(self, factor, close):
        m = random_mixed_state(3).entries.copy()
        y = m[1, 0].conjugate()
        m[0, 1] = y + factor * (ATOL + 1e-05 * abs(y))
        assert bool(_hermitian(m)) is close is bool(isclose_per_matrix(m))

    @pytest.mark.parametrize("entry, close", [(ATOL, True), (math.nextafter(ATOL, 1.0), False)])
    def test_exactly_on_the_tolerance(self, entry, close):
        # Next to a zero entry the tolerance is exactly ATOL, and so is the
        # difference: the test is |m - h| <= tolerance, not <.
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = entry
        assert bool(_hermitian(m)) is close is bool(isclose_per_matrix(m))


def stack_of(*states: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.stack([s.entries for s in states]))


class TestStacks:
    def test_stack_keeps_its_shape_and_is_read_only(self):
        stack = stack_of(*(random_mixed_state(seed) for seed in range(3)))
        assert stack.entries.shape == (3, 4, 4)
        assert not stack.entries.flags.writeable

    @pytest.mark.parametrize("shape", [(0, 4, 4), (4,), (16,), (1, 1, 4, 4), (3, 4, 2)])
    def test_rejects_empty_stack_and_other_shapes(self, shape):
        with pytest.raises(InvalidParameterError):
            DensityMatrix(np.zeros(shape, dtype=complex))

    def bad_stack(self, bad: np.ndarray) -> np.ndarray:
        m = np.stack([random_mixed_state(seed).entries for seed in range(4)])
        m[2] = bad
        return m

    def test_names_the_non_hermitian_matrix(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3
        with pytest.raises(InvariantViolationError, match="density matrix 2 of the stack is not Hermitian"):
            DensityMatrix(self.bad_stack(bad))

    def test_names_the_matrix_with_bad_trace(self):
        with pytest.raises(InvariantViolationError, match=r"density matrix 2 of the stack trace is \(2\+0j\)"):
            DensityMatrix(self.bad_stack(np.eye(4, dtype=complex) / 2))

    def test_names_the_matrix_with_a_negative_eigenvalue(self):
        bad = np.diag([0.8, 0.5, -0.3, 0.0]).astype(complex)
        with pytest.raises(InvariantViolationError, match="density matrix 2 of the stack is not positive"):
            DensityMatrix(self.bad_stack(bad))

    @pytest.mark.parametrize("channel", [apply_dephasing, apply_depolarizing])
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_stack_channel_equals_per_matrix_calls(self, channel, qubit):
        states = [random_mixed_state(seed) for seed in range(6)]
        times = np.array([0.0, 1e-6, 0.3, 1.0, 2.5, 40.0])
        out = channel(stack_of(*states), 0.7, times, qubit).entries
        for state, t, got in zip(states, times.tolist(), out):
            assert np.array_equal(got, channel(state, 0.7, t, qubit).entries)

    @pytest.mark.parametrize("channel", [apply_dephasing, apply_depolarizing])
    def test_times_fan_one_matrix_out_to_a_stack(self, channel):
        times = np.array([0.0, 0.5, 3.0])
        out = channel(bell_state(), 2.0, times, 1).entries
        assert out.shape == (3, 4, 4)
        for t, got in zip(times.tolist(), out):
            assert np.array_equal(got, channel(bell_state(), 2.0, t, 1).entries)

    def test_stack_fidelity_equals_per_matrix_calls(self):
        rhos = [random_mixed_state(seed) for seed in range(8)]
        sigmas = [random_mixed_state(seed + 50) for seed in range(8)]
        assert fidelity(stack_of(*rhos), stack_of(*sigmas)) == [
            fidelity(r, s) for r, s in zip(rhos, sigmas)
        ]
        assert fidelity(stack_of(*rhos), bell_state()) == [
            fidelity(r, bell_state()) for r in rhos
        ]
        assert fidelity(bell_state(), stack_of(*sigmas)) == [
            fidelity(bell_state(), s) for s in sigmas
        ]

    def test_fidelity_of_one_matrix_is_a_float(self):
        assert type(fidelity(bell_state(), bell_state())) is float
        assert fidelity(stack_of(bell_state()), bell_state()) == [
            fidelity(bell_state(), bell_state())
        ]

    def test_fidelity_rejects_stacks_that_do_not_pair(self):
        with pytest.raises(InvalidParameterError, match="do not pair"):
            fidelity(stack_of(bell_state(), bell_state()), stack_of(bell_state()))


@pytest.mark.parametrize("channel", [apply_dephasing, apply_depolarizing])
class TestChannelTimeArrays:
    @pytest.mark.parametrize("times", [np.zeros((2, 2)), np.zeros(()), np.array([1, 2]),
                                       np.array([True]), np.array(["1"])])
    def test_rejects_arrays_not_1d_float(self, channel, times):
        with pytest.raises(InvalidParameterError, match="1-D float array"):
            channel(bell_state(), 1.0, times, 0)

    def test_rejects_length_mismatch(self, channel):
        stack = stack_of(bell_state(), bell_state(), bell_state())
        with pytest.raises(InvalidParameterError, match="2 times for a stack of 3"):
            channel(stack, 1.0, np.array([0.1, 0.2]), 0)

    def test_rejects_empty_time_array(self, channel):
        with pytest.raises(InvalidParameterError, match="empty"):
            channel(bell_state(), 1.0, np.array([]), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_rejects_nan_infinite_or_negative_time(self, channel, bad):
        with pytest.raises(InvalidParameterError, match=r"time must be in \[0, inf\), got .* at index 1"):
            channel(bell_state(), 1.0, np.array([0.5, bad, 0.1]), 0)

    @pytest.mark.parametrize("rate", [math.nan, -1.0, "1", True])
    def test_checks_the_rate_first(self, channel, rate):
        with pytest.raises(InvalidParameterError, match="rate must be"):
            channel(bell_state(), rate, np.array([math.nan]), 0)

    @pytest.mark.parametrize("times, index", [
        ([0.5, -1.0, 0.1, math.inf], 1),
        ([0.5, math.nan, 0.1, -2.0], 1),
        ([math.nan, 0.5, -1.0], 0),
        ([0.5, 0.1, 0.2, -math.inf], 3),
    ])
    def test_names_the_first_bad_time(self, channel, times, index):
        with pytest.raises(InvalidParameterError, match=rf"got .* at index {index}$"):
            channel(bell_state(), 1.0, np.array(times), 0)

    def test_checks_the_qubit(self, channel):
        with pytest.raises(InvalidParameterError, match="qubit must be 0 or 1"):
            channel(bell_state(), 1.0, np.array([0.5]), 2)


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

    @pytest.mark.parametrize("value", ["1", None, True])
    def test_rejects_non_numeric_rate_and_time(self, channel, value):
        with pytest.raises(InvalidParameterError, match="rate must be a number"):
            channel(bell_state(), value, 1.0, 0)
        with pytest.raises(InvalidParameterError, match="time must be a number"):
            channel(bell_state(), 1.0, value, 0)

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


# Copies of the benchmark's five distance grids (log-spaced over
# 0.1 .. 100 km), kept here so that the tests stand without bench/.
BENCHMARK_DISTANCE_GRIDS_KM = tuple(
    tuple(10.0 ** (-1.0 + 3.0 * i / (size - 1)) for i in range(size))
    for size in (16, 32, 48, 64, 80)
)
# Log-uniform over 1e-1 .. 1e11 Hz, which runs from no loss to saturation
# on every grid, plus a noiseless rate.
SWEEP_RATES_HZ = [0.0] + [10.0 ** (-1.0 + 12.0 * i / 23) for i in range(24)]


def row_reprs(rows) -> list[str]:
    return [repr((r.channel, r.rate_hz, r.distance_km, r.fidelity)) for r in rows]


def oracle_reprs(rows) -> list[str]:
    return [repr(row) for row in rows]


class TestSweepMatchesScalarOracle:
    """The stacked sweep equals the cell-by-cell reference bit for bit."""

    @pytest.mark.parametrize("grid", BENCHMARK_DISTANCE_GRIDS_KM, ids=len)
    def test_benchmark_grids(self, grid):
        rates = SWEEP_RATES_HZ
        assert row_reprs(fidelity_sweep(rates, rates, grid)) == oracle_reprs(
            fidelity_sweep_scalar(rates, rates, grid)
        )

    def test_fig4(self):
        config = load_config("fig4")
        noise = config.noise
        expected = fidelity_sweep_scalar(
            [noise.dephasing_rate_hz], [noise.depolarization_rate_hz],
            (1.0, 2.5, 5.0, 7.5), noise.propagation_speed_km_per_s,
        )
        assert row_reprs(run_fidelity(config)) == oracle_reprs(expected)

    def test_c7_grid(self):
        rates = [10.0 ** e for e in range(0, 11)]
        distances = [1.0, 2.5, 5.0, 7.5]
        rows = fidelity_sweep(rates, rates, distances)
        assert len(rows) == 88
        assert row_reprs(rows) == oracle_reprs(fidelity_sweep_scalar(rates, rates, distances))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=3),
        st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=3),
        st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=12),
        st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_drawn_grids(self, dephasing, depolarizing, distances, speed):
        rows = fidelity_sweep(dephasing, depolarizing, distances, speed)
        expected = fidelity_sweep_scalar(dephasing, depolarizing, distances, speed)
        assert row_reprs(rows) == oracle_reprs(expected)


def test_tiny_speed_overflows_time_and_is_rejected():
    with pytest.raises(InvalidParameterError, match=r"time must be in \[0, inf\), got inf"):
        fidelity_sweep([1e6], [1e3], [1.0, 7.5], 1e-310)


def test_entroute_fidelity_is_the_module():
    assert isinstance(entroute.fidelity, types.ModuleType)
    assert entroute.fidelity.fidelity is fidelity
    assert "fidelity" not in entroute.__all__
