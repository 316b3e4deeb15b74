import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError
from entroute.rng import RngStream, hash64, mix64


def test_known_first_outputs():
    # Frozen anchors: any change to the generator breaks cross-run
    # reproducibility and must fail loudly.
    assert [RngStream(0).next_u64() for _ in range(1)] == [16294208416658607535]
    s = RngStream(42)
    assert [s.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_same_seed_same_sequence():
    a = RngStream(12345)
    b = RngStream(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_substream_derives_from_seed_not_state():
    a = RngStream(7)
    a.random()
    a.random()
    b = RngStream(7)
    assert a.substream(3).seed == b.substream(3).seed


def test_hash64_matches_documented_formula():
    golden = 0x9E3779B97F4A7C15
    acc = mix64((0 + golden + 11) & ((1 << 64) - 1))
    acc = mix64((acc + golden + 22) & ((1 << 64) - 1))
    assert hash64(11, 22) == acc


def test_random_in_unit_interval():
    s = RngStream(9)
    draws = [s.random() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert len(set(draws)) > 990


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_randrange_bounds(seed, n):
    s = RngStream(seed)
    assert 0 <= s.randrange(n) < n


def test_randrange_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        RngStream(0).randrange(0)


def test_randint_inclusive_endpoints():
    s = RngStream(3)
    draws = {s.randint(1, 3) for _ in range(200)}
    assert draws == {1, 2, 3}


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a, b = items[:], items[:]
    RngStream(5).shuffle(a)
    RngStream(5).shuffle(b)
    assert a == b
    assert sorted(a) == items


def test_sample_distinct():
    got = RngStream(8).sample(10, 4)
    assert len(got) == 4
    assert len(set(got)) == 4
    assert all(0 <= x < 10 for x in got)
    with pytest.raises(InvalidParameterError):
        RngStream(8).sample(3, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=2**64 - 1000, max_value=2**64 - 1),
    ),
    st.integers(min_value=0, max_value=5000),
)
def test_random_array_matches_scalar_draws(seed, count):
    block, scalar = RngStream(seed), RngStream(seed)
    assert block.random_array(count).tolist() == [scalar.random() for _ in range(count)]
    assert block.random() == scalar.random()


def test_random_array_of_zero_does_not_advance():
    s = RngStream(17)
    assert s.random_array(0).tolist() == []
    assert s.random() == RngStream(17).random()


def test_random_array_rejects_negative_count():
    with pytest.raises(InvalidParameterError):
        RngStream(0).random_array(-1)
