import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute.errors import InvalidParameterError, require_integer
from entroute.rng import RngStream, hash64, hash64_range, mix64
from oracles import shuffle, uniform, unmix64


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
    uniform(a)
    uniform(a)
    b = RngStream(7)
    assert a.substream(3).seed == b.substream(3).seed


def test_hash64_matches_documented_formula():
    golden = 0x9E3779B97F4A7C15
    acc = mix64((0 + golden + 11) & ((1 << 64) - 1))
    acc = mix64((acc + golden + 22) & ((1 << 64) - 1))
    assert hash64(11, 22) == acc


def test_random_in_unit_interval():
    s = RngStream(9)
    draws = [uniform(s) for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert len(set(draws)) > 990


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_randrange_bounds(seed, n):
    s = RngStream(seed)
    assert 0 <= s.randrange(n) < n


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_unmix64_inverts_mix64(word):
    assert mix64(unmix64(word)) == word
    assert unmix64(mix64(word)) == word


def _stream_whose_next_word_is(word: int) -> RngStream:
    # next_u64 adds the golden step to the state and mixes the sum.
    return RngStream((unmix64(word) - 0x9E3779B97F4A7C15) & (2**64 - 1))


@pytest.mark.parametrize("word", [0, 1, 2**63, 2**64 - 2, 2**64 - 1])
def test_next_u64_is_mix64_of_the_stepped_state(word):
    stream = _stream_whose_next_word_is(word)
    assert stream.next_u64() == word
    assert uniform(stream) == (mix64(unmix64(word) + 0x9E3779B97F4A7C15) >> 11) * 2.0**-53


def test_randrange_rejects_a_word_at_its_threshold():
    # 2**64 % 3 == 1, so randrange(3) rejects the top word 2**64 - 1 and
    # returns the following word mod 3, two draws on.
    stream = _stream_whose_next_word_is(2**64 - 1)
    follower = RngStream(stream.seed)
    follower.next_u64()
    expected = follower.next_u64() % 3
    assert stream.randrange(3) == expected
    assert stream._state == follower._state
    # A word below the threshold is taken as it is.
    stream = _stream_whose_next_word_is(2**64 - 2)
    assert stream.randrange(3) == (2**64 - 2) % 3
    assert stream._state == (stream.seed + 0x9E3779B97F4A7C15) & (2**64 - 1)


def test_randrange_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        RngStream(0).randrange(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a, b = items[:], items[:]
    shuffle(RngStream(5), a)
    shuffle(RngStream(5), b)
    assert a == b
    assert sorted(a) == items


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_words_equal_next_u64(count, seed):
    # 257 and 600 words cross one and two block refills.
    stream = RngStream(seed)
    words = stream.words()
    reference = RngStream(seed)
    assert [next(words) for _ in range(count)] == [reference.next_u64() for _ in range(count)]
    # The state runs ahead to the end of the last block fetched.
    blocks = -(-count // 256)
    assert stream._state == (seed + 256 * blocks * 0x9E3779B97F4A7C15) % 2**64


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
    assert block.random_array(count).tolist() == [uniform(scalar) for _ in range(count)]
    assert uniform(block) == uniform(scalar)


def test_random_array_of_zero_does_not_advance():
    s = RngStream(17)
    assert s.random_array(0).tolist() == []
    assert uniform(s) == uniform(RngStream(17))


def test_random_array_rejects_negative_count():
    with pytest.raises(InvalidParameterError):
        RngStream(0).random_array(-1)


_SEEDS = st.one_of(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**64 - 1000, max_value=2**64 - 1),
)


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.one_of(st.integers(0, 3), st.integers(min_value=0, max_value=3000)))
def test_hash64_range_matches_scalar_hash64(seed, count):
    assert hash64_range(seed, count) == [hash64(seed, i) for i in range(count)]


def test_hash64_range_gives_substream_seeds_as_ints():
    seeds = hash64_range(2**64 - 1, 4)
    assert all(type(s) is int for s in seeds)
    assert seeds == [RngStream(2**64 - 1).substream(i).seed for i in range(4)]
    assert hash64_range(np.uint64(9), np.int64(2)) == hash64_range(9, 2)


@pytest.mark.parametrize("count", [-1, 1.0, "3"])
def test_hash64_range_rejects_bad_counts(count):
    with pytest.raises(InvalidParameterError):
        hash64_range(0, count)


@pytest.mark.parametrize("bad", [1.5, 1.0, 10.0, "5", None, True, np.float64(2.0), np.bool_(True)])
def test_non_integers_are_rejected_not_truncated(bad):
    with pytest.raises(InvalidParameterError, match="value must be an integer"):
        require_integer("value", bad)
    with pytest.raises(InvalidParameterError):
        hash64(bad)
    with pytest.raises(InvalidParameterError):
        hash64(3, bad)
    with pytest.raises(InvalidParameterError):
        RngStream(bad)
    with pytest.raises(InvalidParameterError):
        RngStream(3).substream(bad)
    with pytest.raises(InvalidParameterError):
        hash64_range(bad, 2)


def test_numpy_integers_are_accepted():
    for value in (np.int64(-3), np.uint64(2**64 - 1), np.int8(7)):
        assert type(require_integer("value", value)) is int
        assert require_integer("value", value) == value
    assert hash64(np.int64(5), np.uint64(7)) == hash64(5, 7)
    assert RngStream(np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert type(RngStream(np.int32(5)).seed) is int
    assert RngStream(3).substream(np.int16(2)).seed == RngStream(3).substream(2).seed
    s, t = RngStream(4), RngStream(4)
    assert s.randrange(np.int64(10)) == t.randrange(10)
    assert s.sample(np.int64(10), np.int64(3)) == t.sample(10, 3)
    assert s.random_array(np.int64(4)).tolist() == t.random_array(4).tolist()


@pytest.mark.parametrize(
    "draw",
    [
        lambda s: s.randrange(2.5),
        lambda s: s.randrange(3.0),
        lambda s: s.sample(5.0, 2),
        lambda s: s.sample(5, 2.0),
        lambda s: s.sample(5, -1),
        lambda s: s.random_array(2.5),
        lambda s: s.random_array("2"),
    ],
)
def test_draws_require_integer_bounds_and_counts(draw):
    with pytest.raises(InvalidParameterError):
        draw(RngStream(1))


def test_sample_of_zero_is_empty():
    assert RngStream(8).sample(5, 0) == []
