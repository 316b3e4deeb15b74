"""Seeded, platform-independent pseudorandom streams.

Reproducibility across machines and processes is a hard requirement, so the
generator is implemented here from scratch instead of relying on library
internals that are free to change between versions.  The core is SplitMix64:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64        (golden-ratio step)
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output <- z XOR (z >> 31)

Floats are built from the top 53 bits of an output word, so every derived
draw (uniform, bounded int, sample) is an exact function of the seed.

Because the state only ever advances by the golden-ratio step, the i-th
output after a state s (i = 1, 2, ...) is ``mix64((s + i * 0x9E3779B97F4A7C15)
mod 2^64)``, independent of every other draw.  ``RngStream._next_block``
evaluates it for a block in NumPy ``uint64`` arithmetic (multiplies wrap mod
2^64); ``random_array`` returns the uniform ``(z >> 11) * 2^-53`` of each word z,
and ``words`` the words of ``next_u64()``, 256 at a time.

Derived seeds use ``hash64``: starting from ``acc = 0``, each value ``v`` is
absorbed as ``acc = mix64((acc + 0x9E3779B97F4A7C15 + v) mod 2^64)`` where
``mix64`` is the finalizer above.  Any implementation of these two formulas
reproduces the full stream hierarchy.  ``hash64_range(seed, count)`` is
``[hash64(seed, i) for i in range(count)]``, the seeds of a stream's first
``count`` substreams: it absorbs the seed once as a scalar and the indices in
one ``uint64`` block, with the same wrapping arithmetic as ``random_array``.

Seeds, hashed values, bounds and counts must be integers. NumPy integers are
accepted and stored as ``int``; anything else, such as ``1.5`` or ``"5"``,
raises ``InvalidParameterError`` instead of being truncated or parsed.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, require_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Every operand of the block formula is an explicit uint64, so NumPy 1.24's
# value-based casting and NumPy 2's promotion rules give the same dtypes.
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` over a ``uint64`` array, in place; call under ``errstate(over="ignore")``."""
    shifted = np.empty_like(z)
    for shift, factor in ((30, _U64_MIX_A), (27, _U64_MIX_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= factor
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def hash64(*values: int) -> int:
    """Combine integers into one 64-bit value; used for child-seed derivation."""
    acc = 0
    for v in values:
        v = require_integer("hashed value", v)
        acc = mix64((acc + _GOLDEN + (v & _MASK64)) & _MASK64)
    return acc


def hash64_range(seed: int, count: int) -> list[int]:
    """``[hash64(seed, i) for i in range(count)]``, computed as one block."""
    seed, count = require_integer("seed", seed), require_integer("count", count)
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    # The first absorption is hash64(seed); only the index varies after it.
    acc = mix64((_GOLDEN + (seed & _MASK64)) & _MASK64)
    base = (acc + _GOLDEN) & _MASK64
    with np.errstate(over="ignore"):
        z = _mix64_array(np.uint64(base) + np.arange(count, dtype=np.uint64))
    return z.tolist()


class RngStream:
    """A SplitMix64 stream identified by its 64-bit seed.

    Substreams are derived from the seed alone (never from consumed state),
    so the layout of draws in one stream cannot perturb another.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        # Built once per link: plain ints skip the call.
        if type(seed) is not int:
            seed = require_integer("seed", seed)
        self.seed = seed & _MASK64
        self._state = self.seed

    def substream(self, *keys: int) -> "RngStream":
        """Child stream with seed ``hash64(self.seed, *keys)``."""
        return RngStream(hash64(self.seed, *keys))

    def next_u64(self) -> int:
        # mix64, inline: a Bell-pair attempt costs this one call.
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
        return z ^ (z >> 31)

    def random_array(self, count: int) -> np.ndarray:
        """Uniforms in [0, 1) from the next ``count`` words, as a float64 array.

        Entry i is ``(w >> 11) * 2**-53`` for the i-th ``next_u64()`` word w;
        the stream ends where those calls would leave it.
        """
        count = require_integer("draw count", count)
        if count < 0:
            raise InvalidParameterError(f"draw count must be >= 0, got {count}")
        z = self._next_block(count)
        return np.right_shift(z, np.uint64(11), out=z) * 2.0**-53

    def _next_block(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``next_u64()`` as a ``uint64`` array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= _U64_GOLDEN
            z += np.uint64(self._state)
            _mix64_array(z)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return z

    def words(self) -> Iterator[int]:
        """Endless ``next_u64()`` words; the state moves a 256-word block at a time."""
        return chain.from_iterable(iter(lambda: self._next_block(256).tolist(), None))

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        # Checked once per draw: plain ints skip the call.
        if type(n) is not int:
            n = require_integer("randrange bound", n)
        if n <= 0:
            raise InvalidParameterError(f"randrange bound must be positive, got {n}")
        # Largest multiple of n that fits in 64 bits; draws past it are biased.
        threshold = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % n

    def sample(self, population: int, k: int) -> list[int]:
        """k distinct integers from range(population), order randomized."""
        population = require_integer("sample population", population)
        k = require_integer("sample size", k)
        if k < 0:
            raise InvalidParameterError(f"sample size must be >= 0, got {k}")
        if k > population:
            raise InvalidParameterError(
                f"cannot sample {k} distinct values from {population}"
            )
        pool = list(range(population))
        for i in range(k):
            j = i + self.randrange(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
