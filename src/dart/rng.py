"""Deterministic pseudo-random numbers for reproducible experiments.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, finalized with two xor-shift/multiply rounds.
The algorithm is fixed here so that golden sequences recorded in the tests
stay valid, and so that runs can be reproduced outside this codebase from
the written description alone.

All randomness in a run flows from a single root seed. Components draw from
independent streams derived with :func:`derive_seed`, keyed by the stream
constants below, so e.g. changing the number of weight initializations does
not disturb minibatch sampling.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# Stream tags for derive_seed. One stream per independent source of
# randomness in a run.
STREAM_INIT = 1  # parameter initialization
STREAM_SAMPLING = 2  # minibatch shuffling
STREAM_DATA = 3  # synthetic data generation and splits
STREAM_PROBE = 4  # domain-probe training in evaluation


def mix64(x: int) -> int:
    """splitmix64 finalizer: xor-shift/multiply avalanche of a 64-bit value."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_seed(root_seed: int, stream: int) -> int:
    """Derive the seed of an independent stream from the root seed."""
    return mix64((root_seed + _GOLDEN * (stream + 1)) & _MASK)


@functools.lru_cache(maxsize=8)
def _swap_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fisher-Yates' bounds i + 1 for i = n-1 .. 1, and the largest draw
    randint accepts for each: its limit 2**64 - 2**64 % bound, less 1,
    which wraps to 2**64 - 1 (every draw) when the bound is a power of
    two. Read-only: every shuffle of n items shares them."""
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    tops = (0 - (_MASK % bounds + 1) % bounds) - 1
    bounds.flags.writeable = tops.flags.writeable = False
    return bounds, tops


class Prng:
    """splitmix64 stream with convenience draws.

    uniform() maps the top 53 bits of the next output to [0, 1), which is
    the standard double-precision construction.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def block(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, equal to n next_u64() calls
        and leaving the same state. Output k is mix64(state + k*GOLDEN),
        computed in place; uint64 arithmetic wraps like the & _MASK."""
        x = np.arange(1, n + 1, dtype=np.uint64)
        x *= _GOLDEN
        x += self._state
        x ^= x >> 30
        x *= _MIX1
        x ^= x >> 27
        x *= _MIX2
        x ^= x >> 31
        self._state = (self._state + n * _GOLDEN) & _MASK
        return x

    def uniform_block(self, n: int, lo: float, hi: float,
                      out: np.ndarray | None = None) -> np.ndarray:
        """The next n uniform_range(lo, hi) draws as a float64 array, bitwise
        equal to the scalar draws; written into ``out`` (n float64 entries,
        1-d) when given. Each 53-bit integer converts to float64 exactly."""
        x = self.block(n)
        x >>= 11
        u = np.multiply(x, 1.0 / (1 << 53), out=out)
        u *= hi - lo
        u += lo
        return u

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_range(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal_block(self, n: int) -> np.ndarray:
        """The next n standard normals as a float64 array: Box-Muller on
        consecutive pairs of 2n uniform() draws; 1 - u1 lies in (0, 1], so
        the log is finite. Each pair goes through ``math``: numpy's log
        differs from it in the last bit on some inputs."""
        u = self.uniform_block(2 * n, 0.0, 1.0).tolist()
        return np.array([
            math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
            for u1, u2 in zip(u[::2], u[1::2])], dtype=np.float64)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, avoiding modulo bias."""
        if n <= 0:
            raise ValueError("randint upper bound must be positive")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: item i swaps with randint(i + 1),
        i from the end down to 1.

        The swap indices come from one block with randint's rejection rule
        applied to each draw; at the first rejected draw (odds below
        n / 2**64 each) the state rewinds to it and the scalar loop
        finishes, so the result and end state equal the scalar path's.
        """
        n = len(items)
        start = self._state
        bounds, tops = _swap_bounds(n)
        draws = self.block(bounds.size)
        accepted = draws <= tops
        k = bounds.size if accepted.all() else int(np.argmin(accepted))
        picks = (draws[:k] % bounds[:k]).tolist()
        if k < bounds.size:
            self._state = (start + k * _GOLDEN) & _MASK
            picks += [self.randint(b) for b in bounds[k:].tolist()]
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        """A shuffled ``range(n)`` as an index (``np.intp``) array."""
        order = list(range(n))
        self.shuffle(order)
        return np.array(order, dtype=np.intp)
