"""PRNG tests against published splitmix64 vectors and statistical sanity."""

import numpy as np
import pytest

from conftest import scalar_normal
from dart.rng import (
    STREAM_DATA,
    STREAM_INIT,
    STREAM_PROBE,
    STREAM_SAMPLING,
    Prng,
    derive_seed,
    mix64,
)


def test_splitmix64_reference_vectors_seed_zero():
    # First outputs of splitmix64 seeded with 0, from the reference C code.
    p = Prng(0)
    assert p.next_u64() == 0xE220A8397B1DCDAF
    assert p.next_u64() == 0x6E789E6AA1B965F4
    assert p.next_u64() == 0x06C45D188009454F
    assert p.next_u64() == 0xF88BB8A8724C81EC


def test_splitmix64_seed_42():
    p = Prng(42)
    assert p.next_u64() == 0xBDD732262FEB6E95
    assert p.next_u64() == 0x28EFE333B266F103
    assert p.next_u64() == 0x47526757130F9F52


def test_uniform_uses_top_53_bits():
    p = Prng(0)
    assert p.uniform() == 0.8833108082136426
    q = Prng(0)
    assert q.uniform() == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


def test_uniform_in_half_open_unit_interval():
    p = Prng(3)
    draws = [p.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_uniform_range():
    p = Prng(5)
    draws = [p.uniform_range(-2.0, 3.0) for _ in range(1000)]
    assert all(-2.0 <= u < 3.0 for u in draws)


def test_normal_moments():
    p = Prng(9)
    draws = p.normal_block(20000)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03
    assert np.all(np.isfinite(draws))


def test_randint_bounds_and_coverage():
    p = Prng(11)
    draws = [p.randint(7) for _ in range(2000)]
    assert all(0 <= k < 7 for k in draws)
    assert set(draws) == set(range(7))


def test_shuffle_is_permutation_and_deterministic():
    p1, p2 = Prng(13), Prng(13)
    a = list(range(20))
    b = list(range(20))
    p1.shuffle(a)
    p2.shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))  # 1/20! chance of failure, i.e. never


def test_permutation():
    p = Prng(17)
    perm = p.permutation(10)
    assert perm.dtype == np.intp
    assert sorted(perm.tolist()) == list(range(10))


def test_derive_seed_streams_distinct():
    root = 7
    seeds = {
        derive_seed(root, s)
        for s in (STREAM_INIT, STREAM_SAMPLING, STREAM_DATA, STREAM_PROBE)
    }
    assert len(seeds) == 4
    # deterministic across calls
    assert derive_seed(root, STREAM_INIT) == derive_seed(root, STREAM_INIT)
    # distinct roots decorrelate the same stream
    assert derive_seed(1, STREAM_INIT) != derive_seed(2, STREAM_INIT)


def test_mix64_is_deterministic_bijection_sample():
    xs = [0, 1, 2, 0xFFFFFFFFFFFFFFFF, 0x9E3779B97F4A7C15]
    ys = [mix64(x) for x in xs]
    assert len(set(ys)) == len(xs)
    assert [mix64(x) for x in xs] == ys


def test_determinism_same_seed_same_sequence():
    a, b = Prng(123), Prng(123)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
    assert a.normal_block(1)[0] == b.normal_block(1)[0]
    assert a.randint(1000) == b.randint(1000)


# ---------------------------------------------------------------------------
# block draws: bitwise equal to the scalar draws, same end state

BLOCK_SIZES = [0, 1, 2, 3, 300]


def scalar_shuffle(p, items):
    """The scalar Fisher-Yates path the block path must reproduce."""
    for i in range(len(items) - 1, 0, -1):
        j = p.randint(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_block_equals_scalar_draws(n):
    a, b = Prng(2024), Prng(2024)
    assert a.block(n).tolist() == [b.next_u64() for _ in range(n)]
    assert a._state == b._state
    assert a.uniform_block(n, -0.9, 0.9).tolist() == [
        b.uniform_range(-0.9, 0.9) for _ in range(n)]
    assert a._state == b._state
    # drawn into a given array: the same bits
    out = np.full(n, np.nan)
    assert Prng(2024).uniform_block(n, -0.9, 0.9, out=out) is out
    assert out.tobytes() == Prng(2024).uniform_block(n, -0.9, 0.9).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 600])
def test_normal_block_equals_scalar_box_muller(n):
    a, b = Prng(2024), Prng(2024)
    got = a.normal_block(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    want = np.array([scalar_normal(b) for _ in range(n)], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    assert a._state == b._state


@pytest.mark.parametrize("n", BLOCK_SIZES + [4, 256])
def test_permutation_equals_scalar_shuffle(n):
    # n = 2, 3, 4, 256 and 300 include power-of-two bounds, whose
    # rejection limit wraps to 0 and accepts every draw
    for seed in (0, 17, (1 << 64) - 1):
        a, b = Prng(seed), Prng(seed)
        expected = list(range(n))
        scalar_shuffle(b, expected)
        assert a.permutation(n).tolist() == expected
        assert a._state == b._state


def test_permutation_falls_back_at_first_rejected_draw(monkeypatch):
    # a draw of 2**64 - 1 is above randint's limit for bound 299, the
    # second swap of permutation(300), so the block path must stop there
    # and rewind: the scalar path redraws it from the real stream
    real_block = Prng.block

    def rejecting_block(self, n):
        out = real_block(self, n)
        out[1] = np.uint64((1 << 64) - 1)
        return out

    scalar_draws = []
    real_randint = Prng.randint

    def counting_randint(self, bound):
        scalar_draws.append(bound)
        return real_randint(self, bound)

    ref = Prng(31)
    expected = list(range(300))
    scalar_shuffle(ref, expected)
    monkeypatch.setattr(Prng, "block", rejecting_block)
    monkeypatch.setattr(Prng, "randint", counting_randint)
    p = Prng(31)
    assert p.permutation(300).tolist() == expected
    assert p._state == ref._state
    assert scalar_draws == list(range(299, 1, -1))
