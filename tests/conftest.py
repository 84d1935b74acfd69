"""Shared test utilities: an independent central-difference oracle, a
byte mutator for the fuzz tests and a transient-memory probe.

The oracle perturbs raw parameter arrays in place and re-evaluates a
scalar-returning closure, so it exercises only forward computations and
stays independent of the backward pass it is used to check.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from dart import autodiff as ad


@pytest.fixture
def kron_calls(monkeypatch):
    """List that grows by one per kron_rows forward call during the test."""
    calls = []
    original = ad.kron_rows

    def counting_kron_rows(f, y):
        calls.append((f.shape, y.shape))
        return original(f, y)

    monkeypatch.setattr(ad, "kron_rows", counting_kron_rows)
    return calls


def central_diff_grads(
    loss_fn: Callable[[], float],
    arrays: Sequence[np.ndarray],
    h: float = 1e-6,
) -> list[np.ndarray]:
    """Central finite differences of loss_fn w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Largest elementwise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def mutate_bytes(data, raw: bytes) -> bytes:
    """Up to three drawn byte substitutions, then a drawn truncation."""
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(0, 3))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    return bytes(raw[:data.draw(st.integers(0, len(raw)))])


def peak_bytes(fn: Callable[[], object]) -> tuple[int, object]:
    """Peak traced memory of ``fn()`` above what was allocated at entry,
    and its result. tracemalloc also counts numpy's array buffers."""
    tracemalloc.start()
    try:
        at_entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - at_entry, result
    finally:
        tracemalloc.stop()
