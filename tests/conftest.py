"""Shared test utilities: an independent central-difference oracle, a
byte mutator for the fuzz tests, a transient-memory probe, the scalar
Box-Muller draw and the name of the running OpenBLAS kernel.

The oracle perturbs raw parameter arrays in place and re-evaluates a
scalar-returning closure, so it exercises only forward computations and
stays independent of the backward pass it is used to check.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import tracemalloc
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from dart import autodiff as ad


def scalar_normal(rng) -> float:
    """One Box-Muller normal from two ``uniform()`` draws, the reference
    that ``Prng.normal_block`` reproduces pair by pair."""
    u1 = 1.0 - rng.uniform()
    u2 = rng.uniform()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs (``OPENBLAS_CORETYPE``
    overrides its choice), or a note saying the library was not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*"))
    if not libs:
        return "unknown (no bundled libscipy_openblas64_)"
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    return f"openblas kernel: {openblas_kernel()}"


def kernel_digests(by_kernel: dict) -> dict:
    """The running kernel's entry of ``by_kernel``; a kernel with no
    recorded digests fails the test, naming the kernel."""
    kernel = openblas_kernel()
    if kernel not in by_kernel:
        pytest.fail(f"no digests recorded for OpenBLAS kernel {kernel!r} "
                    f"(recorded: {', '.join(by_kernel)}); record them from "
                    f"unchanged code")
    return by_kernel[kernel]


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
