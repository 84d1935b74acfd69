"""The byte guards on a second OpenBLAS kernel.

``test_golden_outputs.py`` and ``test_task_digests.py`` hold one digest
set per kernel and compare against the running kernel's. OpenBLAS reads
``OPENBLAS_CORETYPE`` when it loads, so the second kernel, ``Haswell``
(which needs only AVX2), runs them in a subprocess.
"""

import os
import re
import subprocess
import sys

import pytest

from conftest import kernel_digests, openblas_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GUARDS = ("tests/test_golden_outputs.py", "tests/test_task_digests.py")


def test_byte_guards_pass_under_the_haswell_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *GUARDS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    tail = proc.stdout[-3000:] + proc.stderr[-1000:]
    assert "openblas kernel: Haswell" in proc.stdout, tail
    assert proc.returncode == 0, tail
    # 16 golden files and 5 task cases, none skipped
    assert re.search(r"\b21 passed\b", proc.stdout), tail


def test_a_kernel_without_recorded_digests_fails_naming_it():
    with pytest.raises(pytest.fail.Exception, match=repr(openblas_kernel())):
        kernel_digests({"NoSuchKernel": {}})
