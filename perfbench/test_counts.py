"""Exact-count stability: two traced runs with the same seed report the
same counts (calls, tape nodes, computed flops and bytes, probe steps).

    python3 perfbench/test_counts.py      # or: python3 -m pytest perfbench

Each traced run takes 10-30 s on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", "tape_nodes", ".flops", ".bytes", "_bytes", ".probe_steps")


def traced_metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return result["metrics"]


def check_counts_repeat(workload, seed=7):
    first = traced_metrics(workload, seed)
    second = traced_metrics(workload, seed)
    counts = sorted(k for k in first if k.endswith(COUNT_SUFFIXES))
    assert "autodiff.kron_rows.calls" in counts and "rng.next_u64.calls" in counts
    differ = {k: (first[k]["value"], second[k]["value"])
              for k in counts if first[k]["value"] != second[k]["value"]}
    assert not differ, differ


def test_counts_repeat_blobs_sweep():
    check_counts_repeat("blobs-sweep")


def test_counts_repeat_blobs_run():
    check_counts_repeat("blobs-run")


def test_counts_repeat_idx_wide():
    check_counts_repeat("idx-wide")


if __name__ == "__main__":
    for workload in ("blobs-sweep", "blobs-run", "idx-wide"):
        check_counts_repeat(workload)
        print(f"{workload}: counts identical across two traced runs")
