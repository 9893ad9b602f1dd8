"""Set-up probe: a fresh interpreter imports dickelab and serves one small
request, then prints the wall-clock time at which it was ready.

    python3 clibench/probe.py OUTPUT_DIR

run.py starts it several times and takes the time from process start to
"ready" as the set-up cost every CLI call pays once.  After "ready" the probe
times the calibration kernel (not part of the set-up time) so that run.py can
express the set-up time at the reference host speed.  The worker uses the
same first request as its warm-up, so its measured loop starts with lazy
imports (ARPACK, SuperLU, LAPACK) already done.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# both sectors of N = 20 at x = 2 take the shift-invert path (dimension ~800),
# so ARPACK and SuperLU are loaded
FIRST_REQUEST = ["spectrum", "--n-atoms", "20", "--gamma", "1.0"]


def calibration_seconds() -> float:
    """Time of a fixed kernel shaped like the workloads (interpreter loop,
    NumPy element-wise work, a small BLAS product): about 3 ms on a 2-vCPU
    x86-64 VM with OpenBLAS.  Host speed can drift by a quarter between
    minutes; scaling the reported times by this time, measured alongside the
    requests, removes that drift."""
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(30000):
        x += i * i
    a = np.arange(20000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    b = np.full((60, 60), 1.0 / 60.0)
    for _ in range(5):
        b = b @ b
    return time.perf_counter() - start


def get_ready(out_dir: str):
    """Import the CLI from the checkout and serve FIRST_REQUEST; return the
    dickelab.cli module."""
    sys.path.insert(0, str(SRC))
    from dickelab import cli

    rc = cli.main(FIRST_REQUEST + ["--out", os.path.join(out_dir, "first.csv")])
    if rc != 0:
        raise RuntimeError(f"first request {FIRST_REQUEST} exited with {rc}")
    return cli


if __name__ == "__main__":
    get_ready(sys.argv[1])
    ready = time.time()
    calibration = sorted(calibration_seconds() for _ in range(5))[2]
    print(repr(ready), repr(calibration))
