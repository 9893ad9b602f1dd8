"""dickelab CLI benchmark: one command, one workload, one run.

    python3 clibench/run.py --workload scan_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run

1. runs the workload in a fresh worker process (worker.py) as a closed loop
   for --seconds, checking every output, or with --trace 1 sends a fixed list
   of requests traced and untraced for the per-layer metrics;
2. before and after it, starts fresh interpreters that import dickelab and
   serve one small request (probe.py), and takes the median time to "ready"
   as setup_s;
3. prints every metric by name with its unit, the environment, and as the
   last line one JSON object {correct, attempted, failed, metrics}.

Every child gets one BLAS thread.  Exit code 0 on a completed run (failed
requests are reported, not fatal), non-zero without a result line when the
run itself could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan_small", "scan_large_n", "closed_form_tables")
BLAS_THREADS = 1
SETUP_PROBES = 8          # measured fresh interpreters, half before and half after the
                          # workload so they sample the whole run; one more fills caches
DEADLINE_S = 170          # the whole run, set-up included, ends before 180 s
# Times are reported at the reference host speed: the raw value scaled by
# CALIBRATION_REFERENCE_S / (median calibration kernel time measured in the
# same process during the run), see probe.calibration_seconds.
CALIBRATION_REFERENCE_S = 0.003

END_TO_END = {
    "points_per_s": "points/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(count: int, out_dir: str, env: dict, deadline: float) -> list[tuple]:
    """(time from process start to ready, calibration time) of `count` fresh
    interpreters."""
    probes = []
    for _ in range(count):
        start = time.time()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), out_dir], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        ready, calibration = map(float, done.stdout.split())
        probes.append((ready - start, calibration))
    return probes


def end_to_end(worker: dict, setup: list[tuple]) -> tuple[dict, list[str]]:
    """Metrics at the reference host speed, and one printed line per metric
    with the raw value and the host speed factor."""
    speed = CALIBRATION_REFERENCE_S / statistics.median(worker["calibration"])
    lat_ms = np.array(worker["latencies"]) * 1000.0
    busy_s = lat_ms.sum() / 1000.0
    p90 = float(np.percentile(lat_ms, 90))
    beyond = int(np.sum(lat_ms > p90))
    raw = {
        "points_per_s": worker["points"] / busy_s,
        "request_ms_p50": float(np.percentile(lat_ms, 50)),
        "request_ms_p90": p90,
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    values = {
        "points_per_s": raw["points_per_s"] / speed,
        "request_ms_p50": raw["request_ms_p50"] * speed,
        "request_ms_p90": p90 * speed,
        "setup_s": statistics.median(s * CALIBRATION_REFERENCE_S / c for s, c in setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "points_per_s": f"{worker['points']} points in {busy_s:.2f} s of requests",
        "request_ms_p50": f"n={lat_ms.size}",
        "request_ms_p90": f"n={lat_ms.size}, {beyond} beyond"
                          + ("" if beyond >= 10 else " (fewer than 10: p90 not resolved)"),
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "worker process",
    }
    lines = [f"host speed factor {speed:.4f} (calibration {CALIBRATION_REFERENCE_S * 1e3:g} ms "
             f"at reference, median {statistics.median(worker['calibration']) * 1e3:.4f} ms "
             f"over {len(worker['calibration'])} in the loop); raw = as measured"]
    lines += [f"{name:<16} {values[name]:>12.4f} {END_TO_END[name]:<9} "
              f"raw {raw[name]:.4f}  {notes[name]}" for name in END_TO_END]
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "dickelab" / "cli.py").is_file():
        print(f"error: no dickelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = tempfile.mkdtemp(prefix=".clibench-", dir=ROOT)
    env = child_env()
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup_seconds(min(probes, 1), out_dir, env, deadline)
        setup = setup_seconds(probes, out_dir, env, deadline)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), out_dir],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        setup += setup_seconds(probes, out_dir, env, deadline)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in worker["layers"].items()}
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    else:
        values, lines = end_to_end(worker, setup)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print("\n".join(lines))
    error_rate = worker["failed"] / worker["attempted"]
    print(f"{'error_rate':<16} {error_rate:>12.4f} {'ratio':<9} "
          f"{worker['failed']} of {worker['attempted']} requests failed")
    for failure in worker["failures"]:
        print(f"  failed: {failure}")
    print("environment " + json.dumps(worker["environment"]))
    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
