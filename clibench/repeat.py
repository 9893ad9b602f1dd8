"""Repeat run.py over several seeds and summarise each metric.

    python3 clibench/repeat.py --workload scan_small --seeds 1-10 [--seconds 25]
                               [--trace 0] [--json summary.json]

For each metric prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, the figure BENCHMARK.json's bounds are
judged against.  Runs are sequential; each is a full run.py invocation.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"{values}", flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
               "correct": all(r["correct"] for r in runs), "metrics": {}}
    for name, metric in runs[0]["metrics"].items():
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        summary["metrics"][name] = {"unit": metric["unit"], **stats}
        print(f"{name:<34} median {stats['median']:>12.6g} {metric['unit']:<9} "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
