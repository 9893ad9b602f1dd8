"""One benchmark run inside a fresh process (started by run.py).

    python3 clibench/worker.py WORKLOAD SEED SECONDS TRACE OUTPUT_DIR

Runs a closed loop: one client, each request an in-process call
``dickelab.cli.main(argv)`` with --out in OUTPUT_DIR, the next request sent
when the previous one returned and its output was checked.  With TRACE 0 the
loop runs for SECONDS; with TRACE 1 a fixed number of requests runs traced
and untraced.  Afterwards the reference requests are replayed and
compared with the digests recorded from the seed commit.  Prints one JSON
object.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks
import workloads
from probe import calibration_seconds, get_ready

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# requests per second of each workload's loop at the seed commit (2 cores,
# OpenBLAS, one BLAS thread): a traced run sends SECONDS / 2 worth of requests
# twice, and at least MIN_TRACED so that every required layer is reached
TRACE_RATE = {"scan_small": 8.0, "scan_large_n": 5.0, "closed_form_tables": 8.0}
MIN_TRACED = 40
CALIBRATE_EVERY_S = 0.25  # timed loop: one calibration kernel per this much loop time


class Client:
    def __init__(self, cli, out_dir: str):
        self.cli = cli  # the module: a traced run replaces cli.main
        self.out = os.path.join(out_dir, "out")
        self.latencies: list[float] = []
        self.points = 0
        self.failures: list[str] = []

    def send(self, req: workloads.Request):
        """One request: time it, check the output; return the parsed table or None."""
        out = f"{self.out}.{req.fmt}"
        start = time.perf_counter()
        try:
            rc = self.cli.main(req.argv(out))
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        try:
            if rc != 0:
                raise checks.CheckError(rc if isinstance(rc, str) else f"exit code {rc}")
            with open(out, encoding="utf-8") as fh:
                table = checks.parse(fh.read(), req.fmt)
            checks.check_invariants(req, table)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{req.label()}: {exc}")
            return None
        finally:
            if os.path.exists(out):
                os.remove(out)
        self.points += req.points
        return table


def reference_requests(workload: str) -> list[workloads.Request]:
    """The first request of each kind (subcommand, variant, parity, format) in
    the first round of the default seed."""
    seen, out = set(), []
    for req in workloads.first_requests(workload, workloads.DEFAULT_SEED,
                                        workloads.round_size(workload)):
        kind = (req.command, req.variant, req.parity, req.fmt)
        if kind not in seen:
            seen.add(kind)
            out.append(req)
    return out


def replay_reference(client: Client, workload: str) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    recorded = json.loads(path.read_text())["requests"]
    requests = reference_requests(workload)
    if [r["label"] for r in recorded] != [r.label() for r in requests]:
        raise SystemExit(f"{path} does not match the generated reference requests")
    for req, ref in zip(requests, recorded):
        table = client.send(req)
        if table is None:
            continue
        try:
            checks.compare_digest(req, checks.digest(req, table), ref["digest"])
        except checks.CheckError as exc:
            client.failures.append(f"reference {req.label()}: {exc}")


def timed_loop(client: Client, workload: str, seed: int, seconds: float) -> list[float]:
    """Requests until SECONDS have passed; returns the calibration times taken
    between requests along the way (outside every request's latency)."""
    calibration = []
    deadline = time.perf_counter() + seconds
    calibrated = -CALIBRATE_EVERY_S
    for req in workloads.request_stream(workload, seed):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now - calibrated >= CALIBRATE_EVERY_S:
            calibration.append(calibration_seconds())
            calibrated = time.perf_counter()
        client.send(req)
    return calibration


def traced_loop(client: Client, spare: Client, workload: str, seed: int,
                seconds: float) -> dict:
    """Each request is sent traced and untraced (on the spare client),
    alternating which goes first; the difference is the tracing overhead.
    The request list depends only on the seed and SECONDS."""
    from tracer import Tracer, check_reached, layer_metrics

    count = max(MIN_TRACED, round(seconds * TRACE_RATE[workload] / 2))
    requests = workloads.first_requests(workload, seed, count)
    tracer = Tracer()
    for i, req in enumerate(requests):
        tracer.request = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    client.send(req)
            else:
                spare.send(req)
    totals = tracer.layer_totals()
    check_reached(workload, totals)
    layers = layer_metrics(totals, client.points)
    layers["trace.overhead_s"] = sum(client.latencies) - sum(spare.latencies)
    return layers


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv
    cli = get_ready(out_dir)
    client, spare = Client(cli, out_dir), Client(cli, out_dir)
    layers, calibration = None, []
    if trace == "1":
        layers = traced_loop(client, spare, workload, int(seed), float(seconds))
    else:
        calibration = timed_loop(client, workload, int(seed), float(seconds))
    replay_reference(spare, workload)
    result = {
        "attempted": len(client.latencies) + len(spare.latencies),
        "failed": len(client.failures) + len(spare.failures),
        "failures": (client.failures + spare.failures)[:5],
        "latencies": client.latencies,
        "points": client.points,
        "layers": layers,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
