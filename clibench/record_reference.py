"""Record the reference digests the benchmark compares against.

    python3 clibench/record_reference.py [WORKLOAD ...]

Runs the reference requests of each workload (the first request of each kind
in the default seed's first round) and writes clibench/reference/<workload>.json.
Run it only on the commit whose outputs are the reference: the files in the
repository were recorded at the commit that added the benchmark.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
import workloads
from probe import get_ready
from worker import REFERENCE_DIR, Client, reference_requests


def record(cli, out_dir: str, workload: str) -> None:
    client = Client(cli, out_dir)
    entries = []
    for req in reference_requests(workload):
        table = client.send(req)
        if table is None:
            raise SystemExit(f"reference request failed: {client.failures[-1]}")
        entries.append({"label": req.label(), "digest": checks.digest(req, table)})
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "requests": entries},
                               indent=1) + "\n")
    print(f"wrote {path} ({len(entries)} requests)")


def main(names: list[str]) -> int:
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as out_dir:
        cli = get_ready(out_dir)
        for workload in names or list(workloads.WORKLOADS):
            record(cli, out_dir, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
