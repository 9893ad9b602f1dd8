"""Digest the CLI's output over a fixed list of commands.

For every command in COMMANDS and both --format values, prints one line:

    <sha256 of stdout> <sha256 of stderr> <exit code> <argv>

Each command runs in a fresh ``python -m dickelab.cli`` process with one BLAS
thread.  Two checkouts print the same lines exactly when they print the same
bytes, so a refactor is checked by diffing the digests:

    python tools/cli_digest.py > new.txt
    python tools/cli_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

--src points at the ``src`` directory whose ``dickelab`` is run (default:
this checkout's).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

GRID = ("--gamma-min", "0.3", "--gamma-max", "1.1", "--steps", "5")

COMMANDS = [
    # exact solves: scans, fidelity, figures 3 and 8, verification
    ("spectrum", "--n-atoms", "40", "--gamma-min", "0.2", "--gamma-max", "1.2", "--steps", "6"),
    ("observables", "--source", "exact", "--n-atoms", "40",
     "--gamma-min", "0.4", "--gamma-max", "0.6", "--steps", "3"),
    ("fidelity", "--n-atoms", "120", "--gamma", "1.05"),
    ("figures", "--id", "8", "--n-atoms", "30"),
    ("figures", "--id", "3", "--n-atoms", "20"),
    ("verify", "--n-atoms", "30", "--gamma-min", "0.6", "--gamma-max", "0.8", "--steps", "3"),
    ("spectrum", "--n-atoms", "200", "--gamma", "1"),
    ("observables", "--source", "exact", "--n-atoms", "30", "--omega-a", "9", "--gamma", "1.5"),
    ("spectrum", "--n-atoms", "10", "--gamma-min", "0", "--gamma-max", "1", "--steps", "5",
     "--tol", "1e-12"),
    ("figures", "--id", "6", "--n-atoms", "20"),
    ("observables", "--n-atoms", "40", "--gamma", "0.5", "--parity", "odd"),
    # the other figures at their defaults; figure 8 with null cells
    ("figures", "--id", "1"),
    ("figures", "--id", "2"),
    ("figures", "--id", "4"),
    ("figures", "--id", "5"),
    ("figures", "--id", "7"),
    ("figures", "--id", "9"),
    ("figures", "--id", "8", "--n-atoms", "20"),
    ("figures", "--id", "8", "--lambda-max-cap", "30"),
    # closed forms, with flagged rows below and at the separatrix
    ("distributions", "--kind", "joint", *GRID),
    ("distributions", "--kind", "photon", *GRID),
    ("distributions", "--kind", "atom", *GRID),
    ("observables", "--source", "sas", *GRID),
    ("observables", "--source", "coherent", *GRID),
    # failures: exit 1, then usage errors (exit 2)
    ("verify", "--gamma", "0.3"),
    ("spectrum", "--n-atoms", "0"),
    ("figures", "--id", "10"),
    # negative coupling: the superradiant states follow the sign of gamma
    ("fidelity", "--gamma", "-1"),
    ("verify", "--gamma", "-1"),
    ("observables", "--source", "exact", "--gamma", "-1"),
    ("observables", "--source", "sas", "--gamma", "-1"),
    ("observables", "--source", "coherent", "--gamma", "-1"),
]

FORMATS = ("csv", "json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(argv: list[str], src: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(src),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "dickelab.cli", *argv],
                          capture_output=True, env=env, check=False)
    return f"{_sha(proc.stdout)} {_sha(proc.stderr)} {proc.returncode} {shlex.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory holding the dickelab package to run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    for command in COMMANDS:
        for fmt in FORMATS:
            print(digest_line([*command, "--format", fmt], src), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
