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

A change that moves the last digits of exact results is checked numerically
instead:

    python tools/cli_digest.py --against ../parent/src

runs every command in both checkouts and prints one line per command and
format: ``identical <argv>`` when the bytes agree, else
``max-rel-diff <d> <column> <argv>`` with the largest relative difference
over the numeric cells (metadata included) and the column (or metadata
key) that holds it.  Two cells both below 1e-12 in magnitude, rounding
residue such as ``verify``'s ``dev_closed_oracle``, are compared by their
absolute difference.  A distribution table (one with a
``nu``, ``n_e`` or ``k`` column) is first reduced to its support on each
side: the rows whose probability cells (``p``, ``p_even``, ``p_odd``) are
all exactly 0 are dropped, and ``support-identical <argv>`` means that the
rows left agree byte for byte.  A line ``MISMATCH <what> <argv>``, and
exit code 1, mean that the exit codes, stderr, the metadata keys, the
columns, the row counts (after the zero rows are dropped), a distribution's
index cells, the nulls or a non-numeric cell differ.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

GRID = ("--gamma-min", "0.3", "--gamma-max", "1.1", "--steps", "5")
LARGE_N_GRID = ("--gamma-min", "0.6", "--gamma-max", "1.4", "--steps", "3")

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
    # the same closed forms at large N, where the log magnitudes are far larger
    ("distributions", "--kind", "joint", "--n-atoms", "100", *LARGE_N_GRID),
    ("observables", "--source", "coherent", "--n-atoms", "282", *LARGE_N_GRID),
    # the two large distribution tables the benchmark spends its time rendering
    ("figures", "--id", "7", "--n-atoms", "250", "--gamma", "0.65"),
    ("distributions", "--kind", "joint", "--n-atoms", "282", "--gamma", "0.7", "--parity", "both"),
    # the odd projected observables just above the separatrix, x = 1 + 5e-9 and x = 1 + 2e-8
    ("observables", "--source", "sas", "--gamma", "0.5000000025", "--parity", "odd"),
    ("observables", "--source", "sas", "--gamma", "0.50000001", "--parity", "odd"),
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
INDEX_COLUMNS = {"nu", "n_e", "k"}  # a table holding one of these is a distribution


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], src: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "dickelab.cli", *argv],
                          capture_output=True, env=env, check=False)


def digest_line(argv: list[str], src: Path) -> str:
    proc = run(argv, src)
    return f"{_sha(proc.stdout)} {_sha(proc.stderr)} {proc.returncode} {shlex.join(argv)}"


class Mismatch(Exception):
    pass


def _csv_cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _all_zero(columns: list, row: list) -> bool:
    """Whether a distribution-table row's probability cells are all exactly 0."""
    if not INDEX_COLUMNS & set(columns):
        return False
    probs = [v for c, v in zip(columns, row) if c == "p" or c.startswith("p_")]
    return bool(probs) and all(_numeric(v) and v == 0 for v in probs)


def _on_support(text: str, fmt: str) -> str:
    """A rendered Dataset without the rows whose probabilities are all exactly 0.

    JSON comes back re-dumped compactly, which keeps every cell's bytes: the
    Dataset writes floats by repr and strings by json.dumps."""
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"] = [r for r in payload["rows"] if not _all_zero(payload["columns"], r)]
        return json.dumps(payload, separators=(",", ":"))
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    columns = lines[body[0]].rstrip("\n").split(",")
    drop = {i for i in body[1:]
            if _all_zero(columns, [_csv_cell(c) for c in lines[i].rstrip("\n").split(",")])}
    return "".join(line for i, line in enumerate(lines) if i not in drop)


def _table(text: str, fmt: str) -> tuple[list, list, list]:
    """Metadata items, columns and rows of a rendered Dataset."""
    if fmt == "json":
        payload = json.loads(text)
        return list(payload["meta"].items()), payload["columns"], payload["rows"]
    lines = text.splitlines()
    meta = [line[2:].split(" = ", 1) for line in lines if line.startswith("# ")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return ([(key, _csv_cell(value)) for key, value in meta], body[0],
            [[_csv_cell(cell) for cell in row] for row in body[1:]])


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cell_difference(old, new) -> float:
    """Relative difference of two numeric cells, absolute when both are below
    1e-12 in magnitude; raises Mismatch on any other change."""
    if (old is None) != (new is None):
        raise Mismatch("null")
    if not (_numeric(old) and _numeric(new)):
        if old != new:
            raise Mismatch("non-numeric cell")
        return 0.0
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        raise Mismatch("non-finite cell")
    scale = max(abs(old), abs(new))
    return abs(new - old) if scale < 1e-12 else abs(new - old) / scale


def compare_line(argv: list[str], src: Path, against: Path, fmt: str) -> str:
    new, old = run(argv, src), run(argv, against)
    if (new.stdout, new.stderr, new.returncode) == (old.stdout, old.stderr, old.returncode):
        return f"identical {shlex.join(argv)}"
    try:
        if new.returncode != old.returncode:
            raise Mismatch(f"exit-code {old.returncode}->{new.returncode}")
        if new.stderr != old.stderr:
            raise Mismatch("stderr")
        old_text, new_text = (_on_support(proc.stdout.decode(), fmt) for proc in (old, new))
        if old_text == new_text:
            return f"support-identical {shlex.join(argv)}"
        (old_meta, old_cols, old_rows), (new_meta, new_cols, new_rows) = (
            _table(text, fmt) for text in (old_text, new_text))
        if [k for k, _ in old_meta] != [k for k, _ in new_meta]:
            raise Mismatch("metadata keys")
        if old_cols != new_cols:
            raise Mismatch("columns")
        if len(old_rows) != len(new_rows) or any(
                len(a) != len(b) for a, b in zip(old_rows, new_rows)):
            raise Mismatch("row count")
        index = [j for j, c in enumerate(new_cols) if c in INDEX_COLUMNS]
        if any(a[j] != b[j] for a, b in zip(old_rows, new_rows) for j in index):
            raise Mismatch("index cell")
        cells = [(key, a, b) for (key, a), (_, b) in zip(old_meta, new_meta)]
        cells += [cell for a, b in zip(old_rows, new_rows) for cell in zip(new_cols, a, b)]
        worst, column = max(((_cell_difference(a, b), key) for key, a, b in cells),
                            key=lambda pair: pair[0], default=(0.0, "-"))
    except Mismatch as exc:
        return f"MISMATCH {exc} {shlex.join(argv)}"
    return f"max-rel-diff {worst:.2g} {column} {shlex.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory holding the dickelab package to run")
    parser.add_argument("--against", type=Path, default=None,
                        help="compare numerically with the dickelab in this src directory")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    failed = False
    for command in COMMANDS:
        for fmt in FORMATS:
            full = [*command, "--format", fmt]
            if args.against is None:
                line = digest_line(full, src)
            else:
                line = compare_line(full, src, args.against.resolve(), fmt)
                failed |= line.startswith("MISMATCH")
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
