"""Output checks: physical invariants on every request, and comparison with
reference digests recorded from the seed commit for the reference requests.

A digest keeps what a correct optimisation must not change.  Truncation
metadata (``lambda_max`` columns, the photon cutoff ``nu_max`` and with it
the number of rows of a distribution table) is never compared; distributions
are compared through their mass and first moments per group instead.
"""
from __future__ import annotations

import json

import numpy as np

from workloads import GAMMA_C, Request

TEXT_COLUMNS = ("parity", "kind", "observable", "flag", "status")
KEY_COLUMNS = ("gamma", "x", "parity", "observable", "kind")
INDEX_COLUMNS = ("nu", "n_e", "k")
PROBABILITY_COLUMNS = ("p", "p_even", "p_odd")
FLAG_COLUMNS = ("flag", "status")
IGNORED_COLUMNS = ("lambda_max",)
VERIFY_STATUSES = {"ok", "flagged", "ok+exact-deviation", "flagged+exact-deviation"}

# (relative, absolute) tolerance per column kind
TOLERANCES = {
    # exact eigenvalues: ten times the solver's 1e-8 relative convergence step
    "energy": (1e-7, 1e-9),
    # eigenvector expectation values converge like the square root of the
    # eigenvalue error; a truncation that still meets 1e-8 on the energy can
    # move them by ~1e-5
    "state": (1e-4, 1e-6),
    "fidelity": (0.0, 1e-5),
    "closed": (1e-9, 1e-12),
    # finite differences (step 1e-5) of the projected surface at its critical
    # point: the values are rounding noise of order 1e-8
    "gradient": (0.0, 1e-6),
    "moment": (1e-8, 1e-10),
}


class CheckError(Exception):
    pass


# -- parsing ------------------------------------------------------------------------

def parse(text: str, fmt: str) -> dict[str, np.ndarray]:
    """Column name -> array, from CSV (metadata lines skipped) or JSON.

    Text columns become string arrays with '' for missing cells; all others
    become float arrays with NaN for missing cells.
    """
    if fmt == "json":
        payload = json.loads(text)
        columns, rows = payload["columns"], payload["rows"]
        if any(len(row) != len(columns) for row in rows):
            raise CheckError("ragged rows")
        values = [[row[i] for row in rows] for i in range(len(columns))]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        columns = lines[0].split(",")
        cells = ",".join(lines[1:]).split(",")  # one split: large tables parse fast
        if len(cells) != len(columns) * (len(lines) - 1):
            raise CheckError("ragged rows")
        values = [cells[i::len(columns)] for i in range(len(columns))]
    if not values or not values[0]:
        raise CheckError("no rows")
    table = {}
    for name, column in zip(columns, values):
        if name in TEXT_COLUMNS:
            table[name] = np.array(["" if v is None else v for v in column])
        elif fmt == "json":
            table[name] = np.array(column, dtype=float)  # null -> nan
        else:
            table[name] = np.array([float(v) if v else np.nan for v in column])
    return table


def _rows(table: dict) -> int:
    return len(next(iter(table.values())))


def _is_distribution(table: dict) -> bool:
    return any(c in table for c in INDEX_COLUMNS)


# -- invariants (every seed) ------------------------------------------------------

def check_invariants(req: Request, table: dict) -> None:
    grid_col = "x" if "x" in table else "gamma"
    if grid_col in table:
        got = set(table[grid_col].tolist())
        if got != set(req.gammas()):
            raise CheckError(f"{grid_col} grid {sorted(got)} != requested {req.gammas()}")
    if "parity" in table and set(table["parity"].tolist()) != set(req.parities()):
        raise CheckError(f"parities {set(table['parity'].tolist())} != {req.parities()}")
    _check_flags(req, table)
    if _is_distribution(table):
        _check_distributions(table)
        return
    for col, vals in table.items():
        if col.startswith("fid"):
            _check_fidelity(table, col)
        elif col.startswith("E_exact_"):
            bound = table["E_sas_" + col.removeprefix("E_exact_")]
            if np.any(vals > bound + 1e-9 * np.maximum(1.0, np.abs(bound))):
                raise CheckError(f"{col} above the variational energy")
        elif col.startswith("var_"):
            if np.any(vals < -1e-9 * np.maximum(1.0, np.nanmax(np.abs(vals)))):
                raise CheckError(f"negative variance in {col}")


def _check_flags(req: Request, table: dict) -> None:
    if "status" in table:
        bad = set(table["status"].tolist()) - VERIFY_STATUSES
        if bad:
            raise CheckError(f"unknown verify status {bad}")
    if "flag" not in table:
        return
    flags = table["flag"]
    if req.command == "figures":  # figures 5 and 6: closed forms start at gamma_c
        want = np.where(table["gamma"] < GAMMA_C, "normal-phase", "")
        if not np.array_equal(flags, want):
            raise CheckError("normal-phase flags do not follow gamma < gamma_c")
        return
    allowed = {"", "annihilated"} if req.command == "fidelity" else {""}
    bad = set(flags.tolist()) - allowed
    if bad:
        raise CheckError(f"unexpected flags {bad}")


def _check_fidelity(table: dict, col: str) -> None:
    vals = table[col]
    ok = ~np.isnan(vals)
    if np.any((vals[ok] < 0.0) | (vals[ok] > 1.0 + 1e-12)):
        raise CheckError(f"{col} outside [0, 1]")
    # the odd trial state vanishes only exactly at the separatrix
    if np.any(np.abs(table["gamma"][~ok] - GAMMA_C) > 1e-12):
        raise CheckError(f"{col} missing away from the separatrix")
    if "flag" in table and not np.array_equal(table["flag"] == "annihilated", ~ok):
        raise CheckError("annihilated flags do not match missing fidelities")


def _groups(table: dict, keys: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Row -> group index over the key columns present; names like '0.55|even'."""
    code = np.zeros(_rows(table), dtype=np.int64)
    labels = [""]
    for col in keys:
        if col in table:
            uniq, inverse = np.unique(table[col], return_inverse=True)
            code = code * len(uniq) + inverse.ravel()
            labels = [f"{a}|{repr(u) if isinstance(u, float) else u}".removeprefix("|")
                      for a in labels for u in uniq.tolist()]
    used, inverse = np.unique(code, return_inverse=True)
    return [labels[c] for c in used.tolist()], inverse.ravel()


def distribution_moments(table: dict) -> dict[str, dict[str, list[float]]]:
    """Per group and probability column: [mass, sum p*index for each index column]."""
    names, inverse = _groups(table, ("kind", "gamma", "parity"))
    out: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    indices = [np.nan_to_num(table[c]) for c in INDEX_COLUMNS if c in table]
    for col in PROBABILITY_COLUMNS:
        if col not in table:
            continue
        p = table[col]
        sums = [np.bincount(inverse, weights=w, minlength=len(names))
                for w in [p] + [p * idx for idx in indices]]
        for g, name in enumerate(names):
            out[name][col] = [float(s[g]) for s in sums]
    return out


def _check_distributions(table: dict) -> None:
    for col in PROBABILITY_COLUMNS:
        if col in table and np.any(table[col] < 0.0):
            raise CheckError(f"negative probability in {col}")
    for group, cols in distribution_moments(table).items():
        for col, moments in cols.items():
            if not 1.0 - 1e-6 <= moments[0] <= 1.0 + 1e-9:
                raise CheckError(f"{col} of {group} sums to {moments[0]!r}")


# -- reference digests (seed commit) -------------------------------------------------

def digest(req: Request, table: dict) -> dict:
    """What must stay the same: rows keyed by grid point, or distribution moments."""
    if _is_distribution(table):
        return {"moments": distribution_moments(table)}
    names, inverse = _groups(table, KEY_COLUMNS)
    if len(names) != _rows(table):
        raise CheckError("duplicate row keys")
    skip = KEY_COLUMNS + IGNORED_COLUMNS
    columns = [c for c in table if c not in skip]
    rows = {}
    for i, g in enumerate(inverse.tolist()):
        rows[names[g]] = {c: _plain(table[c][i]) for c in columns}
    return {"rows": rows}


def _plain(v):
    """JSON value of a cell: float, string, or None for a missing number."""
    if isinstance(v, np.str_):
        return str(v)
    return None if np.isnan(v) else float(v)


def column_kind(req: Request, col: str) -> str:
    if col.startswith("fid"):
        return "fidelity"
    if col.startswith("dE_"):
        return "gradient"
    if col.startswith("E_exact_"):
        return "energy"
    if col in ("exact", "dev_oracle_exact") or col.startswith("exact_"):
        return "state"
    if req.command == "observables" and req.variant == "exact":
        return "state"
    return "closed"


def compare_digest(req: Request, got: dict, ref: dict) -> None:
    if set(got) != set(ref):
        raise CheckError(f"digest kind {set(got)} != reference {set(ref)}")
    if "moments" in ref:
        _compare_groups(got["moments"], ref["moments"], lambda col: "moment")
    else:
        _compare_groups(got["rows"], ref["rows"], lambda col: column_kind(req, col))


def _compare_groups(got: dict, ref: dict, kind_of) -> None:
    if set(got) != set(ref):
        raise CheckError(f"row keys differ: {sorted(set(got) ^ set(ref))[:4]}")
    for key, ref_cols in ref.items():
        if set(got[key]) != set(ref_cols):
            raise CheckError(f"{key}: columns {sorted(got[key])} != {sorted(ref_cols)}")
        for col, want in ref_cols.items():
            have = got[key][col]
            pairs = zip(have, want) if isinstance(want, list) else [(have, want)]
            for h, w in pairs:
                if not _close(h, w, col, kind_of(col)):
                    raise CheckError(f"{key} {col}: {h!r} != reference {w!r}")


def _close(have, want, col: str, kind: str) -> bool:
    if not (isinstance(want, float) and isinstance(have, float)) or col in FLAG_COLUMNS:
        return have == want
    rtol, atol = TOLERANCES[kind]
    return abs(have - want) <= atol + rtol * abs(want)
