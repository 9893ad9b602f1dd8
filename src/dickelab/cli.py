"""Command-line front end: parameter scans, figure data, verification reports.

Exit codes: 0 success, 1 computation failure, 2 usage error.  Output is CSV
(default, '#'-prefixed metadata) or JSON ({meta, columns, rows}); identical
configurations produce identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .compare import (
    CLOSED_FORM_TOL,
    FIGURE_TITLES,
    PHYSICS_TOL,
    distribution_cells,
    fidelity_scan,
    figure_data,
    spectrum_dataset,
    sweep,
    verify_table,
)
from .dataset import Dataset
from .errors import ConvergenceError, DickeLabError, ProjectionAnnihilationError
from .observables import ObservableSet, eigen_observables
from .sas import coherent_observables, default_nu_max, sas_observables
from .solver import DEFAULT_LAMBDA_CAP, converge_ground


class UsageError(Exception):
    pass


# parse_args leaves the parser unchanged, so one parser serves every main() call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Exact and variational ground-state toolkit for the "
                    "collective atom-field model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--omega-a", type=float, default=1.0,
                        help="atomic frequency in field units (default 1.0)")
        sp.add_argument("--n-atoms", type=int, default=10, help="atom count")
        sp.add_argument("--gamma", type=float, default=None, help="single coupling value")
        sp.add_argument("--gamma-min", type=float, default=None)
        sp.add_argument("--gamma-max", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--parity", choices=["even", "odd", "both"], default="both")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="relative convergence tolerance (default 1e-8)")
        sp.add_argument("--lambda-max-cap", type=int, default=DEFAULT_LAMBDA_CAP)
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    add_common(sub.add_parser("spectrum", help="exact and variational energies on a gamma grid"))
    p_obs = sub.add_parser("observables", help="expectation values and fluctuations")
    add_common(p_obs)
    p_obs.add_argument("--source", choices=["exact", "sas", "coherent"], default="exact")
    add_common(sub.add_parser("fidelity", help="trial-vs-exact fidelity on a gamma grid"))
    p_dist = sub.add_parser("distributions", help="joint and marginal distributions")
    add_common(p_dist)
    p_dist.add_argument("--kind", choices=["joint", "photon", "atom"], default="joint")
    p_fig = sub.add_parser("figures", help="plot-ready datasets for the reference figures")
    add_common(p_fig)
    p_fig.set_defaults(n_atoms=None)  # each figure has its own atom counts
    p_fig.add_argument("--id", type=int, required=True, dest="figure_id",
                       help="figure id, 1..9")
    add_common(sub.add_parser("verify", help="closed-form table verification report"))
    return parser


def _validate(args) -> None:
    for name in ("omega_a", "gamma", "gamma_min", "gamma_max", "tol"):
        value = getattr(args, name)
        if value is not None and not np.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.n_atoms is not None and args.n_atoms < 1:
        raise UsageError("--n-atoms must be >= 1")
    if not args.omega_a > 0:
        raise UsageError("--omega-a must be > 0")
    if args.command == "figures" and args.figure_id not in FIGURE_TITLES:
        raise UsageError(f"unknown figure id {args.figure_id}; valid ids are 1..9")
    if args.command in ("spectrum", "verify", "figures") and args.parity != "both":
        raise UsageError(f"{args.command} covers both parity sectors; "
                         f"--parity {args.parity} applies to observables, fidelity "
                         f"and distributions")
    if args.tol <= 0:
        raise UsageError("--tol must be > 0")
    if args.lambda_max_cap < 2:
        raise UsageError("--lambda-max-cap must be >= 2")
    has_range = any(v is not None for v in (args.gamma_min, args.gamma_max, args.steps))
    if args.gamma is not None and has_range:
        raise UsageError("use either --gamma or --gamma-min/--gamma-max/--steps")
    if has_range:
        if None in (args.gamma_min, args.gamma_max, args.steps):
            raise UsageError("--gamma-min, --gamma-max and --steps go together")
        if args.steps < 2:
            raise UsageError("--steps must be >= 2 for a gamma range")
        if args.gamma_max < args.gamma_min:
            raise UsageError("--gamma-max must be >= --gamma-min")


def _gammas(args) -> np.ndarray:
    if args.gamma is not None:
        return np.array([args.gamma])
    if args.gamma_min is not None:
        return np.linspace(args.gamma_min, args.gamma_max, args.steps)
    raise UsageError("specify --gamma or a --gamma-min/--gamma-max/--steps range")


def _parities(args) -> list[str]:
    return ["even", "odd"] if args.parity == "both" else [args.parity]


def _base_meta(args) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "omega_a": args.omega_a,
        "n_atoms": args.n_atoms,
        "tol": args.tol,
        "lambda_max_cap": args.lambda_max_cap,
    }


def _cmd_spectrum(args) -> Dataset:
    ds = spectrum_dataset(args.omega_a, args.n_atoms, _gammas(args),
                          tol=args.tol, lambda_cap=args.lambda_max_cap)
    ds.meta = {**_base_meta(args), **ds.meta}
    return ds


def _cmd_observables(args) -> Dataset:
    names = ObservableSet.names()

    def point(params, parity):
        if args.source == "exact":
            res = converge_ground(params, parity, tol=args.tol, lambda_cap=args.lambda_max_cap)
            return eigen_observables(res.eigenvectors[:, 0], res.basis), res.lambda_max
        if args.source == "sas":
            return sas_observables(params, parity), None
        return coherent_observables(params), None

    rows = []
    for params, parity, value, flag in sweep(
            args.omega_a, args.n_atoms, _gammas(args), _parities(args), point,
            (ValueError, ProjectionAnnihilationError, ConvergenceError)):
        obs, lam_max = value or (None, None)
        values = [None if obs is None else getattr(obs, k) for k in names]
        rows.append((params.gamma, parity, *values, lam_max, flag))
    meta = {**_base_meta(args), "source": args.source}
    return Dataset(meta, ["gamma", "parity", *names, "lambda_max", "flag"], rows)


def _cmd_fidelity(args) -> Dataset:
    rows = fidelity_scan(args.omega_a, args.n_atoms, _gammas(args), _parities(args),
                         tol=args.tol, lambda_cap=args.lambda_max_cap)
    return Dataset(_base_meta(args), ["gamma", "parity", "fidelity", "lambda_max", "flag"], rows)


def _cmd_distributions(args) -> Dataset:
    point = functools.partial(distribution_cells, kind=args.kind)
    scan = sweep(args.omega_a, args.n_atoms, _gammas(args), _parities(args), point,
                 (ValueError, ProjectionAnnihilationError))
    rows = [(params.gamma, parity, *(cells or (None, None, None)), flag)
            for params, parity, cells, flag in scan]
    nu_max = 0  # the photon cutoff of the joint grid, whose last cells may be holes
    if args.kind == "joint":
        nu_max = max((default_nu_max(params) for params, _, cells, _ in scan
                      if cells is not None), default=0)
    meta = {**_base_meta(args), "kind": args.kind, "nu_max": nu_max}
    return Dataset(meta, ["gamma", "parity", "nu", "n_e", "p", "flag"], rows)


def _cmd_figures(args) -> Dataset:
    gammas = None
    if args.gamma is not None or args.gamma_min is not None:
        gammas = _gammas(args)
    ds = figure_data(args.figure_id, omega_a=args.omega_a, n_atoms=args.n_atoms,
                     gammas=gammas, tol=args.tol, lambda_cap=args.lambda_max_cap)
    ds.meta = {"command": "figures", "version": __version__, **ds.meta}
    return ds


def _cmd_verify(args) -> Dataset:
    def point(params, parity):  # one report covers both parities
        return verify_table(params, tol=args.tol, lambda_cap=args.lambda_max_cap)

    rows = []
    for _, _, report, _ in sweep(args.omega_a, args.n_atoms, _gammas(args), ["both"], point):
        for r in report.rows:
            status = "flagged" if r.flag_closed_form else "ok"
            if r.flag_exact:
                status += "+exact-deviation"
            rows.append((report.params.gamma, r.name, r.parity, r.closed_form, r.oracle,
                         r.exact, r.dev_closed_oracle, r.dev_oracle_exact, status))
    meta = {**_base_meta(args), "closed_form_tol": CLOSED_FORM_TOL, "physics_tol": PHYSICS_TOL}
    return Dataset(meta, ["gamma", "observable", "parity", "closed_form", "oracle",
                          "exact", "dev_closed_oracle", "dev_oracle_exact", "status"], rows)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "observables": _cmd_observables,
    "fidelity": _cmd_fidelity,
    "distributions": _cmd_distributions,
    "figures": _cmd_figures,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate(args)
        dataset = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DickeLabError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    text = dataset.render(args.fmt)
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
