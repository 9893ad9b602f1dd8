"""Command-line front end: parameter scans, figure data, verification reports.

Exit codes: 0 success, 1 computation failure, 2 usage error.  Output is CSV
(default, '#'-prefixed metadata) or JSON ({meta, columns, rows}); identical
configurations produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .compare import (
    fidelity_curve,
    figure_data,
    spectrum_dataset,
    verify_table,
)
from .dataset import Dataset
from .errors import ConvergenceError, DickeLabError, ProjectionAnnihilationError
from .model import ModelParams
from .observables import ObservableSet, eigen_observables
from .sas import coherent_observables, sas_observables
from .solver import converge_ground


@dataclass
class RunConfig:
    command: str
    omega_a: float
    n_atoms: int
    gamma: float | None
    gamma_min: float | None
    gamma_max: float | None
    steps: int | None
    parity: str
    tol: float
    lambda_max_cap: int
    fmt: str
    out: str | None
    jobs: int

    def validate(self) -> None:
        if self.tol <= 0:
            raise UsageError("--tol must be > 0")
        if self.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if self.lambda_max_cap < 2:
            raise UsageError("--lambda-max-cap must be >= 2")
        has_range = any(v is not None for v in (self.gamma_min, self.gamma_max, self.steps))
        if self.gamma is not None and has_range:
            raise UsageError("use either --gamma or --gamma-min/--gamma-max/--steps")
        if has_range:
            if None in (self.gamma_min, self.gamma_max, self.steps):
                raise UsageError("--gamma-min, --gamma-max and --steps go together")
            if self.steps < 2:
                raise UsageError("--steps must be >= 2 for a gamma range")
            if self.gamma_max < self.gamma_min:
                raise UsageError("--gamma-max must be >= --gamma-min")

    def gammas(self) -> np.ndarray:
        if self.gamma is not None:
            return np.array([self.gamma])
        if self.gamma_min is not None:
            return np.linspace(self.gamma_min, self.gamma_max, self.steps)
        raise UsageError("specify --gamma or a --gamma-min/--gamma-max/--steps range")

    def parities(self) -> list[str]:
        return ["even", "odd"] if self.parity == "both" else [self.parity]


class UsageError(Exception):
    pass


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
        sp.add_argument("--n-atoms", type=int, default=None, help="atom count")
        sp.add_argument("--gamma", type=float, default=None, help="single coupling value")
        sp.add_argument("--gamma-min", type=float, default=None)
        sp.add_argument("--gamma-max", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--parity", choices=["even", "odd", "both"], default="both")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="relative convergence tolerance (default 1e-8)")
        sp.add_argument("--lambda-max-cap", type=int, default=400)
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        sp.add_argument("--jobs", type=int, default=1, help="scan parallelism")

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
    p_fig.add_argument("--id", type=int, required=True, dest="figure_id",
                       help="figure id, 1..9")
    add_common(sub.add_parser("verify", help="closed-form table verification report"))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        omega_a=args.omega_a,
        n_atoms=args.n_atoms if args.n_atoms is not None else 10,
        gamma=args.gamma,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        steps=args.steps,
        parity=args.parity,
        tol=args.tol,
        lambda_max_cap=args.lambda_max_cap,
        fmt=args.fmt,
        out=args.out,
        jobs=args.jobs,
    )
    cfg.validate()
    return cfg


def _base_meta(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "omega_a": cfg.omega_a,
        "n_atoms": cfg.n_atoms,
        "tol": cfg.tol,
        "lambda_max_cap": cfg.lambda_max_cap,
    }


def _cmd_spectrum(cfg: RunConfig, args) -> Dataset:
    ds = spectrum_dataset(cfg.omega_a, cfg.n_atoms, cfg.gammas(),
                          tol=cfg.tol, jobs=cfg.jobs, lambda_cap=cfg.lambda_max_cap)
    ds.meta = {**_base_meta(cfg), **ds.meta}
    return ds


def _cmd_observables(cfg: RunConfig, args) -> Dataset:
    names = ObservableSet.names()
    rows = []
    for gamma in cfg.gammas():
        params = ModelParams(cfg.omega_a, float(gamma), cfg.n_atoms)
        for parity in cfg.parities():
            flag = ""
            lam_max = None
            try:
                if args.source == "exact":
                    res = converge_ground(params, parity, tol=cfg.tol,
                                          lambda_cap=cfg.lambda_max_cap)
                    obs = eigen_observables(res.eigenvectors[:, 0], res.basis)
                    lam_max = res.lambda_max
                elif args.source == "sas":
                    obs = sas_observables(params, parity)
                else:
                    obs = coherent_observables(params)
                values = [getattr(obs, k) for k in names]
            except (ValueError, ProjectionAnnihilationError, ConvergenceError) as exc:
                values = [None] * len(names)
                flag = type(exc).__name__
            rows.append((float(gamma), parity, *values, lam_max, flag))
    meta = {**_base_meta(cfg), "source": args.source}
    return Dataset(meta, ["gamma", "parity", *names, "lambda_max", "flag"], rows)


def _cmd_fidelity(cfg: RunConfig, args) -> Dataset:
    gammas = cfg.gammas()
    rows_by_parity = {}
    for parity in cfg.parities():
        curve = fidelity_curve(cfg.omega_a, cfg.n_atoms, parity, gammas,
                               tol=cfg.tol, jobs=cfg.jobs, lambda_cap=cfg.lambda_max_cap)
        rows_by_parity[parity] = curve
    rows = []
    for i, gamma in enumerate(gammas):
        for parity in cfg.parities():
            curve = rows_by_parity[parity]
            val = curve.values[i]
            lam = curve.lambda_maxes[i]
            rows.append((float(gamma), parity,
                         None if np.isnan(val) else float(val),
                         None if np.isnan(lam) else int(lam), curve.flags[i]))
    return Dataset(_base_meta(cfg), ["gamma", "parity", "fidelity", "lambda_max", "flag"], rows)


def _cmd_distributions(cfg: RunConfig, args) -> Dataset:
    from .sas import joint_distribution_sas, marginal_excited, marginal_photon

    rows = []
    nu_max_seen = 0
    for gamma in cfg.gammas():
        params = ModelParams(cfg.omega_a, float(gamma), cfg.n_atoms)
        for parity in cfg.parities():
            try:
                if args.kind == "joint":
                    jd = joint_distribution_sas(params, parity)
                    nu_max_seen = max(nu_max_seen, jd.nu_max)
                    for nu in range(jd.matrix.shape[0]):
                        for ne in range(cfg.n_atoms + 1):
                            rows.append((float(gamma), parity, nu, ne,
                                         float(jd.matrix[nu, ne]), ""))
                elif args.kind == "photon":
                    pmf = marginal_photon(params, parity)
                    for k, v in enumerate(pmf):
                        rows.append((float(gamma), parity, k, None, float(v), ""))
                else:
                    pmf = marginal_excited(params, parity)
                    for k, v in enumerate(pmf):
                        rows.append((float(gamma), parity, None, k, float(v), ""))
            except (ValueError, ProjectionAnnihilationError) as exc:
                rows.append((float(gamma), parity, None, None, None, type(exc).__name__))
    meta = {**_base_meta(cfg), "kind": args.kind, "nu_max": nu_max_seen}
    return Dataset(meta, ["gamma", "parity", "nu", "n_e", "p", "flag"], rows)


def _cmd_figures(cfg: RunConfig, args) -> Dataset:
    gammas = None
    if cfg.gamma is not None or cfg.gamma_min is not None:
        gammas = cfg.gammas()
    ds = figure_data(args.figure_id, omega_a=cfg.omega_a, n_atoms=args.n_atoms,
                     gammas=gammas, tol=cfg.tol, jobs=cfg.jobs,
                     lambda_cap=cfg.lambda_max_cap)
    ds.meta = {"command": "figures", "version": __version__, **ds.meta}
    return ds


def _cmd_verify(cfg: RunConfig, args) -> Dataset:
    rows = []
    for gamma in cfg.gammas():
        params = ModelParams(cfg.omega_a, float(gamma), cfg.n_atoms)
        report = verify_table(params, tol=cfg.tol, lambda_cap=cfg.lambda_max_cap)
        for r in report.rows:
            status = "flagged" if r.flag_closed_form else "ok"
            if r.flag_exact:
                status += "+exact-deviation"
            rows.append((float(gamma), r.name, r.parity, r.closed_form, r.oracle,
                         r.exact, r.dev_closed_oracle, r.dev_oracle_exact, status))
    meta = {**_base_meta(cfg), "closed_form_tol": 1e-8, "physics_tol": 0.05}
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
        cfg = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        dataset = _HANDLERS[args.command](cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # bad figure ids and domain errors on single-point commands are
        # usage-level; scans degrade to flagged rows instead of raising
        if args.command == "figures" and "figure id" in str(exc):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except DickeLabError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    text = dataset.render(cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
