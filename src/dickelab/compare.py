"""Quantitative bridge between the exact and variational descriptions:
fidelity scans, closed-form table verification against the constructed-state
oracle and exact diagonalization, and figure-data generation.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConvergenceError, ProjectionAnnihilationError
from .model import ModelParams
from .observables import eigen_observables
from .sas import (
    coherent_observables,
    joint_distribution_sas,
    marginal_excited,
    marginal_photon,
    table_closed_forms_sas,
    build_sas_state,
    sas_observables,
    state_observables,
)
from .solver import (  # the trial states live with the solver they seed
    DEFAULT_LAMBDA_CAP,
    SpectralResult,
    converge_ground,
    variational_energy,
    variational_vector,
)
from .surface import (
    PhaseSpacePoint,
    critical_points,
    f_function,
    surface_gradient,
)

TABLE_ROW_NAMES = [
    "q", "p", "jx", "jy", "jz", "n_photons", "lam",
    "var_q", "var_p", "var_jx", "var_jy", "var_jz", "var_n_photons",
    "jz_n_photons", "jx_q",
]


def fidelity(params: ModelParams, parity: str, tol: float = 1e-8,
             lambda_cap: int = DEFAULT_LAMBDA_CAP,
             exact: SpectralResult | None = None) -> float:
    """|<trial|exact ground of the sector>|^2, both in the same basis.

    At gamma = 0 the odd trial family is degenerate; the overlap with its
    two-dimensional span is returned instead.
    """
    if exact is None:
        exact = converge_ground(params, parity, tol=tol, k=1, lambda_cap=lambda_cap)
    psi = exact.eigenvectors[:, 0]
    basis = exact.basis
    if parity == "odd" and params.gamma == 0.0:
        return float(psi[basis.index_of(0, 1)] ** 2 + psi[basis.index_of(1, 0)] ** 2)
    trial = variational_vector(params, parity, basis)
    return float(trial @ psi) ** 2


@dataclass
class FidelityCurve:
    """Fidelity along a coupling grid, with per-point truncation metadata."""

    parity: str
    omega_a: float
    n_atoms: int
    gammas: np.ndarray
    values: np.ndarray            # nan at flagged points
    lambda_maxes: np.ndarray      # nan where the exact solve failed
    flags: list = field(default_factory=list)


def fidelity_curve(omega_a: float, n_atoms: int, parity: str,
                   gammas, tol: float = 1e-8, jobs: int = 1,
                   lambda_cap: int = DEFAULT_LAMBDA_CAP) -> FidelityCurve:
    """Fidelity per coupling; a point whose exact solve fails to converge
    becomes a flagged nan instead of aborting the curve."""
    gammas = np.asarray(list(gammas), dtype=float)

    def one(gamma: float):
        params = ModelParams(omega_a, gamma, n_atoms)
        try:
            exact = converge_ground(params, parity, tol=tol, k=1, lambda_cap=lambda_cap)
        except ConvergenceError as exc:
            return math.nan, math.nan, type(exc).__name__
        try:
            val = fidelity(params, parity, tol=tol, exact=exact)
            return val, exact.lambda_max, ""
        except ProjectionAnnihilationError:
            return math.nan, exact.lambda_max, "annihilated"

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, gammas))
    else:
        results = [one(g) for g in gammas]
    values = np.array([r[0] for r in results])
    lams = np.array([r[1] for r in results], dtype=float)
    flags = [r[2] for r in results]
    return FidelityCurve(parity, omega_a, n_atoms, gammas, values, lams, flags)


# -- closed-form table verification ---------------------------------------------

def _deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale < 1e-12 else abs(a - b) / scale


@dataclass(frozen=True)
class TableRow:
    name: str
    parity: str
    closed_form: float
    oracle: float
    exact: float
    dev_closed_oracle: float
    dev_oracle_exact: float
    flag_closed_form: bool
    flag_exact: bool
    exact_comparable: bool


@dataclass
class VerificationReport:
    params: ModelParams
    closed_form_tol: float
    physics_tol: float
    rows: list

    def row(self, name: str, parity: str) -> TableRow:
        return next(r for r in self.rows if r.name == name and r.parity == parity)

    def flagged(self) -> list:
        return [r for r in self.rows if r.flag_closed_form]


def verify_table(params: ModelParams, closed_form_tol: float = 1e-8,
                 physics_tol: float = 0.05, tol: float = 1e-8,
                 lambda_cap: int = DEFAULT_LAMBDA_CAP) -> VerificationReport:
    """Three-way check of every tabulated row, per parity: the closed-form
    entry against the constructed-state oracle (flag above closed_form_tol)
    and the oracle against exact diagonalization (flag above physics_tol,
    meaningful away from the separatrix: |gamma - gamma_c| >= 0.25 gamma_c).
    """
    away = abs(abs(params.gamma) - params.gamma_c) >= 0.25 * params.gamma_c
    rows = []
    for parity in ("even", "odd"):
        closed_form = table_closed_forms_sas(params, parity)
        oracle = state_observables(build_sas_state(params, parity))
        exact_res = converge_ground(params, parity, tol=tol, k=1, lambda_cap=lambda_cap)
        exact = eigen_observables(exact_res.eigenvectors[:, 0], exact_res.basis)
        for name in TABLE_ROW_NAMES:
            o = getattr(oracle, name)
            e = getattr(exact, name)
            d_po = _deviation(closed_form[name], o)
            d_oe = _deviation(o, e)
            rows.append(TableRow(
                name=name,
                parity=parity,
                closed_form=closed_form[name],
                oracle=o,
                exact=e,
                dev_closed_oracle=d_po,
                dev_oracle_exact=d_oe,
                flag_closed_form=d_po > closed_form_tol,
                flag_exact=away and d_oe > physics_tol,
                exact_comparable=away,
            ))
    return VerificationReport(params, closed_form_tol, physics_tol, rows)


# -- smoothness audit across the transition --------------------------------------

@dataclass
class SmoothnessAudit:
    gammas: np.ndarray
    n_photons: np.ndarray
    n_excited: np.ndarray
    photon_bound: np.ndarray
    finite: bool
    bounded: bool
    second_diff_ok: bool


def _second_diff_bounded(values: np.ndarray, factor: float = 10.0,
                         window: int = 5, floor: float = 1e-10) -> bool:
    d2 = np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2])
    for i in range(d2.size):
        lo = max(0, i - window)
        med = np.median(d2[lo: i + window + 1])
        if d2[i] > factor * med + floor:
            return False
    return True


def smoothness_audit(omega_a: float = 1.0, n_atoms: int = 20,
                     gammas=None, tol: float = 1e-8) -> SmoothnessAudit:
    """Exact photon and excited-atom numbers across the transition: finite,
    bounded by N gamma_c^2 x^2 (1 - x^-4) + N, with bounded second differences.
    """
    if gammas is None:
        gammas = np.arange(0.30, 1.0000001, 0.01)
    gammas = np.asarray(list(gammas), dtype=float)
    n_phot = np.zeros_like(gammas)
    n_exc = np.zeros_like(gammas)
    bound = np.zeros_like(gammas)
    for i, gamma in enumerate(gammas):
        params = ModelParams(omega_a, gamma, n_atoms)
        res = converge_ground(params, "even", tol=tol, k=1)
        w = res.eigenvectors[:, 0] ** 2
        n_phot[i] = float(w @ res.basis.nu)
        n_exc[i] = float(w @ res.basis.ne)
        xa = abs(params.x)
        mu = (n_atoms * params.gamma_c ** 2 * xa ** 2 * (1 - xa ** -4)) if xa > 1 else 0.0
        bound[i] = mu + n_atoms
    finite = bool(np.all(np.isfinite(n_phot)) and np.all(np.isfinite(n_exc)))
    bounded = bool(np.all(n_phot <= bound))
    ok2 = _second_diff_bounded(n_phot) and _second_diff_bounded(n_exc)
    return SmoothnessAudit(gammas, n_phot, n_exc, bound, finite, bounded, ok2)


# -- figure datasets ---------------------------------------------------------------

FIGURE_TITLES = {
    1: "projected-surface gradients at the critical point vs coupling",
    2: "projected-surface q-gradient vs coupling for several atom counts",
    3: "ground and first-excited energies: exact vs variational",
    4: "overlap decay factor F vs coupling ratio x",
    5: "squared Jx fluctuation: projected, exact, and coherent",
    6: "squared q fluctuation: projected, exact, and coherent",
    7: "joint photon/excited-atom distribution of the projected states",
    8: "fidelity of projected states against exact eigenstates",
    9: "photon and excited-atom marginal distributions",
}


def _superradiant_critical_point(params: ModelParams) -> PhaseSpacePoint:
    return next(c for c in critical_points(params) if c.phase == "superradiant").point


def _gradient_columns(params: ModelParams) -> tuple[float, float, float, float]:
    pt = _superradiant_critical_point(params)
    g_even = surface_gradient(params, "even", pt)
    g_odd = surface_gradient(params, "odd", pt)
    return g_even[0], g_even[2], g_odd[0], g_odd[2]


def figure_data(figure_id: int, omega_a: float = 1.0, n_atoms: int | None = None,
                gammas=None, tol: float = 1e-8, jobs: int = 1,
                lambda_cap: int = DEFAULT_LAMBDA_CAP) -> Dataset:
    """Plot-ready rows reproducing one of the nine reference figures."""
    if figure_id not in FIGURE_TITLES:
        raise ValueError(f"unknown figure id {figure_id}; valid ids are 1..9")
    meta = {"figure": figure_id, "title": FIGURE_TITLES[figure_id], "omega_a": omega_a}
    builder = _FIGURE_BUILDERS[figure_id]
    return builder(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap)


def _fig_gradients(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    n = n_atoms or 20
    gc = math.sqrt(omega_a) / 2.0
    if gammas is None:
        gammas = np.arange(gc + 0.005, 1.2000001, 0.005)
    meta.update({"n_atoms": n})
    rows = []
    for gamma in gammas:
        p = ModelParams(omega_a, float(gamma), n)
        dq_e, dth_e, dq_o, dth_o = _gradient_columns(p)
        rows.append((float(gamma), dq_e, dth_e, dq_o, dth_o))
    return Dataset(meta, ["gamma", "dE_dq_even", "dE_dtheta_even",
                          "dE_dq_odd", "dE_dtheta_odd"], rows)


def _fig_gradient_scaling(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    ns = [n_atoms] if n_atoms else [20, 50, 100]
    gc = math.sqrt(omega_a) / 2.0
    if gammas is None:
        gammas = np.arange(gc + 0.005, 1.2000001, 0.005)
    meta.update({"n_atoms": ns})
    columns = ["gamma"]
    for n in ns:
        columns += [f"dE_dq_even_N{n}", f"dE_dq_odd_N{n}"]
    rows = []
    for gamma in gammas:
        row = [float(gamma)]
        for n in ns:
            p = ModelParams(omega_a, float(gamma), n)
            dq_e, _, dq_o, _ = _gradient_columns(p)
            row += [dq_e, dq_o]
        rows.append(tuple(row))
    return Dataset(meta, columns, rows)


def spectrum_dataset(omega_a: float, n_atoms: int, gammas, tol: float = 1e-8,
                     jobs: int = 1, lambda_cap: int = DEFAULT_LAMBDA_CAP) -> Dataset:
    """Exact and variational energies of both sectors along a coupling grid."""
    gammas = np.asarray(list(gammas), dtype=float)

    def one(gamma: float):
        p = ModelParams(omega_a, float(gamma), n_atoms)
        e_even = converge_ground(p, "even", tol=tol, lambda_cap=lambda_cap).eigenvalues[0]
        e_odd = converge_ground(p, "odd", tol=tol, lambda_cap=lambda_cap).eigenvalues[0]
        return (float(gamma), float(e_even), float(e_odd),
                variational_energy(p, "even"), variational_energy(p, "odd"))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, gammas))
    else:
        rows = [one(g) for g in gammas]
    meta = {"omega_a": omega_a, "n_atoms": n_atoms, "tol": tol}
    return Dataset(meta, ["gamma", "E_exact_even", "E_exact_odd",
                          "E_sas_even", "E_sas_odd"], rows)


def _fig_spectrum(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    n = n_atoms or 20
    if gammas is None:
        gammas = np.arange(0.0, 1.2000001, 0.02)
    ds = spectrum_dataset(omega_a, n, gammas, tol=tol, jobs=jobs, lambda_cap=lambda_cap)
    ds.meta = {**meta, **ds.meta}
    return ds


def _fig_f_function(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    ns = [n_atoms] if n_atoms else [2, 10, 20, 100]
    xs = np.arange(1.0, 3.0000001, 0.01) if gammas is None else np.asarray(gammas)
    meta.update({"n_atoms": ns})
    rows = []
    for x in xs:
        row = [float(x)]
        for n in ns:
            row.append(f_function(ModelParams.from_ratio(omega_a, float(x), n)).f)
        rows.append(tuple(row))
    return Dataset(meta, ["x"] + [f"F_N{n}" for n in ns], rows)


def _fluctuation_dataset(meta, omega_a, n_atoms, gammas, tol, lambda_cap, name):
    n = n_atoms or 10
    gc = math.sqrt(omega_a) / 2.0
    if gammas is None:
        gammas = np.arange(0.05, 1.0000001, 0.01)
    meta.update({"n_atoms": n, "observable": name})
    rows = []
    for gamma in gammas:
        p = ModelParams(omega_a, float(gamma), n)
        exact_e = converge_ground(p, "even", tol=tol, lambda_cap=lambda_cap)
        exact_o = converge_ground(p, "odd", tol=tol, lambda_cap=lambda_cap)
        val_e = getattr(eigen_observables(exact_e.eigenvectors[:, 0], exact_e.basis), name)
        val_o = getattr(eigen_observables(exact_o.eigenvectors[:, 0], exact_o.basis), name)
        if abs(gamma) >= gc:
            sas_e = getattr(sas_observables(p, "even"), name)
            sas_o = getattr(sas_observables(p, "odd"), name)
            coh = getattr(coherent_observables(p), name)
            flag = ""
        else:
            sas_e = sas_o = coh = None
            flag = "normal-phase"
        rows.append((float(gamma), sas_e, sas_o, val_e, val_o, coh, flag))
    return Dataset(meta, ["gamma", "sas_even", "sas_odd", "exact_even",
                          "exact_odd", "coherent", "flag"], rows)


def _fig_var_jx(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    return _fluctuation_dataset(meta, omega_a, n_atoms, gammas, tol, lambda_cap, "var_jx")


def _fig_var_q(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    return _fluctuation_dataset(meta, omega_a, n_atoms, gammas, tol, lambda_cap, "var_q")


def _fig_joint(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    n = n_atoms or 10
    gamma = 0.55 if gammas is None else float(np.asarray(gammas).ravel()[0])
    p = ModelParams(omega_a, gamma, n)
    even = joint_distribution_sas(p, "even")
    odd = joint_distribution_sas(p, "odd", nu_max=even.nu_max)
    meta.update({"n_atoms": n, "gamma": gamma, "nu_max": even.nu_max})
    rows = []
    for nu in range(even.matrix.shape[0]):
        for ne in range(n + 1):
            rows.append((nu, ne, even.matrix[nu, ne], odd.matrix[nu, ne]))
    return Dataset(meta, ["nu", "n_e", "p_even", "p_odd"], rows)


def _fig_fidelity(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    ns = [n_atoms] if n_atoms else [10, 20, 40, 50]
    if gammas is None:
        gammas = np.arange(0.05, 1.2000001, 0.025)
    gammas = np.asarray(list(gammas), dtype=float)
    meta.update({"n_atoms": ns})
    columns = ["gamma"]
    series = []
    for n in ns:
        for parity in ("even", "odd"):
            columns.append(f"fid_{parity}_N{n}")
            series.append(fidelity_curve(omega_a, n, parity, gammas, tol=tol, jobs=jobs,
                                         lambda_cap=lambda_cap))
    rows = []
    for i, gamma in enumerate(gammas):
        row = [float(gamma)]
        for curve in series:
            v = curve.values[i]
            row.append(None if math.isnan(v) else float(v))
        rows.append(tuple(row))
    return Dataset(meta, columns, rows)


def _fig_marginals(meta, omega_a, n_atoms, gammas, tol, jobs, lambda_cap):
    n = n_atoms or 10
    gamma_list = [0.55, 1.0] if gammas is None else [float(g) for g in gammas]
    meta.update({"n_atoms": n, "gammas": gamma_list})
    rows = []
    for gamma in gamma_list:
        p = ModelParams(omega_a, gamma, n)
        ph_e = marginal_photon(p, "even")
        ph_o = marginal_photon(p, "odd")
        for k in range(ph_e.size):
            rows.append(("photon", gamma, k, ph_e[k], ph_o[k]))
        at_e = marginal_excited(p, "even")
        at_o = marginal_excited(p, "odd")
        for k in range(at_e.size):
            rows.append(("atom", gamma, k, at_e[k], at_o[k]))
    return Dataset(meta, ["kind", "gamma", "k", "p_even", "p_odd"], rows)


_FIGURE_BUILDERS = {
    1: _fig_gradients,
    2: _fig_gradient_scaling,
    3: _fig_spectrum,
    4: _fig_f_function,
    5: _fig_var_jx,
    6: _fig_var_q,
    7: _fig_joint,
    8: _fig_fidelity,
    9: _fig_marginals,
}
