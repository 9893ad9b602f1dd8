"""Quantitative bridge between the exact and variational descriptions:
coupling sweeps, fidelity scans, closed-form table verification against the
constructed-state oracle and exact diagonalization, and figure-data
generation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConvergenceError, ProjectionAnnihilationError
from .model import ModelParams, gamma_critical
from .observables import eigen_observables
from .sas import (
    TABLE_ROW_NAMES,
    build_sas_state,
    coherent_observables,
    joint_distribution_sas,
    marginal_excited,
    marginal_photon,
    photon_number_coherent,
    sas_observables,
    state_observables,
    table_closed_forms_sas,
)
from .solver import (  # the trial states live with the solver they seed
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


def sweep(omega_a: float, n_atoms: int, gammas, parities, point,
          flagged: tuple = ()) -> list[tuple]:
    """One coupling scan: ``point(params, parity)`` for each gamma and, within
    it, each parity.

    Returns (params, parity, value, flag) per point.  The parameters are built
    outside the error handling, so a bad one fails the scan; an exception of a
    type in ``flagged`` becomes value None, flagged with its type name.
    """
    out = []
    for gamma in gammas:
        params = ModelParams(omega_a, float(gamma), n_atoms)
        for parity in parities:
            try:
                out.append((params, parity, point(params, parity), ""))
            except flagged as exc:
                out.append((params, parity, None, type(exc).__name__))
    return out


def _by_gamma(scan: list[tuple]) -> list[tuple]:
    """(params, even value, odd value) from a sweep over ("even", "odd")."""
    return [(even[0], even[2], odd[2]) for even, odd in zip(scan[0::2], scan[1::2])]


def fidelity(exact: SpectralResult) -> float:
    """|<trial|exact ground of the sector>|^2, both in the exact result's basis.

    The trial state is the one the solve started from (``exact.trial``),
    built again only where the solve kept none.  At gamma = 0 the odd trial
    family is degenerate; the overlap with its two-dimensional span is
    returned instead.  A normal-phase trial state outside the exact result's
    window raises ValueError.
    """
    psi = exact.eigenvectors[:, 0]
    basis = exact.basis
    params, parity = basis.params, exact.parity
    if parity == "odd" and params.gamma == 0.0:
        return float(psi[basis.locate(0, 1)] ** 2 + psi[basis.locate(1, 0)] ** 2)
    trial = exact.trial
    if trial is None:
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


def _fidelity_point(params: ModelParams, parity: str, tol: float) -> tuple:
    exact = converge_ground(params, parity, tol=tol)
    try:
        return fidelity(exact), exact.lambda_max, ""
    except ProjectionAnnihilationError:
        return None, exact.lambda_max, "annihilated"


def fidelity_scan(omega_a: float, n_atoms: int, gammas, parities,
                  tol: float = 1e-8) -> list[tuple]:
    """(gamma, parity, fidelity, lambda_max, flag) per point.  The fidelity is
    None where the odd trial state is annihilated, and both values are None
    where the exact solve does not converge (flag "ConvergenceError")."""
    point = functools.partial(_fidelity_point, tol=tol)
    return [(params.gamma, parity, *(value or (None, None, flag)))
            for params, parity, value, flag
            in sweep(omega_a, n_atoms, gammas, parities, point, (ConvergenceError,))]


def fidelity_curve(omega_a: float, n_atoms: int, parity: str,
                   gammas, tol: float = 1e-8) -> FidelityCurve:
    """fidelity_scan of one parity, with nan at the flagged points."""
    gammas = np.asarray(list(gammas), dtype=float)
    rows = fidelity_scan(omega_a, n_atoms, gammas, [parity], tol)
    values = np.array([math.nan if r[2] is None else r[2] for r in rows], dtype=float)
    lams = np.array([math.nan if r[3] is None else r[3] for r in rows], dtype=float)
    return FidelityCurve(parity, omega_a, n_atoms, gammas, values, lams, [r[4] for r in rows])


# -- closed-form table verification ---------------------------------------------

CLOSED_FORM_TOL = 1e-8  # closed form vs oracle: the same state, so rounding only
PHYSICS_TOL = 0.05      # oracle vs exact ground state, away from the separatrix


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
    rows: list

    def row(self, name: str, parity: str) -> TableRow:
        return next(r for r in self.rows if r.name == name and r.parity == parity)

    def flagged(self) -> list:
        return [r for r in self.rows if r.flag_closed_form]


def verify_table(params: ModelParams, tol: float = 1e-8) -> VerificationReport:
    """Three-way check of every tabulated row, per parity: the closed-form
    entry against the constructed-state oracle (flag above CLOSED_FORM_TOL)
    and the oracle against exact diagonalization (flag above PHYSICS_TOL,
    meaningful away from the separatrix: |gamma - gamma_c| >= 0.25 gamma_c).
    """
    away = abs(abs(params.gamma) - params.gamma_c) >= 0.25 * params.gamma_c
    rows = []
    for parity in ("even", "odd"):
        closed_form = table_closed_forms_sas(params, parity)
        oracle = state_observables(build_sas_state(params, parity))
        exact_res = converge_ground(params, parity, tol=tol)
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
                flag_closed_form=d_po > CLOSED_FORM_TOL,
                flag_exact=away and d_oe > PHYSICS_TOL,
                exact_comparable=away,
            ))
    return VerificationReport(params, rows)


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

    def point(params, parity):
        res = converge_ground(params, parity, tol=tol)
        w = res.eigenvectors[:, 0] ** 2
        return float(w @ res.basis.nu), float(w @ res.basis.ne)

    scan = sweep(omega_a, n_atoms, gammas, ("even",), point)
    n_phot = np.array([value[0] for _, _, value, _ in scan], dtype=float)
    n_exc = np.array([value[1] for _, _, value, _ in scan], dtype=float)
    bound = np.array([photon_number_coherent(p) + n_atoms for p, _, _, _ in scan], dtype=float)
    finite = bool(np.all(np.isfinite(n_phot)) and np.all(np.isfinite(n_exc)))
    bounded = bool(np.all(n_phot <= bound))
    ok2 = _second_diff_bounded(n_phot) and _second_diff_bounded(n_exc)
    return SmoothnessAudit(gammas, n_phot, n_exc, bound, finite, bounded, ok2)


# -- distributions -------------------------------------------------------------------

def _distribution(params: ModelParams, parity: str, kind: str) -> np.ndarray:
    """The projected state's joint P(nu, n_e) matrix (kind "joint"), or its
    photon ("photon") or excited-atom ("atom") marginal, on the full grid."""
    if kind == "joint":
        return joint_distribution_sas(params, parity).matrix
    if kind == "photon":
        return marginal_photon(params, parity)
    if kind == "atom":
        return marginal_excited(params, parity)
    raise ValueError(f"kind must be 'joint', 'photon' or 'atom', got {kind!r}")


def _on_support(*grids: np.ndarray) -> tuple:
    """The grid indices of the cells where at least one of ``grids`` is not
    exactly 0, in nu-major order, and each grid on those cells: the one rule
    by which a distribution table drops its rows (a parity hole, or a tail
    cell that underflowed)."""
    index = np.nonzero(np.logical_or.reduce([g != 0 for g in grids]))
    return index, [g[index] for g in grids]


def distribution_cells(params: ModelParams, parity: str, kind: str) -> tuple:
    """The projected state's distribution on its support, as (nu, n_e, p)
    columns of int and float arrays: the cells of the joint P(nu, n_e) whose
    p is not exactly 0, nu-major (kind "joint"), or those of the photon
    ("photon", n_e None) or excited-atom ("atom", nu None) marginal."""
    index, (p,) = _on_support(_distribution(params, parity, kind))
    if kind == "joint":
        return index[0], index[1], p
    if kind == "photon":
        return index[0], None, p
    return None, index[0], p


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
                gammas=None, tol: float = 1e-8) -> Dataset:
    """Plot-ready rows reproducing one of the nine reference figures."""
    if figure_id not in FIGURE_TITLES:
        raise ValueError(f"unknown figure id {figure_id}; valid ids are 1..9")
    meta = {"figure": figure_id, "title": FIGURE_TITLES[figure_id], "omega_a": omega_a}
    builder = _FIGURE_BUILDERS[figure_id]
    return builder(meta, omega_a, n_atoms, gammas, tol)


def _fig_gradients(meta, omega_a, n_atoms, gammas, tol):
    n = n_atoms or 20
    gc = gamma_critical(omega_a)
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


def _fig_gradient_scaling(meta, omega_a, n_atoms, gammas, tol):
    ns = [n_atoms] if n_atoms else [20, 50, 100]
    gc = gamma_critical(omega_a)
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


def spectrum_dataset(omega_a: float, n_atoms: int, gammas, tol: float = 1e-8) -> Dataset:
    """Exact and variational energies of both sectors along a coupling grid."""

    def point(params, parity):
        exact = converge_ground(params, parity, tol=tol)
        return float(exact.eigenvalues[0]), variational_energy(params, parity)

    scan = sweep(omega_a, n_atoms, np.asarray(list(gammas), dtype=float), ("even", "odd"), point)
    rows = [(p.gamma, even[0], odd[0], even[1], odd[1]) for p, even, odd in _by_gamma(scan)]
    meta = {"omega_a": omega_a, "n_atoms": n_atoms, "tol": tol}
    return Dataset(meta, ["gamma", "E_exact_even", "E_exact_odd",
                          "E_sas_even", "E_sas_odd"], rows)


def _fig_spectrum(meta, omega_a, n_atoms, gammas, tol):
    n = n_atoms or 20
    if gammas is None:
        gammas = np.arange(0.0, 1.2000001, 0.02)
    ds = spectrum_dataset(omega_a, n, gammas, tol=tol)
    ds.meta = {**meta, **ds.meta}
    return ds


def _fig_f_function(meta, omega_a, n_atoms, gammas, tol):
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


def _fluctuation_dataset(meta, omega_a, n_atoms, gammas, tol, name):
    n = n_atoms or 10
    gc = gamma_critical(omega_a)
    if gammas is None:
        gammas = np.arange(0.05, 1.0000001, 0.01)
    meta.update({"n_atoms": n, "observable": name})

    def point(params, parity):
        exact = converge_ground(params, parity, tol=tol)
        value = getattr(eigen_observables(exact.eigenvectors[:, 0], exact.basis), name)
        if abs(params.gamma) < gc:
            return value, None
        return value, getattr(sas_observables(params, parity), name)

    rows = []
    for p, (exact_e, sas_e), (exact_o, sas_o) in _by_gamma(
            sweep(omega_a, n, gammas, ("even", "odd"), point)):
        if abs(p.gamma) >= gc:
            coh, flag = getattr(coherent_observables(p), name), ""
        else:
            coh, flag = None, "normal-phase"
        rows.append((p.gamma, sas_e, sas_o, exact_e, exact_o, coh, flag))
    return Dataset(meta, ["gamma", "sas_even", "sas_odd", "exact_even",
                          "exact_odd", "coherent", "flag"], rows)


def _fig_joint(meta, omega_a, n_atoms, gammas, tol):
    n = n_atoms or 10
    gamma = 0.55 if gammas is None else float(np.asarray(gammas).ravel()[0])
    p = ModelParams(omega_a, gamma, n)
    even, odd = (joint_distribution_sas(p, parity) for parity in ("even", "odd"))
    (nu, ne), (p_even, p_odd) = _on_support(even.matrix, odd.matrix)  # holes complementary
    meta.update({"n_atoms": n, "gamma": gamma, "nu_max": even.nu_max})
    return Dataset(meta, ["nu", "n_e", "p_even", "p_odd"], [(nu, ne, p_even, p_odd)])


def _fig_fidelity(meta, omega_a, n_atoms, gammas, tol):
    ns = [n_atoms] if n_atoms else [10, 20, 40, 50]
    if gammas is None:
        gammas = np.arange(0.05, 1.2000001, 0.025)
    gammas = [float(g) for g in gammas]
    meta.update({"n_atoms": ns})
    columns = ["gamma"] + [f"fid_{parity}_N{n}" for n in ns for parity in ("even", "odd")]
    series = []  # per N, the (even, odd) fidelities of each gamma
    for n in ns:
        scan = fidelity_scan(omega_a, n, gammas, ("even", "odd"), tol)
        series.append([(even[2], odd[2]) for even, odd in zip(scan[0::2], scan[1::2])])
    rows = [(gamma, *(f for pair in pairs for f in pair))
            for gamma, *pairs in zip(gammas, *series)]
    return Dataset(meta, columns, rows)


def _fig_marginals(meta, omega_a, n_atoms, gammas, tol):
    n = n_atoms or 10
    gamma_list = [0.55, 1.0] if gammas is None else [float(g) for g in gammas]
    meta.update({"n_atoms": n, "gammas": gamma_list})
    rows = []
    for gamma in gamma_list:
        p = ModelParams(omega_a, gamma, n)
        for kind in ("photon", "atom"):
            (k,), (p_even, p_odd) = _on_support(_distribution(p, "even", kind),
                                                _distribution(p, "odd", kind))
            rows.append((kind, gamma, k, p_even, p_odd))
    return Dataset(meta, ["kind", "gamma", "k", "p_even", "p_odd"], rows)


_FIGURE_BUILDERS = {
    1: _fig_gradients,
    2: _fig_gradient_scaling,
    3: _fig_spectrum,
    4: _fig_f_function,
    5: functools.partial(_fluctuation_dataset, name="var_jx"),
    6: functools.partial(_fluctuation_dataset, name="var_q"),
    7: _fig_joint,
    8: _fig_fidelity,
    9: _fig_marginals,
}
