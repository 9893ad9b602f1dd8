"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s to see them)."""
import math
import time

import numpy as np
import pytest

import brute
from dickelab.compare import (
    fidelity,
    fidelity_curve,
    smoothness_audit,
    variational_energy,
    verify_table,
)
from dickelab.model import (
    PARITIES,
    ModelParams,
    build_hamiltonian,
    build_sector_basis,
)
from dickelab.observables import eigen_observables
from dickelab.sas import (
    build_sas_state,
    coherent_observables,
    gaussian_limits,
    gaussian_sup_distance,
    joint_distribution_sas,
    marginal_excited,
    marginal_photon,
    table_closed_forms_sas,
    sas_observables,
    state_observables,
)
from dickelab.solver import converge_ground
from dickelab.surface import (
    PhaseSpacePoint,
    classify_critical,
    critical_points,
    energy_surface,
    numeric_gradient,
    surface_gradient,
)


class _Timer:
    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[{self.name}] PASS ({elapsed:.2f} s, budget {self.budget:.0f} s)")
            assert elapsed < self.budget, f"{self.name} exceeded runtime budget"
        else:
            print(f"[{self.name}] FAIL after {elapsed:.2f} s")
        return False


def _superradiant_point(params):
    return next(c for c in critical_points(params) if c.phase == "superradiant").point


def test_criterion_01_symmetry_exactness_and_dimensions():
    with _Timer("criterion 1: parity exactness + closed-form dimensions", 1.0):
        # brute's H on the whole space is the two sectors side by side, and it
        # commutes with the parity exactly
        params = ModelParams(1.0, 1.0, 10)
        H, states = brute.dense_hamiltonian(1.0, 1.0, 10, 60, None)
        sectors = [(basis, build_hamiltonian(params, basis).toarray())
                   for basis in (build_sector_basis(params, 60, parity) for parity in PARITIES)]
        assert np.array_equal(brute.side_by_side(states, sectors), H)
        P = brute.parity_matrix(states)
        residual = np.abs(H @ P - P @ H)
        assert residual.max() == 0.0
        for j in range(1, 11):
            n_atoms = 2 * j
            p = ModelParams(1.0, 1.0, n_atoms)
            for lam_max in (0, 1, 2, 3, 5, 2 * j - 1, 2 * j, 2 * j + 1, 40, 60):
                if lam_max < 0:
                    continue
                even, odd = ({(int(nu), int(ne)) for nu, ne in zip(basis.nu, basis.ne)}
                             for basis in (build_sector_basis(p, lam_max, parity)
                                           for parity in PARITIES))
                full = brute.enumerate_states(n_atoms, lam_max, None)
                assert even.isdisjoint(odd) and even | odd == set(full)
                assert len(even) == brute.sector_dimension(n_atoms, lam_max, "even")
                assert len(odd) == brute.sector_dimension(n_atoms, lam_max, "odd")
                assert len(full) == brute.sector_dimension(n_atoms, lam_max, None)


def test_criterion_02_variational_bound():
    with _Timer("criterion 2: variational bound + gap away from separatrix", 60.0):
        gammas = np.arange(0.0, 1.2000001, 0.02)
        for gamma in gammas:
            p = ModelParams(1.0, float(gamma), 20)
            for parity in ("even", "odd"):
                e_sas = variational_energy(p, parity)
                e_exact = converge_ground(p, parity, tol=1e-8).eigenvalues[0]
                assert e_sas >= e_exact - 1e-10, (gamma, parity)
                if abs(gamma - 0.5) >= 0.125:
                    assert abs(e_sas - e_exact) / 20.0 <= 0.02, (gamma, parity)


def test_criterion_03_fidelity():
    with _Timer("criterion 3: fidelity at N=40", 120.0):
        for gamma in (0.8, 1.0):
            for parity in ("even", "odd"):
                val = fidelity(converge_ground(ModelParams(1.0, gamma, 40), parity))
                assert val >= 0.99, (gamma, parity, val)
        exact_one = fidelity(converge_ground(ModelParams(1.0, 0.0, 40), "even"))
        assert abs(exact_one - 1.0) <= 1e-12
        gammas = np.arange(0.05, 1.2000001, 0.05)
        for parity in ("even", "odd"):
            curve = fidelity_curve(1.0, 40, parity, gammas, tol=1e-8)
            g_min = gammas[np.nanargmin(curve.values)]
            assert 0.4 <= g_min <= 0.7, (parity, g_min)


def test_criterion_04_table_oracle_equivalence():
    with _Timer("criterion 4: closed-form table vs constructed-state oracle", 30.0):
        flagged_rows = {"lam", "var_n_photons", "jz_n_photons"}
        for n_atoms in (6, 10, 20):
            for x in (1.1, 1.5, 2.0, 4.0):
                params = ModelParams.from_ratio(1.0, x, n_atoms)
                for parity in ("even", "odd"):
                    oracle = state_observables(build_sas_state(params, parity))
                    closed = sas_observables(params, parity)
                    closed_form = table_closed_forms_sas(params, parity)
                    for name, value in closed_form.items():
                        o = getattr(oracle, name)
                        scale = max(abs(value), abs(o))
                        dev = abs(value - o) if scale < 1e-12 else abs(value - o) / scale
                        if name in flagged_rows:
                            assert dev > 1e-8, (name, "expected to be flagged")
                        else:
                            assert dev <= 1e-8, (name, n_atoms, x, parity, dev)
                    # the tabulated Jz a'a row is low by exactly j = N/2
                    assert closed_form["jz_n_photons"] * (n_atoms / 2.0) == pytest.approx(
                        oracle.jz_n_photons, rel=1e-8)
                    # operator-identity excitation number matches the oracle
                    scale = max(abs(closed.lam), abs(oracle.lam))
                    assert abs(closed.lam - oracle.lam) / scale <= 1e-10
        # the verification report flags the bad rows, carrying both values
        report = verify_table(ModelParams.from_ratio(1.0, 2.0, 10))
        for parity in ("even", "odd"):
            for name in flagged_rows:
                row = report.row(name, parity)
                assert row.flag_closed_form
                assert math.isfinite(row.closed_form) and math.isfinite(row.oracle)
                assert row.closed_form != row.oracle


def test_criterion_05_fluctuations_vs_exact():
    with _Timer("criterion 5: projected vs exact fluctuations at N=10", 10.0):
        params = ModelParams(1.0, 1.0, 10)
        res = converge_ground(params, "even", tol=1e-8)
        exact = eigen_observables(res.eigenvectors[:, 0], res.basis)
        sas = sas_observables(params, "even")
        coh = coherent_observables(params)
        assert sas.var_q == pytest.approx(19.25, rel=1e-10)
        assert abs(sas.var_q - exact.var_q) / exact.var_q <= 0.05
        assert abs(sas.var_jx - exact.var_jx) / exact.var_jx <= 0.05
        assert coh.var_q == 0.5
        assert coh.var_jx / 100.0 < 0.01  # (dJx)^2 / N^2 -> 0: the documented failure


def test_criterion_06_scaling_laws():
    with _Timer("criterion 6: N-scaling of the projected fluctuations", 1.0):
        a = sas_observables(ModelParams.from_ratio(1.0, 2.0, 10), "even")
        b = sas_observables(ModelParams.from_ratio(1.0, 2.0, 20), "even")
        assert (b.var_q - 0.5) == pytest.approx(2.0 * (a.var_q - 0.5), rel=1e-10)
        c = sas_observables(ModelParams.from_ratio(1.0, 4.0, 10), "even")
        assert c.var_jx / 25.0 == pytest.approx(0.99648, abs=1e-5)


def test_criterion_07_distributions():
    with _Timer("criterion 7: joint/marginal distributions + Gaussian limit", 10.0):
        for gamma in (0.55, 1.0):
            params = ModelParams(1.0, gamma, 10)
            for parity in ("even", "odd"):
                jd = joint_distribution_sas(params, parity)
                assert jd.matrix.sum() == pytest.approx(1.0, abs=1e-10)
                nu = np.arange(jd.matrix.shape[0])[:, None]
                ne = np.arange(11)[None, :]
                holes = (nu + ne) % 2 == (1 if parity == "even" else 0)
                assert np.all(jd.matrix[holes] == 0.0)
                ph = marginal_photon(params, parity)
                at = marginal_excited(params, parity)
                assert np.max(np.abs(ph - jd.matrix.sum(axis=1))) <= 1e-12
                assert np.max(np.abs(at - jd.matrix.sum(axis=0))) <= 1e-12
                obs = sas_observables(params, parity)
                assert float(np.arange(ph.size) @ ph) == pytest.approx(obs.n_photons, abs=1e-10)
                assert float(np.arange(11) @ at) == pytest.approx(obs.jz + 5.0, abs=1e-10)
        big = ModelParams.from_ratio(1.0, 2.0, 100)
        g = gaussian_limits(big)
        dist = gaussian_sup_distance(marginal_photon(big, "even"), g.photon_mean, g.photon_var)
        assert dist < 0.01


def test_criterion_08_no_singularity_at_transition():
    with _Timer("criterion 8: smooth, bounded photon number across the transition", 120.0):
        audit = smoothness_audit(1.0, 20, np.arange(0.30, 1.0000001, 0.01))
        assert audit.finite
        assert np.all(audit.n_photons <= 20.0)
        assert audit.bounded
        assert audit.second_diff_ok


def test_criterion_09_critical_point_structure():
    with _Timer("criterion 9: critical-point gradients and Hessian degeneracy", 5.0):
        for omega_a in (0.5, 1.0, 2.0):
            for x in (0.3, 0.7, 1.3, 2.0, 3.5):
                p = ModelParams.from_ratio(omega_a, x, 12)
                for cp in critical_points(p):
                    grad = numeric_gradient(
                        lambda v: energy_surface(p, PhaseSpacePoint(*v)),
                        cp.point.as_array())
                    assert np.max(np.abs(grad)) < 1e-8, (omega_a, x)
            at_sep = ModelParams.from_ratio(omega_a, 1.0, 20)
            res = classify_critical(at_sep, PhaseSpacePoint(0, 0, 0, 0), "coherent")
            assert np.min(np.abs(res.eigenvalues)) < 1e-6
            low = ModelParams.from_ratio(omega_a, 0.4, 20)
            res_low = classify_critical(low, PhaseSpacePoint(0, 0, 0, 0), "coherent")
            assert np.min(res_low.eigenvalues) > 1e-3
            high = ModelParams.from_ratio(omega_a, 1.6, 20)
            res_high = classify_critical(high, _superradiant_point(high), "coherent")
            assert np.min(res_high.eigenvalues) > 1e-3


def test_criterion_10_projected_surface_gradients():
    with _Timer("criterion 10: projected-surface gradient localization", 30.0):
        widths = {"even": [], "odd": []}
        for n_atoms in (20, 50, 100):
            for parity in ("even", "odd"):
                for gamma in (0.8, 1.0, 1.2):
                    p = ModelParams(1.0, gamma, n_atoms)
                    grad = surface_gradient(p, parity, _superradiant_point(p))
                    assert abs(grad[0]) < 1e-6, (n_atoms, parity, gamma)
                scan = np.arange(0.502, 0.8001, 0.002)
                above_tiny = 0.0
                peak = 0.0
                for gamma in scan:
                    p = ModelParams(1.0, float(gamma), n_atoms)
                    dq = abs(surface_gradient(p, parity, _superradiant_point(p))[0])
                    if gamma <= 0.6:
                        peak = max(peak, dq)
                    if dq > 1e-6:
                        above_tiny = gamma - 0.5
                assert peak > 1e-3, (n_atoms, parity)
                widths[parity].append(above_tiny)
        for parity in ("even", "odd"):
            w = widths[parity]
            assert w[0] > w[1] > w[2], (parity, w)
