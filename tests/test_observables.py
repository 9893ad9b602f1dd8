import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from dickelab.model import ModelParams, build_sector_basis
from dickelab.observables import (
    ObservableSet,
    eigen_observables,
    embed_grid,
    grid_observables,
    joint_distribution_exact,
)
from dickelab.sas import sas_observables
from dickelab.solver import converge_ground


def _ground(params, parity, tol=1e-8):
    res = converge_ground(params, parity, tol=tol)
    return res.eigenvectors[:, 0], res.basis


class TestEigenObservables:
    def test_gamma_zero_product_state(self):
        p = ModelParams(1.0, 0.0, 8)
        vec, basis = _ground(p, "even")
        obs = eigen_observables(vec, basis)
        assert obs.jz == pytest.approx(-4.0, abs=1e-14)
        assert obs.n_photons == pytest.approx(0.0, abs=1e-14)
        assert obs.var_q == pytest.approx(0.5, abs=1e-14)
        assert obs.var_jz == pytest.approx(0.0, abs=1e-14)
        assert obs.lam == pytest.approx(0.0, abs=1e-14)

    def test_parity_selection_rule(self):
        p = ModelParams(1.0, 1.0, 10)
        vec, basis = _ground(p, "even")
        obs = eigen_observables(vec, basis)
        for name in ("q", "p", "jx", "jy"):
            assert abs(getattr(obs, name)) < 1e-12, name

    def test_var_q_close_to_projected_closed_form(self):
        p = ModelParams(1.0, 1.0, 10)
        vec, basis = _ground(p, "even")
        obs = eigen_observables(vec, basis)
        sas = sas_observables(p, "even")
        assert sas.var_q == pytest.approx(19.25, rel=1e-10)
        assert obs.var_q == pytest.approx(sas.var_q, rel=0.05)

    def test_matches_brute_dense_operators(self):
        p = ModelParams(0.8, 0.7, 5)
        vec, basis = _ground(p, "odd", tol=1e-10)
        obs = eigen_observables(vec, basis)
        grid = np.zeros((basis.lambda_max + 1, 6))
        grid[basis.nu, basis.ne] = vec
        ref = brute.grid_expectations(grid, 5)
        for name in ObservableSet.names():
            a, b = getattr(obs, name), ref[name]
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), name

    def test_fluctuations_nonnegative_and_bounds(self):
        for gamma in (0.2, 0.5, 0.9):
            p = ModelParams(1.0, gamma, 6)
            vec, basis = _ground(p, "even")
            obs = eigen_observables(vec, basis)
            for name in ("var_q", "var_p", "var_jx", "var_jy", "var_jz",
                         "var_n_photons", "var_lam"):
                assert getattr(obs, name) >= -1e-12, name
            assert obs.n_photons >= 0.0
            assert abs(obs.jz) <= 3.0 + 1e-12

    def test_norm_contract(self):
        p = ModelParams(1.0, 0.5, 4)
        basis = build_sector_basis(p, 10, "even")
        bad = np.zeros(basis.size)
        bad[0] = 0.9
        with pytest.raises(ValueError, match="norm"):
            eigen_observables(bad, basis)


class TestWindowObservables:
    """eigen_observables reads the window; the ladder operators applied to
    the embedded grid are the reference."""

    @settings(max_examples=80, deadline=None)
    @given(n_atoms=st.integers(1, 12), lambda_max=st.integers(0, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           parity=st.sampled_from(["even", "odd"]), boxed=st.booleans(),
           box=st.tuples(st.integers(0, 6), st.integers(0, 12), st.integers(0, 12)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_atoms=12, lambda_max=20, omega_a=1.0, gamma=0.0, parity="odd", boxed=True,
             box=(2, 3, 9), seed=0)
    def test_matches_the_grid(self, n_atoms, lambda_max, omega_a, gamma, parity, boxed, box,
                              seed):
        p = ModelParams(omega_a, gamma, n_atoms)
        if boxed:
            nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
            basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        else:
            basis = build_sector_basis(p, lambda_max, parity)
        if basis.size == 0:
            return
        vec = np.random.default_rng(seed).normal(size=basis.size)
        vec /= np.linalg.norm(vec)
        obs = eigen_observables(vec, basis)
        ref = grid_observables(embed_grid(vec, basis), n_atoms)
        for name in ObservableSet.names():
            a, b = getattr(obs, name), getattr(ref, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name
        for name in ("q", "p", "jx", "jy"):
            assert getattr(obs, name) == 0.0, name
        for size in {max(basis.size - 1, 1), basis.size + 1} - {basis.size}:
            with pytest.raises(ValueError, match="not one of the"):
                eigen_observables(np.full(size, size ** -0.5), basis)


class TestJointDistributionExact:
    def test_gamma_zero_point_mass(self):
        p = ModelParams(1.0, 0.0, 6)
        vec, basis = _ground(p, "even")
        P = joint_distribution_exact(vec, basis)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert P.sum() == pytest.approx(1.0, abs=1e-14)

    def test_normalization_and_holes(self):
        p = ModelParams(1.0, 1.0, 10)
        vec, basis = _ground(p, "even")
        P = joint_distribution_exact(vec, basis)
        assert P.sum() == pytest.approx(1.0, abs=1e-12)
        nu = np.arange(P.shape[0])[:, None]
        ne = np.arange(P.shape[1])[None, :]
        assert np.all(P[(nu + ne) % 2 == 1] == 0.0)

    def test_checkerboard_population_spread(self):
        # well above the transition many (nu, n_e) cells are populated
        p = ModelParams(1.0, 1.0, 10)
        vec, basis = _ground(p, "even")
        P = joint_distribution_exact(vec, basis)
        assert np.count_nonzero(P > 1e-6) > 50
