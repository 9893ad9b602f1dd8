import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import brute
from dickelab import cli, solver
from dickelab.errors import ConvergenceError, ProjectionAnnihilationError
from dickelab.model import ModelParams, build_hamiltonian, build_sector_basis
from dickelab.sas import photon_number_coherent
from dickelab.solver import (
    RESIDUAL_TOL,
    SHIFT_GUARD,
    converge_ground,
    lowest_eigenpairs,
    spin_floor,
    truncation_seed,
    variational_energy,
    variational_vector,
)
from dickelab.surface import atom_statistics, lambda_statistics, photon_statistics


def _solve(params, lam_max, parity):
    basis = build_sector_basis(params, lam_max, parity)
    return lowest_eigenpairs(build_hamiltonian(params, basis))


def _seed_at(monkeypatch, lam):
    """Make converge_ground solve its window at lambda_max = lam."""
    seed = solver.truncation_seed
    monkeypatch.setattr(solver, "truncation_seed",
                        lambda params, tol: {**seed(params, tol), "lambda_seed": lam})


def _record_solves(monkeypatch):
    """The bases of every lowest_eigenpairs call converge_ground makes from now on."""
    bases = []
    solve = solver.lowest_eigenpairs

    def recording(op):
        bases.append(op.basis)
        return solve(op)

    monkeypatch.setattr(solver, "lowest_eigenpairs", recording)
    return bases


def _shift_at(monkeypatch, floor):
    """Put the spin floor lowest_eigenpairs shifts from at floor: the shift
    is SHIFT_GUARD max(1, |floor|) below it."""
    monkeypatch.setattr(solver, "spin_floor", lambda params: floor)


def _shift_below(floor):
    """The shift lowest_eigenpairs takes below a spin floor."""
    return floor - SHIFT_GUARD * max(1.0, abs(floor))


def _record_eigsh(monkeypatch):
    """The keyword arguments of every eigsh call the solver makes from now on."""
    calls = []
    eigsh = solver.spla.eigsh

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "eigsh", recording)
    return calls


def _assert_settled(res, params, parity, tol):
    """The accepted energy agrees with a solve 40 shells larger within tol |E|."""
    wide = _solve(params, res.lambda_max + 40, parity).eigenvalues[0]
    assert abs(res.eigenvalues[0] - wide) <= tol * abs(wide)


def _first_indefinite_minor(shifted, order):
    """The first leading minor of shifted, in this order of its states, that is
    not positive definite; by interlacing the lowest eigenvalue of a leading
    minor falls as the minor grows, so bisect for it."""
    shifted = shifted[np.ix_(order, order)]
    lo, hi = 0, len(order)  # the minor of order lo is positive definite, that of hi is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.linalg.eigvalsh(shifted[:mid, :mid])[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


class TestLowestEigenpairs:
    def test_gamma_zero_even_ground(self):
        p = ModelParams(1.0, 0.0, 20)
        res = _solve(p, 30, "even")
        assert res.eigenvalues[0] == pytest.approx(-10.0, abs=1e-12)

    def test_gamma_zero_odd_degenerate(self):
        # the ground energy 0 is twofold: |0, n_e=1> and |1, n_e=0> at resonance
        p = ModelParams(1.0, 0.0, 2)
        res = _solve(p, 6, "odd")
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        spectrum = np.linalg.eigvalsh(brute.dense_hamiltonian(1.0, 0.0, 2, 6, "odd")[0])
        assert spectrum[:2] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_small_coupling_odd_shift(self):
        # the lambda=1 block is [[0, gamma], [gamma, 0]] at resonance
        p = ModelParams(1.0, 0.1, 2)
        block = _solve(p, 1, "odd")
        assert block.eigenvalues[0] == pytest.approx(-0.1, abs=1e-14)
        # the converged sector value sits just below the 2x2 estimate
        res = converge_ground(p, "odd", tol=1e-10)
        assert res.eigenvalues[0] == pytest.approx(-0.1, abs=2e-2)
        assert res.eigenvalues[0] <= -0.1 + 1e-12

    def test_matches_brute_dense(self):
        p = ModelParams(0.8, 0.6, 4)
        basis = build_sector_basis(p, 12, "even")
        res = lowest_eigenpairs(build_hamiltonian(p, basis))
        # the dense path has no shift and makes no band solve
        assert (res.path, res.shift, res.band_solves) == ("dense", None, 0)
        Hb, states = brute.dense_hamiltonian(0.8, 0.6, 4, 12, "even")
        wb, vb = np.linalg.eigh(Hb)
        assert res.eigenvalues[0] == pytest.approx(wb[0], abs=1e-10)
        # the same state, up to sign, in brute's order of the states
        psi = res.eigenvectors[[basis.locate(nu, ne) for nu, ne in states], 0]
        assert abs(psi @ vb[:, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_residuals_and_norms(self):
        p = ModelParams(1.0, 1.0, 10)
        basis = build_sector_basis(p, 60, "even")
        op = build_hamiltonian(p, basis)
        res = lowest_eigenpairs(op)
        assert res.eigenvalues.shape == (1,) and res.eigenvectors.shape == (op.dimension, 1)
        v = res.eigenvectors[:, 0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        r = np.linalg.norm(op.matrix @ v - res.eigenvalues[0] * v)
        assert r <= 1e-8
        assert res.residuals.shape == (1,) and res.residuals[0] == pytest.approx(r, abs=1e-15)

    def test_gamma_zero_sector_above_the_cutoff(self):
        # no couplings: the band factored is the diagonal alone
        p = ModelParams(1.0, 0.0, 40)
        op = build_hamiltonian(p, build_sector_basis(p, 32, "even"))
        assert op.dimension == 289 > solver.DENSE_CUTOFF
        assert op.matrix.val.size == 0
        res = lowest_eigenpairs(op)
        assert res.path == "variational shift-invert"
        assert res.eigenvalues[0] == pytest.approx(-20.0, abs=1e-12)

    def test_window_without_the_trial_state_starts_from_the_fixed_seed(self, monkeypatch):
        # nu_lo = 1 drops the vacuum the even trial state sits on
        p = ModelParams.from_ratio(1.0, 0.5, 10)
        op = build_hamiltonian(p, build_sector_basis(p, 30, "even", nu_lo=1))
        assert op.dimension == 140 > solver.DENSE_CUTOFF
        calls = _record_eigsh(monkeypatch)
        res = lowest_eigenpairs(op)
        assert np.array_equal(calls[0]["v0"],
                              np.random.default_rng(0).uniform(-1.0, 1.0, op.dimension))
        assert res.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(op.toarray())[0],
                                                   abs=1e-9)

    def test_sign_convention(self):
        p = ModelParams(1.0, 0.9, 8)
        for parity in ("even", "odd"):
            v = _solve(p, 40, parity).eigenvectors[:, 0]
            assert v[np.argmax(np.abs(v))] > 0

    def test_sparse_path_agrees_with_dense(self):
        # dimension above the dense cutoff exercises the ARPACK path
        p = ModelParams(1.0, 1.0, 20)
        basis = build_sector_basis(p, 80, "even")
        op = build_hamiltonian(p, basis)
        assert op.dimension > 600
        res = lowest_eigenpairs(op)
        assert res.path == "variational shift-invert"
        w, v = np.linalg.eigh(op.toarray())
        assert res.eigenvalues[0] == pytest.approx(w[0], abs=1e-9)
        assert abs(res.eigenvectors[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-9)


class TestConvergeGround:
    def test_converges_quickly_at_moderate_coupling(self):
        p = ModelParams(1.0, 1.0, 10)
        assert photon_number_coherent(p) == pytest.approx(9.375)
        res = converge_ground(p, "even", tol=1e-8)
        assert res.lambda_max < 400
        # one solve settles at the seed
        assert res.lambda_max == truncation_seed(p)["lambda_seed"]
        _assert_settled(res, p, "even", 1e-8)

    def test_gamma_zero_converges_immediately(self):
        p = ModelParams(1.0, 0.0, 6)
        res = converge_ground(p, "even", tol=1e-12)
        # nothing leaks
        assert res.truncation_estimate == 0.0
        assert res.lambda_max == truncation_seed(p, 1e-12)["lambda_seed"]
        _assert_settled(res, p, "even", 1e-12)
        assert res.eigenvalues[0] == pytest.approx(-3.0, abs=1e-14)

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            converge_ground(ModelParams(1.0, 0.5, 4), "even", tol=0.0)

    def test_cap_exceeded_carries_best(self, monkeypatch):
        # a window too small to settle the sector is solved once
        p = ModelParams(1.0, 1.0, 10)
        _seed_at(monkeypatch, 10)
        bases = _record_solves(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even", tol=1e-8, lambda_cap=16)
        assert err.value.best is not None
        assert err.value.best.eigenvalues.shape == (1,)
        assert bases == [err.value.best.basis]
        assert err.value.diagnostics["lambda_max"] == 10

    def test_monotone_truncation(self):
        # ground eigenvalue is non-increasing as the window grows
        p = ModelParams(1.0, 0.9, 8)
        vals = [_solve(p, lam, "even").eigenvalues[0] for lam in (12, 16, 20, 30, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_diagnostics_name_the_one_window(self, monkeypatch, tol):
        p = ModelParams.from_ratio(1.0, 1.7, 30)
        bases = _record_solves(monkeypatch)
        res = converge_ground(p, "odd", tol=tol)
        assert bases == [res.basis]
        seed = truncation_seed(p, tol)
        diag = res.diagnostics()
        assert diag["lambda_max"] == res.lambda_max == seed["lambda_seed"]
        assert diag["dim"] == res.basis.size
        assert (res.basis.nu_lo, res.basis.ne_lo, res.basis.ne_hi) == (
            seed["nu_lo"], seed["ne_lo"], seed["ne_hi"])

    def test_initial_lambda_seed(self):
        p = ModelParams(1.0, 1.0, 10)
        # <Lambda> + 6 sqrt(dLambda^2 + dc^2) + 6 with <Lambda> = 13.125,
        # dLambda^2 = 11.71875 and dc = 1.25 * 10^(1/3) at N = 10, x = 2
        assert lambda_statistics(p) == pytest.approx((13.125, np.sqrt(11.71875)))
        critical = 1.25 * 10 ** (1 / 3)
        seed = truncation_seed(p)["lambda_seed"]
        assert seed == int(np.ceil(13.125 + 6 * np.sqrt(11.71875 + critical ** 2) + 6))
        # the box 5.5 sqrt(width^2 + dc^2) + 2 around each mode's mean (photons
        # 9.375 +- 22.4, atoms 3.75 +- 19.1) covers the whole space
        assert truncation_seed(p) == {"lambda_seed": seed,
                                      "lambda_mean": 13.125,
                                      "lambda_width": pytest.approx(np.sqrt(11.71875)),
                                      "nu_lo": 0, "ne_lo": 0, "ne_hi": 10}

    # at and above tol = 1e-8 the window does not depend on tol; below it the
    # reach of every edge grows by log(tol) / log(1e-8)
    @pytest.mark.parametrize("omega_a,n_atoms,x", [(1.0, 10, 2.0), (1.0, 200, 2.0),
                                                   (9.0, 40, 0.98), (0.25, 120, -1.5)])
    def test_seed_scales_with_the_tolerance(self, omega_a, n_atoms, x):
        p = ModelParams.from_ratio(omega_a, x, n_atoms)
        assert truncation_seed(p, 1e-6) == truncation_seed(p, 1e-8) == truncation_seed(p)
        mean, width = lambda_statistics(p)
        critical = 1.25 * omega_a ** (1 / 6) * n_atoms ** (1 / 3)
        record = truncation_seed(p, 1e-12)
        assert record["lambda_seed"] == int(np.ceil(mean + 1.5 * 6 * np.hypot(width, critical)
                                                    + 1.5 * 6))
        if abs(x) > 1.0:
            nu_mean, nu_width = photon_statistics(p)
            assert record["nu_lo"] == max(0, int(np.floor(
                nu_mean - 1.5 * 5.5 * np.hypot(nu_width, critical) - 2.0)))

    # superradiant sectors are boxed in, the normal phase and the separatrix not
    @pytest.mark.parametrize("x", [2.0, -2.0, 1.0, 0.5])
    def test_window_edges_from_the_mode_statistics(self, x):
        n = 200
        p = ModelParams.from_ratio(1.0, x, n)
        record = truncation_seed(p)
        if abs(x) <= 1.0:
            assert (record["nu_lo"], record["ne_lo"], record["ne_hi"]) == (0, 0, n)
            return
        # the coherent photon number and its Poisson width, the spin coherent
        # state's n_e = Jz + N/2 and its width, both widths floored by dc
        mu = n * 0.25 * x ** 2 * (1.0 - x ** -4)
        ne_mean, ne_var = 0.5 * n * (1.0 - x ** -2), 0.25 * n * (1.0 - x ** -4)
        dc2 = (1.25 * n ** (1 / 3)) ** 2
        nu_reach = 5.5 * np.sqrt(mu + dc2) + 2.0
        ne_reach = 5.5 * np.sqrt(ne_var + dc2) + 2.0
        assert photon_statistics(p) == pytest.approx((mu, np.sqrt(mu)), rel=1e-14)
        assert atom_statistics(p) == pytest.approx((ne_mean, np.sqrt(ne_var)), rel=1e-14)
        assert record["nu_lo"] == int(np.floor(mu - nu_reach)) > 0
        assert record["ne_lo"] == int(np.floor(ne_mean - ne_reach)) > 0
        assert record["ne_hi"] == int(np.ceil(ne_mean + ne_reach)) < n
        # the excitation number's statistics are the sums of the modes'
        assert lambda_statistics(p) == pytest.approx((mu + ne_mean, np.sqrt(mu + ne_var)),
                                                     rel=1e-14)

    def test_even_odd_near_degenerate_above_transition(self):
        p = ModelParams(1.0, 1.0, 20)
        e_even = converge_ground(p, "even", tol=1e-8).eigenvalues[0]
        e_odd = converge_ground(p, "odd", tol=1e-8).eigenvalues[0]
        assert abs(e_even - e_odd) < 1e-3 * p.n_atoms


class TestOneVerifiedSolve:
    # normal phase, just below and at the separatrix, superradiant phase
    @pytest.mark.parametrize("n_atoms,x", [(12, 0.5), (30, 0.98), (20, 1.0), (24, 2.0)])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("omega_a", [1, 2])
    def test_settles_within_tolerance(self, n_atoms, x, parity, omega_a):
        p = ModelParams.from_ratio(omega_a, x, n_atoms)
        res = converge_ground(p, parity, tol=1e-8)
        _assert_settled(res, p, parity, 1e-8)
        assert res.residuals[0] <= RESIDUAL_TOL
        assert 10.0 * res.truncation_estimate <= 1e-8 * abs(res.eigenvalues[0])
        assert res.path in ("dense", "variational shift-invert")
        # the exact sector ground energy lies below the variational bound
        assert res.eigenvalues[0] <= variational_energy(p, parity) + 1e-12

    def test_separatrix_odd_excess_below_margin(self):
        # a large variational excess; the shift, taken from the spin floor
        # and not from the variational energy, still lies below E0, and
        # closer to it than the variational energy lies above
        p = ModelParams.from_ratio(1.0, 0.98, 30)
        res = converge_ground(p, "odd", tol=1e-8)
        assert res.path == "variational shift-invert"
        assert res.shift == _shift_below(spin_floor(p))
        energy = res.eigenvalues[0]
        assert 0.0 < energy - res.shift < variational_energy(p, "odd") - energy

    def test_guess_above_first_excited_rejected(self, monkeypatch):
        p = ModelParams.from_ratio(1.0, 1.5, 20)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], "even")
        op = build_hamiltonian(p, basis)
        n = op.dimension
        assert n > solver.DENSE_CUTOFF
        _, e1, e2 = np.linalg.eigvalsh(op.toarray())[:3]
        _shift_at(monkeypatch, 0.5 * (e1 + e2))
        calls = _record_eigsh(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op)
        # the error carries the shift, which lies between E1 and E2
        sigma = err.value.diagnostics["shift"]
        assert sigma == _shift_below(0.5 * (e1 + e2))
        assert e1 < sigma < e2
        # the first leading minor of H - sigma I in nu-major order that is not
        # positive definite
        hi = _first_indefinite_minor(op.toarray() - sigma * np.eye(n),
                                     np.lexsort((basis.ne, basis.nu)))
        diag = err.value.diagnostics
        assert diag["reason"] == (f"shift {sigma:.6g} is not below the spectrum: "
                                  f"leading minor {hi} of {n} is not positive definite")
        assert diag["path"] == "variational shift-invert"
        assert diag["dim"] == n
        assert diag["residuals"] is None
        # the Cholesky proof comes before ARPACK, and nothing is retried
        assert calls == []

    # in the odd sector at N = 30 the lambda = 15 shell has a zero diagonal,
    # which H stores
    @pytest.mark.parametrize("x,parity", [(2.0, "even"), (0.98, "odd")])
    def test_factored_in_place_of_the_scipy_shift(self, monkeypatch, x, parity):
        p = ModelParams.from_ratio(1.0, x, 30)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], parity)
        op = build_hamiltonian(p, basis)
        H, n = op.matrix, op.dimension
        assert n > solver.DENSE_CUTOFF
        assert (parity == "odd") == (0.0 in H.diag)
        before = [a.copy() for a in (H.diag, H.src, H.tgt, H.val)]
        factored = []
        dpbtrf = solver.dpbtrf

        def recording(band, **kwargs):
            factored.append((band.copy(), band.flags.f_contiguous, kwargs))
            return dpbtrf(band, **kwargs)

        monkeypatch.setattr(solver, "dpbtrf", recording)
        solved = []
        dpbtrs = solver.dpbtrs

        def recording_solve(chol, b, **kwargs):
            solved.append(kwargs)
            return dpbtrs(chol, b, **kwargs)

        monkeypatch.setattr(solver, "dpbtrs", recording_solve)
        calls = _record_eigsh(monkeypatch)
        res = lowest_eigenpairs(op)
        assert res.path == "variational shift-invert"
        sigma = _shift_below(spin_floor(p))
        assert res.shift == sigma
        # the result counts ARPACK's band solves, and its diagnostics report both
        assert res.band_solves == len(solved) > 0
        assert all(kwargs == {"lower": 1} for kwargs in solved)
        assert {key: res.diagnostics()[key] for key in ("shift", "band_solves")} == {
            "shift": sigma, "band_solves": len(solved)}
        # the lower band of H - sigma I in the basis' nu-major order, read off
        # the dense matrix
        shifted = op.toarray() - sigma * np.eye(n)
        rows, cols = np.nonzero(shifted)
        want = np.zeros(((rows - cols).max() + 1, n))
        for offset in range(want.shape[0]):
            want[offset, :n - offset] = np.diagonal(shifted, -offset)
        assert len(factored) == 1
        band, in_place, kwargs = factored[0]
        assert np.array_equal(band, want)
        assert in_place and kwargs == {"lower": 1, "overwrite_ab": 1}
        # a stored zero diagonal is shifted like every other
        zero = np.flatnonzero(H.diag == 0.0)
        assert (zero.size > 0) == (parity == "odd")
        assert np.all(band[0, zero] == -sigma)
        norm1 = np.abs(shifted).sum(axis=0).max()
        assert calls[0]["tol"] == pytest.approx(RESIDUAL_TOL / norm1, rel=1e-14, abs=0.0)
        # one eigenpair, the largest of OP = (H - sigma I)^-1, from a Lanczos basis of six
        assert {key: calls[0][key] for key in ("k", "ncv", "which")} == {
            "k": 1, "ncv": 6, "which": "LM"}
        # the band is filled from H's arrays; H must come back untouched
        for got, kept in zip((H.diag, H.src, H.tgt, H.val), before):
            assert np.array_equal(got, kept)

    # the Gershgorin radii give ||H - sigma I||_1 for ARPACK's stop
    @pytest.mark.parametrize("n_atoms,x,parity", [(20, 1.5, "even"), (17, 0.6, "odd")])
    def test_gershgorin_bound_from_the_row_sums(self, n_atoms, x, parity):
        p = ModelParams.from_ratio(1.0, x, n_atoms)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], parity)
        op = build_hamiltonian(p, basis)
        H = op.toarray()
        # a row holds at most two couplings on each side of the diagonal, so
        # summing each side in any order rounds alike
        radius = np.abs(np.tril(H, -1)).sum(axis=1) + np.abs(np.triu(H, 1)).sum(axis=1)
        assert np.array_equal(op.matrix.radii(), radius)

    def test_dense_ceiling_raises_with_diagnostics(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 10)
        op = build_hamiltonian(p, build_sector_basis(p, 60, "even"))
        dim = op.dimension
        assert dim > solver.DENSE_CUTOFF

        def wrong_vectors(H, k, **kwargs):  # converges, but to garbage
            return np.zeros(k), np.eye(H.shape[0], k)

        monkeypatch.setattr(solver.spla, "eigsh", wrong_vectors)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op)
        diag = err.value.diagnostics
        assert diag["dim"] == dim
        assert diag["path"] == "variational shift-invert"
        assert diag["reason"].startswith("residual ")
        assert diag["residuals"].shape == (1,) and diag["residuals"][0] > RESIDUAL_TOL

    def test_dense_fallback_below_ceiling(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 10)
        op = build_hamiltonian(p, build_sector_basis(p, 60, "even"))

        def failing(*args, **kwargs):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(solver.spla, "eigsh", failing)
        dense_calls = []
        monkeypatch.setattr(solver.la, "eigh", lambda *a, **kw: dense_calls.append(a))
        with pytest.raises(ConvergenceError, match="no convergence") as err:
            lowest_eigenpairs(op)
        diag = err.value.diagnostics
        assert diag["dim"] == op.dimension > solver.DENSE_CUTOFF
        assert diag["path"] == "variational shift-invert"
        assert diag["reason"] == "no convergence"
        assert diag["residuals"] is None
        assert dense_calls == []

    def test_excited_ritz_pair_raises(self, monkeypatch):
        # a solver that returns the first excited pair meets the residual
        # contract, but lies above the trial state's Rayleigh quotient
        p = ModelParams.from_ratio(1.0, 1.5, 20)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], "even")
        op = build_hamiltonian(p, basis)
        assert op.dimension > solver.DENSE_CUTOFF
        w, v = np.linalg.eigh(op.toarray())
        trial = variational_vector(p, "even", basis)
        rayleigh = trial @ (op.matrix @ trial) / (trial @ trial)
        assert w[0] < rayleigh < w[1]
        monkeypatch.setattr(solver.spla, "eigsh", lambda H, k, **kwargs: (w[1:2], v[:, 1:2]))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op)
        diag = err.value.diagnostics
        assert diag["residuals"][0] <= RESIDUAL_TOL
        assert diag["reason"] == (
            f"energy {w[1]:.17g} lies above the trial state's Rayleigh quotient "
            f"{rayleigh:.17g} by more than the residual {diag['residuals'][0]:.3e}: "
            f"not the ground state")
        # the ground pair passes the same check
        monkeypatch.setattr(solver.spla, "eigsh", lambda H, k, **kwargs: (w[:1], v[:, :1]))
        assert lowest_eigenpairs(op).eigenvalues[0] == w[0]

    # the odd trial state cannot seed the sector where the projection
    # annihilates it (x = 1) nor where it is degenerate (gamma = 0); the start
    # vector ARPACK then uses must not be drawn at random
    @pytest.mark.parametrize("annihilated", [True, False])
    def test_same_bits_without_start_vector(self, annihilated):
        p = ModelParams.from_ratio(1.0, 1.0 if annihilated else 0.0, 40)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], "odd")
        with pytest.raises(ProjectionAnnihilationError if annihilated else ValueError):
            variational_vector(p, "odd", basis)
        op = build_hamiltonian(p, basis)
        assert op.dimension > solver.DENSE_CUTOFF
        first, second = (lowest_eigenpairs(op) for _ in range(2))
        assert first.path == "variational shift-invert"
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        assert first.eigenvalues[0] == second.eigenvalues[0]

    # the sector alone fixes shift and start: the separatrix odd state is
    # annihilated (fixed-seed start), the superradiant even one is not
    @pytest.mark.parametrize("x,parity", [(1.0, "odd"), (2.0, "even")])
    def test_sector_reproduces_converge_ground(self, monkeypatch, x, parity):
        p = ModelParams.from_ratio(1.0, x, 40)
        res = converge_ground(p, parity)
        assert res.path == "variational shift-invert"
        calls = _record_eigsh(monkeypatch)
        again = lowest_eigenpairs(build_hamiltonian(p, res.basis))
        assert again.path == res.path
        assert np.array_equal(again.eigenvalues, res.eigenvalues)
        assert np.array_equal(again.eigenvectors, res.eigenvectors)
        if x == 1.0:
            start = np.random.default_rng(0).uniform(-1.0, 1.0, res.basis.size)
        else:
            start = variational_vector(p, parity, res.basis)
        assert len(calls) == 1 and np.array_equal(calls[0]["v0"], start)

    def test_cap_error_carries_record(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 20)
        _seed_at(monkeypatch, 50)
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even", tol=1e-8, lambda_cap=52)
        diag = err.value.diagnostics
        assert diag["dim"] == err.value.best.basis.size > solver.DENSE_CUTOFF
        assert diag["path"] == "variational shift-invert"
        assert diag["truncation_estimate"] > 0.0
        assert diag["residuals"][0] <= RESIDUAL_TOL
        assert diag["lambda_max"] == err.value.best.lambda_max == 50

    def test_seed_above_cap_solves_once_at_the_cap(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 10)
        assert truncation_seed(p)["lambda_seed"] > 4
        bases = _record_solves(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even", lambda_cap=4)
        assert err.value.best is not None
        assert err.value.diagnostics["lambda_max"] == 4
        assert bases == [err.value.best.basis]

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_empty_window_is_not_solved(self, monkeypatch, parity):
        # N = 200 at x = 2: the box starts at nu = 100, above a cap of 50
        p = ModelParams.from_ratio(1.0, 2.0, 200)
        assert truncation_seed(p)["nu_lo"] == 100
        solved = []
        monkeypatch.setattr(solver, "lowest_eigenpairs", solved.append)
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, parity, lambda_cap=50)
        assert err.value.best is None
        assert solved == []
        reason = "window is empty below lambda_max cap 50 (nu_lo 100, ne_lo 17)"
        assert str(err.value) == f"ground state not solved: {reason}"
        assert err.value.diagnostics["reason"] == reason
        assert err.value.diagnostics["dim"] == 0

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_seed_above_default_cap_converges_at_the_cap(self, parity):
        # N = 220, x = 2: the seed is 402, but the cap of 400 already suffices
        p = ModelParams.from_ratio(1.0, 2.0, 220)
        assert truncation_seed(p)["lambda_seed"] > solver.DEFAULT_LAMBDA_CAP
        res = converge_ground(p, parity, tol=1e-8)
        assert res.lambda_max == solver.DEFAULT_LAMBDA_CAP
        assert res.eigenvalues[0] <= variational_energy(p, parity) + 1e-9

    # the README's range: at x = 2 both parities converge at the default cap
    # up to N = 231 (12k states in the window); at N = 232 the odd sector's
    # top shell leaks too much
    @pytest.mark.parametrize("n_atoms,parity", [(231, "even"), (231, "odd"), (232, "odd")])
    def test_default_cap_range_at_x_2(self, n_atoms, parity):
        p = ModelParams.from_ratio(1.0, 2.0, n_atoms)
        cap = solver.DEFAULT_LAMBDA_CAP
        assert truncation_seed(p)["lambda_seed"] > cap
        if n_atoms == 231:
            res = converge_ground(p, parity)
            assert res.lambda_max == cap
            assert res.path == "variational shift-invert"
            assert res.eigenvalues[0] <= variational_energy(p, parity) + 1e-9
            return
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, parity)
        diag = err.value.diagnostics
        assert diag["dim"] == err.value.best.basis.size > 11000
        assert diag["path"] == "variational shift-invert"
        assert diag["residuals"][0] <= RESIDUAL_TOL
        energy = abs(err.value.best.eigenvalues[0])
        assert solver.TRUNCATION_SAFETY * diag["truncation_estimate"] > 1e-8 * energy
        assert diag["lambda_max"] == cap

    def test_error_carries_the_window_edges(self, monkeypatch):
        # one solve below the seed, in the seed's box
        p = ModelParams.from_ratio(1.0, 2.0, 200)
        seed = truncation_seed(p)
        edges = {key: seed[key] for key in ("nu_lo", "ne_lo", "ne_hi")}
        assert 0 < edges["nu_lo"] and 0 < edges["ne_lo"] and edges["ne_hi"] < 200
        _seed_at(monkeypatch, 300)
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even", lambda_cap=302)
        diag = err.value.diagnostics
        assert {key: diag[key] for key in edges} == edges
        assert diag["lambda_max"] == 300
        basis = err.value.best.basis
        assert (basis.nu_lo, basis.ne_lo, basis.ne_hi) == (
            edges["nu_lo"], edges["ne_lo"], edges["ne_hi"])
        assert diag["dim"] == basis.size
        assert basis.size < build_sector_basis(p, 300, "even").size

    def test_diagnostics_carry_the_seed(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 10)
        seed = solver.truncation_seed(p)
        diag = converge_ground(p, "even").diagnostics()
        assert {key: diag[key] for key in seed} == seed
        # from the cap ...
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even", lambda_cap=4)
        assert {key: err.value.diagnostics[key] for key in seed} == seed
        # ... and from a sector no eigensolver meets the residual tolerance in
        monkeypatch.setattr(solver.spla, "eigsh",
                            lambda H, k, **kwargs: (np.zeros(k), np.eye(H.shape[0], k)))
        with pytest.raises(ConvergenceError) as err:
            converge_ground(p, "even")
        assert {key: err.value.diagnostics[key] for key in seed} == seed
        assert err.value.diagnostics["dim"] > solver.DENSE_CUTOFF


class TestWindow:
    """The box around the superradiant state against the whole truncated space."""

    # the two sectors where the second-order leak at nu_lo undershoots the
    # energy the box costs the most, by about x5
    @settings(max_examples=40, deadline=None)
    @given(omega_a=st.floats(0.25, 9.0), n_atoms=st.integers(2, 60), x=st.floats(1.01, 2.5),
           parity=st.sampled_from(["even", "odd"]), tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
    @example(omega_a=9.0, n_atoms=20, x=2.5, parity="even", tol=1e-8)
    @example(omega_a=9.0, n_atoms=27, x=2.2, parity="odd", tol=1e-8)
    def test_accepted_window_agrees_with_the_whole_space(self, omega_a, n_atoms, x, parity,
                                                        tol):
        p = ModelParams.from_ratio(omega_a, x, n_atoms)
        res = converge_ground(p, parity, tol=tol, lambda_cap=5000)
        whole = _solve(p, res.lambda_max + 40, parity).eigenvalues[0]
        energy = res.eigenvalues[0]
        assert abs(energy - whole) <= tol * abs(whole)
        # the window is a subspace: its energy lies above, up to rounding
        assert energy >= whole - 1e-12 * abs(whole)

    @pytest.mark.parametrize("omega_a,n_atoms,x,parity", [
        (1.0, 40, 0.5, "even"), (9.0, 15, 0.98, "odd"), (1.0, 40, 1.0, "odd"),
        (0.25, 60, -0.7, "odd"), (4.0, 31, 1.0, "even")])
    def test_normal_phase_and_separatrix_keep_the_whole_space(self, omega_a, n_atoms, x,
                                                              parity):
        p = ModelParams.from_ratio(omega_a, x, n_atoms)
        res = converge_ground(p, parity)
        assert (res.basis.nu_lo, res.basis.ne_lo, res.basis.ne_hi) == (0, 0, n_atoms)
        again = _solve(p, res.lambda_max, parity)
        assert np.array_equal(again.eigenvalues, res.eigenvalues)
        assert np.array_equal(again.eigenvectors, res.eigenvectors)

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(1, 10), lambda_max=st.integers(1, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.floats(0.05, 2.0),
           sign=st.sampled_from([-1.0, 1.0]), parity=st.sampled_from(["even", "odd"]),
           box=st.tuples(st.integers(0, 8), st.integers(0, 10), st.integers(0, 10)))
    def test_edge_leaks_against_brute(self, n_atoms, lambda_max, omega_a, gamma, sign, parity,
                                      box):
        # every state outside the window that a window state couples to, in
        # brute's H two shells larger, leaks r_h^2 / (H_hh - E) across the
        # first edge it lies outside of: lambda, nu_lo, ne_lo, ne_hi.  An
        # edge with a receiving state at or below any E leaks without bound.
        p = ModelParams(omega_a, sign * gamma, n_atoms)
        nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
        basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        assume(basis.size > 0)
        res = lowest_eigenpairs(build_hamiltonian(p, basis))
        energy = res.eigenvalues[0]
        leaks = solver.edge_leaks(p, basis, energy, res.eigenvectors[:, 0])
        H, states = brute.dense_hamiltonian(omega_a, sign * gamma, n_atoms, lambda_max + 2,
                                            parity)
        where = [brute.position(basis, nu, ne) for nu, ne in states]
        inside = [i for i, w in enumerate(where) if w >= 0]
        psi = res.eigenvectors[[where[i] for i in inside], 0]
        edges = {"lambda": lambda nu, ne: nu + ne > lambda_max,
                 "nu_lo": lambda nu, ne: nu < nu_lo,
                 "ne_lo": lambda nu, ne: ne < ne_lo, "ne_hi": lambda nu, ne: ne > ne_hi}
        present = {"lambda": True, "nu_lo": nu_lo > 0, "ne_lo": ne_lo > 0,
                   "ne_hi": ne_hi < n_atoms}
        want = {edge: 0.0 for edge in edges if present[edge]}
        for h, state in enumerate(states):
            if where[h] >= 0 or not np.any(H[h, inside]):
                continue
            edge = next(edge for edge, outside in edges.items() if outside(*state))
            gap = H[h, h] - energy
            want[edge] += (H[h, inside] @ psi) ** 2 / gap if gap > 0.0 else np.inf
        assert leaks.keys() == want.keys()
        for edge, got in leaks.items():
            assert got == pytest.approx(want[edge], rel=1e-10, abs=0.0), edge


class TestShiftProof:
    """The Cholesky factorization proves a shift below the spectrum, or refuses it."""

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(2, 12), lambda_max=st.integers(2, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.floats(-2.0, 2.0),
           parity=st.sampled_from(["even", "odd"]),
           below=st.floats(1e-6, 2.0), between=st.floats(0.01, 0.99))
    def test_against_dense_eigenvalues(self, n_atoms, lambda_max, omega_a, gamma, parity,
                                       below, between):
        p = ModelParams(omega_a, gamma, n_atoms)
        basis = build_sector_basis(p, lambda_max, parity)
        H = build_hamiltonian(p, basis).matrix
        e0, e1 = np.linalg.eigvalsh(
            brute.dense_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity)[0])[:2]
        vals, _, _ = solver._verified_shift_invert(H, basis, e0 - below,
                                                   solver._fixed_start(basis.size))
        assert abs(vals[0] - e0) <= 1e-10 * max(1.0, abs(e0))
        if e1 - e0 > 1e-6:  # a shift inside a near-degenerate pair is below rounding
            sigma = e0 + between * (e1 - e0)
            with pytest.raises(RuntimeError, match=re.escape(f"shift {sigma:.6g} is not below")):
                solver._verified_shift_invert(H, basis, sigma,
                                              solver._fixed_start(basis.size))


def _dense_schur(shifted, basis):
    """The Schur complement of H - sigma I on its odd-nu states, from the
    dense matrix, in their nu-major order."""
    even = basis.nu % 2 == 0
    odd = ~even
    coupling = shifted[np.ix_(even, odd)]
    return (shifted[np.ix_(odd, odd)]
            - coupling.T @ (coupling / np.diagonal(shifted)[even][:, None]))


class TestSchurComplement:
    """Above SCHUR_CUTOFF states the shift-invert solve factors the Schur
    complement of the odd-nu states; the cutoff is lowered here so that small
    windows take that path."""

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(2, 12), lambda_max=st.integers(2, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.floats(-2.0, 2.0),
           parity=st.sampled_from(["even", "odd"]),
           box=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 12),
                                              st.integers(0, 12))),
           offset=st.floats(-2.0, 2.0))
    def test_band_is_the_dense_schur_complement(self, n_atoms, lambda_max, omega_a, gamma,
                                                parity, box, offset):
        p = ModelParams(omega_a, gamma, n_atoms)
        if box is None:
            basis = build_sector_basis(p, lambda_max, parity)
        else:
            nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
            basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        even = basis.nu % 2 == 0
        assume(basis.size >= 3 and 0 < even.sum() < basis.size)
        # a boxed window's H is brute's whole-sector H restricted to the window
        Hb, states = brute.dense_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity)
        where = [brute.position(basis, nu, ne) for nu, ne in states]
        inside = [i for i, w in enumerate(where) if w >= 0]
        dense = np.zeros((basis.size, basis.size))
        pos = [where[i] for i in inside]
        dense[np.ix_(pos, pos)] = Hb[np.ix_(inside, inside)]
        e0 = np.linalg.eigvalsh(dense)[0]
        sigma = e0 + offset
        assume(abs(offset) > 1e-6 * max(1.0, abs(e0)))  # not at E0 within rounding
        H = build_hamiltonian(p, basis).matrix
        factored = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "SCHUR_CUTOFF", 0)
            dpbtrf = solver.dpbtrf

            def recording(band, **kwargs):
                factored.append(band.copy())
                return dpbtrf(band, **kwargs)

            mp.setattr(solver, "dpbtrf", recording)
            try:
                vals, _, _ = solver._verified_shift_invert(H, basis, sigma,
                                                           solver._fixed_start(basis.size))
            except RuntimeError as exc:
                assert str(exc).startswith(f"shift {sigma:.6g} is not below the spectrum")
                proven = False
            else:
                assert abs(vals[0] - e0) <= 1e-10 * max(1.0, abs(e0))
                proven = True
        # the factorization succeeds exactly when every eigenvalue lies above sigma
        assert proven == (sigma < e0)
        # the odd-nu states' band is factored once D_E - sigma is proven positive
        shifted = dense - sigma * np.eye(basis.size)
        assert len(factored) == (np.diagonal(shifted)[even].min() > 0.0)
        if factored:
            schur = _dense_schur(shifted, basis)
            band = factored[0]
            m = schur.shape[0]
            assert band.shape[1] == m and np.all(np.tril(schur, -band.shape[0]) == 0.0)
            scale = 1e-14 * max(1.0, np.abs(schur).max())
            for k in range(band.shape[0]):
                assert np.allclose(band[k, :m - k], np.diagonal(schur, -k), rtol=0.0,
                                   atol=scale)
                assert np.all(band[k, m - k:] == 0.0)

    # superradiant: S is indefinite; normal phase: a diagonal entry of D_E,
    # the vacuum's, lies below sigma
    @pytest.mark.parametrize("x", [1.5, 0.5])
    def test_rejected_shift_names_the_minor_with_the_even_nu_states_first(self, monkeypatch,
                                                                          x):
        monkeypatch.setattr(solver, "SCHUR_CUTOFF", 0)
        p = ModelParams.from_ratio(1.0, x, 20)
        basis = build_sector_basis(p, truncation_seed(p)["lambda_seed"], "even")
        op = build_hamiltonian(p, basis)
        n = op.dimension
        assert n > solver.DENSE_CUTOFF
        _, e1, e2 = np.linalg.eigvalsh(op.toarray())[:3]
        _shift_at(monkeypatch, 0.5 * (e1 + e2))
        calls = _record_eigsh(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op)
        sigma = err.value.diagnostics["shift"]
        assert e1 < sigma < e2
        shifted = op.toarray() - sigma * np.eye(n)
        even = basis.nu % 2 == 0
        assert (np.diagonal(shifted)[even].min() > 0.0) == (x > 1.0)
        minor = _first_indefinite_minor(shifted, np.lexsort((basis.ne, basis.nu, ~even)))
        assert (minor > even.sum()) == (x > 1.0)
        assert err.value.diagnostics["reason"] == (
            f"shift {sigma:.6g} is not below the spectrum: leading minor {minor} of {n}, "
            f"even-nu states first, is not positive definite")
        assert calls == []

    @pytest.mark.parametrize("n_atoms,x,parity", [
        (64, 2.0, "even"), (64, 1.3, "odd"), (100, 2.5, "odd"), (136, 2.3, "even"),
        (300, 2.0, "even"), (300, 1.5, "odd")])
    def test_same_energy_and_band_solves_as_the_band_path(self, monkeypatch, n_atoms, x,
                                                          parity):
        p = ModelParams.from_ratio(1.0, x, n_atoms)
        monkeypatch.setattr(solver, "SCHUR_CUTOFF", 0)
        res = converge_ground(p, parity, lambda_cap=2000)
        assert res.path == "variational shift-invert" and res.schur
        monkeypatch.setattr(solver, "SCHUR_CUTOFF", res.basis.size)
        band = lowest_eigenpairs(build_hamiltonian(p, res.basis))
        assert band.path == res.path and not band.schur
        assert res.eigenvalues[0] == pytest.approx(band.eigenvalues[0], rel=1e-15, abs=0.0)
        assert res.band_solves == band.band_solves
        assert np.abs(res.eigenvectors - band.eigenvectors).max() <= 1e-12


class TestSpinFloor:
    """spin_floor bounds every window's ground energy from below."""

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(1, 12), lambda_max=st.integers(1, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           parity=st.sampled_from(["even", "odd"]),
           box=st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(0, 12),
                                              st.integers(0, 12))))
    @example(n_atoms=6, lambda_max=12, omega_a=1.0, gamma=0.0, parity="even", box=None)
    @example(n_atoms=6, lambda_max=12, omega_a=1.0, gamma=0.0, parity="odd", box=None)
    def test_below_every_window_of_brute(self, n_atoms, lambda_max, omega_a, gamma, parity,
                                         box):
        # a boxed window's H is brute's whole-sector H restricted to the
        # window's states; box None is the whole sector
        p = ModelParams(omega_a, gamma, n_atoms)
        if box is None:
            basis = build_sector_basis(p, lambda_max, parity)
        else:
            nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
            basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        assume(basis.size > 0)
        H, states = brute.dense_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity)
        inside = [i for i, (nu, ne) in enumerate(states) if brute.position(basis, nu, ne) >= 0]
        e0 = np.linalg.eigvalsh(H[np.ix_(inside, inside)])[0]
        floor = spin_floor(p)
        assert floor <= e0 + 1e-12 * max(1.0, abs(e0))
        assert _shift_below(floor) < e0

    def test_bisected_once_per_sweep_point(self, monkeypatch, capsys):
        # a spectrum point solves both sectors by shift-invert, from one floor:
        # one bisection per chain
        calls = []
        dstebz = solver.dstebz

        def counting(*args):
            calls.append(args)
            return dstebz(*args)

        monkeypatch.setattr(solver, "dstebz", counting)
        spin_floor.cache_clear()
        solves = _record_solves(monkeypatch)
        assert cli.main(["spectrum", "--n-atoms", "30", "--gamma", "1.0"]) == 0
        capsys.readouterr()
        assert [basis.parity for basis in solves] == ["even", "odd"]
        assert all(basis.size > solver.DENSE_CUTOFF for basis in solves)
        assert len(calls) == 2

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 300), omega_a=st.floats(0.25, 9.0))
    def test_uncoupled_floor_is_the_even_ground_energy(self, n_atoms, omega_a):
        # at gamma = 0 the floor is the vacuum |0, n_e = 0>, all atoms down
        p = ModelParams(omega_a, 0.0, n_atoms)
        assert spin_floor(p) == -omega_a * n_atoms / 2
        assert _solve(p, 2, "even").eigenvalues[0] == spin_floor(p)

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(1, 40), omega_a=st.floats(0.25, 9.0),
           gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    def test_matches_the_dense_spin_only_operator(self, n_atoms, omega_a, gamma):
        floor = spin_floor(ModelParams(omega_a, gamma, n_atoms))
        dense = np.linalg.eigvalsh(brute.spin_only_hamiltonian(omega_a, gamma, n_atoms))[0]
        assert floor == pytest.approx(dense, rel=0.0, abs=1e-12 * max(1.0, abs(dense)))


class TestClosedFormSizing:
    # the truncation_seed calibration grid, thinned: every omega_a, an odd and
    # an even N, the normal phase, both sides of the separatrix and the
    # superradiant phase.  omega_a = 9, N = 15, x = 0.98, odd needs
    # lambda_max = 27, above the former normal-phase seed N + 10.
    @pytest.mark.parametrize("omega_a", [0.25, 1.0, 4.0, 9.0])
    @pytest.mark.parametrize("n_atoms", [15, 40])
    @pytest.mark.parametrize("x", [0.6, 0.98, 1.0, 1.05, 1.7])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_calibration_grid_accepted_at_the_seed(self, omega_a, n_atoms, x, parity):
        p = ModelParams.from_ratio(omega_a, x, n_atoms)
        res = converge_ground(p, parity, tol=1e-8)
        assert res.lambda_max == truncation_seed(p)["lambda_seed"]
        _assert_settled(res, p, parity, 1e-8)
        assert res.eigenvalues[0] <= variational_energy(p, parity) + 1e-9

    # variational excess 1.0-1.2, above a fixed margin of one field quantum:
    # the shift from the spin floor still lies below E0, and closer to it
    # than the variational energy less the uncoupled zero-point energy
    # (1 + omega_a)/2
    @pytest.mark.parametrize("omega_a,n_atoms", [(9.0, 20), (9.0, 60), (4.0, 60)])
    def test_large_omega_separatrix_on_the_variational_shift(self, omega_a, n_atoms):
        p = ModelParams.from_ratio(omega_a, 1.0, n_atoms)
        res = converge_ground(p, "odd", tol=1e-8)
        assert res.path == "variational shift-invert"
        energy, e_var = res.eigenvalues[0], variational_energy(p, "odd")
        assert 1.0 < e_var - energy
        assert res.shift == _shift_below(spin_floor(p))
        assert 0.0 < energy - res.shift < energy - (e_var - 0.5 * (1.0 + omega_a))

    def test_arpack_stop_matched_to_the_residual_contract(self, monkeypatch):
        p = ModelParams.from_ratio(1.0, 2.0, 60)
        tols = []
        eigsh = solver.spla.eigsh

        def recording(*args, **kwargs):
            tols.append(kwargs.get("tol", 0.0))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(solver.spla, "eigsh", recording)
        res = converge_ground(p, "even", tol=1e-8)
        assert res.path == "variational shift-invert"
        # the 1-norm does not depend on the order of the states, so brute's
        # loop-built H in its own order gives it
        H, _ = brute.coo_hamiltonian(p.omega_a, p.gamma, p.n_atoms, res.lambda_max, "even")
        sigma = _shift_below(spin_floor(p))
        assert res.shift == sigma
        norm1 = abs(H - sigma * sp.identity(H.shape[0])).sum(axis=0).max()
        assert tols == [pytest.approx(RESIDUAL_TOL / norm1, rel=1e-14, abs=0.0)]
        assert res.residuals[0] <= RESIDUAL_TOL
