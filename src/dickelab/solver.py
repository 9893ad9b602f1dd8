"""Lowest eigenpairs per parity sector, one verified solve per sweep point.

Each sector has one solver.  Sectors of up to DENSE_CUTOFF states use dense
LAPACK.  Larger sectors use shift-invert ARPACK at the one shift the sector
supplies: (1 + omega_a)/2 below its closed-form variational energy, started
from the variational state; the parity-free basis, which has no variational
state, uses one below the Gershgorin bound.  The basis is nu-major, so H,
given as its diagonal and raising couplings, fills the lower band of
H - sigma I directly, and LAPACK's banded Cholesky of that band both proves
the shift and applies (H - sigma I)^-1 for ARPACK: the factor exists exactly
when H - sigma I is positive definite, that is when every eigenvalue lies
above sigma.  ARPACK stops as soon as its residual bound meets the
contract ||H v - E v|| <= 1e-8, and every result is residual-checked
against it.  A rejected shift, a solver error or a missed residual raises
ConvergenceError; nothing is retried.

converge_ground seeds the truncation from the closed-form mean and width of
the excitation number and accepts it from that one solve when the energy the
top excitation shell leaks into the next one, to second order, is far below
the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConvergenceError, ProjectionAnnihilationError
from .model import (ModelParams, OperatorMatrix, SectorBasis, Stencil, _spin_plus_amp,
                    build_hamiltonian, build_sector_basis)
from .sas import sas_coefficients_at
from .surface import lambda_statistics, normal_odd_state, sas_energy_at_critical

# lowest_eigenpairs at the seed truncation, median per 10-state bin (one BLAS
# thread, 2-core host): dense eigh is faster below 100 states (0.54 against
# 0.75 ms at 80-89), the two are even at 100-119 (the sparse solve faster in
# 11 of 23 sectors), and the sparse solve is faster in every sector from 120
# (0.79 against 0.95 ms at 120-129, 0.58 against 1.58 ms at 200-209)
DENSE_CUTOFF = 120
RESIDUAL_TOL = 1e-8
DEFAULT_LAMBDA_CAP = 400
# the truncation estimate times this must stay below tol |E|
TRUNCATION_SAFETY = 10.0


@dataclass
class SpectralResult:
    """Lowest eigenpairs of one sector plus truncation metadata.

    ``eigenvalues`` are ascending, eigenvectors unit-norm columns in the
    SectorBasis ordering with the largest-magnitude coefficient positive.
    ``history`` records (lambda_max, eigenvalues) per truncation step.
    ``path`` names the one solver the sector was given ("dense",
    "variational shift-invert" or "gershgorin shift-invert").
    ``truncation_estimate`` is the second-order energy leak per eigenvalue
    and ``seed`` the truncation_seed record (both set by converge_ground).
    """

    parity: str | None
    lambda_max: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: SectorBasis
    converged: bool = False
    history: list = field(default_factory=list)
    path: str = ""
    residuals: np.ndarray | None = None
    truncation_estimate: np.ndarray | None = None
    seed: dict = field(default_factory=dict)

    def diagnostics(self) -> dict:
        """How the result was obtained, as carried by ConvergenceError."""
        return {"dim": self.basis.size, "path": self.path, "residuals": self.residuals,
                "truncation_estimate": self.truncation_estimate, "history": self.history,
                **self.seed}


# -- closed-form trial states --------------------------------------------------

def variational_energy(params: ModelParams, parity: str) -> float:
    """Best trial-state energy: projected-vacuum / single-excitation states
    below the separatrix, the projected critical-point energy above it."""
    xa = abs(params.x)
    if parity == "even":
        if xa < 1.0:
            return -2.0 * params.n_atoms * params.gamma_c ** 2
        return sas_energy_at_critical(params, "even")
    if parity == "odd":
        if xa < 1.0:
            return normal_odd_state(params).energy
        return sas_energy_at_critical(params, "odd")
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def variational_vector(params: ModelParams, parity: str, basis) -> np.ndarray:
    """The trial state expressed in a sector basis (unit norm).

    Raises ProjectionAnnihilationError for the odd state at the separatrix
    and ValueError for the degenerate odd family at gamma = 0 (fidelity
    handles that case by subspace overlap).
    """
    if basis.parity != parity:
        raise ValueError("basis parity does not match the requested state")
    xa = abs(params.x)
    vec = np.zeros(basis.size)
    if parity == "even":
        if xa <= 1.0:
            vec[basis.index_of(0, 0)] = 1.0
            return vec
        return sas_coefficients_at(params, basis.nu, basis.ne)
    if xa > 1.0:
        return sas_coefficients_at(params, basis.nu, basis.ne)
    if xa == 1.0:
        raise ProjectionAnnihilationError(
            "odd projection annihilates the coherent state at the separatrix")
    state = normal_odd_state(params)
    if state.degenerate:
        raise ValueError("odd trial state is degenerate at gamma = 0")
    c0, c1 = state.coefficients
    vec[basis.index_of(0, 1)] = c0
    vec[basis.index_of(1, 0)] = c1
    return vec


def shift_margin(params: ModelParams) -> float:
    """Distance of the first shift below the variational energy: (1 + omega_a)/2.

    That is the zero-point energy of the uncoupled field and atom modes, the
    bound on the Holstein-Primakoff correction to the mean-field energy,
    (eps+ + eps- - 1 - omega_a)/2 >= -(1 + omega_a)/2.  The largest variational
    excess E_var - E0 measured on the truncation_seed calibration grid is 0.62
    of it (omega_a = 1, N = 140, x = 1, odd); at omega_a = 9 it is 1.24 = 0.25
    of it.
    """
    return 0.5 * (1.0 + params.omega_a)


# -- eigensolvers -----------------------------------------------------------------

def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    for col in range(vecs.shape[1]):
        i = np.argmax(np.abs(vecs[:, col]))
        if vecs[i, col] < 0:
            vecs[:, col] *= -1.0
    return vecs


def _gershgorin_lower(H: Stencil) -> float:
    return float((H.diag - H.radii()).min())


def _lower_band(H: Stencil, sigma: float) -> np.ndarray:
    """LAPACK's lower band storage of H - sigma I, A[i, j] at band[i - j, j].

    The basis is nu-major and every coupling reaches into the next nu column,
    so the band is about one column of the sector wide; with no coupling it
    is the diagonal alone.
    """
    offset = H.tgt - H.src
    band = np.zeros((offset.max(initial=0) + 1, H.shape[0]), order="F")
    band[0] = H.diag - sigma
    band[offset, H.src] = H.val
    return band


def _verified_shift_invert(H: Stencil, basis: SectorBasis, k: int, sigma: float):
    """Shift-invert ARPACK at sigma, after proving sigma below every eigenvalue."""
    n = H.shape[0]
    chol, info = dpbtrf(_lower_band(H, sigma), lower=1, overwrite_ab=1)
    if info > 0:  # the Cholesky factor exists exactly when H - sigma I is positive definite
        raise RuntimeError(f"shift {sigma:.6g} is not below the spectrum: leading minor "
                           f"{info} of {n} is not positive definite")
    opinv = spla.LinearOperator((n, n), matvec=lambda b: dpbtrs(chol, b, lower=1)[0],
                                dtype=H.dtype)
    # ARPACK stops once ||OP v - theta v|| <= tol |theta| with OP = (H - sigma)^-1,
    # and then ||H v - (sigma + 1/theta) v|| <= tol ||H - sigma||_2 <= tol ||H - sigma||_1:
    # this tol meets RESIDUAL_TOL without iterating on to machine precision.
    # By symmetry the 1-norm, a largest column sum, is the largest row sum.
    tol = RESIDUAL_TOL / (np.abs(H.diag - sigma) + H.radii()).max()
    return spla.eigsh(H, k=k, sigma=sigma, which="LM", OPinv=opinv, v0=_start_vector(basis),
                      ncv=min(n, 2 * k + 4), tol=tol)


def _start_vector(basis: SectorBasis) -> np.ndarray:
    """The variational state of a parity sector, else a fixed-seed vector,
    so that equal inputs give equal bits."""
    if basis.parity is not None:
        try:
            return variational_vector(basis.params, basis.parity, basis)
        except (ValueError, ProjectionAnnihilationError):  # degenerate, annihilated
            pass
    return np.random.default_rng(0).uniform(-1.0, 1.0, basis.size)


def lowest_eigenpairs(op: OperatorMatrix, k: int) -> SpectralResult:
    """k lowest eigenpairs of a symmetric operator on a sector, residual-checked.

    Up to DENSE_CUTOFF states, or when k >= dim - 1, dense LAPACK solves the
    sector.  Above it one _verified_shift_invert runs from _start_vector at
    the shift the sector supplies: shift_margin below its variational energy
    for a parity sector, one below the Gershgorin bound for the parity-free
    basis.  The shift is accepted only when the Cholesky factorization of
    H - sigma I succeeds, which proves it below every eigenvalue.  A rejected
    shift (named with the leading minor that is not positive definite), an
    ARPACK or LAPACK error or a residual above RESIDUAL_TOL raises
    ConvergenceError.
    """
    dim = op.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    H = op.matrix
    params, parity = op.basis.params, op.basis.parity
    residuals = None
    if dim <= DENSE_CUTOFF or k >= dim - 1:
        path = "dense"
    elif parity is not None:
        path = "variational shift-invert"
        sigma = variational_energy(params, parity) - shift_margin(params)
    else:
        path = "gershgorin shift-invert"
        sigma = _gershgorin_lower(H) - 1.0
    try:
        if path == "dense":
            vals, vecs = la.eigh(H.toarray(), subset_by_index=(0, k - 1))
        else:
            vals, vecs = _verified_shift_invert(H, op.basis, k, sigma)
    except (RuntimeError, ValueError) as exc:  # LAPACK, ARPACK, rejected shift
        reason = str(exc)
    else:
        order = np.argsort(vals)
        vals = np.asarray(vals)[order]
        vecs = _fix_signs(np.asarray(vecs)[:, order])
        residuals = np.linalg.norm(H @ vecs - vecs * vals[None, :], axis=0)
        if np.all(residuals <= RESIDUAL_TOL):
            return SpectralResult(
                parity=parity,
                lambda_max=op.basis.lambda_max,
                eigenvalues=vals,
                eigenvectors=vecs,
                basis=op.basis,
                path=path,
                residuals=residuals,
            )
        reason = f"residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}"
    raise ConvergenceError(
        f"{path} failed at dimension {dim}: {reason}",
        diagnostics={"dim": dim, "path": path, "reason": reason, "residuals": residuals},
    )


# -- truncation -------------------------------------------------------------------

def truncation_seed(params: ModelParams) -> dict:
    """The first lambda_max and the excitation statistics it is drawn from.

    lambda_seed = <Lambda> + 6 sqrt(dLambda^2 + dc^2) + 6, with (<Lambda>,
    dLambda) the closed-form lambda_statistics (zero in the normal phase) and
    dc = 1.25 omega_a^(1/6) N^(1/3) the width of the critical fluctuations,
    which the mean-field width misses near the separatrix.  Calibrated on
    omega_a in {0.25, 1, 4, 9}, N 10-140 and x 0.3-2.5 (1368 sector ground
    states below the default cap): every one is accepted at the seed with
    tol = 1e-8, at least one shell of its parity above the smallest lambda_max
    that passes.
    """
    mean, width = lambda_statistics(params)
    critical = 1.25 * params.omega_a ** (1.0 / 6.0) * params.n_atoms ** (1.0 / 3.0)
    seed = math.ceil(mean + 6.0 * math.hypot(width, critical) + 6.0)
    return {"lambda_seed": seed, "lambda_mean": mean, "lambda_width": width}


def truncation_estimate(params: ModelParams, basis: SectorBasis, eigenvalues: np.ndarray,
                        eigenvectors: np.ndarray) -> np.ndarray:
    """Second-order energy each eigenpair loses to the shell above the window.

    Only a'J+ leaves the window: it carries the top shell lambda_top =
    max(lambda) (which differs from lambda_max when their parities differ)
    to lambda_top + 2 with amplitude r = g sqrt(nu+1) sqrt((N-n_e)(n_e+1)) psi,
    g = gamma/sqrt(N).  Each state there is fed by one top-shell state, so
    the estimate is sum r^2 / (H_ii - E) over the receiving states; it is
    infinite when a receiving state lies at or below E.
    """
    top = basis.lam == basis.lam.max()
    nu, ne = basis.nu[top], basis.ne[top]
    g = params.gamma / math.sqrt(params.n_atoms)
    amp = g * np.sqrt(nu + 1.0) * _spin_plus_amp(ne, params.n_atoms)
    gap = (nu + 1.0 + params.omega_a * (ne + 1.0 - params.j))[:, None] - eigenvalues[None, :]
    leak = (amp[:, None] * eigenvectors[top, :]) ** 2
    if np.any(gap <= 0.0):
        return np.full(eigenvalues.shape, np.inf)
    return (leak / gap).sum(axis=0)


def converge_ground(params: ModelParams, parity: str, tol: float = 1e-8,
                    k: int = 1, lambda_cap: int = DEFAULT_LAMBDA_CAP) -> SpectralResult:
    """The k lowest eigenpairs of a sector, converged in truncation by one solve.

    The first lambda_max is truncation_seed, lowered to ``lambda_cap`` when
    above it.  A solve is accepted when TRUNCATION_SAFETY
    times its truncation estimate is at most ``tol`` |E| for every
    eigenvalue; otherwise lambda_max grows by 2 and the sector is solved
    again.  Raises ConvergenceError (carrying the best result and its
    diagnostics) if ``lambda_cap`` is exceeded.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0 (tol={tol} is unreachable)")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    seed = truncation_seed(params)
    lam = min(seed["lambda_seed"], lambda_cap)
    history: list[tuple[int, np.ndarray]] = []
    best = None
    while lam <= lambda_cap:
        basis = build_sector_basis(params, lam, parity)
        if basis.size >= k:  # the sector must hold at least k states
            try:
                res = lowest_eigenpairs(build_hamiltonian(params, basis), k)
            except ConvergenceError as exc:
                exc.diagnostics.update(seed, history=history)
                raise
            res.seed = seed
            res.truncation_estimate = truncation_estimate(params, basis, res.eigenvalues,
                                                          res.eigenvectors)
            history.append((lam, res.eigenvalues.copy()))
            res.history = history
            if np.all(TRUNCATION_SAFETY * res.truncation_estimate
                      <= tol * np.abs(res.eigenvalues)):
                res.converged = True
                return res
            best = res
        lam += 2
    diagnostics = best.diagnostics() if best is not None else {"history": history, **seed}
    raise ConvergenceError(
        f"ground state not converged below lambda_max cap {lambda_cap}",
        best=best,
        diagnostics={**diagnostics, "tol": tol},
    )
