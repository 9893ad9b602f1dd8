"""The ground state of each parity sector, one verified solve per sweep point.

The paper needs one eigenpair per sector: the ground state is the even
sector's, the first excited state the odd sector's.  Each sector has one
solver.  Sectors of up to DENSE_CUTOFF states use dense
LAPACK.  Larger sectors use shift-invert ARPACK at the one shift the model
supplies: just below its spin floor, a lower bound on every window's ground
energy (completing the square in the field mode leaves a spin-only
operator), started from the variational state (a fixed-seed vector where
that state is degenerate or annihilated).  The basis is nu-major, so H,
given as its diagonal and raising couplings, fills the lower band of
H - sigma I directly, and LAPACK's banded Cholesky of that band both proves
the shift and applies (H - sigma I)^-1 for ARPACK: the factor exists exactly
when H - sigma I is positive definite, that is when every eigenvalue lies
above sigma.  Every coupling joins nu to nu + 1, so H is bipartite between
the even-nu and odd-nu states; above SCHUR_CUTOFF states the Cholesky
factor is taken of the Schur complement on the odd-nu states instead,
banded as H on half the states, which proves the same and does half the
work.  ARPACK stops as soon as its residual bound, scaled by
||H - sigma I||_1 from the Gershgorin radii, meets the contract
||H v - E v|| <= 1e-8, and every result is residual-checked against it.  A
shift-invert result must also lie below the trial state's Rayleigh quotient
by no less than its residual, or it is not the ground state.  A rejected
shift, a solver error, a missed residual or an excited state raises
ConvergenceError; nothing is retried.

converge_ground solves one window: truncation_seed's, drawn from the
closed-form mean and width of the excitation number and, in the
superradiant phase, boxed in around the closed-form photon and atom
numbers, with a reach that grows with the tolerance below 1e-8.  It solves
no window whose factored band, counted from the window's columns before any
state is enumerated, exceeds BAND_BUDGET.  It accepts the window when the
energy the states on its edges leak across them, to second order, is far
below the tolerance, and raises ConvergenceError otherwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz

from .errors import ConvergenceError, ProjectionAnnihilationError
from .model import (ModelParams, OperatorMatrix, SectorBasis, Stencil, _spin_minus_amp,
                    _spin_plus_amp, build_hamiltonian, build_sector_basis, window_columns)
from .sas import sas_coefficients_at
from .surface import (atom_statistics, lambda_statistics, minimum_energy, normal_odd_state,
                      photon_statistics, sas_energy_at_critical)

# lowest_eigenpairs at the seed truncation, median per 10-state bin (one BLAS
# thread, 2-core host): dense eigh is faster below 100 states (0.54 against
# 0.75 ms at 80-89), the two are even at 100-119 (the sparse solve faster in
# 11 of 23 sectors), and the sparse solve is faster in every sector from 120
# (0.79 against 0.95 ms at 120-129, 0.58 against 1.58 ms at 200-209)
DENSE_CUTOFF = 120
# lowest_eigenpairs on calibration-grid windows, band path against Schur
# path, median per 500-state bin (one BLAS thread, 2-core host): the band
# path is faster below 2000 states (1.09 against 1.29 ms at 1000-1499), the
# two are even at 2000-2499 (1.98 against 1.95 ms, Schur faster in 26 of 51
# sectors), the Schur path is faster in 27 of 42 sectors at 2500-2999, in 30
# of 35 at 3000-3499 and in every sector from 4000 (6.08 against 5.10 ms at
# 5500-5999)
SCHUR_CUTOFF = 3000
# the bytes of the band dpbtrf may factor (512 MiB): converge_ground counts
# them from the window's columns and solves no window above it
BAND_BUDGET = 2 ** 29
RESIDUAL_TOL = 1e-8
# the truncation estimate times this must stay below tol |E|
TRUNCATION_SAFETY = 10.0
# a superradiant sector's box edges lie WINDOW_WIDTHS widths plus WINDOW_MARGIN
# from each mode's closed-form mean (see truncation_seed)
WINDOW_WIDTHS = 5.5
WINDOW_MARGIN = 2.0
# the shift lies this far below the spin floor, relative to the floor's size
# (at least 1): it covers the rounding of the bisection that finds the floor
SHIFT_GUARD = 1e-6


@dataclass
class SpectralResult:
    """The ground state of one sector plus truncation metadata.

    ``eigenvalues`` holds the one energy, shape (1,), and ``eigenvectors``
    the one unit-norm state as a column, shape (n, 1), in the SectorBasis
    ordering with its largest-magnitude coefficient positive; ``residuals``
    is ||H v - E v||, shape (1,).
    ``path`` names the one solver the sector was given ("dense" or
    "variational shift-invert").
    ``truncation_estimate`` is the second-order energy leak, summed over the
    window's edge_leaks, and ``seed`` the truncation_seed record (both set
    by converge_ground).
    ``trial`` is the variational_vector the shift-invert solve started from,
    which fidelity reads; None on the dense path and where the sector has no
    trial state in the window.
    ``shift`` is the shift-invert solve's sigma and ``band_solves`` the
    number of band solves (dpbtrs) ARPACK asked of it; None and 0 on the
    dense path.  ``schur`` is True where the solve factored the Schur
    complement of the odd-nu states (above SCHUR_CUTOFF states).
    """

    parity: str
    lambda_max: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: SectorBasis
    path: str = ""
    residuals: np.ndarray | None = None
    truncation_estimate: float | None = None
    seed: dict = field(default_factory=dict)
    trial: np.ndarray | None = None
    shift: float | None = None
    band_solves: int = 0
    schur: bool = False

    def diagnostics(self) -> dict:
        """How the result was obtained, as carried by ConvergenceError."""
        return {"dim": self.basis.size, "lambda_max": self.lambda_max, "path": self.path,
                "residuals": self.residuals, "truncation_estimate": self.truncation_estimate,
                "shift": self.shift, "band_solves": self.band_solves, "schur": self.schur,
                **self.seed}


# -- closed-form trial states --------------------------------------------------

def variational_energy(params: ModelParams, parity: str) -> float:
    """Best trial-state energy: projected-vacuum / single-excitation states
    below the separatrix, the projected critical-point energy above it."""
    xa = abs(params.x)
    if parity == "even":
        if xa < 1.0:
            return minimum_energy(params)[0]
        return sas_energy_at_critical(params, "even")
    if parity == "odd":
        if xa < 1.0:
            return normal_odd_state(params).energy
        return sas_energy_at_critical(params, "odd")
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def variational_vector(params: ModelParams, parity: str, basis) -> np.ndarray:
    """The trial state expressed in a sector basis (unit norm).

    Raises ProjectionAnnihilationError for the odd state at the separatrix,
    and ValueError for the degenerate odd family at gamma = 0 (fidelity
    handles that case by subspace overlap) or for a normal-phase state
    outside the basis window.
    """
    if basis.parity != parity:
        raise ValueError("basis parity does not match the requested state")
    xa = abs(params.x)
    vec = np.zeros(basis.size)
    if parity == "even":
        if xa <= 1.0:
            vec[basis.locate(0, 0)] = 1.0
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
    vec[basis.locate(0, 1)] = c0
    vec[basis.locate(1, 0)] = c1
    return vec


def _chain_floor(diag: np.ndarray, off: np.ndarray) -> float:
    """The lowest eigenvalue of the symmetric tridiagonal matrix with this
    diagonal and off-diagonal, by LAPACK's bisection."""
    if diag.size == 1:  # dstebz takes no empty off-diagonal
        return diag[0]
    count, w, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 0.0, b"E")
    if info or count != 1:
        raise RuntimeError(f"dstebz found {count} of 1 eigenvalue (info {info})")
    return w[0]


@functools.lru_cache(maxsize=1)
def spin_floor(params: ModelParams) -> float:
    """A lower bound on the ground energy of every window of both sectors.

    Completing the square in the field mode (Emary & Brandes, PRE 67,
    066203, 2003) gives H = b'b + omega_a Jz - (4 gamma^2/N) Jx^2 with
    b = a + (2 gamma/sqrt N) Jx.  As b'b >= 0, H, and its restriction to
    any window, lies above the lowest eigenvalue of the spin-only operator
    omega_a Jz - (4 gamma^2/N) Jx^2.  Jx^2 keeps the parity of n_e, so that
    operator is two symmetric tridiagonal chains over n_e of one parity:
    diagonal omega_a m - (2 gamma^2/N)(j(j+1) - m^2) with m = n_e - j, and
    -(gamma^2/N) <n_e+1|J+|n_e> <n_e+2|J+|n_e+1> coupling n_e to n_e + 2.
    The floor is the lower of the two chains' lowest eigenvalues; at
    gamma = 0 it is the even ground energy -omega_a N/2.  The last floor is
    kept, so the even and odd sectors of one sweep point bisect once.
    """
    n_atoms, j = params.n_atoms, params.j
    c = params.gamma ** 2 / n_atoms
    ne = np.arange(n_atoms + 1.0)
    m = ne - j
    diag = params.omega_a * m - 2.0 * c * (j * (j + 1.0) - m ** 2)
    off = -c * _spin_plus_amp(ne[:-2], n_atoms) * _spin_plus_amp(ne[1:-1], n_atoms)
    return min(_chain_floor(diag[first::2], off[first::2]) for first in (0, 1))


# -- eigensolvers -----------------------------------------------------------------

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


def _odd_couplings(H: Stencil, basis: SectorBasis, even: np.ndarray, rank: np.ndarray):
    """The couplings of each odd-nu state o to the four even-nu states
    (nu - 1, n_e - 1), (nu - 1, n_e + 1), (nu + 1, n_e - 1) and
    (nu + 1, n_e + 1): values and positions, each of shape (4, odd-nu
    states) with these in rows 0-3 and o in the column rank[o], and value 0
    and position 0 where the state lies outside the window.  ``rank`` holds
    each state's position among the states of its nu parity.  Every
    coupling of H joins nu to nu + 1 and n_e to n_e -+ 1."""
    n_odd = basis.size - np.count_nonzero(even)
    src_even = even[H.src]
    raising = basis.ne[H.tgt] > basis.ne[H.src]
    flat = (np.where(src_even, 1 - raising, 2 + raising) * n_odd
            + rank[np.where(src_even, H.tgt, H.src)])
    val, pos = np.zeros(4 * n_odd), np.zeros(4 * n_odd, dtype=np.intp)
    val[flat] = H.val
    pos[flat] = rank[np.where(src_even, H.src, H.tgt)]
    return val.reshape(4, n_odd), pos.reshape(4, n_odd)


def _schur_band(H: Stencil, basis: SectorBasis, sigma: float, even: np.ndarray,
                inv: np.ndarray):
    """LAPACK's lower band storage of the Schur complement of H - sigma I on
    its odd-nu states, S = (D_O - sigma) - B' (D_E - sigma)^-1 B, in their
    nu-major order, and the couplings B' as _odd_couplings gives them.

    Every coupling joins nu to nu + 1, so with the even-nu states first
    H - sigma I = [[D_E - sigma, B], [B', D_O - sigma]] with D_E and D_O
    diagonal; ``inv`` holds 1 / (H_ee - sigma) per even-nu state e.  Each e
    adds -H_oe H_eo' / (H_ee - sigma) to S[o, o'] for every two of the
    odd-nu states it couples to, so S couples (nu, n_e) only to itself, to
    (nu, n_e + 2) and to (nu + 2, n_e + {-2, 0, 2}): the pairs
    basis.neighbours gives for those shifts.  Its half-bandwidth is about
    H's, on half the states.
    """
    odd = ~even
    before = np.cumsum(even)  # the even-nu states up to each state
    rank = np.where(even, before - 1, np.arange(basis.size) - before)
    val, pos = _odd_couplings(H, basis, even, rank)
    # rows 0-3: the couplings to (nu - 1, n_e - 1), (nu - 1, n_e + 1),
    # (nu + 1, n_e - 1) and (nu + 1, n_e + 1); weight divides each by H_ee - sigma there
    weight = val * inv[pos]

    def pairs(dnu, dne):
        src, tgt = basis.neighbours(dnu, dne)
        keep = odd[src]
        return rank[src[keep]], rank[tgt[keep]]

    src, tgt = pairs(0, 2)  # through (nu + 1, n_e + 1) and (nu - 1, n_e + 1)
    entries = [(src, tgt, weight[3][src] * val[2][tgt] + weight[1][src] * val[0][tgt])]
    src, tgt = pairs(2, -2)  # through (nu + 1, n_e - 1)
    entries.append((src, tgt, weight[2][src] * val[1][tgt]))
    src, tgt = pairs(2, 0)  # through (nu + 1, n_e + 1) and (nu + 1, n_e - 1)
    entries.append((src, tgt, weight[3][src] * val[1][tgt] + weight[2][src] * val[0][tgt]))
    src, tgt = pairs(2, 2)  # through (nu + 1, n_e + 1)
    entries.append((src, tgt, weight[3][src] * val[0][tgt]))
    width = max((tgt - src).max(initial=0) for src, tgt, _ in entries)
    band = np.zeros((width + 1, val.shape[1]), order="F")
    band[0] = H.diag[odd] - sigma - (weight * val).sum(axis=0)
    for src, tgt, entry in entries:
        band[tgt - src, src] = -entry
    return band, val, pos


def _schur(n: int) -> bool:
    """Whether _factor factors the Schur complement of an n-state window's
    odd-nu states rather than the band of H - sigma I."""
    return n > SCHUR_CUTOFF


def _factor(H: Stencil, basis: SectorBasis, sigma: float):
    """The band Cholesky factorization that proves sigma below the spectrum,
    as the solve b -> (H - sigma I)^-1 b, and whether the band it factored
    is the Schur complement's; RuntimeError naming the first leading minor
    of H - sigma I that is not positive definite otherwise.

    Up to SCHUR_CUTOFF states (_schur) the band is that of H - sigma I, and the
    minor counts in the basis' order.  Above it the band is the Schur
    complement S of the odd-nu states (_schur_band), and the minor counts
    with the even-nu states first: H - sigma I is positive definite exactly
    when D_E - sigma and S are, and a failure of either names its minor.  A
    solve then takes u = b_E / d_E, y = S^-1 (b_O - B' u) and
    x_E = u - B y / d_E, and keeps the basis' order.
    """
    n = basis.size

    def rejected(minor, order=""):
        return RuntimeError(f"shift {sigma:.6g} is not below the spectrum: leading minor "
                            f"{minor} of {n}{order} is not positive definite")

    if not _schur(n):
        chol, info = dpbtrf(_lower_band(H, sigma), lower=1, overwrite_ab=1)
        if info > 0:
            raise rejected(info)
        return (lambda b: dpbtrs(chol, b, lower=1)[0]), False
    even = (basis.nu & 1) == 0
    gap = H.diag[even] - sigma
    short = np.flatnonzero(gap <= 0.0)
    if short.size:
        raise rejected(short[0] + 1, ", even-nu states first,")
    inv = 1.0 / gap
    band, val, pos = _schur_band(H, basis, sigma, even, inv)
    chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise rejected(gap.size + info, ", even-nu states first,")
    odd = ~even

    def solve(b):
        u = b[even] * inv
        y = dpbtrs(chol, b[odd] - (val * u[pos]).sum(axis=0), lower=1)[0]
        x = np.empty(n)
        x[odd] = y
        x[even] = u - inv * np.bincount(pos.ravel(), (val * y).ravel(), inv.size)
        return x

    return solve, True


def _verified_shift_invert(H: Stencil, basis: SectorBasis, sigma: float, v0: np.ndarray):
    """Shift-invert ARPACK at sigma from v0, after _factor proves sigma below
    every eigenvalue: the eigenvalue, the eigenvector, the number of band
    solves ARPACK made and whether _factor factored the Schur complement."""
    n = H.shape[0]
    factored, schur = _factor(H, basis, sigma)
    solves = 0

    def band_solve(b):
        nonlocal solves
        solves += 1
        return factored(b)

    opinv = spla.LinearOperator((n, n), matvec=band_solve, dtype=H.dtype)
    # ARPACK stops once ||OP v - theta v|| <= tol |theta| with OP = (H - sigma)^-1,
    # and then ||H v - (sigma + 1/theta) v|| <= tol ||H - sigma||_2 <= tol ||H - sigma||_1:
    # this tol meets RESIDUAL_TOL without iterating on to machine precision.
    # By symmetry the 1-norm, a largest column sum, is the largest row sum.
    tol = RESIDUAL_TOL / (np.abs(H.diag - sigma) + H.radii()).max()
    vals, vecs = spla.eigsh(H, k=1, sigma=sigma, which="LM", OPinv=opinv, v0=v0,
                            ncv=min(n, 6), tol=tol)
    return vals, vecs, solves, schur


def _trial_state(basis: SectorBasis) -> np.ndarray | None:
    """The variational state, or None where there is none to start from: the
    degenerate odd state at gamma = 0, the annihilated one at x = 1, a
    normal-phase state outside the window."""
    try:
        return variational_vector(basis.params, basis.parity, basis)
    except (ValueError, ProjectionAnnihilationError):
        return None


def _fixed_start(n: int) -> np.ndarray:
    """The start vector of a sector without a trial state: fixed-seed, so that
    equal inputs give equal bits."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def lowest_eigenpairs(op: OperatorMatrix) -> SpectralResult:
    """The lowest eigenpair of a symmetric operator on a sector, residual-checked.

    Up to DENSE_CUTOFF states dense LAPACK solves the sector.  Above it one
    _verified_shift_invert runs from the sector's _trial_state, kept as the
    result's ``trial`` (else from _fixed_start), at the shift the model
    supplies: SHIFT_GUARD times max(1, |floor|) below its spin_floor, so
    below every eigenvalue of the window by a theorem, not a calibration.
    The Cholesky factorization of H - sigma I, or above SCHUR_CUTOFF states
    of its Schur complement on the odd-nu states, still proves it before
    ARPACK runs.  The result keeps the shift, the number of band solves and
    which factorization ran.  A rejected shift (named with the leading
    minor that is not positive definite), an ARPACK or LAPACK error, a
    residual above RESIDUAL_TOL, or an energy above the trial state's
    Rayleigh quotient by more than the residual (an excited state, caught at
    the cost of one matvec) raises ConvergenceError, whose diagnostics carry
    the shift.
    """
    dim = op.dimension
    H = op.matrix
    residuals = trial = sigma = None
    solves, schur = 0, False
    if dim <= DENSE_CUTOFF:
        path = "dense"
    else:
        path = "variational shift-invert"
        trial = _trial_state(op.basis)
    try:
        if path == "dense":
            vals, vecs = la.eigh(H.toarray(), subset_by_index=(0, 0))
        else:
            floor = spin_floor(op.basis.params)
            sigma = floor - SHIFT_GUARD * max(1.0, abs(floor))
            vals, vecs, solves, schur = _verified_shift_invert(
                H, op.basis, sigma, _fixed_start(dim) if trial is None else trial)
    except (RuntimeError, ValueError) as exc:  # LAPACK, ARPACK, rejected shift
        reason = str(exc)
    else:
        if vecs[np.argmax(np.abs(vecs[:, 0])), 0] < 0:  # largest coefficient positive
            vecs = -vecs
        psi = vecs[:, 0]
        residuals = np.linalg.norm(H @ psi - psi * vals[0], axis=0, keepdims=True)
        # the window's ground energy lies at or below the trial state's Rayleigh
        # quotient, and some eigenvalue within the residual of vals[0]; 1e-12
        # relative covers the rounding of the quotient
        rayleigh = None if trial is None else trial @ (H @ trial) / (trial @ trial)
        if residuals[0] > RESIDUAL_TOL:
            reason = f"residual {residuals[0]:.3e} exceeds {RESIDUAL_TOL:.1e}"
        elif rayleigh is not None and (vals[0] - residuals[0]
                                       > rayleigh + 1e-12 * abs(rayleigh)):
            reason = (f"energy {vals[0]:.17g} lies above the trial state's Rayleigh "
                      f"quotient {rayleigh:.17g} by more than the residual "
                      f"{residuals[0]:.3e}: not the ground state")
        else:
            return SpectralResult(
                parity=op.basis.parity,
                lambda_max=op.basis.lambda_max,
                eigenvalues=vals,
                eigenvectors=vecs,
                basis=op.basis,
                path=path,
                residuals=residuals,
                trial=trial,
                shift=sigma,
                band_solves=solves,
                schur=schur,
            )
    raise ConvergenceError(
        f"{path} failed at dimension {dim}: {reason}",
        diagnostics={"dim": dim, "path": path, "reason": reason, "residuals": residuals,
                     "shift": sigma},
    )


# -- truncation -------------------------------------------------------------------

def truncation_seed(params: ModelParams, tol: float = 1e-8) -> dict:
    """The window and the excitation statistics it is drawn from.

    lambda_seed = <Lambda> + 6 sqrt(dLambda^2 + dc^2) + 6, with (<Lambda>,
    dLambda) the closed-form lambda_statistics (zero in the normal phase) and
    dc = 1.25 omega_a^(1/6) N^(1/3) the width of the critical fluctuations,
    which the mean-field width misses near the separatrix.  In the
    superradiant phase (|x| > 1) the window is also boxed in: nu >= nu_lo and
    ne_lo <= n_e <= ne_hi, each edge at the closed-form photon or atom mean
    -+ (WINDOW_WIDTHS sqrt(width^2 + (dc (1 + t)^(-1/8))^2) + WINDOW_MARGIN),
    with the mean and width from photon_statistics and atom_statistics and
    t = (|x| - 1) N^(2/3) the finite-size crossover variable.  The critical
    fluctuations live within |x| - 1 <~ N^(-2/3) (Vidal & Dusuel, EPL 74,
    817, 2006), so further in the box fades towards the closed-form widths,
    which fit the exact state there; the lambda edge keeps the whole dc.
    Otherwise the box is the whole space, nu_lo = ne_lo = 0 and ne_hi = N.
    Below tol = 1e-8 the two 6s and WINDOW_WIDTHS are multiplied by
    log(tol) / log(1e-8), so that one window settles the tighter tolerance
    too; at and above 1e-8 the window does not depend on tol.  Calibrated with
    tools/calibrate_truncation.py on omega_a in {0.25, 1, 4, 9}, N 10-140 and
    x 0.3-2.5: every sector ground state is accepted in this window at tol
    1e-8, 1e-10 and 1e-12.
    """
    scale = max(1.0, math.log(tol) / math.log(1e-8))
    mean, width = lambda_statistics(params)
    n_atoms = params.n_atoms
    critical = 1.25 * params.omega_a ** (1.0 / 6.0) * n_atoms ** (1.0 / 3.0)
    seed = math.ceil(mean + scale * 6.0 * math.hypot(width, critical) + scale * 6.0)
    record = {"lambda_seed": seed, "lambda_mean": mean, "lambda_width": width,
              "nu_lo": 0, "ne_lo": 0, "ne_hi": n_atoms}
    if abs(params.x) > 1.0:
        # dc faded by the crossover variable t = (|x| - 1) N^(2/3)
        faded = critical * (1.0 + (abs(params.x) - 1.0) * n_atoms ** (2.0 / 3.0)) ** -0.125

        def reach(mode_width):
            return scale * WINDOW_WIDTHS * math.hypot(mode_width, faded) + WINDOW_MARGIN

        (nu_mean, nu_width), (ne_mean, ne_width) = (photon_statistics(params),
                                                    atom_statistics(params))
        record.update(nu_lo=max(0, math.floor(nu_mean - reach(nu_width))),
                      ne_lo=max(0, math.floor(ne_mean - reach(ne_width))),
                      ne_hi=min(n_atoms, math.ceil(ne_mean + reach(ne_width))))
    return record


def _leak(r: np.ndarray, diag: np.ndarray, energy: float) -> float:
    """sum_h r_h^2 / (H_hh - E), infinite when a receiving state h lies at or
    below E."""
    gap = diag - energy
    if np.any(gap <= 0.0):
        return math.inf
    return (r ** 2 / gap).sum()


def _leak_along(pos: np.ndarray, diag: np.ndarray, amp: np.ndarray, psi: np.ndarray,
                energy: float) -> float:
    """The leak into states outside the window on one line of states, whose
    diagonal is diag: the state at pos[i] along it is fed with amplitude
    amp[i] by a window state of coefficient psi[i], and a state fed twice
    sums both.  Only the fed states are summed."""
    fed = np.zeros(diag.size, dtype=bool)
    fed[pos] = True
    return _leak(np.bincount(pos, amp * psi, diag.size)[fed], diag[fed], energy)


def edge_leaks(params: ModelParams, basis: SectorBasis, energy: float,
               psi: np.ndarray) -> dict[str, float]:
    """Second-order energy the ground state (energy, psi) leaks across each
    edge of the window, sum r_h^2 / (H_hh - E) over the states h just
    outside that edge, with r_h = sum_i H_hi psi_i over the window's states i.

    Across the lambda edge only a'J+ leaves: it carries the top shell
    lambda_top = max(lambda) (which differs from lambda_max when their
    parities differ), the last state of some columns, to lambda_top + 2 with
    amplitude g sqrt(nu+1) sqrt((N-n_e)(n_e+1)), g = gamma/sqrt(N), and each
    state there is fed by one top-shell state.  Each box edge present adds
    an entry: a J+- carry the first column to the line nu = nu_lo - 1
    ("nu_lo"), a'J- and aJ- carry n_e = ne_lo to the line ne_lo - 1
    ("ne_lo"), and a'J+ and aJ+ carry n_e = ne_hi to the line ne_hi + 1
    below lambda_max ("ne_hi"); a state outside gathers up to two couplings,
    and one outside several edges counts for the first of them.  Only these
    edge states are read, found from the column offsets.
    """
    n_atoms, omega, j = params.n_atoms, params.omega_a, params.j
    g = params.gamma / math.sqrt(n_atoms)
    nu, ne, offsets = basis.nu, basis.ne, basis.offsets
    last = offsets[1:][offsets[1:] > offsets[:-1]] - 1  # the last state of each column
    top = last[basis.lam[last] == basis.lam[last].max()]
    amp = g * np.sqrt(nu[top] + 1.0) * _spin_plus_amp(ne[top], n_atoms)
    leaks = {"lambda": _leak(amp * psi[top], nu[top] + 1.0 + omega * (ne[top] + 1.0 - j),
                             energy)}
    if basis.nu_lo > 0:
        col = slice(offsets[basis.nu_lo], offsets[basis.nu_lo + 1])
        ne_h = np.concatenate((ne[col] + 1, ne[col] - 1))
        amp = g * math.sqrt(basis.nu_lo) * np.concatenate(
            (_spin_plus_amp(ne[col], n_atoms), _spin_minus_amp(ne[col], n_atoms)))
        keep = (ne_h >= 0) & (ne_h <= n_atoms)
        leaks["nu_lo"] = _leak_along(ne_h[keep],
                                     basis.nu_lo - 1 + omega * (np.arange(n_atoms + 1) - j),
                                     amp[keep], np.concatenate((psi[col], psi[col]))[keep],
                                     energy)
    odd = basis.parity == "odd"
    for name, present, edge, dne, spin_amp in (
            ("ne_lo", basis.ne_lo > 0, basis.ne_lo, -1, _spin_minus_amp),
            ("ne_hi", basis.ne_hi < n_atoms, basis.ne_hi, 1, _spin_plus_amp)):
        if not present:
            continue
        # n_e = edge in every column nu >= nu_lo of the sector's parity up to lambda_max
        nu_src = np.arange(basis.nu_lo + (basis.nu_lo + edge + odd) % 2,
                           basis.lambda_max - edge + 1, 2)
        src = offsets[nu_src] + (edge - basis.ne_lo) // 2
        nu_h = np.concatenate((nu_src + 1, nu_src - 1))
        amp = g * spin_amp(edge, n_atoms) * np.sqrt(np.concatenate((nu_src + 1.0, nu_src)))
        keep = (nu_h >= basis.nu_lo) & (nu_h + edge + dne <= basis.lambda_max)
        leaks[name] = _leak_along(nu_h[keep],
                                  np.arange(basis.lambda_max + 2) + omega * (edge + dne - j),
                                  amp[keep], np.concatenate((psi[src], psi[src]))[keep],
                                  energy)
    return leaks


def band_bytes(lambda_max: int, parity: str, nu_lo: int, ne_lo: int,
               ne_hi: int) -> tuple[int, int]:
    """The states of a window and the bytes of the band _factor hands dpbtrf
    there, counted from window_columns before any state is enumerated.

    (nu, n_e) couples to (nu + 1, n_e -+ 1), at most counts[nu] + (1 +
    first[nu] - first[nu + 1]) / 2 states on; in the Schur complement of the
    odd-nu states its furthest entry, (nu + 2, n_e + 2), lies counts[nu] + 1
    odd-nu states on.  So the count is never below the band, and at most
    one band row above it where gamma != 0 (at gamma = 0 the band of
    H - sigma I is the diagonal alone).
    """
    first, counts = window_columns(lambda_max, parity, nu_lo, ne_lo, ne_hi)
    n = int(counts.sum())
    if not _schur(n):
        reach = counts[:-1] + (1 + first[:-1] - first[1:]) // 2
        width = reach[(counts[:-1] > 0) & (counts[1:] > 0)].max(initial=0)
        return n, 8 * n * (int(width) + 1)
    odd = counts[1::2]
    width = (odd[:-1] + 1)[(odd[:-1] > 0) & (odd[1:] > 0)].max(initial=1)
    return n, 8 * int(odd.sum()) * (int(width) + 1)


def converge_ground(params: ModelParams, parity: str, tol: float = 1e-8) -> SpectralResult:
    """The ground state of a sector, converged in truncation by one solve.

    The window is truncation_seed's at ``tol``.  Before any state of it is
    enumerated, band_bytes counts the band its factorization takes; above
    BAND_BUDGET the window is not solved, and ConvergenceError carries best
    None and diagnostics ``dim``, ``band_bytes``, ``budget`` and the seed
    record.  The solve is accepted when TRUNCATION_SAFETY times its
    truncation estimate is at most ``tol`` |E|; otherwise ConvergenceError
    carries it as ``best``, with its diagnostics.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0 (tol={tol} is unreachable)")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    seed = truncation_seed(params, tol)
    window = (seed["lambda_seed"], parity, seed["nu_lo"], seed["ne_lo"], seed["ne_hi"])
    dim, nbytes = band_bytes(*window)
    if nbytes > BAND_BUDGET:
        reason = (f"the window of {dim} states takes a {nbytes / 2 ** 20:.0f} MiB band, "
                  f"above the band budget of {BAND_BUDGET / 2 ** 20:.0f} MiB")
        raise ConvergenceError(f"ground state not solved: {reason}", best=None,
                               diagnostics={**seed, "dim": dim, "band_bytes": nbytes,
                                            "budget": BAND_BUDGET, "reason": reason,
                                            "tol": tol})
    basis = build_sector_basis(params, *window)
    try:
        res = lowest_eigenpairs(build_hamiltonian(params, basis))
    except ConvergenceError as exc:
        exc.diagnostics.update(seed)
        raise
    res.seed = seed
    energy = res.eigenvalues[0]
    res.truncation_estimate = sum(edge_leaks(params, basis, energy,
                                             res.eigenvectors[:, 0]).values())
    if TRUNCATION_SAFETY * res.truncation_estimate <= tol * abs(energy):
        return res
    raise ConvergenceError(
        f"ground state not converged at lambda_max {basis.lambda_max}",
        best=res,
        diagnostics={**res.diagnostics(), "tol": tol},
    )
