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
above sigma.  ARPACK stops as soon as its residual bound, scaled by
||H - sigma I||_1 from the Gershgorin radii, meets the contract
||H v - E v|| <= 1e-8, and every result is residual-checked against it.  A
rejected shift, a solver error or a missed residual raises
ConvergenceError; nothing is retried.

converge_ground solves one window: truncation_seed's, drawn from the
closed-form mean and width of the excitation number and, in the
superradiant phase, boxed in around the closed-form photon and atom
numbers, with a reach that grows with the tolerance below 1e-8.  It accepts
that window when the energy the states on its edges leak across them, to
second order, is far below the tolerance, and raises ConvergenceError
otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz

from .errors import ConvergenceError, ProjectionAnnihilationError
from .model import (ModelParams, OperatorMatrix, SectorBasis, Stencil, _spin_minus_amp,
                    _spin_plus_amp, build_hamiltonian, build_sector_basis)
from .sas import sas_coefficients_at
from .surface import (atom_statistics, lambda_statistics, minimum_energy, normal_odd_state,
                      photon_statistics, sas_energy_at_critical)

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
    dense path.
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

    def diagnostics(self) -> dict:
        """How the result was obtained, as carried by ConvergenceError."""
        return {"dim": self.basis.size, "lambda_max": self.lambda_max, "path": self.path,
                "residuals": self.residuals, "truncation_estimate": self.truncation_estimate,
                "shift": self.shift, "band_solves": self.band_solves, **self.seed}


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
    gamma = 0 it is the even ground energy -omega_a N/2.
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


def _verified_shift_invert(H: Stencil, sigma: float, v0: np.ndarray):
    """Shift-invert ARPACK at sigma from v0, after proving sigma below every
    eigenvalue: the eigenvalue, the eigenvector and the number of band
    solves ARPACK made."""
    n = H.shape[0]
    chol, info = dpbtrf(_lower_band(H, sigma), lower=1, overwrite_ab=1)
    if info > 0:  # the Cholesky factor exists exactly when H - sigma I is positive definite
        raise RuntimeError(f"shift {sigma:.6g} is not below the spectrum: leading minor "
                           f"{info} of {n} is not positive definite")
    solves = 0

    def band_solve(b):
        nonlocal solves
        solves += 1
        return dpbtrs(chol, b, lower=1)[0]

    opinv = spla.LinearOperator((n, n), matvec=band_solve, dtype=H.dtype)
    # ARPACK stops once ||OP v - theta v|| <= tol |theta| with OP = (H - sigma)^-1,
    # and then ||H v - (sigma + 1/theta) v|| <= tol ||H - sigma||_2 <= tol ||H - sigma||_1:
    # this tol meets RESIDUAL_TOL without iterating on to machine precision.
    # By symmetry the 1-norm, a largest column sum, is the largest row sum.
    tol = RESIDUAL_TOL / (np.abs(H.diag - sigma) + H.radii()).max()
    vals, vecs = spla.eigsh(H, k=1, sigma=sigma, which="LM", OPinv=opinv, v0=v0,
                            ncv=min(n, 6), tol=tol)
    return vals, vecs, solves


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
    The Cholesky factorization of H - sigma I still proves it before ARPACK
    runs.  The result keeps the shift and the number of band solves.  A
    rejected shift (named with the leading minor that is not positive
    definite), an ARPACK or LAPACK error or a residual above RESIDUAL_TOL
    raises ConvergenceError, whose diagnostics carry the shift.
    """
    dim = op.dimension
    H = op.matrix
    residuals = trial = sigma = None
    solves = 0
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
            vals, vecs, solves = _verified_shift_invert(
                H, sigma, _fixed_start(dim) if trial is None else trial)
    except (RuntimeError, ValueError) as exc:  # LAPACK, ARPACK, rejected shift
        reason = str(exc)
    else:
        if vecs[np.argmax(np.abs(vecs[:, 0])), 0] < 0:  # largest coefficient positive
            vecs = -vecs
        residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
        if residuals[0] <= RESIDUAL_TOL:
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
            )
        reason = f"residual {residuals[0]:.3e} exceeds {RESIDUAL_TOL:.1e}"
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
    -+ (WINDOW_WIDTHS sqrt(width^2 + dc^2) + WINDOW_MARGIN), with the mean and
    width from photon_statistics and atom_statistics; otherwise the box is
    the whole space, nu_lo = ne_lo = 0 and ne_hi = N.  Below tol = 1e-8 the
    two 6s and WINDOW_WIDTHS are multiplied by log(tol) / log(1e-8), so that
    one window settles the tighter tolerance too; at and above 1e-8 the
    window does not depend on tol.  Calibrated with
    tools/calibrate_truncation.py on omega_a in {0.25, 1, 4, 9}, N 10-140 and
    x 0.3-2.5: every sector ground state below the default cap is accepted
    in this window at tol 1e-8, 1e-10 and 1e-12.
    """
    scale = max(1.0, math.log(tol) / math.log(1e-8))
    mean, width = lambda_statistics(params)
    n_atoms = params.n_atoms
    critical = 1.25 * params.omega_a ** (1.0 / 6.0) * n_atoms ** (1.0 / 3.0)
    seed = math.ceil(mean + scale * 6.0 * math.hypot(width, critical) + scale * 6.0)
    record = {"lambda_seed": seed, "lambda_mean": mean, "lambda_width": width,
              "nu_lo": 0, "ne_lo": 0, "ne_hi": n_atoms}
    if abs(params.x) > 1.0:
        def reach(mode_width):
            return scale * WINDOW_WIDTHS * math.hypot(mode_width, critical) + WINDOW_MARGIN

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


def converge_ground(params: ModelParams, parity: str, tol: float = 1e-8,
                    lambda_cap: int = DEFAULT_LAMBDA_CAP) -> SpectralResult:
    """The ground state of a sector, converged in truncation by one solve.

    The window is truncation_seed's at ``tol``, with lambda_max lowered to
    ``lambda_cap`` when above it.  The solve is accepted when
    TRUNCATION_SAFETY times its truncation estimate is at most ``tol`` |E|;
    otherwise ConvergenceError carries it as ``best``, with its diagnostics.
    An empty window (a box that starts above the cap) is not solved: the
    ConvergenceError's best is None, and the message and
    ``diagnostics["reason"]`` say so, with ``dim`` 0.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0 (tol={tol} is unreachable)")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    seed = truncation_seed(params, tol)
    basis = build_sector_basis(params, min(seed["lambda_seed"], lambda_cap), parity,
                               seed["nu_lo"], seed["ne_lo"], seed["ne_hi"])
    if basis.size == 0:
        reason = (f"window is empty below lambda_max cap {lambda_cap} "
                  f"(nu_lo {seed['nu_lo']}, ne_lo {seed['ne_lo']})")
        raise ConvergenceError(f"ground state not solved: {reason}", best=None,
                               diagnostics={**seed, "dim": 0, "reason": reason, "tol": tol})
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
        f"ground state not converged at lambda_max {basis.lambda_max} "
        f"(lambda_max cap {lambda_cap})",
        best=res,
        diagnostics={**res.diagnostics(), "tol": tol},
    )
