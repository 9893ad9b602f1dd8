"""Closed-form observables of the coherent and parity-projected trial states,
the numerically constructed projected state itself, and the photon/atom
distributions with their Gaussian limits.

Everything is evaluated at the superradiant critical point and expressed in
mu = N gamma_c^2 x^2 (1 - x^-4) (the coherent photon number) and the overlap
decay factor F.  Factorials and binomials are read from one table of
log k! (_log_factorial); F stays in the log domain.  Useful identities:
x^N sqrt(F) = exp(-mu) and x^(2N) F = exp(-2 mu).

sas_observables writes both parities in one form, with s = +1 (even) or
-1 (odd) and r = (1 - x^-4)/(1 + sF) from surface._projection_factors.  It
is regular through x = 1, where the odd state meets the normal phase's
single-excitation state, so no limit is evaluated apart from r itself.

The table_closed_forms_* registries carry the closed forms exactly as
tabulated, including three rows that disagree with the projected-state
oracle (lam; var_n_photons; jz_n_photons, which is low by a factor
j = N/2); the *_observables constructors return the oracle-faithful
values instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionAnnihilationError, TruncationError
from .model import ModelParams
from .observables import ObservableSet, grid_observables
from .surface import (_parity_sign, _projection_factors, atom_statistics, f_function,
                      lambda_statistics, one_minus_x4, photon_statistics)


# -- shared geometry ----------------------------------------------------------

def _require_superradiant(params: ModelParams, strict: bool = False) -> float:
    xa = abs(params.x)
    if xa < 1.0 or (strict and xa == 1.0):
        bound = "> 1" if strict else ">= 1"
        raise ValueError(f"superradiant branch requires |x| {bound}, got {params.x}")
    return xa


def photon_number_coherent(params: ModelParams) -> float:
    """mu = N gamma_c^2 x^2 (1 - x^-4)."""
    return photon_statistics(params)[0]


def _photon_sign(params: ModelParams) -> float:
    """-sgn(gamma): the projected-state coefficients go as its nu-th power on
    the phi_c = 0 branch, where <q> has the sign of -gamma."""
    return -math.copysign(1.0, params.gamma)


def default_nu_max(params: ModelParams) -> int:
    """Photon cutoff covering the Poisson bulk plus a 20-sigma tail and floor."""
    mu = photon_number_coherent(params)
    return math.ceil(mu + 20.0 * math.sqrt(mu) + 50.0)


# -- coherent (unprojected) column --------------------------------------------

def coherent_observables(params: ModelParams) -> ObservableSet:
    """Product-state expectation values at the minimizing critical point.

    Sign convention: the phi_c = 0 branch, i.e. <Jx> > 0 and <q> has the
    sign of -gamma, as does the correlation <Jx q>.
    """
    xa = _require_superradiant(params)
    n = params.n_atoms
    gc = params.gamma_c
    omx4 = one_minus_x4(xa)
    mu = photon_number_coherent(params)
    jz = -0.5 * n * xa ** -2
    lam, lam_width = lambda_statistics(params)
    return ObservableSet(
        q=-math.sqrt(2.0 * n) * gc * params.x * math.sqrt(omx4),
        p=0.0,
        jx=0.5 * n * math.sqrt(omx4),
        jy=0.0,
        jz=jz,
        n_photons=mu,
        lam=lam,
        var_q=0.5,
        var_p=0.5,
        var_jx=0.25 * n * xa ** -4,
        var_jy=0.25 * n,
        var_jz=0.25 * n * omx4,
        var_n_photons=mu,
        var_lam=lam_width ** 2,
        jz_n_photons=jz * mu,
        jx_q=-math.sqrt(n ** 3 / 2.0) * gc * params.x * omx4,
    )


# -- symmetry-adapted column ---------------------------------------------------

def sas_observables(params: ModelParams, parity: str) -> ObservableSet:
    """Projected-state expectation values in closed form (oracle-faithful).

    lam is the operator identity <a'a> + <Jz> + N/2; var_n_photons and
    jz_n_photons use the corrected closed forms (see module docstring).
    Every 1/(1 + sF) folds into r = (1 - x^-4)/(1 + sF) of
    _projection_factors and into M = N gamma_c^2 x^2 r = mu/(1 + sF), so one
    form serves both parities and stays regular through x = 1.
    """
    xa = _require_superradiant(params)
    s, f, complement, r = _projection_factors(params, parity)
    n = params.n_atoms
    gc = params.gamma_c
    x4fr = xa ** 4 * f * r
    m = n * gc ** 2 * xa ** 2 * r
    n_phot = m * complement
    jz = -0.5 * n * xa ** -2 * (1.0 + s * x4fr)
    var_n = n_phot + 4.0 * s * f * m * m
    var_jz = 0.25 * n * r * (1.0 - s * f * (1.0 + s * x4fr) + s * (n - 1.0) * x4fr)
    jz_n = -0.5 * n * m * (xa ** -2 - s * xa ** 2 * f)
    return ObservableSet(
        q=0.0, p=0.0, jx=0.0, jy=0.0,
        jz=jz,
        n_photons=n_phot,
        lam=n_phot + jz + 0.5 * n,
        var_q=0.5 + 2.0 * m,
        var_p=0.5 - s * 2.0 * m * f,
        var_jx=0.25 * n * (1.0 + (n - 1.0) * r),
        var_jy=0.25 * n * (1.0 - s * (n - 1.0) * x4fr),
        var_jz=var_jz,
        var_n_photons=var_n,
        var_lam=var_n + var_jz + 2.0 * (jz_n - n_phot * jz),
        jz_n_photons=jz_n,
        jx_q=-math.sqrt(n ** 3 / 2.0) * gc * params.x * r,
    )


# -- literal closed-form table rows (for the verification harness) -------------

TABLE_ROW_NAMES = [
    "q", "p", "jx", "jy", "jz", "n_photons", "lam",
    "var_q", "var_p", "var_jx", "var_jy", "var_jz", "var_n_photons",
    "jz_n_photons", "jx_q",
]


def table_closed_forms_sas(params: ModelParams, parity: str) -> dict[str, float]:
    """The symmetry-adapted column exactly as tabulated (|x| > 1)."""
    sgn = _parity_sign(parity)
    xa = _require_superradiant(params, strict=True)
    n = params.n_atoms
    gc2 = params.gamma_c ** 2
    omx4 = one_minus_x4(xa)
    log_f = f_function(params).log_f
    f = math.exp(log_f)
    denom = 1.0 + sgn * f
    swap = (1.0 - sgn * f) / denom
    x4 = xa ** 4
    lam_brace = (xa ** 2 + 2.0 * gc2 * xa ** 2 * (1.0 + xa ** 2)
                 - sgn * (x4 + 2.0 * gc2 * xa ** 2 * (1.0 + xa ** 2)) * f)
    return {
        "q": 0.0,
        "p": 0.0,
        "jx": 0.0,
        "jy": 0.0,
        "jz": -0.5 * n * xa ** 2 * (1.0 - omx4 / denom),
        "n_photons": n * gc2 * xa ** 2 * omx4 * swap,
        "lam": 0.5 * n * ((1.0 - xa ** -2) / denom) * lam_brace,
        "var_q": 0.5 + 2.0 * n * gc2 * xa ** 2 * omx4 / denom,
        "var_p": 0.5 - sgn * 2.0 * n * gc2 * xa ** 2 * (omx4 / denom) * f,
        "var_jx": 0.25 * n * (1.0 + (n - 1.0) * omx4 / denom),
        "var_jy": 0.25 * n * (1.0 + sgn * (n - 1.0) * (1.0 - x4) * f / denom),
        "var_jz": (0.25 * n * omx4 / denom ** 2
                   * (1.0 - sgn * (n - 1.0) * (1.0 - x4) * f - x4 * f * f)),
        "var_n_photons": n * gc2 * xa ** 2 * (
            n * gc2 * xa ** -6 * (1.0 - x4) * swap ** 2
            + omx4 * (n * gc2 * xa ** 2 * omx4 + swap)),
        "jz_n_photons": -n * gc2 * x4 * omx4 * (xa ** -4 - sgn * f) / denom,
        "jx_q": -math.sqrt(n ** 3 / 2.0) * params.gamma_c * params.x * omx4 / denom,
    }


def table_closed_forms_coherent(params: ModelParams) -> dict[str, float]:
    """The coherent column as tabulated (|x| >= 1): the faithful forms, except
    that jz_n_photons is tabulated as -N gamma_c^2 (1 - x^-4), low by j."""
    obs = coherent_observables(params)
    table = {name: getattr(obs, name) for name in TABLE_ROW_NAMES}
    table["jz_n_photons"] = -params.n_atoms * params.gamma_c ** 2 * one_minus_x4(abs(params.x))
    return table


# -- numerically constructed projected state -----------------------------------

@dataclass(frozen=True)
class SASStateVector:
    """Projected coherent state on the rectangular (nu, n_e) grid.

    ``coeffs`` is unit-norm after truncation at nu <= nu_max;
    ``norm_defect`` records the probability mass dropped by the cutoff.
    Signs follow the phi_c = 0 critical branch, c(nu, n_e) ~ (-sgn gamma)**nu.
    """

    params: ModelParams
    parity: str
    nu_max: int
    coeffs: np.ndarray
    norm_defect: float


def _log_factorial_table(size: int) -> np.ndarray:
    """log k! for k < size, as the running sum of math.log(k) with Neumaier's
    compensation: each entry lies within an ulp of the exact value (math.lgamma
    is up to 3 ulps off, log 2! included)."""
    table = np.zeros(size)
    total = carry = 0.0
    for k in range(2, size):
        term = math.log(k)
        new = total + term
        carry += (total - new) + term if total >= term else (term - new) + total
        total = new
        table[k] = total + carry
    return table


_LOG_FACTORIALS = np.zeros(0)  # rebuilt, at least doubling, by _log_factorial


def _log_factorial(k) -> np.ndarray:
    """log k! for an integer k >= 0 or an array of them, read from one table
    that is rebuilt to cover the largest k asked for."""
    global _LOG_FACTORIALS
    k = np.asarray(k)
    if k.size and k.max() >= _LOG_FACTORIALS.size:
        _LOG_FACTORIALS = _log_factorial_table(max(int(k.max()) + 1, 2 * _LOG_FACTORIALS.size))
    return _LOG_FACTORIALS[k]


def _log_amplitude(params: ModelParams, nu, ne) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitude of the projected-state coefficient, without parity and
    normalization, as a photon part at integer nu plus an atom part at
    integer n_e: half the log of the Poisson(mu) weight mu^nu/nu! and of the
    binomial weight C(N, n_e) (1 - x^-2)^n_e (1 + x^-2)^(N - n_e).  Callers
    ensure |x| > 1."""
    xa = abs(params.x)
    n = params.n_atoms
    log_one_minus = math.log(-math.expm1(-2.0 * math.log(xa)))
    log_one_plus = math.log1p(xa ** -2)
    log_mu = 2.0 * math.log(math.sqrt(n) * params.gamma_c * xa) + log_one_minus + log_one_plus
    photon = 0.5 * (nu * log_mu - _log_factorial(nu))
    atom = 0.5 * (_log_factorial(n) - _log_factorial(ne) - _log_factorial(n - ne)
                  + ne * log_one_minus + (n - ne) * log_one_plus)
    return photon, atom


def _one_plus_exp(s, t: float) -> np.ndarray:
    """1 + s e^t for a sign s = +-1 or an array of signs; the small 1 - e^t
    near t = 0 goes through expm1."""
    return np.where(np.asarray(s) > 0, 1.0 + math.exp(t), -math.expm1(t))


def _projection_norm(params: ModelParams, parity: str) -> float:
    """1 + sF, twice the squared norm of the projected coherent state, which
    the joint distribution and both marginals divide by.  The odd projection
    annihilates the state at x = 1: ProjectionAnnihilationError."""
    norm = float(_one_plus_exp(_parity_sign(parity), f_function(params).log_f))
    if norm == 0.0:
        raise ProjectionAnnihilationError(
            "odd projection annihilates the coherent state at x = 1")
    return norm


def _projected_log_amplitude(params: ModelParams,
                             parity: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(nu_max, log|c|, mask) of the normalized projected state on the
    (nu, n_e) grid, nu <= default_nu_max: the log magnitude of every
    coefficient before truncation, and the cells of the state's parity.  At
    x = 1 the even state is the vacuum and the odd one raises
    ProjectionAnnihilationError."""
    xa = _require_superradiant(params)
    n = params.n_atoms
    norm = _projection_norm(params, parity)
    if xa == 1.0:
        return 0, np.zeros((1, n + 1)), np.arange(n + 1)[None, :] == 0
    nu_max = default_nu_max(params)
    nu, ne = np.arange(nu_max + 1), np.arange(n + 1)
    # the even log(1 + F) through log1p, which rounding 1 + F first would lose
    log_denom = math.log1p(f_function(params).f) if parity == "even" else math.log(norm)
    log_norm = (0.5 * (1.0 - n) * math.log(2.0) - 0.5 * photon_number_coherent(params)
                - 0.5 * log_denom)
    photon, atom = _log_amplitude(params, nu, ne)
    return (nu_max, photon[:, None] + (atom + log_norm)[None, :],
            (nu[:, None] + ne[None, :]) % 2 == (parity == "odd"))


def build_sas_state(params: ModelParams, parity: str) -> SASStateVector:
    """Assemble the projected state from its closed-form expansion.

    Coefficients are built in the log domain, parity-masked, truncated at
    default_nu_max (the Poisson bulk to 20 sigma) and renormalized; a
    truncation norm defect above 1e-8 raises TruncationError.
    """
    nu_max, log_c, allowed = _projected_log_amplitude(params, parity)
    coeffs = np.where(allowed, np.exp(log_c), 0.0)
    coeffs *= _photon_sign(params) ** np.arange(nu_max + 1)[:, None]
    norm_sq = float(np.sum(coeffs * coeffs))
    defect = 1.0 - norm_sq
    if defect > 1e-8:
        raise TruncationError(f"truncation at nu_max={nu_max} loses {defect:.3e} probability")
    coeffs = coeffs / math.sqrt(norm_sq)
    return SASStateVector(params, parity, nu_max, coeffs, defect)


def state_observables(state: SASStateVector) -> ObservableSet:
    """Observables of the constructed state by direct operator application."""
    n = state.params.n_atoms
    pad = np.zeros((state.coeffs.shape[0] + 2, n + 1))
    pad[: state.coeffs.shape[0]] = state.coeffs
    return grid_observables(pad, n)


def sas_coefficients_at(params: ModelParams, nu: np.ndarray, ne: np.ndarray) -> np.ndarray:
    """Normalized projected-state coefficients on given integer (nu, n_e) pairs.

    The pairs are assumed to all share one parity and to cover the state's
    support (a converged sector basis does); the result is renormalized on
    that support.  Requires |x| > 1.
    """
    _require_superradiant(params, strict=True)
    photons = np.arange(nu.max() + 1)
    photon, atom = _log_amplitude(params, photons, np.arange(params.n_atoms + 1))
    half = photon[nu] + atom[ne]
    half -= half.max()  # normalization removes the shift
    coeffs = (_photon_sign(params) ** photons)[nu] * np.exp(half)
    return coeffs / np.linalg.norm(coeffs)


# -- joint and marginal distributions ------------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """P(nu, n_e) of a parity-projected state on the whole grid nu <= nu_max,
    n_e <= N.  ``nu_max`` is the photon cutoff default_nu_max; parity holes
    are exact zeros, which the written tables drop, so their last cell need
    not lie at nu_max."""

    params: ModelParams
    parity: str
    nu_max: int
    matrix: np.ndarray


def joint_distribution_sas(params: ModelParams, parity: str) -> JointDistribution:
    """Closed-form joint distribution |c|^2, using x^N sqrt(F) = exp(-mu)."""
    nu_max, log_c, allowed = _projected_log_amplitude(params, parity)
    return JointDistribution(params, parity, nu_max,
                             np.where(allowed, np.exp(2.0 * log_c), 0.0))


def marginal_photon(params: ModelParams, parity: str) -> np.ndarray:
    """Photon-number distribution on nu <= default_nu_max: Poisson(mu) times
    the parity correction (1 +- (-1)^nu x^-2N) / (1 +- F)."""
    sgn = _parity_sign(parity)
    xa = _require_superradiant(params)
    norm = _projection_norm(params, parity)
    nu = np.arange(default_nu_max(params) + 1)
    if xa == 1.0:  # mu = 0: the vacuum
        base = (nu == 0).astype(float)
    else:
        base = np.exp(2.0 * _log_amplitude(params, nu, 0)[0] - photon_number_coherent(params))
    return base * _one_plus_exp(sgn * (-1.0) ** nu, -2.0 * params.n_atoms * math.log(xa)) / norm


def marginal_excited(params: ModelParams, parity: str) -> np.ndarray:
    """Excited-atom distribution: binomial(N, (1-x^-2)/2) times the parity
    correction (1 +- (-1)^n_e exp(-2 mu)) / (1 +- F)."""
    sgn = _parity_sign(parity)
    xa = _require_superradiant(params)
    norm = _projection_norm(params, parity)
    n = params.n_atoms
    ne = np.arange(n + 1)
    if xa == 1.0:  # every atom in its ground state
        base = (ne == 0).astype(float)
    else:
        base = np.exp(2.0 * _log_amplitude(params, 0, ne)[1] - n * math.log(2.0))
    return base * _one_plus_exp(sgn * (-1.0) ** ne, -2.0 * photon_number_coherent(params)) / norm


# -- Gaussian limits -------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLimits:
    """Large-N normal approximations of the photon and atom marginals."""

    photon_mean: float
    photon_var: float
    atom_mean: float
    atom_var: float


def gaussian_limits(params: ModelParams) -> GaussianLimits:
    """The coherent state's photon and atom means, with the Poisson variance
    mu (equal to the mean) and the atom width squared."""
    _require_superradiant(params, strict=True)
    mu = photon_statistics(params)[0]
    atom_mean, atom_width = atom_statistics(params)
    return GaussianLimits(photon_mean=mu, photon_var=mu, atom_mean=atom_mean,
                          atom_var=atom_width ** 2)


def gaussian_sup_distance(pmf: np.ndarray, mean: float, var: float) -> float:
    """Sup-norm distance between a lattice pmf and the Gaussian density."""
    k = np.arange(pmf.size)
    density = np.exp(-((k - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(np.max(np.abs(pmf - density)))
