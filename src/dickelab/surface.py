"""Coherent-state energy surface, critical points, and the parity-projected
(symmetry-adapted) surface in numerically stable form.

The unprojected trial state is |alpha> x |zeta> with the harmonic-oscillator
and stereographic parametrization alpha = (q + i p)/sqrt(2),
zeta = exp(-i phi) tan(theta/2), giving the surface

    E(q, p, theta, phi) = (p^2 + q^2)/2 - j omega_a cos(theta)
                          + 2 sqrt(j) gamma q sin(theta) cos(phi).

All projected-surface ratios are evaluated through t = exp(-r^2) cos(theta)^N
(|t| <= 1, no overflow at any atom count) and the overlap decay factor
F = x^(-2N) exp(-2N gamma_c^2 x^2 (1 - x^-4)) is kept in the log domain.

At the superradiant critical point both projections are written in one
form, with s = +1 (even) or -1 (odd): every 1/(1 + sF) folds into
r = (1 - x^-4)/(1 + sF), which _projection_factors evaluates once, regular
through x = 1, where the odd ratio is 0/0 and takes its exact limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionAnnihilationError
from .model import ModelParams

GRAD_STEP = 1e-5
HESS_STEP = 1e-4
DEGENERATE_EIGENVALUE = 1e-6


def one_minus_x4(xa: float) -> float:
    """1 - x^-4 with full relative precision near x = 1 (0 for |x| <= 1)."""
    return -math.expm1(-4.0 * math.log(xa)) if xa > 1.0 else 0.0


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Field quadratures (q, p) and Bloch angles (theta, phi).

    Canonical ranges are theta in [0, pi], phi in [0, 2 pi); evaluation is
    permitted slightly outside (finite-difference probes need it).
    """

    q: float
    p: float
    theta: float
    phi: float

    def alpha(self) -> complex:
        return (self.q + 1j * self.p) / math.sqrt(2.0)

    def zeta(self) -> complex:
        return np.exp(-1j * self.phi) * math.tan(self.theta / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.p, self.theta, self.phi], dtype=float)


def energy_surface(params: ModelParams, point: PhaseSpacePoint) -> float:
    """Expectation of H in the unprojected coherent product state."""
    q, p, theta, phi = point.q, point.p, point.theta, point.phi
    return (0.5 * (p * p + q * q)
            - params.j * params.omega_a * math.cos(theta)
            + 2.0 * math.sqrt(params.j) * params.gamma * q * math.sin(theta) * math.cos(phi))


@dataclass(frozen=True)
class CriticalPoint:
    point: PhaseSpacePoint
    phase: str                # "normal" | "superradiant"
    energy: float
    branch_phi: float | None  # 0 or pi on the superradiant branch


def critical_points(params: ModelParams) -> list[CriticalPoint]:
    """Minimizing critical points of the coherent surface.

    Below the critical coupling there is the single normal point
    (q, p, theta) = 0; above it two superradiant points with
    cos(theta_c) = (gamma_c/gamma)^2 and phi_c in {0, pi}.  At the
    separatrix the branches coincide with the normal point.
    """
    xa = abs(params.x)
    normal = CriticalPoint(
        point=PhaseSpacePoint(0.0, 0.0, 0.0, 0.0),
        phase="normal",
        energy=minimum_energy(params)[0],
        branch_phi=None,
    )
    if xa <= 1.0:
        return [normal]
    cos_theta = xa ** -2
    theta_c = math.acos(cos_theta)
    sin_factor = math.sqrt(one_minus_x4(xa))
    points = []
    for phi_c in (0.0, math.pi):
        q_c = -2.0 * math.sqrt(params.j) * params.gamma * sin_factor * math.cos(phi_c)
        pt = PhaseSpacePoint(q_c, 0.0, theta_c, phi_c)
        points.append(CriticalPoint(
            point=pt,
            phase="superradiant",
            energy=energy_surface(params, pt),
            branch_phi=phi_c,
        ))
    return points


def minimum_energy(params: ModelParams) -> tuple[float, float | None]:
    """(E_normal, E_superradiant); the second entry exists only for |x| >= 1."""
    e_normal = -2.0 * params.n_atoms * params.gamma_c ** 2
    xa = abs(params.x)
    if xa < 1.0:
        return e_normal, None
    e_super = -params.n_atoms * params.gamma_c ** 2 * xa ** 2 * (1.0 + xa ** -4)
    return e_normal, e_super


def photon_statistics(params: ModelParams) -> tuple[float, float]:
    """Mean and width of the photon number at the minimum: the coherent
    state's mu = N gamma_c^2 x^2 (1 - x^-4) and its Poisson width sqrt(mu),
    both zero in the normal phase."""
    xa = abs(params.x)
    mu = params.n_atoms * params.gamma_c ** 2 * xa ** 2 * one_minus_x4(xa)
    return mu, math.sqrt(mu)


def atom_statistics(params: ModelParams) -> tuple[float, float]:
    """Mean and width of the excited-atom number n_e = Jz + j at the minimum:
    the spin coherent state's N (1 - x^-2)/2 and sqrt(N (1 - x^-4))/2, both
    zero in the normal phase."""
    xa = abs(params.x)
    if xa <= 1.0:
        return 0.0, 0.0
    n = params.n_atoms
    return 0.5 * n * (1.0 - xa ** -2), 0.5 * math.sqrt(n * one_minus_x4(xa))


def lambda_statistics(params: ModelParams) -> tuple[float, float]:
    """Mean and fluctuation of the excitation number at the global minimum,
    the sums of the photon and atom means and of their widths in quadrature
    (both zero in the normal phase)."""
    (photon_mean, photon_width), (atom_mean, atom_width) = (photon_statistics(params),
                                                            atom_statistics(params))
    return photon_mean + atom_mean, math.hypot(photon_width, atom_width)


@dataclass(frozen=True)
class FValue:
    """Overlap decay factor F in the log domain; F in (0, 1] for x >= 1."""

    log_f: float

    @property
    def f(self) -> float:
        return math.exp(self.log_f)


def f_function(params: ModelParams) -> FValue:
    """log F = -2N ln x - 2 mu, superradiant branch only."""
    xa = abs(params.x)
    if xa < 1.0:
        raise ValueError("F is defined on the superradiant branch (|x| >= 1)")
    return FValue(-2.0 * params.n_atoms * math.log(xa) - 2.0 * photon_statistics(params)[0])


def _parity_sign(parity: str) -> float:
    """s = +1 for the even projection, -1 for the odd one."""
    if parity == "even":
        return 1.0
    if parity == "odd":
        return -1.0
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _projection_factors(params: ModelParams, parity: str) -> tuple[float, float, float, float]:
    """(s, F, 1 - sF, r) at the superradiant critical point, with
    r = (1 - x^-4)/(1 + sF), into which every 1/(1 + sF) of the projected
    closed forms folds.

    Whichever of 1 -+ F is small near x = 1 goes through expm1.  The odd r
    is 0/0 at x = 1, where its limit 2/(N (1 + 4 gamma_c^2)) is returned;
    away from x = 1 both of its factors carry full relative precision.
    """
    s = _parity_sign(parity)
    log_f = f_function(params).log_f
    f, one_minus_f = math.exp(log_f), -math.expm1(log_f)
    xa = abs(params.x)
    if s > 0:
        return s, f, one_minus_f, one_minus_x4(xa) / (1.0 + f)
    if xa == 1.0:
        return s, f, 1.0 + f, 2.0 / (params.n_atoms * (1.0 + 4.0 * params.gamma_c ** 2))
    return s, f, 1.0 + f, one_minus_x4(xa) / one_minus_f


def k_ratio(params: ModelParams) -> float:
    """(1 - x^-4) / (1 - F) on the superradiant branch: the odd r of
    _projection_factors, 2/(N (1 + 4 gamma_c^2)) at x = 1."""
    return _projection_factors(params, "odd")[3]


def _projection_weights(r_sq: float, cos_theta: float, n_atoms: int) -> tuple[float, float]:
    """t = exp(-r^2) cos^N and t1 = exp(-r^2) cos^(N-1), sign-tracked.

    |cos|^N decays and exp(-r^2) <= 1, so both magnitudes are bounded by
    exp(-r^2) |cos|^(-1) and never overflow.
    """
    if cos_theta == 0.0:
        t = 0.0
        t1 = math.exp(-r_sq) if n_atoms == 1 else 0.0
        return t, t1
    log_c = math.log(abs(cos_theta))
    sign = -1.0 if cos_theta < 0.0 else 1.0
    t = sign ** n_atoms * math.exp(-r_sq + n_atoms * log_c)
    t1 = sign ** (n_atoms - 1) * math.exp(-r_sq + (n_atoms - 1) * log_c)
    return t, t1


def sas_energy_surface(params: ModelParams, point: PhaseSpacePoint, parity: str) -> float:
    """Energy surface of the parity-projected coherent state.

    The odd projection annihilates wherever exp(-(p^2+q^2)) cos(theta)^N = 1,
    in particular at the origin (q, p, theta) = 0, where a
    ProjectionAnnihilationError is raised.
    """
    _parity_sign(parity)
    n = params.n_atoms
    omega = params.omega_a
    q, p, theta, phi = point.q, point.p, point.theta, point.phi
    r_sq = p * p + q * q
    c = math.cos(theta)
    s = math.sin(theta)
    t, t1 = _projection_weights(r_sq, c, n)
    pref = math.sqrt(2.0 * n) * params.gamma * s
    if parity == "even":
        denom = 1.0 + t
        if denom == 0.0:
            raise ProjectionAnnihilationError(
                "even projection vanishes at this phase-space point")
        return (0.5 * r_sq * (1.0 - t) / denom
                - 0.5 * n * omega * (c + s * s * t1 / denom)
                + pref * (p * math.sin(phi) * t1 + q * math.cos(phi)) / denom)
    denom = 1.0 - t
    if denom == 0.0:
        raise ProjectionAnnihilationError(
            "odd projection of the coherent state vanishes at this phase-space point")
    return (0.5 * r_sq * (1.0 + t) / denom
            - 0.5 * n * omega * (c - t1) / denom
            + pref * (-p * math.sin(phi) * t1 + q * math.cos(phi)) / denom)


def sas_energy_at_critical(params: ModelParams, parity: str) -> float:
    """Projected energy at the superradiant critical point, in closed form:

        <H>+- = -N gamma_c^2 x^2 [2 - (1 - x^-4) (1 -+ F) / (1 +- F)]
              = -N gamma_c^2 x^2 [2 - r (1 - sF)],

    regular through x = 1 in both parities (see _projection_factors).
    """
    _, _, complement, r = _projection_factors(params, parity)
    return -params.n_atoms * params.gamma_c ** 2 * params.x ** 2 * (2.0 - r * complement)


def coherent_sas_overlap(params: ModelParams, parity: str) -> float:
    """Squared overlap (1 +- F)/2 between the unprojected and projected states."""
    s, f, _, _ = _projection_factors(params, parity)
    return 0.5 * (1.0 + s * f)


@dataclass(frozen=True)
class NormalOddState:
    """Minimizing single-excitation state in the normal phase.

    The trial family is cos(W)|0> x |n_e=1>  -  sgn(gamma) sin(W)|1> x |n_e=0>
    with energy E(W) = -j omega_a + omega_a cos^2 W + sin^2 W - |gamma| sin 2W,
    minimized at tan(2 W) = 2|gamma| / (1 - omega_a).
    """

    mixing_angle: float | None
    coefficients: tuple[float, float] | None  # (on |0,n_e=1>, on |1,n_e=0>)
    energy: float
    degenerate: bool


def normal_odd_state(params: ModelParams) -> NormalOddState:
    """Variational odd-parity state below the separatrix."""
    if abs(params.gamma) >= params.gamma_c:
        raise ValueError("normal-phase state defined for |gamma| < gamma_c")
    omega = params.omega_a
    j = params.j
    if params.gamma == 0.0:
        # no coupling: the two lambda=1 basis states do not mix
        energy = -j * omega + min(omega, 1.0)
        return NormalOddState(None, None, energy, degenerate=True)
    g = abs(params.gamma)
    two_w = math.atan2(g, 0.5 * (1.0 - omega))  # sin(2W) > 0 branch minimizes
    w = 0.5 * two_w
    radius = math.hypot(0.5 * (1.0 - omega), g)
    energy = -j * omega + 0.5 * (omega + 1.0) - radius
    sign = 1.0 if params.gamma > 0 else -1.0
    return NormalOddState(w, (math.cos(w), -sign * math.sin(w)), energy, degenerate=False)


def normal_odd_energy(params: ModelParams, mixing_angle: float) -> float:
    """E(W) of the single-excitation family (used for gradient checks)."""
    omega = params.omega_a
    return (-params.j * omega + omega * math.cos(mixing_angle) ** 2
            + math.sin(mixing_angle) ** 2
            - abs(params.gamma) * math.sin(2.0 * mixing_angle))


# -- numeric differentiation -------------------------------------------------

def numeric_gradient(func, coords: np.ndarray) -> np.ndarray:
    """Central-difference gradient of func(array4) -> float, step GRAD_STEP."""
    h = GRAD_STEP
    coords = np.asarray(coords, dtype=float)
    grad = np.zeros_like(coords)
    for i in range(coords.size):
        up = coords.copy()
        dn = coords.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (func(up) - func(dn)) / (2.0 * h)
    return grad


def _surface_func(params: ModelParams, surface: str):
    if surface == "coherent":
        return lambda v: energy_surface(params, PhaseSpacePoint(*v))
    if surface in ("sas-even", "sas-odd"):
        parity = surface.split("-")[1]
        return lambda v: sas_energy_surface(params, PhaseSpacePoint(*v), parity)
    raise ValueError(f"unknown surface {surface!r}")


def surface_gradient(params: ModelParams, parity: str, point: PhaseSpacePoint) -> np.ndarray:
    """Numeric gradient of the projected surface over (q, p, theta, phi)."""
    func = _surface_func(params, f"sas-{parity}")
    return numeric_gradient(func, point.as_array())


@dataclass(frozen=True)
class CriticalClassification:
    eigenvalues: np.ndarray
    label: str  # "minimum" | "maximum" | "saddle" | "degenerate"


def classify_critical(params: ModelParams, point: PhaseSpacePoint,
                      surface: str = "coherent") -> CriticalClassification:
    """Numeric-Hessian classification of a critical point, step HESS_STEP.

    phi is excluded at theta = 0, where it is a chart singularity (the flat
    phi direction there is a coordinate artifact, not a degeneracy).
    """
    h = HESS_STEP
    func = _surface_func(params, surface)
    base = point.as_array()
    active = [0, 1, 2] if abs(point.theta) < 1e-9 else [0, 1, 2, 3]
    m = len(active)
    hess = np.zeros((m, m))
    f0 = func(base)
    for a in range(m):
        ia = active[a]
        up = base.copy(); up[ia] += h
        dn = base.copy(); dn[ia] -= h
        hess[a, a] = (func(up) - 2.0 * f0 + func(dn)) / h ** 2
        for b in range(a + 1, m):
            ib = active[b]
            pp = base.copy(); pp[[ia, ib]] += h
            pm = base.copy(); pm[ia] += h; pm[ib] -= h
            mp = base.copy(); mp[ia] -= h; mp[ib] += h
            mm = base.copy(); mm[[ia, ib]] -= h
            hess[a, b] = hess[b, a] = (func(pp) - func(pm) - func(mp) + func(mm)) / (4.0 * h ** 2)
    eigs = np.linalg.eigvalsh(hess)
    if np.min(np.abs(eigs)) < DEGENERATE_EIGENVALUE:
        label = "degenerate"
    elif np.all(eigs > 0):
        label = "minimum"
    elif np.all(eigs < 0):
        label = "maximum"
    else:
        label = "saddle"
    return CriticalClassification(eigs, label)
