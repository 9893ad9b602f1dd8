"""Expectation values and fluctuations evaluated directly from state vectors.

States live on a rectangular (nu, n_e) grid; sector eigenvectors are embedded
into that grid (with two extra photon rows so ladder applications never
truncate).  Odd operators (q, p, Jx, Jy) flip parity, so their means vanish
identically on a fixed-parity state -- they are computed anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import SectorBasis, _spin_minus_amp, _spin_plus_amp


@dataclass(frozen=True)
class ObservableSet:
    """Named expectation values, squared fluctuations and correlations."""

    q: float
    p: float
    jx: float
    jy: float
    jz: float
    n_photons: float
    lam: float
    var_q: float
    var_p: float
    var_jx: float
    var_jy: float
    var_jz: float
    var_n_photons: float
    var_lam: float
    jz_n_photons: float
    jx_q: float

    @staticmethod
    def names() -> list[str]:
        return [f.name for f in fields(ObservableSet)]


# -- ladder applications on a (nu, n_e) coefficient grid ---------------------

def apply_a(g: np.ndarray) -> np.ndarray:
    out = np.zeros_like(g)
    out[:-1] = np.sqrt(np.arange(1.0, g.shape[0]))[:, None] * g[1:]
    return out


def apply_adag(g: np.ndarray) -> np.ndarray:
    out = np.zeros_like(g)
    out[1:] = np.sqrt(np.arange(1.0, g.shape[0]))[:, None] * g[:-1]
    return out


def apply_jplus(g: np.ndarray, n_atoms: int) -> np.ndarray:
    out = np.zeros_like(g)
    ne = np.arange(n_atoms, dtype=float)[None, :]
    out[:, 1:] = _spin_plus_amp(ne, n_atoms) * g[:, :-1]
    return out


def apply_jminus(g: np.ndarray, n_atoms: int) -> np.ndarray:
    out = np.zeros_like(g)
    ne = np.arange(1.0, n_atoms + 1)[None, :]
    out[:, :-1] = _spin_minus_amp(ne, n_atoms) * g[:, 1:]
    return out


def grid_observables(g: np.ndarray, n_atoms: int) -> ObservableSet:
    """All ObservableSet entries for a real coefficient grid g[nu, n_e]."""
    j = n_atoms / 2.0
    nu = np.arange(g.shape[0], dtype=float)[:, None]
    ne = np.arange(n_atoms + 1, dtype=float)[None, :]
    w = g * g
    a_g = apply_a(g)
    ad_g = apply_adag(g)
    jp_g = apply_jplus(g, n_atoms)
    jm_g = apply_jminus(g, n_atoms)
    q_g = (a_g + ad_g) / math.sqrt(2.0)
    w_p = (ad_g - a_g) / math.sqrt(2.0)     # p|g> = i * w_p for real g
    jx_g = (jp_g + jm_g) / 2.0
    w_jy = (jp_g - jm_g) / 2.0              # Jy|g> = i * w_jy / ... (modulus only)

    q_mean = float(np.sum(g * q_g))
    jx_mean = float(np.sum(g * jx_g))
    # <p> = i<g|w_p>; hermiticity forces it to vanish for real states, the
    # reported number is the numerical residual of that identity.
    p_mean = float(np.sum(g * w_p))
    jy_mean = float(np.sum(g * w_jy))
    jz_mean = float(np.sum(w * (ne - j)))
    n_mean = float(np.sum(w * nu))
    lam_mean = float(np.sum(w * (nu + ne)))
    return ObservableSet(
        q=q_mean,
        p=p_mean,
        jx=jx_mean,
        jy=jy_mean,
        jz=jz_mean,
        n_photons=n_mean,
        lam=lam_mean,
        var_q=float(np.sum(q_g * q_g)) - q_mean ** 2,
        var_p=float(np.sum(w_p * w_p)) - p_mean ** 2,
        var_jx=float(np.sum(jx_g * jx_g)) - jx_mean ** 2,
        var_jy=float(np.sum(w_jy * w_jy)) - jy_mean ** 2,
        var_jz=float(np.sum(w * (ne - j) ** 2)) - jz_mean ** 2,
        var_n_photons=float(np.sum(w * nu ** 2)) - n_mean ** 2,
        var_lam=float(np.sum(w * (nu + ne) ** 2)) - lam_mean ** 2,
        jz_n_photons=float(np.sum(w * (ne - j) * nu)),
        jx_q=float(np.sum(jx_g * q_g)),
    )


def embed_grid(vector: np.ndarray, basis: SectorBasis, pad: int = 2) -> np.ndarray:
    """Scatter a sector vector onto the rectangular (nu, n_e) grid."""
    g = np.zeros((basis.lambda_max + 1 + pad, basis.params.n_atoms + 1))
    g[basis.nu, basis.ne] = vector
    return g


def _check_unit_norm(vector: np.ndarray, tol: float = 1e-10) -> None:
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {tol}")


def eigen_observables(vector: np.ndarray, basis: SectorBasis) -> ObservableSet:
    """ObservableSet of a unit-norm eigenvector given in SectorBasis ordering."""
    _check_unit_norm(vector)
    return grid_observables(embed_grid(vector, basis), basis.params.n_atoms)


def joint_distribution_exact(vector: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """P(nu, n_e) = |coefficient|^2 on the (lambda_max+1, N+1) grid."""
    _check_unit_norm(vector)
    g = embed_grid(vector, basis, pad=0)
    return g * g
