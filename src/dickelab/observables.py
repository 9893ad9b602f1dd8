"""Expectation values and fluctuations evaluated directly from state vectors.

A sector eigenvector is read on its own window (eigen_observables): the odd
operators q, p, Jx and Jy flip parity, so their means are exactly 0 on a
fixed-parity state, and every other entry comes from the weights psi^2 and
three pairs of neighbouring states, (nu, n_e+2) for <J+^2>, (nu+2, n_e) for
<a^2> and the couplings (nu+1, n_e+-1) for <Jx q>.

grid_observables applies the ladder operators to a rectangular (nu, n_e)
grid instead.  It serves the constructed projected state, and with
embed_grid it is the reference the window version is checked against.
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


def _check_state(vector: np.ndarray, basis: SectorBasis, tol: float = 1e-10) -> None:
    """ValueError unless vector is a unit-norm state of the basis."""
    if vector.shape != (basis.size,):
        raise ValueError(f"state vector of shape {vector.shape} is not one of the "
                         f"{basis.size} states of the basis")
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {tol}")


def _pair_sum(psi: np.ndarray, basis: SectorBasis, shift: tuple[int, int],
              photon_amp: np.ndarray, atom_amp: np.ndarray) -> float:
    """sum psi[src] psi[tgt] photon_amp[nu] atom_amp[n_e] over the neighbour
    pairs of a shift, with (nu, n_e) the source state: <psi|O|psi> for the
    part of an operator O that moves a state by the shift, whose matrix
    element factorizes into a photon and an atom amplitude."""
    src, tgt = basis.neighbours(*shift)
    return float((psi[src] * psi[tgt] * atom_amp[basis.ne[src]]) @ photon_amp[basis.nu[src]])


def eigen_observables(vector: np.ndarray, basis: SectorBasis) -> ObservableSet:
    """ObservableSet of a unit-norm eigenvector given in SectorBasis ordering.

    The moments of nu and Jz come from the weights psi^2 summed per photon
    number.  With <a^2> and <J+^2> from the neighbour pairs, var_q and var_p
    are <n> + 1/2 +- <a^2>, var_jx and var_jy are (j(j+1) - <Jz^2> +-
    <J+^2>)/2, and <Jx q> = <(a + a')(J+ + J-)>/(2 sqrt 2) sums the raising
    couplings a'J+ and a'J- without g.
    """
    _check_state(vector, basis)
    n_atoms, j = basis.params.n_atoms, basis.params.j
    psi = vector
    k = np.arange(basis.lambda_max + 1.0)  # photon numbers
    m = np.arange(n_atoms + 1.0)           # excited atoms
    w = psi * psi
    jz = basis.ne - j
    w_jz = w * jz
    # per photon number: the weight, and its share of <Jz>
    col, col_jz = np.bincount(basis.nu, w, k.size), np.bincount(basis.nu, w_jz, k.size)
    n_mean, jz_mean = float(col @ k), float(w_jz.sum())
    var_n = float(col @ (k * k)) - n_mean ** 2
    jz_sq = float(w_jz @ jz)
    var_jz = jz_sq - jz_mean ** 2
    jz_n = float(col_jz @ k)
    plus, root = _spin_plus_amp(m, n_atoms), np.sqrt(k + 1.0)
    a_sq = _pair_sum(psi, basis, (2, 0), root * np.sqrt(k + 2.0), np.ones(m.size))
    jplus_sq = _pair_sum(psi, basis, (0, 2), np.ones(k.size), plus[:-1] * plus[1:])
    coupling = (_pair_sum(psi, basis, (1, 1), root, plus)
                + _pair_sum(psi, basis, (1, -1), root, _spin_minus_amp(m, n_atoms)))
    transverse = 0.5 * (j * (j + 1.0) - jz_sq)
    return ObservableSet(
        q=0.0, p=0.0, jx=0.0, jy=0.0,
        jz=jz_mean,
        n_photons=n_mean,
        lam=n_mean + jz_mean + j,
        var_q=n_mean + 0.5 + a_sq,
        var_p=n_mean + 0.5 - a_sq,
        var_jx=transverse + 0.5 * jplus_sq,
        var_jy=transverse - 0.5 * jplus_sq,
        var_jz=var_jz,
        var_n_photons=var_n,
        var_lam=var_n + var_jz + 2.0 * (jz_n - n_mean * jz_mean),
        jz_n_photons=jz_n,
        jx_q=coupling / math.sqrt(2.0),
    )


def joint_distribution_exact(vector: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """P(nu, n_e) = |coefficient|^2 on the (lambda_max+1, N+1) grid."""
    _check_state(vector, basis)
    g = embed_grid(vector, basis, pad=0)
    return g * g
