"""Model parameters, parity-blocked bases, and sparse operator assembly.

The Hamiltonian couples N two-level atoms (collective pseudospin j = N/2)
to one bosonic mode, with all frequencies in units of the field frequency:

    H = a'a + omega_a * Jz + (gamma / sqrt(N)) * (a' + a) * (J+ + J-)

The excitation number Lambda = a'a + Jz + j is conserved modulo 2, so H is
block diagonal in the parity (-1)**Lambda.  Bases are truncated at a maximum
excitation lambda_max; couplings that would leave the window are dropped
(variational truncation), never wrapped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

PARITIES = ("even", "odd")


def gamma_critical(omega_a: float) -> float:
    """Critical field-matter coupling sqrt(omega_a)/2 separating the phases."""
    if omega_a <= 0:
        raise ValueError(f"omega_a must be positive, got {omega_a}")
    return math.sqrt(omega_a) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set: atomic frequency, coupling, atom count.

    Derived quantities: j = N/2 (half-integer allowed), the critical
    coupling gamma_c = sqrt(omega_a)/2 and the ratio x = gamma/gamma_c.
    |x| > 1 is the superradiant phase, |x| < 1 the normal phase.
    """

    omega_a: float
    gamma: float
    n_atoms: int

    def __post_init__(self):
        if self.omega_a <= 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")

    @property
    def j(self) -> float:
        return self.n_atoms / 2.0

    @property
    def gamma_c(self) -> float:
        return gamma_critical(self.omega_a)

    @property
    def x(self) -> float:
        """Signed coupling ratio gamma/gamma_c."""
        return self.gamma / self.gamma_c

    @property
    def superradiant(self) -> bool:
        return abs(self.x) > 1.0

    def with_gamma(self, gamma: float) -> "ModelParams":
        return ModelParams(self.omega_a, gamma, self.n_atoms)

    @classmethod
    def from_ratio(cls, omega_a: float, x: float, n_atoms: int) -> "ModelParams":
        """Build parameters from the coupling ratio x = gamma/gamma_c."""
        return cls(omega_a, x * gamma_critical(omega_a), n_atoms)


class SectorBasis:
    """Ordered basis of a parity sector (or of the full truncated space).

    States are ordered by ascending lambda = nu + n_e, then ascending nu,
    which makes eigenvectors reproducible across runs.  ``parity`` is
    "even", "odd", or None for the unprojected basis.
    """

    def __init__(self, params: ModelParams, lambda_max: int, parity: str | None,
                 nu: np.ndarray, ne: np.ndarray):
        self.params = params
        self.lambda_max = int(lambda_max)
        self.parity = parity
        self.nu = nu
        self.ne = ne
        self.lam = nu + ne
        pos = np.full((lambda_max + 1, params.n_atoms + 1), -1, dtype=np.int64)
        pos[nu, ne] = np.arange(nu.size)
        self._pos = pos

    @property
    def size(self) -> int:
        return self.nu.size

    def index_of(self, nu: int, n_e: int) -> int:
        """Position of (nu, n_e) in the ordering, or -1 if absent."""
        if not (0 <= nu <= self.lambda_max and 0 <= n_e <= self.params.n_atoms):
            return -1
        return int(self._pos[nu, n_e])

    def lookup(self, nu: np.ndarray, ne: np.ndarray) -> np.ndarray:
        """Vectorized index_of; -1 marks states outside the basis."""
        nu = np.asarray(nu)
        ne = np.asarray(ne)
        out = np.full(nu.shape, -1, dtype=np.int64)
        ok = (nu >= 0) & (ne >= 0) & (ne <= self.params.n_atoms) \
            & (nu + ne <= self.lambda_max)
        out[ok] = self._pos[nu[ok], ne[ok]]
        return out


def build_sector_basis(params: ModelParams, lambda_max: int,
                       parity: str | None = None) -> SectorBasis:
    """Enumerate the (parity-filtered) basis with lambda <= lambda_max."""
    if lambda_max < 0:
        raise ValueError(f"lambda_max must be >= 0, got {lambda_max}")
    if parity not in (None, "even", "odd"):
        raise ValueError(f"parity must be 'even', 'odd' or None, got {parity!r}")
    # lambda shells of the parity, each holding nu = max(0, lam - N) .. lam
    lams = np.arange(1 if parity == "odd" else 0, lambda_max + 1, 1 if parity is None else 2)
    counts = np.minimum(lams, params.n_atoms) + 1
    lam = np.repeat(lams, counts)
    first = np.cumsum(counts) - counts
    nu = np.arange(lam.size) - np.repeat(first - np.maximum(lams - params.n_atoms, 0), counts)
    ne = lam - nu
    return SectorBasis(params, lambda_max, parity, nu, ne)


def sector_dimension(n_atoms: int, lambda_max: int, parity: str | None = None) -> int:
    """Closed-form dimension of the truncated basis (integer j only).

    For the unprojected basis:
        d = (lambda_max+1)(lambda_max+2)/2          for lambda_max <= 2j
        d = (2j+1)(lambda_max - j + 1)              for lambda_max >= 2j
    For the parity sectors, with s+ = floor(lambda_max/2) and
    s- = floor((lambda_max+1)/2):
        lambda_max >= 2j:  d+ = (j+1)^2 + (2j+1)(s+ - j)
                           d- = j(j+1) + (2j+1)(s- - j)
        lambda_max <  2j:  d+ = (s+ + 1)^2,  d- = s-(s- + 1)
    """
    if lambda_max < 0:
        raise ValueError(f"lambda_max must be >= 0, got {lambda_max}")
    if parity is None:
        if lambda_max <= n_atoms:
            return (lambda_max + 1) * (lambda_max + 2) // 2
        j2 = n_atoms  # 2j
        return (j2 + 1) * (lambda_max - j2 // 2 + 1) if n_atoms % 2 == 0 else _dim_full_halfint(n_atoms, lambda_max)
    if n_atoms % 2 != 0:
        raise ValueError("closed-form sector dimensions are available for integer j only")
    j = n_atoms // 2
    s_plus = lambda_max // 2
    s_minus = (lambda_max + 1) // 2
    if lambda_max >= 2 * j:
        if parity == "even":
            return (j + 1) ** 2 + (2 * j + 1) * (s_plus - j)
        return j * (j + 1) + (2 * j + 1) * (s_minus - j)
    if parity == "even":
        return (s_plus + 1) ** 2
    return s_minus * (s_minus + 1)


def _dim_full_halfint(n_atoms: int, lambda_max: int) -> int:
    # (2j+1)(lambda_max - j + 1) is not integer arithmetic for half-integer j;
    # 2*(expression) always is.
    return (n_atoms + 1) * (2 * lambda_max - n_atoms + 2) // 2


@dataclass(frozen=True)
class OperatorMatrix:
    """A real symmetric operator stored sparsely on a SectorBasis."""

    matrix: sp.csr_matrix
    basis: SectorBasis

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _spin_plus_amp(ne: np.ndarray, n_atoms: int) -> np.ndarray:
    """<n_e+1| J+ |n_e> = sqrt((N - n_e)(n_e + 1)) with m = n_e - j."""
    return np.sqrt((n_atoms - ne) * (ne + 1.0))


def _spin_minus_amp(ne: np.ndarray, n_atoms: int) -> np.ndarray:
    """<n_e-1| J- |n_e> = sqrt(n_e (N - n_e + 1))."""
    return np.sqrt(ne * (n_atoms - ne + 1.0))


def build_hamiltonian(params: ModelParams, basis: SectorBasis) -> OperatorMatrix:
    """Assemble H on the given basis as a canonical CSR matrix; exact symmetry
    by construction.

    Diagonal: nu + omega_a (n_e - j), stored in every row.  Off-diagonal: the
    four ladder combinations of (a'+a)(J+ + J-), each scaled by gamma/sqrt(N).
    Every coupling changes lambda by 0 or +-2, so parity is preserved exactly.
    In the (lambda, nu) ordering the row of (nu, n_e) is a five-point stencil
    whose columns (nu-1, n_e-1), (nu-1, n_e+1), (nu, n_e), (nu+1, n_e-1),
    (nu+1, n_e+1) ascend, so dropping the absent neighbours leaves sorted rows.
    """
    if basis.params != params:
        raise ValueError("basis was built for different model parameters")
    n = basis.size
    nu, ne = basis.nu, basis.ne
    diag = nu + params.omega_a * (ne - params.j)
    idx = np.arange(n)
    cols = [idx]
    vals = [diag]
    if params.gamma != 0.0:
        g = params.gamma / math.sqrt(params.n_atoms)
        field_up = np.sqrt(nu + 1.0)
        # a' J+ and a' J- from each state; the lower neighbours' entries are
        # the transposes, read from the state that raises into this one
        plus = g * field_up * _spin_plus_amp(ne, params.n_atoms)
        minus = g * field_up * _spin_minus_amp(ne, params.n_atoms)
        down_plus = basis.lookup(nu - 1, ne - 1)
        down_minus = basis.lookup(nu - 1, ne + 1)
        cols = [down_plus, down_minus, idx, basis.lookup(nu + 1, ne - 1),
                basis.lookup(nu + 1, ne + 1)]
        vals = [plus[down_plus], minus[down_minus], diag, minus, plus]
    # int32 indices, as SciPy stores them: it keeps these arrays uncopied
    cols = np.stack(cols, axis=1, dtype=np.int32)
    present = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    H = sp.csr_matrix((np.stack(vals, axis=1)[present], cols[present], indptr), shape=(n, n))
    return OperatorMatrix(H, basis)
