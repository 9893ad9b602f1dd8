"""Model parameters, parity-blocked bases, and the Hamiltonian's stencil.

The Hamiltonian couples N two-level atoms (collective pseudospin j = N/2)
to one bosonic mode, with all frequencies in units of the field frequency:

    H = a'a + omega_a * Jz + (gamma / sqrt(N)) * (a' + a) * (J+ + J-)

The excitation number Lambda = a'a + Jz + j is conserved modulo 2, so H is
block diagonal in the parity (-1)**Lambda, and every basis is one parity
sector.  Bases are truncated at a maximum excitation lambda_max and,
optionally, to a box nu >= nu_lo, ne_lo <= n_e <= ne_hi; couplings that
would leave the window are dropped (variational truncation), never wrapped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Ordered basis of a parity sector in the window lambda <= lambda_max,
    nu >= nu_lo, ne_lo <= n_e <= ne_hi.

    States are ordered nu-major, by ascending nu and then ascending n_e,
    which makes eigenvectors reproducible across runs and H banded, since H
    couples each nu column only to its two neighbours.  Column nu starts at
    ``offsets[nu]`` (the columns below nu_lo are empty) and holds
    n_e = first, first + 2, ... up to min(ne_hi, lambda_max - nu), where the
    parity and that of nu fix the first n_e at or above ne_lo.  The default
    window, nu_lo = ne_lo = 0 and ne_hi = N, is the whole truncated sector.
    ``parity`` is "even" or "odd".
    """

    def __init__(self, params: ModelParams, lambda_max: int, parity: str,
                 nu_lo: int = 0, ne_lo: int = 0, ne_hi: int | None = None):
        if parity not in PARITIES:
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        self.params = params
        self.lambda_max = int(lambda_max)
        self.parity = parity
        self.nu_lo, self.ne_lo = int(nu_lo), int(ne_lo)
        self.ne_hi = params.n_atoms if ne_hi is None else int(ne_hi)
        nus = np.arange(lambda_max + 1)
        first = ne_lo + (nus + ne_lo + (parity == "odd")) % 2
        counts = np.maximum((np.minimum(self.ne_hi, lambda_max - nus) - first) // 2 + 1, 0)
        counts[:nu_lo] = 0
        self.offsets = np.zeros(lambda_max + 2, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.nu = np.repeat(nus, counts)
        self.ne = (np.repeat(first - 2 * self.offsets[:-1], counts)
                   + 2 * np.arange(self.offsets[-1]))
        self.lam = self.nu + self.ne
        self._neighbours: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return self.nu.size

    def neighbours(self, dnu: int, dne: int) -> tuple[np.ndarray, np.ndarray]:
        """(src, tgt): every state src whose shift (nu + dnu, n_e + dne) lies
        in the window, and that state's position tgt, src ascending.  The
        shift must keep the parity and not lower nu (dnu >= 0, dnu + dne
        even); the pairs of each shift are computed once per basis."""
        if dnu < 0 or (dnu + dne) % 2:
            raise ValueError(f"shift ({dnu}, {dne}) must keep the parity with dnu >= 0")
        if (dnu, dne) not in self._neighbours:
            src = np.flatnonzero((self.ne >= self.ne_lo - dne) & (self.ne <= self.ne_hi - dne)
                                 & (self.lam <= self.lambda_max - dnu - dne))
            tgt = self.offsets[self.nu[src] + dnu] + (self.ne[src] + dne - self.ne_lo) // 2
            self._neighbours[dnu, dne] = src, tgt
        return self._neighbours[dnu, dne]

    def locate(self, nu: int, n_e: int) -> int:
        """Position of (nu, n_e) in the ordering; ValueError naming the state
        if it lies outside the window."""
        if not (nu >= self.nu_lo and self.ne_lo <= n_e <= self.ne_hi
                and nu + n_e <= self.lambda_max
                and (nu + n_e - (self.parity == "odd")) % 2 == 0):
            raise ValueError(f"state (nu={nu}, n_e={n_e}) lies outside the {self.parity} "
                             f"window of {self.size} states")
        return int(self.offsets[nu]) + (n_e - self.ne_lo) // 2


def build_sector_basis(params: ModelParams, lambda_max: int, parity: str,
                       nu_lo: int = 0, ne_lo: int = 0, ne_hi: int | None = None) -> SectorBasis:
    """Enumerate the even or odd sector in the window lambda <= lambda_max,
    nu >= nu_lo, ne_lo <= n_e <= ne_hi (ne_hi = N when None)."""
    if lambda_max < 0:
        raise ValueError(f"lambda_max must be >= 0, got {lambda_max}")
    hi = params.n_atoms if ne_hi is None else ne_hi
    if not (nu_lo >= 0 and 0 <= ne_lo <= hi <= params.n_atoms):
        raise ValueError(f"window edges need nu_lo >= 0 and 0 <= ne_lo <= ne_hi <= N, got "
                         f"nu_lo={nu_lo}, ne_lo={ne_lo}, ne_hi={hi}")
    return SectorBasis(params, lambda_max, parity, nu_lo, ne_lo, hi)


class Stencil:
    """A real symmetric H as its diagonal and its raising couplings,
    H[tgt, src] = H[src, tgt] = val with every tgt > src.  ``shape`` and
    ``dtype`` are all ARPACK's shift-invert reads of H; ``nnz`` counts each
    coupling twice, as a sparse matrix stores it."""

    def __init__(self, diag: np.ndarray, src: np.ndarray, tgt: np.ndarray, val: np.ndarray):
        self.diag, self.src, self.tgt, self.val = diag, src, tgt, val
        self.shape = (diag.size, diag.size)
        self.dtype = diag.dtype
        self.nnz = diag.size + 2 * val.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector, column by column for a block."""
        if x.ndim == 2:
            return np.stack([self @ col for col in x.T], axis=1)
        n = self.diag.size
        return (self.diag * x + np.bincount(self.tgt, self.val * x[self.src], n)
                + np.bincount(self.src, self.val * x[self.tgt], n))

    def radii(self) -> np.ndarray:
        """Absolute off-diagonal row sums (the Gershgorin radii), the part
        left of the diagonal plus the part right of it."""
        mag, n = np.abs(self.val), self.diag.size
        return np.bincount(self.tgt, mag, n) + np.bincount(self.src, mag, n)

    def toarray(self) -> np.ndarray:
        dense = np.diag(self.diag)
        dense[self.tgt, self.src] = self.val
        dense[self.src, self.tgt] = self.val
        return dense


@dataclass(frozen=True)
class OperatorMatrix:
    """A real symmetric operator stored as its Stencil on a SectorBasis."""

    matrix: Stencil
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
    """Assemble H on the given basis as its Stencil; exact symmetry by
    construction.

    Diagonal: nu + omega_a (n_e - j).  Off-diagonal: (a'+a)(J+ + J-) scaled by
    g = gamma/sqrt(N), stored once as the raising couplings a'J+ and a'J-,
    which carry (nu, n_e) to (nu+1, n_e+-1) in the next nu column (the
    basis' neighbours); in nu-major order every target follows its source.
    Couplings that leave the window are dropped.  Every coupling changes
    lambda by 0 or +2, so parity is preserved exactly.  With g = 0 there are
    no couplings; otherwise none is zero, since every amplitude is at least
    |g|.
    """
    if basis.params != params:
        raise ValueError("basis was built for different model parameters")
    n_atoms = params.n_atoms
    diag = basis.nu + params.omega_a * (basis.ne - params.j)
    g = params.gamma / math.sqrt(n_atoms)
    if g == 0.0:
        none = np.zeros(0, dtype=np.int64)
        return OperatorMatrix(Stencil(diag, none, none, np.zeros(0)), basis)
    (plus, plus_tgt), (minus, minus_tgt) = basis.neighbours(1, 1), basis.neighbours(1, -1)
    src = np.concatenate((plus, minus))
    val = g * np.sqrt(basis.nu[src] + 1.0) * np.concatenate(
        (_spin_plus_amp(basis.ne[plus], n_atoms), _spin_minus_amp(basis.ne[minus], n_atoms)))
    return OperatorMatrix(Stencil(diag, src, np.concatenate((plus_tgt, minus_tgt)), val), basis)
