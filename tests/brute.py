"""Independent brute-force oracles used by the test suite.

Everything here is written from scratch with plain Python loops and dense
matrices so it shares no code path with the package implementation.
"""
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln


def enumerate_states(n_atoms, lambda_max, parity=None):
    """All (nu, n_e) with nu+n_e <= lambda_max, 0 <= n_e <= N, parity filter."""
    out = []
    for nu, ne in itertools.product(range(lambda_max + 1), range(n_atoms + 1)):
        lam = nu + ne
        if lam > lambda_max:
            continue
        if parity == "even" and lam % 2 != 0:
            continue
        if parity == "odd" and lam % 2 != 1:
            continue
        out.append((nu, ne))
    return out


def sector_dimension(n_atoms, lambda_max, parity=None):
    """Closed-form dimension of the whole truncated basis (integer j only).

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
        # (2j+1)(lambda_max - j + 1), in integer arithmetic for half-integer j too
        return (n_atoms + 1) * (2 * lambda_max - n_atoms + 2) // 2
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


@dataclass(frozen=True)
class BasisState:
    """One Fock x Dicke product state |nu> x |j, n_e - j>."""

    nu: int
    n_e: int

    @property
    def lam(self):
        """Excitation number nu + n_e, the eigenvalue of Lambda."""
        return self.nu + self.n_e

    @property
    def parity(self):
        return "even" if self.lam % 2 == 0 else "odd"


def basis_state(basis, i):
    """The i-th state of a package SectorBasis, read from its raw arrays."""
    return BasisState(int(basis.nu[i]), int(basis.ne[i]))


def position(basis, nu, ne):
    """basis.locate(nu, ne), or -1 where the state lies outside the window."""
    try:
        return basis.locate(nu, ne)
    except ValueError:
        return -1


def excitation_operator(basis):
    """Dense diagonal excitation-number operator on a SectorBasis."""
    dim = len(basis.nu)
    L = np.zeros((dim, dim))
    for i in range(dim):
        L[i, i] = basis_state(basis, i).lam
    return L


def parity_matrix(states):
    """Dense diagonal parity operator (-1)**lambda on a list of (nu, n_e)."""
    dim = len(states)
    P = np.zeros((dim, dim))
    for i, (nu, ne) in enumerate(states):
        P[i, i] = 1.0 if BasisState(nu, ne).parity == "even" else -1.0
    return P


def dense_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity=None):
    """Dense H from explicit loops over bra/ket pairs; returns (H, states)."""
    states = sorted(enumerate_states(n_atoms, lambda_max, parity),
                    key=lambda s: (s[0] + s[1], s[0]))
    index = {s: i for i, s in enumerate(states)}
    j = n_atoms / 2.0
    dim = len(states)
    H = np.zeros((dim, dim))
    g = gamma / math.sqrt(n_atoms)
    for (nu, ne), i in index.items():
        H[i, i] = nu + omega_a * (ne - j)
        # (a' + a)(J+ + J-), scaled by g
        for dnu, fld in ((1, math.sqrt(nu + 1)), (-1, math.sqrt(nu))):
            for dne in (1, -1):
                if dne == 1:
                    spin = math.sqrt((n_atoms - ne) * (ne + 1))
                else:
                    spin = math.sqrt(ne * (n_atoms - ne + 1))
                tgt = (nu + dnu, ne + dne)
                if tgt in index:
                    H[index[tgt], i] += g * fld * spin
    return H, states


def coo_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity=None):
    """Sparse H from (row, col, value) triplets gathered in loops, converted
    from COO to CSR by SciPy: the diagonal of every state, then each a'J+ and
    a'J- coupling with its transpose, in the states' (lambda, nu) order;
    returns (H, states)."""
    states = sorted(enumerate_states(n_atoms, lambda_max, parity),
                    key=lambda s: (s[0] + s[1], s[0]))
    index = {s: i for i, s in enumerate(states)}
    j = n_atoms / 2.0
    rows, cols, vals = [], [], []
    for (nu, ne), i in index.items():
        rows.append(i)
        cols.append(i)
        vals.append(nu + omega_a * (ne - j))
    if gamma != 0.0:
        g = gamma / math.sqrt(n_atoms)
        for dne in (1, -1):
            for (nu, ne), i in index.items():
                t = index.get((nu + 1, ne + dne))
                if t is None:
                    continue
                if dne == 1:
                    spin = math.sqrt((n_atoms - ne) * (ne + 1.0))
                else:
                    spin = math.sqrt(ne * (n_atoms - ne + 1.0))
                v = g * math.sqrt(nu + 1.0) * spin
                rows += [i, t]
                cols += [t, i]
                vals += [v, v]
    dim = len(states)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr(), states


def side_by_side(states, sectors):
    """Dense matrices on sector bases placed on the rows and columns of
    states, zero between the sectors.  ``sectors`` holds (basis, matrix)
    pairs; position(basis, ...) gives a state's row of matrix, or -1 if the
    basis lacks it.  Every state must lie in exactly one basis."""
    full = np.zeros((len(states), len(states)))
    owners = [0] * len(states)
    for basis, matrix in sectors:
        rows, cols = [], []
        for i, (nu, ne) in enumerate(states):
            k = position(basis, nu, ne)
            if k >= 0:
                rows.append(i)
                cols.append(k)
                owners[i] += 1
        if sorted(cols) != list(range(len(matrix))):
            raise ValueError("a sector holds a state outside the given states")
        full[np.ix_(rows, rows)] = matrix[np.ix_(cols, cols)]
    if owners != [1] * len(states):
        raise ValueError("every state must lie in exactly one sector")
    return full


def field_matrices(nu_max):
    """Dense a, a_dag on the Fock space truncated at nu_max."""
    a = np.zeros((nu_max + 1, nu_max + 1))
    for nu in range(1, nu_max + 1):
        a[nu - 1, nu] = math.sqrt(nu)
    return a, a.T.copy()


def spin_matrices(n_atoms):
    """Dense J+, J-, Jz on the (N+1)-dim Dicke space, basis n_e = 0..N."""
    j = n_atoms / 2.0
    jp = np.zeros((n_atoms + 1, n_atoms + 1))
    for ne in range(n_atoms):
        m = ne - j
        jp[ne + 1, ne] = math.sqrt(j * (j + 1) - m * (m + 1))
    jz = np.diag(np.arange(n_atoms + 1) - j)
    return jp, jp.T.copy(), jz


def spin_only_hamiltonian(omega_a, gamma, n_atoms):
    """Dense omega_a Jz - (4 gamma^2/N) Jx^2 on the Dicke space, from
    spin_matrices: H less b'b, b = a + (2 gamma/sqrt N) Jx."""
    jp, jm, jz = spin_matrices(n_atoms)
    jx = 0.5 * (jp + jm)
    return omega_a * jz - 4.0 * gamma ** 2 / n_atoms * (jx @ jx)


def projected_coherent_grid(omega_a, gamma, n_atoms, parity, nu_max, phi_c=0.0):
    """Normalized parity projection of |alpha> x |zeta| at the minimizing point.

    Built from raw coherent-product coefficients (log-gamma for the
    binomials), entirely independent of the closed-form state expansion.
    """
    j = n_atoms / 2.0
    gc = math.sqrt(omega_a) / 2.0
    x = abs(gamma) / gc
    theta = math.acos(x ** -2)
    q_c = -2.0 * math.sqrt(j) * abs(gamma) * math.sqrt(1 - x ** -4) * math.cos(phi_c)
    alpha = q_c / math.sqrt(2.0)
    zeta = math.cos(phi_c) * math.tan(theta / 2.0)
    nu = np.arange(nu_max + 1)
    ne = np.arange(n_atoms + 1)
    log_f = nu * math.log(abs(alpha)) - 0.5 * gammaln(nu + 1) - alpha ** 2 / 2.0
    f = np.sign(alpha) ** nu * np.exp(log_f)
    log_s = (0.5 * (gammaln(n_atoms + 1) - gammaln(ne + 1) - gammaln(n_atoms - ne + 1))
             + ne * math.log(abs(zeta)) - j * math.log1p(zeta ** 2))
    s = np.sign(zeta) ** ne * np.exp(log_s)
    A = np.outer(f, s)
    B = np.outer(f * (-1.0) ** nu, s * (-1.0) ** ne)
    P = A + (1.0 if parity == "even" else -1.0) * B
    return P / np.linalg.norm(P)


def coherent_product_grid(omega_a, gamma, n_atoms, nu_max, phi_c=0.0):
    """Unprojected |alpha> x |zeta> at the minimizing critical point."""
    even = projected_coherent_grid(omega_a, gamma, n_atoms, "even", nu_max, phi_c)
    odd = projected_coherent_grid(omega_a, gamma, n_atoms, "odd", nu_max, phi_c)
    # undo the projection: |A> = (sqrt(w+)|+> + sqrt(w-)|->)/...; easier to
    # rebuild directly from the pieces used above.
    j = n_atoms / 2.0
    gc = math.sqrt(omega_a) / 2.0
    x = abs(gamma) / gc
    theta = math.acos(x ** -2)
    q_c = -2.0 * math.sqrt(j) * abs(gamma) * math.sqrt(1 - x ** -4) * math.cos(phi_c)
    alpha = q_c / math.sqrt(2.0)
    zeta = math.cos(phi_c) * math.tan(theta / 2.0)
    nu = np.arange(nu_max + 1)
    ne = np.arange(n_atoms + 1)
    log_f = nu * math.log(abs(alpha)) - 0.5 * gammaln(nu + 1) - alpha ** 2 / 2.0
    f = np.sign(alpha) ** nu * np.exp(log_f)
    log_s = (0.5 * (gammaln(n_atoms + 1) - gammaln(ne + 1) - gammaln(n_atoms - ne + 1))
             + ne * math.log(abs(zeta)) - j * math.log1p(zeta ** 2))
    s = np.sign(zeta) ** ne * np.exp(log_s)
    del even, odd
    return np.outer(f, s)


def grid_expectations(grid, n_atoms):
    """Table observables of a real grid state via dense matrix applications."""
    nu_max = grid.shape[0] - 1
    a, ad = field_matrices(nu_max + 2)
    jp, jm, jz = spin_matrices(n_atoms)
    g = np.zeros((nu_max + 3, n_atoms + 1))
    g[: nu_max + 1] = grid
    q_g = (a @ g + ad @ g) / math.sqrt(2)
    p_w = (ad @ g - a @ g) / math.sqrt(2)
    jx_g = (g @ jp.T + g @ jm.T) / 2.0
    jy_w = (g @ jp.T - g @ jm.T) / 2.0
    nu = np.arange(nu_max + 3)[:, None].astype(float)
    nevals = np.diag(jz)[None, :]
    w = g * g
    out = {
        "q": np.sum(g * q_g),
        "p": np.sum(g * p_w),
        "jx": np.sum(g * jx_g),
        "jy": np.sum(g * jy_w),
        "jz": np.sum(w * nevals),
        "n_photons": np.sum(w * nu),
        "lam": np.sum(w * (nu + nevals + n_atoms / 2.0)),
    }
    out["var_q"] = np.sum(q_g * q_g) - out["q"] ** 2
    out["var_p"] = np.sum(p_w * p_w) - out["p"] ** 2
    out["var_jx"] = np.sum(jx_g * jx_g) - out["jx"] ** 2
    out["var_jy"] = np.sum(jy_w * jy_w) - out["jy"] ** 2
    out["var_jz"] = np.sum(w * nevals ** 2) - out["jz"] ** 2
    out["var_n_photons"] = np.sum(w * nu ** 2) - out["n_photons"] ** 2
    lamvals = nu + nevals + n_atoms / 2.0
    out["var_lam"] = np.sum(w * lamvals ** 2) - out["lam"] ** 2
    out["jz_n_photons"] = np.sum(w * nevals * nu)
    out["jx_q"] = np.sum(jx_g * q_g)
    return {k: float(v) for k, v in out.items()}


def render_csv(meta, columns, rows):
    """A table as CSV, one cell at a time: '#'-prefixed metadata, then the
    header and rows, floats at 17 significant digits and None empty."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    lines = [f"# {k} = {cell(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(meta, columns, rows):
    """A table as compact JSON {meta, columns, rows}, rows given as tuples."""
    payload = {"meta": meta, "columns": columns, "rows": rows}
    return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
