import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from dickelab import model, solver
from dickelab.model import (
    PARITIES,
    ModelParams,
    build_hamiltonian,
    build_sector_basis,
    gamma_critical,
)


def _states(basis):
    return {(int(nu), int(ne)) for nu, ne in zip(basis.nu, basis.ne)}


def _sectors_in_brute_order(p, lambda_max):
    """The even and odd sector Hamiltonians side by side on the rows and
    columns of brute's states, with zeros between the sectors; brute's
    loop-built H on the whole truncated space; and brute's states."""
    Hb, states = brute.dense_hamiltonian(p.omega_a, p.gamma, p.n_atoms, lambda_max, None)
    sectors = [(basis, build_hamiltonian(p, basis).toarray())
               for basis in (build_sector_basis(p, lambda_max, parity) for parity in PARITIES)]
    return brute.side_by_side(states, sectors), Hb, states


def _stencil_of_both_sectors(p, lambda_max):
    """The even and odd sector stencils as one, the odd states after the even
    ones, and the position of each state (nu, n_e) in it."""
    even, odd = (build_sector_basis(p, lambda_max, parity) for parity in PARITIES)
    He, Ho = (build_hamiltonian(p, basis).matrix for basis in (even, odd))
    n = even.size
    H = model.Stencil(np.concatenate((He.diag, Ho.diag)), np.concatenate((He.src, Ho.src + n)),
                      np.concatenate((He.tgt, Ho.tgt + n)), np.concatenate((He.val, Ho.val)))

    def locate(nu, ne):
        return even.locate(nu, ne) if (nu + ne) % 2 == 0 else n + odd.locate(nu, ne)

    return H, locate


class TestGammaCritical:
    def test_resonance(self):
        assert gamma_critical(1.0) == 0.5

    def test_perfect_square(self):
        assert gamma_critical(4.0) == 1.0

    def test_quarter(self):
        # sqrt(0.25)/2 = 0.25; cross-check by squaring
        gc = gamma_critical(0.25)
        assert gc == 0.25
        assert 4 * gc**2 == 0.25

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            gamma_critical(bad)


class TestModelParams:
    def test_derived(self):
        p = ModelParams(omega_a=1.0, gamma=1.0, n_atoms=10)
        assert p.j == 5.0
        assert p.gamma_c == 0.5
        assert p.x == 2.0
        assert p.superradiant

    def test_gamma_c_identity(self):
        for omega in (0.1, 0.7, 1.0, 3.5):
            p = ModelParams(omega, 0.2, 4)
            assert p.gamma_c**2 == pytest.approx(omega / 4.0, rel=1e-15)

    def test_half_integer_j(self):
        assert ModelParams(1.0, 0.3, 5).j == 2.5

    def test_negative_gamma_accepted(self):
        p = ModelParams(1.0, -0.8, 6)
        assert p.x == -1.6
        assert p.superradiant

    def test_invalid(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 0)

    def test_from_ratio(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        assert p.gamma == pytest.approx(1.0)


class TestSectorBasis:
    def test_n2_counts(self):
        p = ModelParams(1.0, 0.5, 2)
        even = build_sector_basis(p, 4, "even")
        odd = build_sector_basis(p, 4, "odd")
        assert even.size == 7
        assert odd.size == 5
        assert even.size + odd.size == len(brute.enumerate_states(2, 4, None)) == 12

    def test_matches_brute_enumeration(self):
        for n_atoms in (1, 2, 3, 7, 10):
            p = ModelParams(1.0, 0.5, n_atoms)
            for lam_max in (0, 1, 3, 8, 25):
                even, odd = (_states(build_sector_basis(p, lam_max, parity))
                             for parity in PARITIES)
                assert even == set(brute.enumerate_states(n_atoms, lam_max, "even"))
                assert odd == set(brute.enumerate_states(n_atoms, lam_max, "odd"))
                # the sectors split the whole truncated space
                assert even.isdisjoint(odd)
                assert even | odd == set(brute.enumerate_states(n_atoms, lam_max, None))

    def test_ordering_nu_then_n_e(self):
        p = ModelParams(1.0, 0.5, 4)
        for parity in ("odd", "even"):
            basis = build_sector_basis(p, 9, parity)
            keys = list(zip(basis.nu.tolist(), basis.ne.tolist()))
            assert keys == sorted(keys)
            # column nu starts at offsets[nu]; the last offset is the size
            assert np.array_equal(basis.offsets, np.searchsorted(basis.nu, np.arange(11)))

    def test_index_map(self):
        p = ModelParams(1.0, 0.5, 3)
        basis = build_sector_basis(p, 6, "even")
        for i in range(basis.size):
            s = brute.basis_state(basis, i)
            assert basis.locate(s.nu, s.n_e) == i
        for nu, ne in ((0, 1), (50, 0)):  # wrong parity, outside the window
            with pytest.raises(ValueError):
                basis.locate(nu, ne)

    def test_locate_names_a_state_outside_the_window(self):
        p = ModelParams(1.0, 0.5, 3)
        basis = build_sector_basis(p, 6, "even", nu_lo=1)
        assert basis.locate(2, 0) == 2  # after (1, 1) and (1, 3)
        for nu, ne in ((0, 0), (0, 1), (50, 0)):
            with pytest.raises(ValueError, match=rf"\(nu={nu}, n_e={ne}\)"):
                basis.locate(nu, ne)

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(1, 12), lambda_max=st.integers(0, 20),
           parity=st.sampled_from(PARITIES),
           box=st.tuples(st.integers(0, 8), st.integers(0, 12), st.integers(0, 12)),
           shift=st.sampled_from([(0, 2), (2, 0), (1, 1), (1, -1), (3, -1), (0, -2)]))
    def test_neighbours_are_the_shifted_states_in_the_window(self, n_atoms, lambda_max,
                                                            parity, box, shift):
        p = ModelParams(1.0, 0.5, n_atoms)
        nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
        basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        src, tgt = basis.neighbours(*shift)
        want = [(i, brute.position(basis, nu + shift[0], ne + shift[1]))
                for i, (nu, ne) in enumerate(zip(basis.nu, basis.ne))]
        want = [(i, j) for i, j in want if j >= 0]
        assert list(zip(src.tolist(), tgt.tolist())) == want
        assert basis.neighbours(*shift)[0] is src  # computed once per basis

    @pytest.mark.parametrize("shift", [(-1, 1), (1, 0), (0, 1)])
    def test_neighbours_keep_the_parity_and_raise_nu(self, shift):
        basis = build_sector_basis(ModelParams(1.0, 0.5, 4), 8, "even")
        with pytest.raises(ValueError, match="must keep the parity"):
            basis.neighbours(*shift)

    def test_every_basis_is_a_parity_sector(self):
        p = ModelParams(1.0, 0.5, 4)
        for parity in (None, "both"):
            with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
                build_sector_basis(p, 10, parity)
            with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
                model.SectorBasis(p, 10, parity)

    def test_invariants(self):
        p = ModelParams(1.0, 0.5, 6)
        basis = build_sector_basis(p, 11, "odd")
        assert np.all(basis.ne >= 0) and np.all(basis.ne <= 6)
        assert np.all(basis.nu >= 0)
        assert np.all(basis.lam <= 11)
        assert np.all(basis.lam % 2 == 1)

    def test_negative_lambda_max_rejected(self):
        with pytest.raises(ValueError):
            build_sector_basis(ModelParams(1.0, 0.5, 2), -1, "even")

    def test_basis_state(self):
        s = brute.BasisState(2, 3)
        assert s.lam == 5
        assert s.parity == "odd"


class TestSectorDimensions:
    @settings(max_examples=60, deadline=None)
    @given(j=st.integers(1, 10), lam_max=st.integers(0, 60))
    def test_closed_forms_match_enumeration(self, j, lam_max):
        n_atoms = 2 * j
        p = ModelParams(1.0, 0.5, n_atoms)
        d_even = build_sector_basis(p, lam_max, "even").size
        d_odd = build_sector_basis(p, lam_max, "odd").size
        d_all = len(brute.enumerate_states(n_atoms, lam_max, None))
        assert d_even == brute.sector_dimension(n_atoms, lam_max, "even")
        assert d_odd == brute.sector_dimension(n_atoms, lam_max, "odd")
        assert d_all == brute.sector_dimension(n_atoms, lam_max, None)
        assert d_even + d_odd == d_all

    def test_half_integer_closed_form_rejected(self):
        with pytest.raises(ValueError):
            brute.sector_dimension(5, 12, "even")
        # the unprojected count still works for half-integer j
        p = ModelParams(1.0, 0.5, 5)
        assert brute.sector_dimension(5, 12, None) == len(brute.enumerate_states(5, 12, None))
        assert brute.sector_dimension(5, 12, None) == sum(
            build_sector_basis(p, 12, parity).size for parity in PARITIES)


class TestHamiltonian:
    def test_vacuum_diagonal(self):
        p = ModelParams(omega_a=0.7, gamma=0.9, n_atoms=8)
        basis = build_sector_basis(p, 20, "even")
        H = build_hamiltonian(p, basis).toarray()
        i = basis.locate(0, 0)
        assert H[i, i] == pytest.approx(-p.j * p.omega_a, rel=1e-15)

    @pytest.mark.parametrize("n_atoms", [2, 5, 17])
    def test_single_excitation_coupling_is_gamma(self, n_atoms):
        p = ModelParams(1.0, 0.37, n_atoms)
        basis = build_sector_basis(p, 7, "odd")
        H = build_hamiltonian(p, basis).toarray()
        a = basis.locate(1, 0)
        b = basis.locate(0, 1)
        assert H[a, b] == pytest.approx(p.gamma, rel=1e-14)

    def test_matches_brute_dense(self):
        for parity in PARITIES:
            p = ModelParams(omega_a=0.8, gamma=0.45, n_atoms=3)
            basis = build_sector_basis(p, 6, parity)
            H = build_hamiltonian(p, basis).toarray()
            Hb, states = brute.dense_hamiltonian(0.8, 0.45, 3, 6, parity)
            # brute keeps its own (lambda, nu) order; pos maps it onto ours
            pos = [basis.locate(nu, ne) for nu, ne in states]
            assert sorted(pos) == list(range(basis.size))
            assert np.max(np.abs(H[np.ix_(pos, pos)] - Hb)) < 1e-14

    # parity sectors and (None) the full space as the two sector stencils side
    # by side; no, negative and positive coupling; integer and half-integer j;
    # lambda_max below and above N
    @pytest.mark.parametrize("parity", [None, "even", "odd"])
    @pytest.mark.parametrize("gamma", [0.0, -0.7, 1.3])
    @pytest.mark.parametrize("n_atoms,lam_max", [(8, 5), (8, 21), (7, 4), (7, 18)])
    def test_canonical_stencil_matches_coo_reference(self, parity, gamma, n_atoms, lam_max):
        p = ModelParams(0.8, gamma, n_atoms)
        if parity is None:
            H, locate = _stencil_of_both_sectors(p, lam_max)
        else:
            basis = build_sector_basis(p, lam_max, parity)
            H, locate = build_hamiltonian(p, basis).matrix, basis.locate
        ref, states = brute.coo_hamiltonian(0.8, gamma, n_atoms, lam_max, parity)
        # brute's index of each of our states
        n = H.diag.size
        brute_of = np.empty(n, dtype=np.intp)
        brute_of[[locate(nu, ne) for nu, ne in states]] = np.arange(len(states))
        assert np.array_equal(np.sort(brute_of), np.arange(n))
        assert np.all(H.tgt > H.src)  # every raising coupling points to a later state
        assert len(set(zip(H.src.tolist(), H.tgt.tolist()))) == H.val.size  # no duplicates
        assert H.nnz == ref.nnz  # the diagonal of every state and each coupling twice
        dense = ref.toarray()
        assert H.diag.tobytes() == dense[brute_of, brute_of].tobytes()
        for rows, cols in ((H.tgt, H.src), (H.src, H.tgt)):
            assert H.val.tobytes() == dense[brute_of[rows], brute_of[cols]].tobytes()

    # sectors with and without coupling
    @pytest.mark.parametrize("parity,gamma", [("even", 0.0), ("even", 1.3), ("odd", -0.7)])
    def test_csr_constructor_keeps_the_index_arrays(self, monkeypatch, parity, gamma):
        given = []
        stencil = model.Stencil

        def recording(*args):
            given.append(args)
            return stencil(*args)

        monkeypatch.setattr(model, "Stencil", recording)
        p = ModelParams(0.8, gamma, 8)
        H = build_hamiltonian(p, build_sector_basis(p, 21, parity)).matrix
        (args,) = given
        assert all(kept is arg for kept, arg in zip((H.diag, H.src, H.tgt, H.val), args))
        # native index arrays, which numpy indexes with no conversion
        assert H.src.dtype == H.tgt.dtype == np.intp

    def test_exact_symmetry(self):
        p = ModelParams(1.0, 1.2, 6)
        H = build_hamiltonian(p, build_sector_basis(p, 18, "even")).toarray()
        assert np.abs(H - H.T).max() == 0.0

    # brute's H on the whole space is, bit for bit, the two sectors side by
    # side: it couples no two sectors, and every coupling lies in one of them
    def test_parity_commutator_exactly_zero(self):
        p = ModelParams(1.0, 1.0, 5)
        side, H, states = _sectors_in_brute_order(p, 14)
        assert np.array_equal(side, H)
        P = brute.parity_matrix(states)
        comm = H @ P - P @ H
        assert np.abs(comm).max() == 0.0

    def test_parity_conjugation_reproduces_h(self):
        p = ModelParams(1.3, 0.6, 4)
        side, H, states = _sectors_in_brute_order(p, 10)
        assert np.array_equal(side, H)
        signs = np.diagonal(brute.parity_matrix(states))
        conj = signs[:, None] * H * signs[None, :]
        assert np.array_equal(H, conj)

    def test_gamma_zero_diagonal(self):
        p = ModelParams(0.9, 0.0, 4)
        basis = build_sector_basis(p, 12, "even")
        H = build_hamiltonian(p, basis).toarray()
        expected = np.diag(basis.nu + p.omega_a * (basis.ne - p.j))
        assert np.array_equal(H, expected)

    def test_params_mismatch_rejected(self):
        p = ModelParams(1.0, 0.5, 4)
        basis = build_sector_basis(p, 10, "even")
        with pytest.raises(ValueError):
            build_hamiltonian(p.with_gamma(0.6), basis)

    @settings(max_examples=25, deadline=None)
    @given(
        omega=st.floats(0.1, 4.0, allow_nan=False),
        gamma=st.floats(-2.0, 2.0, allow_nan=False),
        n_atoms=st.integers(1, 9),
        lam_max=st.integers(2, 24),
    )
    def test_parity_closure_property(self, omega, gamma, n_atoms, lam_max):
        p = ModelParams(omega, gamma, n_atoms)
        side, H, _ = _sectors_in_brute_order(p, lam_max)
        assert np.array_equal(side, H)


class TestStencil:
    """The stencil against tests/brute.py's loop-built dense H, which keeps
    its own (lambda, nu) order, on a whole truncated sector or in a drawn
    window nu >= nu_lo, ne_lo <= n_e <= ne_hi."""

    @settings(max_examples=60, deadline=None)
    @given(n_atoms=st.integers(1, 12), lambda_max=st.integers(1, 20),
           omega_a=st.floats(0.25, 9.0), gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           parity=st.sampled_from(PARITIES), sigma=st.floats(-60.0, 60.0),
           seed=st.integers(0, 2**32 - 1),
           box=st.one_of(st.none(), st.tuples(st.integers(0, 21), st.integers(0, 12),
                                              st.integers(0, 12))))
    def test_against_brute_dense(self, n_atoms, lambda_max, omega_a, gamma, parity, sigma,
                                 seed, box):
        p = ModelParams(omega_a, gamma, n_atoms)
        if box is None:
            basis = build_sector_basis(p, lambda_max, parity)
            nu_lo, ne_lo, ne_hi = 0, 0, n_atoms
        else:
            nu_lo, (ne_lo, ne_hi) = box[0], sorted(min(e, n_atoms) for e in box[1:])
            basis = build_sector_basis(p, lambda_max, parity, nu_lo, ne_lo, ne_hi)
        H = build_hamiltonian(p, basis).matrix
        Hb, states = brute.dense_hamiltonian(omega_a, gamma, n_atoms, lambda_max, parity)
        inside = [i for i, (nu, ne) in enumerate(states) if nu >= nu_lo and ne_lo <= ne <= ne_hi]
        n = len(inside)
        # locate finds exactly brute's states inside the window, each at its
        # own position, and nothing outside it
        found = {(nu, ne): brute.position(basis, nu, ne)
                 for nu in range(-1, lambda_max + 2) for ne in range(-1, n_atoms + 2)}
        pos = [found.pop(states[i]) for i in inside]
        assert sorted(pos) == list(range(n)) == list(range(basis.size))
        assert set(found.values()) == {-1}
        assume(n > 0)
        # H in the window is the principal submatrix of brute's H on it
        dense = H.toarray()
        assert np.array_equal(dense[np.ix_(pos, pos)], Hb[np.ix_(inside, inside)])
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))
        scale = 1e-14 * np.abs(dense).sum(axis=1).max()
        assert np.allclose(H @ X[:, 0], dense @ X[:, 0], rtol=0.0, atol=scale)
        assert np.allclose(H @ X, dense @ X, rtol=0.0, atol=scale)
        # the band handed to dpbtrf is the dense lower band of H - sigma I
        shifted = dense - sigma * np.eye(n)
        band = solver._lower_band(H, sigma)
        assert band.shape[1] == n and np.all(np.tril(shifted, -band.shape[0]) == 0.0)
        for offset in range(band.shape[0]):
            assert np.array_equal(band[offset, :n - offset], np.diagonal(shifted, -offset))
            assert np.all(band[offset, n - offset:] == 0.0)
        assert H.nnz == n + np.count_nonzero(dense - np.diag(np.diagonal(dense)))

    def test_window_edges_rejected_outside_the_space(self):
        p = ModelParams(1.0, 0.5, 6)
        for edges in ((-1, 0, 6), (0, -1, 6), (0, 4, 3), (0, 0, 7)):
            with pytest.raises(ValueError, match="window edges"):
                build_sector_basis(p, 10, "even", *edges)


class TestExcitationOperator:
    def test_diagonal_values(self):
        p = ModelParams(1.0, 0.5, 4)
        basis = build_sector_basis(p, 8, "even")
        L = brute.excitation_operator(basis)
        assert L[basis.locate(0, 0), basis.locate(0, 0)] == 0.0
        i = basis.locate(2, 4)
        assert L[i, i] == 6.0

    def test_lambda_of_state(self):
        p = ModelParams(1.0, 0.5, 5)
        basis = build_sector_basis(p, 9, "odd")
        i = basis.locate(2, 3)
        assert brute.excitation_operator(basis)[i, i] == 5.0

    def test_trace_n2(self):
        # lambda = 0, 1, 1, 2, 2, 2 over the six states with lambda <= 2
        p = ModelParams(1.0, 0.5, 2)
        traces = [np.trace(brute.excitation_operator(build_sector_basis(p, 2, parity)))
                  for parity in PARITIES]
        assert traces == [6.0, 2.0] and sum(traces) == 8.0
