import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import brute
from dickelab import sas
from dickelab.errors import ProjectionAnnihilationError, TruncationError
from dickelab.model import ModelParams
from dickelab.observables import ObservableSet, eigen_observables
from dickelab.sas import (
    TABLE_ROW_NAMES,
    build_sas_state,
    coherent_observables,
    default_nu_max,
    gaussian_limits,
    gaussian_sup_distance,
    joint_distribution_sas,
    marginal_excited,
    marginal_photon,
    photon_number_coherent,
    table_closed_forms_coherent,
    table_closed_forms_sas,
    sas_observables,
    state_observables,
)
from dickelab.solver import converge_ground
from dickelab.surface import critical_points, f_function, normal_odd_state

CLOSED_FORM_ROWS_MATCHING_ORACLE = [
    "q", "p", "jx", "jy", "jz", "n_photons",
    "var_q", "var_p", "var_jx", "var_jy", "var_jz", "jx_q",
]
CLOSED_FORM_ROWS_DEFECTIVE = ["lam", "var_n_photons", "jz_n_photons"]


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale < 1e-12 else abs(a - b) / scale


class TestCoherentObservables:
    def test_reference_values(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        obs = coherent_observables(p)
        assert obs.n_photons == pytest.approx(9.375, rel=1e-13)
        assert obs.var_jx == pytest.approx(0.15625, rel=1e-13)
        assert obs.var_q == 0.5
        # <a'a> equals |alpha_c|^2 from the critical point
        q_c = -2 * math.sqrt(5) * 1.0 * math.sqrt(1 - 2.0**-4)
        assert obs.n_photons == pytest.approx(q_c**2 / 2, rel=1e-12)

    def test_separatrix_limits(self):
        p = ModelParams.from_ratio(1.0, 1.0, 12)
        obs = coherent_observables(p)
        assert obs.jz == -6.0
        assert obs.n_photons == 0.0
        assert obs.var_jz == 0.0
        assert obs.var_q == 0.5

    def test_matches_brute_product_state(self):
        p = ModelParams.from_ratio(1.0, 1.7, 8)
        grid = brute.coherent_product_grid(1.0, p.gamma, 8, 80)
        ref = brute.grid_expectations(grid, 8)
        obs = coherent_observables(p)
        for name in ObservableSet.names():
            assert _rel(getattr(obs, name), ref[name]) < 1e-10, name

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coherent_observables(ModelParams.from_ratio(1.0, 0.8, 10))


class TestSasObservables:
    def test_reference_values(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        obs = sas_observables(p, "even")
        assert obs.jz == pytest.approx(-1.25, rel=1e-10)
        assert obs.var_q == pytest.approx(19.25, rel=1e-10)
        assert obs.q == 0.0 and obs.p == 0.0 and obs.jx == 0.0 and obs.jy == 0.0

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n_atoms", [2, 6, 10, 20])
    @pytest.mark.parametrize("x", [1.1, 1.5, 2.0, 4.0])
    def test_oracle_equality(self, parity, n_atoms, x):
        """Every closed-form entry matches the constructed-state oracle."""
        p = ModelParams.from_ratio(1.0, x, n_atoms)
        obs = sas_observables(p, parity)
        oracle = state_observables(build_sas_state(p, parity))
        for name in ObservableSet.names():
            a, b = getattr(obs, name), getattr(oracle, name)
            assert _rel(a, b) < 1e-9, f"{name}: closed {a!r} vs oracle {b!r}"

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_independent_brute_oracle(self, parity):
        """Same equality against the raw projected-coherent construction."""
        p = ModelParams.from_ratio(1.0, 1.6, 9)  # half-integer j
        grid = brute.projected_coherent_grid(1.0, p.gamma, 9, parity, 90)
        ref = brute.grid_expectations(grid, 9)
        obs = sas_observables(p, parity)
        for name in ObservableSet.names():
            assert _rel(getattr(obs, name), ref[name]) < 1e-9, name

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n_atoms", [2, 9, 10, 37])
    @pytest.mark.parametrize("dx", [1e-9, 5e-9, 1e-8, 2e-8, 1e-6])
    def test_oracle_equality_near_separatrix(self, parity, n_atoms, dx):
        """The one closed form holds through x -> 1, where the odd branch is
        0/0 in 1 - F: every entry matches the oracle to 1e-11."""
        p = ModelParams.from_ratio(1.0, 1.0 + dx, n_atoms)
        obs = sas_observables(p, parity)
        oracle = state_observables(build_sas_state(p, parity))
        for name in ObservableSet.names():
            a, b = getattr(obs, name), getattr(oracle, name)
            assert abs(a - b) <= 1e-11 * (1.0 + abs(b)), f"{name}: closed {a!r} vs oracle {b!r}"

    def test_odd_limit_continuity(self):
        below = sas_observables(ModelParams.from_ratio(1.0, 1.0, 10), "odd")
        above = sas_observables(ModelParams.from_ratio(1.0, 1.0 + 1e-7, 10), "odd")
        for name in ObservableSet.names():
            a, b = getattr(below, name), getattr(above, name)
            assert abs(a - b) < 1e-5 * (1.0 + max(abs(a), abs(b))), name
        # the excitation number is sharp in the x -> 1 odd limit
        assert below.var_lam == pytest.approx(0.0, abs=1e-12)

    def test_odd_limit_matches_normal_phase_state(self):
        # the odd branch meets the single-excitation state at the separatrix
        p = ModelParams.from_ratio(1.0, 1.0, 10)
        obs = sas_observables(p, "odd")
        st = normal_odd_state(ModelParams(1.0, 0.49999, 10))
        c0, c1 = st.coefficients
        assert obs.n_photons == pytest.approx(c1**2, abs=1e-4)
        assert obs.jz == pytest.approx(-5 + c0**2, abs=1e-4)
        assert obs.var_q == pytest.approx(c1**2 + 0.5, abs=1e-3)

    def test_f_to_zero_reduction(self):
        # rows that reduce to the coherent column when F -> 0
        p = ModelParams.from_ratio(1.0, 3.0, 30)  # F ~ 1e-300
        coh = coherent_observables(p)
        for parity in ("even", "odd"):
            obs = sas_observables(p, parity)
            for name in ["jz", "n_photons", "lam", "var_p", "var_jy", "var_jz",
                         "var_n_photons", "jz_n_photons", "jx_q", "var_lam"]:
                assert _rel(getattr(obs, name), getattr(coh, name)) < 1e-12, name
            # the two documented exceptions stay apart
            assert obs.var_q > 100 * coh.var_q
            assert obs.var_jx > 100 * coh.var_jx

    def test_scaling_laws(self):
        # (var_q - 1/2) doubles with N at fixed x (F ~ 0)
        a = sas_observables(ModelParams.from_ratio(1.0, 2.0, 10), "even")
        b = sas_observables(ModelParams.from_ratio(1.0, 2.0, 20), "even")
        assert (b.var_q - 0.5) == pytest.approx(2 * (a.var_q - 0.5), rel=1e-10)
        # var_jx approaches N^2/4 at large x
        c = sas_observables(ModelParams.from_ratio(1.0, 4.0, 10), "even")
        assert c.var_jx / 25.0 == pytest.approx(0.99648, abs=1e-5)

    def test_lambda_operator_identity(self):
        p = ModelParams.from_ratio(1.0, 1.3, 12)
        for parity in ("even", "odd"):
            obs = sas_observables(p, parity)
            assert obs.lam == pytest.approx(obs.n_photons + obs.jz + 6.0, rel=1e-13)


class TestPrintedTable:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_correct_rows_match_oracle(self, parity):
        p = ModelParams.from_ratio(1.0, 1.5, 10)
        closed_form = table_closed_forms_sas(p, parity)
        oracle = state_observables(build_sas_state(p, parity))
        for name in CLOSED_FORM_ROWS_MATCHING_ORACLE:
            assert _rel(closed_form[name], getattr(oracle, name)) < 1e-9, name

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_defective_rows_flagged(self, parity):
        p = ModelParams.from_ratio(1.0, 1.5, 10)
        closed_form = table_closed_forms_sas(p, parity)
        oracle = state_observables(build_sas_state(p, parity))
        for name in CLOSED_FORM_ROWS_DEFECTIVE:
            assert _rel(closed_form[name], getattr(oracle, name)) > 1e-6, name
        # the tabulated Jz a'a row is low by exactly j = N/2
        assert closed_form["jz_n_photons"] * 5.0 == pytest.approx(
            oracle.jz_n_photons, rel=1e-9)

    def test_f_to_zero_reduction_of_printed_rows(self):
        # tabulated SAS rows with F set to 0 reduce to the tabulated coherent
        # column for these rows (exact algebraic identity)
        p = ModelParams.from_ratio(1.0, 2.5, 60)  # F numerically 0
        coh = table_closed_forms_coherent(p)
        for parity in ("even", "odd"):
            sas = table_closed_forms_sas(p, parity)
            for name in ["jz", "n_photons", "var_p", "var_jy", "var_jz",
                         "jz_n_photons", "jx_q"]:
                assert _rel(sas[name], coh[name]) < 1e-12, name
            for name in ["var_q", "var_jx"]:
                assert _rel(sas[name], coh[name]) > 1e-3, name


class TestSasStateVector:
    def test_norm_defect_small_with_default_cutoff(self):
        for x in (1.1, 2.0, 4.0):
            p = ModelParams.from_ratio(1.0, x, 10)
            state = build_sas_state(p, "even")
            # roundoff may put the truncated norm an ulp above 1
            assert -1e-12 <= state.norm_defect < 1e-10

    def test_small_cutoff_raises(self, monkeypatch):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        monkeypatch.setattr(sas, "default_nu_max", lambda params: 5)
        with pytest.raises(TruncationError, match="nu_max=5"):
            build_sas_state(p, "even")

    def test_parity_holes(self):
        p = ModelParams.from_ratio(1.0, 1.4, 7)
        state = build_sas_state(p, "odd")
        nu = np.arange(state.coeffs.shape[0])[:, None]
        ne = np.arange(8)[None, :]
        assert np.all(state.coeffs[(nu + ne) % 2 == 0] == 0.0)

    def test_dominant_coefficient_near_separatrix(self):
        p = ModelParams.from_ratio(1.0, 1.01, 10)
        state = build_sas_state(p, "even")
        assert np.argmax(np.abs(state.coeffs)) == 0  # cell (0, 0)

    def test_even_at_separatrix_is_vacuum(self):
        state = build_sas_state(ModelParams.from_ratio(1.0, 1.0, 6), "even")
        assert state.coeffs[0, 0] == 1.0

    def test_odd_annihilates_at_separatrix(self):
        with pytest.raises(ProjectionAnnihilationError):
            build_sas_state(ModelParams.from_ratio(1.0, 1.0, 6), "odd")

    def test_sign_gauge(self):
        p = ModelParams.from_ratio(1.0, 1.8, 6)
        state = build_sas_state(p, "even")
        signs = np.sign(state.coeffs[state.coeffs != 0.0])
        expect = (-1.0) ** (np.argwhere(state.coeffs != 0.0)[:, 0])
        assert np.array_equal(signs, expect)

    def test_matches_brute_projection(self):
        for parity in ("even", "odd"):
            p = ModelParams.from_ratio(1.0, 1.5, 8)
            state = build_sas_state(p, parity)
            ref = brute.projected_coherent_grid(1.0, p.gamma, 8, parity, state.nu_max)
            assert np.max(np.abs(state.coeffs - ref)) < 1e-12

    def test_overlap_with_coherent_product(self):
        # squared overlap with the unprojected state is (1 +- F)/2
        p = ModelParams.from_ratio(1.0, 1.3, 10)
        f = f_function(p).f
        for parity, sgn in (("even", 1.0), ("odd", -1.0)):
            state = build_sas_state(p, parity)
            coh = brute.coherent_product_grid(1.0, p.gamma, 10, state.nu_max)
            ov = float(np.sum(state.coeffs * coh)) ** 2
            assert ov == pytest.approx(0.5 * (1 + sgn * f), abs=1e-10)


class TestJointDistribution:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.1, 2.0])
    def test_normalized(self, parity, x):
        p = ModelParams.from_ratio(1.0, x, 10)
        jd = joint_distribution_sas(p, parity)
        assert jd.matrix.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(jd.matrix >= 0.0)

    def test_parity_holes_exact(self):
        p = ModelParams.from_ratio(1.0, 1.1, 10)
        jd = joint_distribution_sas(p, "even")
        nu = np.arange(jd.matrix.shape[0])[:, None]
        ne = np.arange(11)[None, :]
        assert np.all(jd.matrix[(nu + ne) % 2 == 1] == 0.0)
        assert jd.matrix[0, 1] == 0.0

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_equals_squared_coefficients(self, parity):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        state = build_sas_state(p, parity)
        jd = joint_distribution_sas(p, parity)
        assert jd.nu_max == state.nu_max
        assert np.max(np.abs(jd.matrix - state.coeffs**2)) < 1e-12

    def test_poisson_to_quasinormal_shift(self):
        p_near = ModelParams(1.0, 0.55, 10)
        p_far = ModelParams(1.0, 1.0, 10)
        near = joint_distribution_sas(p_near, "even")
        far = joint_distribution_sas(p_far, "even")
        # concentration near the origin vs a broad displaced bulk
        assert near.matrix[:3, :3].sum() > 0.5
        assert far.matrix[:3, :3].sum() < 0.1

    def test_odd_annihilation(self):
        with pytest.raises(ProjectionAnnihilationError):
            joint_distribution_sas(ModelParams.from_ratio(1.0, 1.0, 10), "odd")


class TestMarginals:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.1, 2.0])
    def test_match_joint_sums(self, parity, x):
        p = ModelParams.from_ratio(1.0, x, 10)
        jd = joint_distribution_sas(p, parity)
        ph = marginal_photon(p, parity)
        at = marginal_excited(p, parity)
        assert np.max(np.abs(ph - jd.matrix.sum(axis=1))) < 1e-12
        assert np.max(np.abs(at - jd.matrix.sum(axis=0))) < 1e-12

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_normalization_and_moments(self, parity):
        p = ModelParams.from_ratio(1.0, 1.7, 12)
        obs = sas_observables(p, parity)
        ph = marginal_photon(p, parity)
        at = marginal_excited(p, parity)
        assert ph.sum() == pytest.approx(1.0, abs=1e-10)
        assert at.sum() == pytest.approx(1.0, abs=1e-10)
        nu = np.arange(ph.size)
        ne = np.arange(at.size)
        assert float(nu @ ph) == pytest.approx(obs.n_photons, abs=1e-10)
        assert float(ne @ at) == pytest.approx(obs.jz + 6.0, abs=1e-10)

    # the odd norm 1 - F vanishes at x = 1; the joint distribution and both
    # marginals share it
    @pytest.mark.parametrize("n_atoms", [2, 10, 37])
    @pytest.mark.parametrize("dx", [1e-9, 1e-8, 1e-3])
    def test_odd_marginals_near_separatrix(self, n_atoms, dx):
        p = ModelParams.from_ratio(1.0, 1.0 + dx, n_atoms)
        jd = joint_distribution_sas(p, "odd").matrix
        ph, at = marginal_photon(p, "odd"), marginal_excited(p, "odd")
        assert abs(ph.sum() - 1.0) <= 5e-14 and abs(at.sum() - 1.0) <= 5e-14
        assert np.max(np.abs(ph - jd.sum(axis=1))) <= 5e-14
        assert np.max(np.abs(at - jd.sum(axis=0))) <= 5e-14

    def test_odd_annihilation(self):
        p = ModelParams.from_ratio(1.0, 1.0, 10)
        for marginal in (marginal_photon, marginal_excited):
            with pytest.raises(ProjectionAnnihilationError):
                marginal(p, "odd")
            assert marginal(p, "even")[0] == 1.0

    def test_even_odd_coincide_large_n(self):
        p = ModelParams.from_ratio(1.0, 2.0, 100)
        even = marginal_photon(p, "even")
        odd = marginal_photon(p, "odd")
        assert np.max(np.abs(even - odd)) < 1e-10

    def test_atom_marginals_distinguishable_near_separatrix(self):
        near = ModelParams(1.0, 0.55, 10)
        far = ModelParams(1.0, 1.0, 10)
        d_near = np.max(np.abs(marginal_excited(near, "even") - marginal_excited(near, "odd")))
        d_far = np.max(np.abs(marginal_excited(far, "even") - marginal_excited(far, "odd")))
        assert d_near > 0.05
        assert d_far < 1e-6


class TestLogFactorial:
    def test_against_gammaln(self):
        k = np.arange(20001)
        want = gammaln(k + 1.0)
        got = sas._log_factorial(k)
        assert np.all(np.abs(got - want) <= 5e-16 * want)

    def test_growth_matches_a_fresh_table(self, monkeypatch):
        monkeypatch.setattr(sas, "_LOG_FACTORIALS", sas._log_factorial_table(10))
        assert sas._log_factorial(3) == sas._log_factorial_table(4)[3]
        k = np.array([[0, 7], [9, 1234]])  # past the table's size
        assert np.array_equal(sas._log_factorial(k), sas._log_factorial_table(1235)[k])
        assert sas._LOG_FACTORIALS.size == 1235
        assert sas._log_factorial(1235) == sas._log_factorial_table(2470)[1235]  # doubled
        assert sas._LOG_FACTORIALS.size == 2470


@pytest.mark.parametrize("argv", [
    ["observables", "--source", "sas", "--n-atoms", "100", "--gamma", "1"],
    ["distributions", "--kind", "joint", "--n-atoms", "40", "--gamma", "0.7"],
])
def test_closed_forms_load_no_scipy_special(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from dickelab.cli import main; main(sys.argv[1:]); "
            "print('scipy.special' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.count("\n") > 5
    assert done.stderr.splitlines()[-1] == "False"


class TestGaussianLimits:
    def test_photon_mean_is_mu(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        g = gaussian_limits(p)
        assert g.photon_mean == photon_number_coherent(p)
        assert g.photon_var == g.photon_mean

    def test_atom_limit_large_x(self):
        p = ModelParams.from_ratio(1.0, 200.0, 10)
        g = gaussian_limits(p)
        assert g.atom_mean == pytest.approx(5.0, rel=1e-4)
        assert g.atom_var == pytest.approx(2.5, rel=1e-4)

    def test_sup_distance_small_at_large_n(self):
        p = ModelParams.from_ratio(1.0, 2.0, 100)
        g = gaussian_limits(p)
        dist = gaussian_sup_distance(marginal_photon(p, "even"), g.photon_mean, g.photon_var)
        assert dist < 0.01

    def test_domain_error_at_separatrix(self):
        with pytest.raises(ValueError):
            gaussian_limits(ModelParams.from_ratio(1.0, 1.0, 10))


class TestDefaultNuMax:
    def test_covers_bulk(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        mu = photon_number_coherent(p)
        assert default_nu_max(p) >= mu + 20 * math.sqrt(mu) + 50 - 1


# gamma -> -gamma is the photon parity a -> -a: it flips <q> and <Jx q> and
# leaves every other observable of the ground states unchanged
ODD_IN_GAMMA = {"q", "jx_q"}


def _assert_mirrored(plus, minus, abs_tol):
    for name in ObservableSet.names():
        a, b = getattr(plus, name), getattr(minus, name)
        want = -a if name in ODD_IN_GAMMA else a
        assert b == pytest.approx(want, rel=1e-9, abs=abs_tol), name


class TestNegativeCoupling:
    @pytest.mark.parametrize("omega_a", [1.0, 4.0])
    @pytest.mark.parametrize("x", [-2.0, -1.5, 1.5, 2.0])
    def test_coherent_q_on_the_phi_zero_branch(self, omega_a, x):
        p = ModelParams.from_ratio(omega_a, x, 10)
        q_c = next(c.point.q for c in critical_points(p) if c.branch_phi == 0.0)
        q = coherent_observables(p).q
        assert q == pytest.approx(q_c, rel=1e-12)
        assert math.copysign(1.0, q) == -math.copysign(1.0, x)

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
    def test_coherent_mirrored(self, x):
        plus = coherent_observables(ModelParams.from_ratio(1.0, x, 10))
        minus = coherent_observables(ModelParams.from_ratio(1.0, -x, 10))
        _assert_mirrored(plus, minus, 1e-12)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
    def test_sas_closed_form_mirrored(self, parity, x):
        plus = sas_observables(ModelParams.from_ratio(1.0, x, 10), parity)
        minus = sas_observables(ModelParams.from_ratio(1.0, -x, 10), parity)
        _assert_mirrored(plus, minus, 1e-12)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.5, 2.0])
    def test_oracle_and_table_mirrored(self, parity, x):
        plus, minus = (ModelParams.from_ratio(1.0, s * x, 10) for s in (1.0, -1.0))
        _assert_mirrored(state_observables(build_sas_state(plus, parity)),
                         state_observables(build_sas_state(minus, parity)), 1e-12)
        # the state itself is the mirror image: c(nu, n_e) -> (-1)**nu c(nu, n_e)
        a, b = build_sas_state(plus, parity).coeffs, build_sas_state(minus, parity).coeffs
        np.testing.assert_array_equal(b, a * (-1.0) ** np.arange(a.shape[0])[:, None])
        table_plus, table_minus = (table_closed_forms_sas(p, parity) for p in (plus, minus))
        for name in TABLE_ROW_NAMES:
            want = -table_plus[name] if name in ODD_IN_GAMMA else table_plus[name]
            assert table_minus[name] == pytest.approx(want, rel=1e-12, abs=1e-12), name

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
    def test_exact_mirrored(self, parity, x):
        def ground(sign):
            res = converge_ground(ModelParams.from_ratio(1.0, sign * x, 10), parity)
            return eigen_observables(res.eigenvectors[:, 0], res.basis)

        _assert_mirrored(ground(1.0), ground(-1.0), 1e-9)
