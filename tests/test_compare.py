import math

import numpy as np
import pytest

from dickelab import compare, solver
from dickelab.compare import (
    FidelityCurve,
    fidelity,
    fidelity_curve,
    figure_data,
    smoothness_audit,
    spectrum_dataset,
    variational_energy,
    variational_vector,
    verify_table,
)
from dickelab.dataset import Dataset
from dickelab.errors import ProjectionAnnihilationError
from dickelab.model import ModelParams, build_sector_basis
from dickelab.solver import SpectralResult, converge_ground


def _fidelity(params, parity):
    """The fidelity of a sector's trial state with its converged ground state."""
    return fidelity(converge_ground(params, parity))


class TestVariationalEnergy:
    def test_even_normal_constant(self):
        p = ModelParams(1.0, 0.2, 20)
        assert variational_energy(p, "even") == -10.0

    def test_odd_continuous_at_separatrix(self):
        lo = variational_energy(ModelParams(1.0, 0.4999999, 10), "odd")
        hi = variational_energy(ModelParams(1.0, 0.5, 10), "odd")
        assert lo == pytest.approx(hi, abs=1e-5)

    def test_even_continuous_at_separatrix(self):
        lo = variational_energy(ModelParams(1.0, 0.4999999, 10), "even")
        hi = variational_energy(ModelParams(1.0, 0.5, 10), "even")
        assert lo == pytest.approx(hi, abs=1e-5)

    def test_ritz_bound_on_grid(self):
        for gamma in np.arange(0.0, 1.21, 0.1):
            p = ModelParams(1.0, float(gamma), 12)
            for parity in ("even", "odd"):
                e_var = variational_energy(p, parity)
                e_exact = converge_ground(p, parity, tol=1e-9).eigenvalues[0]
                assert e_var >= e_exact - 1e-10


class TestFidelity:
    def test_gamma_zero_even_is_exactly_one(self):
        assert _fidelity(ModelParams(1.0, 0.0, 12), "even") == pytest.approx(1.0, abs=1e-12)

    def test_gamma_zero_odd_subspace(self):
        assert _fidelity(ModelParams(1.0, 0.0, 8), "odd") == pytest.approx(1.0, abs=1e-12)

    def test_high_coupling_close_to_one(self):
        for parity in ("even", "odd"):
            val = _fidelity(ModelParams(1.0, 1.0, 10), parity)
            assert 0.9 < val <= 1.0 + 1e-12

    def test_dip_near_separatrix(self):
        near = _fidelity(ModelParams(1.0, 0.5 + 1e-9, 10), "even")
        far = _fidelity(ModelParams(1.0, 0.9, 10), "even")
        assert near < far

    def test_annihilation_at_separatrix(self):
        with pytest.raises(ProjectionAnnihilationError):
            _fidelity(ModelParams(1.0, 0.5, 10), "odd")

    def test_normal_phase_odd_uses_two_state_ansatz(self):
        val = _fidelity(ModelParams(1.0, 0.1, 10), "odd")
        assert val > 0.99

    def test_dip_shallower_at_larger_n(self):
        f10 = _fidelity(ModelParams(1.0, 0.6, 10), "even")
        f50 = _fidelity(ModelParams(1.0, 0.6, 50), "even")
        assert f10 < f50

    def test_gamma_zero_odd_outside_window_raises(self):
        # a window without (nu, n_e) = (0, 1) must not read psi[-1]
        p = ModelParams(1.0, 0.0, 10)
        basis = build_sector_basis(p, 12, "odd", nu_lo=1)
        psi = np.full((basis.size, 1), basis.size ** -0.5)
        exact = SpectralResult("odd", 12, np.zeros(1), psi, basis)
        with pytest.raises(ValueError, match=r"\(nu=0, n_e=1\)"):
            fidelity(exact)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_reads_the_trial_state_the_solve_started_from(self, monkeypatch, parity):
        p = ModelParams.from_ratio(1.0, 2.0, 60)
        exact = converge_ground(p, parity)
        assert exact.path == "variational shift-invert"
        fresh = variational_vector(p, parity, exact.basis)
        assert np.array_equal(exact.trial, fresh)
        assert fidelity(exact) == float(fresh @ exact.eigenvectors[:, 0]) ** 2
        built = []
        coefficients = solver.sas_coefficients_at
        monkeypatch.setattr(solver, "sas_coefficients_at",
                            lambda *args: built.append(args) or coefficients(*args))
        compare._fidelity_point(p, parity, 1e-8, solver.DEFAULT_LAMBDA_CAP)
        assert len(built) == 1  # the start vector of the one solve

    def test_curve_with_flags(self):
        curve = fidelity_curve(1.0, 6, "odd", [0.3, 0.5, 0.8], tol=1e-8)
        assert isinstance(curve, FidelityCurve)
        assert math.isnan(curve.values[1])
        assert curve.flags[1] == "annihilated"
        assert np.all((curve.values[~np.isnan(curve.values)] >= 0)
                      & (curve.values[~np.isnan(curve.values)] <= 1 + 1e-12))

    def test_curve_flags_convergence_failure(self):
        # x = 2 needs lambda_max 52 at N = 10, above the cap
        curve = fidelity_curve(1.0, 10, "even", [0.2, 1.0], lambda_cap=30)
        assert curve.flags == ["", "ConvergenceError"]
        assert curve.values[0] > 0.9 and math.isnan(curve.values[1])
        assert curve.lambda_maxes[0] <= 30 and math.isnan(curve.lambda_maxes[1])


class TestVariationalVector:
    def test_projected_vacuum_below(self):
        p = ModelParams(1.0, 0.3, 8)
        basis = build_sector_basis(p, 20, "even")
        v = variational_vector(p, "even", basis)
        assert v[basis.locate(0, 0)] == 1.0
        assert np.count_nonzero(v) == 1

    @pytest.mark.parametrize("parity, missing", [("even", r"\(nu=0, n_e=0\)"),
                                                 ("odd", r"\(nu=0, n_e=1\)")])
    def test_normal_phase_state_outside_window_raises(self, parity, missing):
        # a boxed window without the trial state's support must not write index -1
        p = ModelParams.from_ratio(1.0, 0.5, 10)
        basis = build_sector_basis(p, 30, parity, nu_lo=1)
        with pytest.raises(ValueError, match=missing):
            variational_vector(p, parity, basis)

    def test_sas_vector_unit_norm_and_sign(self):
        p = ModelParams(1.0, 1.0, 10)
        basis = build_sector_basis(p, 60, "even")
        v = variational_vector(p, "even", basis)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # gauge: sign (-1)**nu
        nz = np.abs(v) > 1e-12
        assert np.all(np.sign(v[nz]) == (-1.0) ** basis.nu[nz])

    def test_parity_mismatch_rejected(self):
        p = ModelParams(1.0, 1.0, 10)
        basis = build_sector_basis(p, 30, "odd")
        with pytest.raises(ValueError):
            variational_vector(p, "even", basis)


@pytest.fixture(scope="module")
def report():
    return verify_table(ModelParams.from_ratio(1.0, 2.0, 10))


class TestVerifyTable:
    def test_every_row_once_per_parity(self, report):
        assert len(report.rows) == 30
        names = {(r.name, r.parity) for r in report.rows}
        assert len(names) == 30

    def test_jz_row_passes_three_ways(self, report):
        for parity in ("even", "odd"):
            row = report.row("jz", parity)
            assert not row.flag_closed_form
            assert row.dev_oracle_exact < 0.05
            assert not row.flag_exact

    def test_lambda_row_flagged(self, report):
        for parity in ("even", "odd"):
            row = report.row("lam", parity)
            assert row.flag_closed_form
            assert row.closed_form != row.oracle

    def test_var_n_and_jz_n_rows_flagged(self, report):
        for parity in ("even", "odd"):
            assert report.row("var_n_photons", parity).flag_closed_form
            row = report.row("jz_n_photons", parity)
            assert row.flag_closed_form
            # tabulated value is low by exactly j = N/2
            assert row.closed_form * 5.0 == pytest.approx(row.oracle, rel=1e-9)

    def test_var_q_close_to_exact(self, report):
        row = report.row("var_q", "even")
        assert row.dev_oracle_exact < 0.05

    def test_flagged_helper(self, report):
        flagged_names = {r.name for r in report.flagged()}
        assert flagged_names == {"lam", "var_n_photons", "jz_n_photons"}


class TestSpectrumDataset:
    def test_columns_and_ritz(self):
        ds = spectrum_dataset(1.0, 10, np.arange(0.0, 1.01, 0.1), tol=1e-8)
        assert ds.columns == ["gamma", "E_exact_even", "E_exact_odd",
                              "E_sas_even", "E_sas_odd"]
        for gamma, e_ee, e_eo, e_se, e_so in ds.rows:
            assert e_se >= e_ee - 1e-10
            assert e_so >= e_eo - 1e-10

    def test_gamma_zero_row(self):
        ds = spectrum_dataset(1.0, 20, [0.0])
        assert ds.rows[0][1] == pytest.approx(-10.0, abs=1e-12)


class TestSmoothnessAudit:
    def test_small_scan(self):
        audit = smoothness_audit(n_atoms=10, gammas=np.arange(0.35, 0.76, 0.01))
        assert audit.finite
        assert audit.bounded
        assert audit.second_diff_ok


class TestFigureData:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            figure_data(10)

    def test_figure_4_decay(self):
        ds = figure_data(4)
        assert ds.columns == ["x", "F_N2", "F_N10", "F_N20", "F_N100"]
        by_x = {row[0]: row for row in ds.rows}
        assert by_x[1.0][1] == 1.0
        # N=100 curve falls below 1e-6 before x = 1.2
        crossing = [row[0] for row in ds.rows if row[4] < 1e-6]
        assert crossing and min(crossing) < 1.2

    def test_figure_1_columns_and_flatness(self):
        ds = figure_data(1, gammas=[0.55, 0.9])
        assert ds.columns[0] == "gamma"
        near = ds.rows[0]
        far = ds.rows[1]
        assert abs(near[1]) > abs(far[1])  # dE/dq shrinks away from the separatrix
        assert abs(far[1]) < 1e-6

    def test_figure_5_coherent_vs_sas(self):
        ds = figure_data(5, n_atoms=10, gammas=[2.0])  # x = 4
        row = ds.rows[0]
        cols = {c: row[i] for i, c in enumerate(ds.columns)}
        assert cols["coherent"] / 100.0 < 0.01       # var_jx/N^2 -> 0
        assert cols["sas_even"] / 100.0 > 0.2        # approaches 1/4
        assert cols["exact_even"] == pytest.approx(cols["sas_even"], rel=0.05)

    def test_figure_7_joint(self):
        ds = figure_data(7, n_atoms=6, gammas=[0.8])
        p_even = sum(r[2] for r in ds.rows)
        p_odd = sum(r[3] for r in ds.rows)
        assert p_even == pytest.approx(1.0, abs=1e-10)
        assert p_odd == pytest.approx(1.0, abs=1e-10)

    def test_figure_8_fidelity_with_annihilation_null(self):
        ds = figure_data(8, n_atoms=6, gammas=[0.4, 0.5, 0.9])
        row_sep = ds.rows[1]
        odd_col = ds.columns.index("fid_odd_N6")
        assert row_sep[odd_col] is None
        assert ds.rows[2][odd_col] > 0.9

    def test_figure_9_marginals(self):
        ds = figure_data(9, n_atoms=6, gammas=[1.0])
        photon_even = sum(r[3] for r in ds.rows if r[0] == "photon")
        atom_even = sum(r[3] for r in ds.rows if r[0] == "atom")
        assert photon_even == pytest.approx(1.0, abs=1e-10)
        assert atom_even == pytest.approx(1.0, abs=1e-10)


class TestDataset:
    def test_csv_round_trip_precision(self):
        ds = Dataset({"a": 1}, ["x", "y"], [(0.1, 1.0 / 3.0), (None, 2.0)])
        text = ds.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "# a = 1"
        cell = lines[2].split(",")[1]
        assert float(cell) == 1.0 / 3.0
        assert lines[3].split(",")[0] == ""

    def test_json_round_trip_bit_identical(self):
        ds = Dataset({"m": 2}, ["x"], [(0.1 + 0.2,), (math.pi,), (None,)])
        back = Dataset.from_json(ds.to_json())
        assert back.rows[0][0] == 0.1 + 0.2
        assert back.rows[1][0] == math.pi
        assert back.rows[2][0] is None
        assert back.meta == ds.meta

    def test_json_tuple_rows_render_as_list_rows(self):
        rows = [(0.1 + 0.2, "even", None), (math.pi, "odd", 3)]
        text = Dataset({"m": 2}, ["x", "parity", "k"], rows).to_json()
        assert text == Dataset({"m": 2}, ["x", "parity", "k"], [list(r) for r in rows]).to_json()
        assert Dataset.from_json(text).rows == rows


class TestNegativeCoupling:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [0.6, 1.0, 1.5, 2.0])
    def test_fidelity_even_in_gamma(self, parity, x):
        plus, minus = (ModelParams.from_ratio(1.0, s * x, 10) for s in (1.0, -1.0))
        if parity == "odd" and x == 1.0:  # the odd trial state is annihilated there
            for p in (plus, minus):
                with pytest.raises(ProjectionAnnihilationError):
                    _fidelity(p, parity)
            return
        assert _fidelity(minus, parity) == pytest.approx(_fidelity(plus, parity), abs=1e-12)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_start_vector_follows_the_sign(self, parity):
        # gamma -> -gamma maps the trial state to (-1)**nu times itself
        plus, minus = (ModelParams.from_ratio(1.0, s * 2.0, 10) for s in (1.0, -1.0))
        basis = build_sector_basis(plus, 60, parity)
        v_plus = variational_vector(plus, parity, basis)
        v_minus = variational_vector(minus, parity, basis)
        np.testing.assert_array_equal(v_minus, v_plus * (-1.0) ** basis.nu)
