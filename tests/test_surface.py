import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelab.errors import ProjectionAnnihilationError
from dickelab.model import ModelParams, build_hamiltonian, build_sector_basis
from dickelab.solver import lowest_eigenpairs
from dickelab.surface import (
    CriticalPoint,
    PhaseSpacePoint,
    classify_critical,
    coherent_sas_overlap,
    critical_points,
    energy_surface,
    f_function,
    k_ratio,
    lambda_statistics,
    minimum_energy,
    normal_odd_energy,
    normal_odd_state,
    numeric_gradient,
    sas_energy_at_critical,
    sas_energy_surface,
    surface_gradient,
)


def _superradiant_point(params, phi_c=0.0):
    pts = [c for c in critical_points(params) if c.phase == "superradiant"]
    return next(c for c in pts if c.branch_phi == phi_c)


class TestEnergySurface:
    def test_origin(self):
        p = ModelParams(1.3, 0.7, 6)
        pt = PhaseSpacePoint(0.0, 0.0, 0.0, 1.234)
        assert energy_surface(p, pt) == pytest.approx(-p.j * p.omega_a, rel=1e-15)

    def test_direct_substitution(self):
        p = ModelParams(1.0, 1.0, 4)
        pt = PhaseSpacePoint(1.0, 0.0, math.pi / 2.0, 0.0)
        assert energy_surface(p, pt) == pytest.approx(0.5 + 2.0 * math.sqrt(2.0), rel=1e-12)

    def test_value_at_superradiant_minimum(self):
        p = ModelParams(1.0, 1.0, 10)
        cp = _superradiant_point(p)
        _, e_super = minimum_energy(p)
        assert cp.energy == pytest.approx(e_super, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.floats(-4, 4), p=st.floats(-4, 4),
        theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
    )
    def test_symmetry_q_phi_flip(self, q, p, theta, phi):
        par = ModelParams(1.0, 0.8, 6)
        a = energy_surface(par, PhaseSpacePoint(q, p, theta, phi))
        b = energy_surface(par, PhaseSpacePoint(-q, p, theta, phi + math.pi))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestCriticalPoints:
    def test_normal_phase(self):
        p = ModelParams(1.0, 0.3, 20)
        pts = critical_points(p)
        assert len(pts) == 1
        cp = pts[0]
        assert cp.phase == "normal"
        assert (cp.point.q, cp.point.p, cp.point.theta) == (0.0, 0.0, 0.0)
        assert cp.energy == pytest.approx(-2.0 * 20 * 0.25, rel=1e-15)

    def test_superradiant_geometry(self):
        p = ModelParams(1.0, 1.0, 10)
        cp = _superradiant_point(p, phi_c=0.0)
        assert cp.point.theta == pytest.approx(math.acos(0.25), rel=1e-14)
        assert abs(cp.point.q) == pytest.approx(2 * math.sqrt(5) * math.sqrt(15.0 / 16.0), rel=1e-13)
        assert cp.point.q < 0  # phi_c = 0 branch
        other = _superradiant_point(p, phi_c=math.pi)
        assert other.point.q == pytest.approx(-cp.point.q, rel=1e-13)

    def test_branches_merge_at_separatrix(self):
        p = ModelParams(1.0, 0.5, 10)
        pts = critical_points(p)
        assert len(pts) == 1 and pts[0].phase == "normal"

    @pytest.mark.parametrize("omega_a", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("x", [1.2, 1.7, 2.5, 4.0])
    def test_numeric_gradient_vanishes(self, omega_a, x):
        p = ModelParams.from_ratio(omega_a, x, 12)
        for cp in critical_points(p):
            grad = numeric_gradient(lambda v: energy_surface(p, PhaseSpacePoint(*v)),
                                    cp.point.as_array())
            assert np.max(np.abs(grad)) < 1e-8

    def test_normal_point_gradient_vanishes(self):
        p = ModelParams(1.0, 0.3, 20)
        grad = numeric_gradient(lambda v: energy_surface(p, PhaseSpacePoint(*v)),
                                np.zeros(4))
        assert np.max(np.abs(grad)) < 1e-10


class TestMinimumEnergy:
    def test_normal_equals_gamma_zero_ground(self):
        p = ModelParams(1.0, 0.2, 20)
        e_normal, e_super = minimum_energy(p)
        assert e_normal == -10.0
        assert e_super is None

    def test_continuity_at_transition(self):
        p = ModelParams.from_ratio(1.0, 1.0, 14)
        e_normal, e_super = minimum_energy(p)
        assert e_super == pytest.approx(e_normal, rel=1e-14)

    def test_superradiant_value(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        _, e_super = minimum_energy(p)
        assert e_super == pytest.approx(-10 * 0.25 * 4 * (1 + 1.0 / 16.0), rel=1e-14)
        assert e_super < minimum_energy(p)[0]


class TestLambdaStatistics:
    def test_transition_limit(self):
        p = ModelParams.from_ratio(1.0, 1.0, 12)
        mean, fluct = lambda_statistics(p)
        assert mean == 0.0 and fluct == 0.0

    def test_superradiant_values(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        mean, fluct = lambda_statistics(p)
        assert mean == pytest.approx(13.125, rel=1e-13)
        assert fluct == pytest.approx(math.sqrt(5 * 2.5 * 0.9375), rel=1e-13)

    def test_operator_identity_with_coherent_column(self):
        # <Lambda> = <a'a> + <Jz> + N/2 for the product state
        p = ModelParams.from_ratio(1.0, 1.8, 14)
        x = abs(p.x)
        mu = p.n_atoms * p.gamma_c**2 * x**2 * (1 - x**-4)
        jz = -0.5 * p.n_atoms * x**-2
        mean, _ = lambda_statistics(p)
        assert mean == pytest.approx(mu + jz + p.n_atoms / 2.0, rel=1e-12)


class TestFFunction:
    def test_unity_at_separatrix(self):
        p = ModelParams.from_ratio(1.0, 1.0, 10)
        assert f_function(p).f == 1.0

    def test_reference_value(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        fv = f_function(p)
        assert fv.log_f == pytest.approx(-20 * math.log(2) - 18.75, rel=1e-14)
        assert fv.f == pytest.approx(6.8e-15, rel=0.01)

    def test_decreasing_in_n(self):
        vals = [f_function(ModelParams.from_ratio(1.0, 1.5, n)).log_f for n in (2, 6, 12, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            f_function(ModelParams.from_ratio(1.0, 0.9, 10))

    def test_no_underflow_large_n(self):
        # naive arithmetic would flush x**(-2N) to zero long before this
        fv = f_function(ModelParams.from_ratio(1.0, 3.0, 100))
        assert math.isfinite(fv.log_f)
        assert fv.log_f == pytest.approx(-200 * math.log(3) - 450 * (1 - 3.0**-4), rel=1e-13)


class TestSasEnergySurface:
    def test_even_origin(self):
        p = ModelParams(1.0, 0.8, 12)
        val = sas_energy_surface(p, PhaseSpacePoint(0, 0, 0, 0), "even")
        assert val == pytest.approx(-p.j * p.omega_a, rel=1e-13)

    def test_odd_annihilates_at_origin(self):
        p = ModelParams(1.0, 0.8, 12)
        with pytest.raises(ProjectionAnnihilationError):
            sas_energy_surface(p, PhaseSpacePoint(0, 0, 0, 0), "odd")

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("x", [1.2, 1.5, 2.0, 3.0])
    def test_surface_reproduces_closed_form_at_critical(self, parity, x):
        p = ModelParams.from_ratio(1.0, x, 14)
        cp = _superradiant_point(p)
        val = sas_energy_surface(p, cp.point, parity)
        assert val == pytest.approx(sas_energy_at_critical(p, parity), rel=1e-12)

    def test_large_n_no_overflow(self):
        p = ModelParams.from_ratio(1.0, 2.4, 100)
        cp = _superradiant_point(p)
        val = sas_energy_surface(p, cp.point, "even")
        assert math.isfinite(val)

    def test_even_reduces_to_coherent_surface_large_n(self):
        pt = PhaseSpacePoint(1.7, -0.4, 1.1, 0.6)
        vals = []
        for n in (20, 80, 320):
            p = ModelParams(1.0, 0.9, n)
            vals.append(sas_energy_surface(p, pt, "even") - energy_surface(p, pt))
        assert abs(vals[-1]) < abs(vals[0])
        assert abs(vals[-1]) < 1e-8 * 320

    def test_gradient_small_away_from_separatrix(self):
        p = ModelParams(1.0, 0.8, 20)
        cp = _superradiant_point(p, phi_c=math.pi)
        grad = surface_gradient(p, "even", cp.point)
        assert abs(grad[0]) < 1e-6  # d/dq


class TestSasEnergyAtCritical:
    def test_even_at_separatrix(self):
        p = ModelParams.from_ratio(1.0, 1.0, 16)
        assert sas_energy_at_critical(p, "even") == pytest.approx(-2 * 16 * 0.25, rel=1e-13)

    def test_odd_limit_at_separatrix(self):
        # limit value -2N gc^2 + 4 gc^2/(1+4 gc^2); at resonance -N/2 + 1/2
        for n in (6, 10, 30):
            p = ModelParams.from_ratio(1.0, 1.0, n)
            assert sas_energy_at_critical(p, "odd") == pytest.approx(-0.5 * n + 0.5, rel=1e-12)
        # cross-check by log-domain evaluation just above the separatrix
        p = ModelParams.from_ratio(1.0, 1.0 + 1e-6, 10)
        near = sas_energy_at_critical(p, "odd")
        at = sas_energy_at_critical(ModelParams.from_ratio(1.0, 1.0, 10), "odd")
        assert near == pytest.approx(at, abs=5e-5)

    def test_odd_limit_matches_exact_block_at_separatrix(self):
        # continuity with the two-state odd block minimized at gamma = gamma_c
        p = ModelParams.from_ratio(1.0, 1.0, 10)
        basis = build_sector_basis(p, 1, "odd")
        block = lowest_eigenpairs(build_hamiltonian(p, basis))
        assert sas_energy_at_critical(p, "odd") == pytest.approx(block.eigenvalues[0], rel=1e-12)

    def test_superradiant_value_close_to_coherent(self):
        p = ModelParams.from_ratio(1.0, 2.0, 10)
        _, e_super = minimum_energy(p)
        f = f_function(p).f
        val = sas_energy_at_critical(p, "even")
        assert val == pytest.approx(-10.625, abs=1e-10)
        assert abs(val - e_super) <= 4 * 10 * 0.25 * 4.0 * f

    @pytest.mark.parametrize("x", [1.3, 1.8, 2.6])
    def test_sas_coherent_gap_bound(self, x):
        for n in (6, 14, 30):
            p = ModelParams.from_ratio(1.0, x, n)
            f = f_function(p).f
            _, e_super = minimum_energy(p)
            for parity in ("even", "odd"):
                gap = abs(sas_energy_at_critical(p, parity) - e_super)
                assert gap <= 4 * n * p.gamma_c**2 * x**2 * f + 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sas_energy_at_critical(ModelParams.from_ratio(1.0, 0.7, 8), "even")


class TestOverlap:
    def test_separatrix_values(self):
        p = ModelParams.from_ratio(1.0, 1.0, 10)
        assert coherent_sas_overlap(p, "even") == 1.0
        assert coherent_sas_overlap(p, "odd") == 0.0

    def test_large_coupling_half(self):
        p = ModelParams.from_ratio(1.0, 4.0, 20)
        assert coherent_sas_overlap(p, "even") == pytest.approx(0.5, abs=1e-12)
        assert coherent_sas_overlap(p, "odd") == pytest.approx(0.5, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coherent_sas_overlap(ModelParams.from_ratio(1.0, 0.5, 10), "even")


class TestNormalOddState:
    def test_resonant_mixing_angle(self):
        for gamma in (0.05, 0.2, 0.45):
            st_ = normal_odd_state(ModelParams(1.0, gamma, 10))
            assert st_.mixing_angle == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_resonant_energy_matches_block(self):
        p = ModelParams(1.0, 0.1, 10)
        st_ = normal_odd_state(p)
        assert st_.energy == pytest.approx(-p.j + 1.0 - 0.1, rel=1e-13)
        basis = build_sector_basis(p, 1, "odd")
        block = lowest_eigenpairs(build_hamiltonian(p, basis))
        assert st_.energy == pytest.approx(block.eigenvalues[0], rel=1e-12)

    def test_off_resonance_angle_and_stationarity(self):
        p = ModelParams(0.5, 0.2, 8)
        st_ = normal_odd_state(p)
        assert math.tan(2 * st_.mixing_angle) == pytest.approx(0.8, rel=1e-12)
        assert st_.mixing_angle == pytest.approx(0.5 * math.atan(0.8), rel=1e-12)
        h = 1e-6
        dE = (normal_odd_energy(p, st_.mixing_angle + h)
              - normal_odd_energy(p, st_.mixing_angle - h)) / (2 * h)
        assert abs(dE) < 1e-9
        assert st_.energy == pytest.approx(normal_odd_energy(p, st_.mixing_angle), rel=1e-13)

    def test_energy_is_block_minimum_generic(self):
        p = ModelParams(0.5, 0.2, 8)
        st_ = normal_odd_state(p)
        basis = build_sector_basis(p, 1, "odd")
        block = lowest_eigenpairs(build_hamiltonian(p, basis))
        assert st_.energy == pytest.approx(block.eigenvalues[0], rel=1e-12)

    def test_gamma_zero_degenerate(self):
        st_ = normal_odd_state(ModelParams(1.0, 0.0, 6))
        assert st_.degenerate
        assert st_.coefficients is None
        assert st_.energy == pytest.approx(-3.0 + 1.0)

    def test_negative_gamma_sign(self):
        st_ = normal_odd_state(ModelParams(1.0, -0.2, 6))
        assert st_.coefficients[1] > 0  # -sgn(gamma) sin W

    def test_domain_error(self):
        with pytest.raises(ValueError):
            normal_odd_state(ModelParams(1.0, 0.6, 6))


class TestSurfaceGradient:
    def test_normal_point_flat_below_transition(self):
        p = ModelParams(1.0, 0.3, 20)
        grad = surface_gradient(p, "even", PhaseSpacePoint(0, 0, 0, 0))
        assert np.max(np.abs(grad)) < 1e-6

    def test_superradiant_flat_away_from_separatrix(self):
        p = ModelParams(1.0, 0.8, 20)
        cp = _superradiant_point(p)
        grad = surface_gradient(p, "even", cp.point)
        assert abs(grad[0]) < 1e-6 and abs(grad[2]) < 1e-6
        assert abs(grad[1]) < 1e-9 and abs(grad[3]) < 1e-9  # p and phi identically flat

    def test_visible_near_separatrix(self):
        p = ModelParams(1.0, 0.52, 20)
        cp = _superradiant_point(p)
        grad = surface_gradient(p, "even", cp.point)
        assert abs(grad[0]) > 1e-3

    def test_odd_annihilation_propagates(self):
        p = ModelParams(1.0, 0.8, 12)
        with pytest.raises(ProjectionAnnihilationError):
            surface_gradient(p, "odd", PhaseSpacePoint(0, 0, 0, 0))


class TestClassifyCritical:
    def test_normal_minimum(self):
        p = ModelParams(1.0, 0.3, 20)
        res = classify_critical(p, PhaseSpacePoint(0, 0, 0, 0), "coherent")
        assert res.label == "minimum"
        assert np.all(res.eigenvalues > 0)

    def test_degenerate_at_separatrix(self):
        p = ModelParams(1.0, 0.5, 20)
        res = classify_critical(p, PhaseSpacePoint(0, 0, 0, 0), "coherent")
        assert res.label == "degenerate"
        assert np.min(np.abs(res.eigenvalues)) < 1e-6

    def test_superradiant_minimum(self):
        p = ModelParams(1.0, 1.0, 20)
        cp = _superradiant_point(p)
        res = classify_critical(p, cp.point, "coherent")
        assert res.label == "minimum"

    def test_normal_point_turns_saddle_above(self):
        p = ModelParams(1.0, 1.0, 20)
        res = classify_critical(p, PhaseSpacePoint(0, 0, 0, 0), "coherent")
        assert res.label == "saddle"

    def test_sas_surface_minimum(self):
        p = ModelParams(1.0, 0.9, 20)
        cp = _superradiant_point(p)
        res = classify_critical(p, cp.point, "sas-even")
        assert res.label == "minimum"
