import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from fhdlab.core import Field, SolitonParams, derivative, make_grid
from fhdlab.pseudopotential import eval_S
from fhdlab.profiles import (
    Profile,
    _orbit_slope,
    decay_rate,
    profile_by_quadrature,
    profile_by_shooting,
    profile_metrics,
    solve_quadrature,
    solve_shooting,
    translated_trajectory,
)

P05 = SolitonParams(0.5, 1.0)
WIDE = make_grid(-40.0, 40.0, 2048, periodic=True)


class TestDecayRate:
    def test_reference_value(self):
        assert decay_rate(P05) == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_undefined_outside_domain(self):
        with pytest.raises(ValueError):
            decay_rate(SolitonParams(1.0, 1.0))


class TestQuadratureProfile:
    def test_minimum_anchored_at_turning_point(self):
        prof = profile_by_quadrature(P05)
        i = np.argmin(prof.v)
        assert prof.xi[i] == 0.0
        assert prof.v[i] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_flanks_approach_background(self):
        prof = profile_by_quadrature(P05)
        mid = np.argmin(prof.v)
        right = prof.v[mid:]
        assert np.all(np.diff(right) > 0.0)
        assert right[-1] < 1.0
        assert 1.0 - right[-1] < 1e-7

    def test_even_symmetry_is_exact_by_mirroring(self):
        prof = profile_by_quadrature(P05)
        assert np.array_equal(prof.v, prof.v[::-1])
        assert np.array_equal(prof.xi, -prof.xi[::-1])

    def test_tail_cut_extension_matches_decay_rate(self):
        # xi(v0 - tc) - xi(v0 - 2 tc) -> (ln 2)/kappa as tc -> 0
        kappa = decay_rate(P05)
        tc = 1e-8 * 0.5
        xi_far = solve_quadrature(P05, tail_cut=tc).xi[-1]
        xi_near = solve_quadrature(P05, tail_cut=2.0 * tc).xi[-1]
        assert xi_far - xi_near == pytest.approx(np.log(2.0) / kappa, rel=1e-6)

    def test_table_matches_adaptive_quadrature_oracle(self):
        # independent check of the panel scheme: scipy's adaptive quadrature
        # of the same regularized integrand, away from the singular tail
        from scipy.integrate import quad as scipy_quad

        sol = solve_quadrature(P05)
        v_turn = 0.5

        def integrand(u):
            return 2.0 * np.sqrt(v_turn + u * u) / (1.0 - v_turn - u * u)

        for j in (50, 200, 400, 600):
            u_end = np.sqrt(sol.v[j] - v_turn)
            ref, _ = scipy_quad(integrand, 0.0, u_end, epsabs=1e-13, epsrel=1e-13)
            assert sol.xi[j] == pytest.approx(ref, abs=1e-11)

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            profile_by_quadrature(SolitonParams(1.0, 1.0))

    def test_bad_tail_cut_rejected(self):
        with pytest.raises(ValueError):
            profile_by_quadrature(P05, tail_cut=1.0)

    def test_values_stay_inside_orbit_range(self):
        for lam in (0.2, 0.5, 0.8):
            p = SolitonParams(lam, 1.0)
            prof = profile_by_quadrature(p)
            assert prof.v.min() >= lam - 1e-8
            assert prof.v.max() <= 1.0 + 1e-8


class TestQuadratureSpline:
    @pytest.mark.parametrize(
        "lam", [1e-4, 6e-4, 0.2, 0.5, 0.8, 1.0 - 6e-4, 1.0 - 1e-4]
    )
    def test_closed_form_matches_from_derivatives(self, lam):
        # BPoly.from_derivatives builds the same quintic Hermite interpolant
        # interval by interval; it is the oracle for the closed form
        params = SolitonParams(lam, 1.0)
        sol = solve_quadrature(params)
        slopes = _orbit_slope(sol.v, params)
        slopes[0] = 0.0
        curvatures = 0.5 * lam * (1.0 / sol.v**2 - 1.0) + (sol.v - 1.0)
        oracle = BPoly.from_derivatives(
            sol.xi, np.column_stack((sol.v, slopes, curvatures))
        )
        assert sol._spline.c.shape == oracle.c.shape == (6, sol.xi.size - 1)
        assert np.max(np.abs(sol._spline.c - oracle.c)) <= 4.5e-16
        xi = np.linspace(0.0, sol.xi[-1], 20001)
        assert np.max(np.abs(sol(xi) - oracle(xi))) <= 4.5e-16


class TestShootingProfile:
    def test_minimum_matches_turning_point(self):
        prof = profile_by_shooting(P05, WIDE)
        assert prof.v.min() == pytest.approx(0.5, abs=1e-8)

    def test_even_within_tolerance(self):
        prof = profile_by_shooting(P05, WIDE)
        # xi=0 is a node; values at +/- xi coincide by even evaluation
        v = prof.v[1:]  # drop the unpaired leftmost node of the periodic grid
        assert np.max(np.abs(v - v[::-1])) < 1e-10

    def test_first_integral_on_accepted_steps(self):
        sol = solve_shooting(P05, xi_max=40.0)
        energy = 0.5 * sol.steps_vp**2 + np.array(
            [eval_S(v, P05) for v in sol.steps_v]
        )
        assert np.max(np.abs(energy)) < 1e-9

    def test_asymmetric_grid_rejected(self):
        grid = make_grid(-30.0, 50.0, 1024, periodic=True)
        with pytest.raises(ValueError):
            profile_by_shooting(P05, grid)

    def test_narrow_grid_rejected(self):
        grid = make_grid(-10.0, 10.0, 512, periodic=True)
        with pytest.raises(ValueError):
            profile_by_shooting(P05, grid)

    def test_values_stay_inside_orbit_range(self):
        prof = profile_by_shooting(P05, WIDE)
        assert prof.v.min() >= 0.5 - 1e-8
        assert prof.v.max() <= 1.0 + 1e-8


class TestCrossValidation:
    @pytest.mark.parametrize(
        "lam,v0", [(0.2, 1.0), (0.5, 1.0), (0.8, 1.0), (0.5, 0.9), (1.2, 1.3)]
    )
    def test_methods_agree_below_1e6(self, lam, v0):
        params = SolitonParams(lam, v0)
        quad = solve_quadrature(params)
        shoot = solve_shooting(params, xi_max=quad.xi[-1])
        disc = np.max(np.abs(shoot(quad.xi) - quad.v))
        assert disc < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(frac=st.floats(0.05, 0.95), v0=st.floats(0.5, 2.0))
    def test_methods_agree_over_the_domain(self, frac, v0):
        params = SolitonParams(frac * v0**3, v0)
        quad = solve_quadrature(params)
        shoot = solve_shooting(params, xi_max=quad.xi[-1])
        assert np.max(np.abs(shoot(quad.xi) - quad.v)) / v0 < 1e-6

    def test_dense_agreement_for_reference_params(self):
        quad = solve_quadrature(P05)
        shoot = solve_shooting(P05, xi_max=40.0)
        xi = np.linspace(0.0, 40.0, 8001)
        assert np.max(np.abs(quad(xi) - shoot(xi))) < 1e-6


class TestOdeResidual:
    def test_profile_satisfies_second_order_ode_under_refinement(self):
        # residual of v'' = (lam/2)(1/v^2 - 1/v0^2) + (v - v0) via composed
        # first-derivative stencils must shrink by ~16x per grid doubling
        quad = solve_quadrature(P05)
        errs = []
        for n in (256, 512, 1024):
            grid = make_grid(-40.0, 40.0, n, periodic=True)
            v = quad(grid.x)
            f = Field(grid, v)
            v_xx = derivative(derivative(f, 1), 1).values
            residual = v_xx - 0.25 * (1.0 / v**2 - 1.0) - (v - 1.0)
            errs.append(np.max(np.abs(residual)))
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0


class TestProfileMetrics:
    def test_reference_depth(self):
        metrics = profile_metrics(profile_by_quadrature(P05))
        assert metrics.depth == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("lam,depth", [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)])
    def test_depth_family(self, lam, depth):
        metrics = profile_metrics(profile_by_quadrature(SolitonParams(lam, 1.0)))
        assert metrics.depth == pytest.approx(depth, abs=1e-9)

    def test_depth_vanishes_toward_degenerate_limit(self):
        lam = 1.0 - 1e-4
        metrics = profile_metrics(profile_by_quadrature(SolitonParams(lam, 1.0)))
        assert metrics.depth == pytest.approx(1e-4, rel=1e-6)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_widths_agree_between_methods(self, lam):
        params = SolitonParams(lam, 1.0)
        grid = make_grid(-50.0, 50.0, 4096, periodic=True)
        w_quad = profile_metrics(profile_by_quadrature(params)).fwhm
        w_shoot = profile_metrics(profile_by_shooting(params, grid)).fwhm
        assert abs(w_quad - w_shoot) / w_quad < 0.01

    def test_flat_profile_rejected(self):
        prof = Profile(
            xi=np.linspace(-1, 1, 64),
            v=np.ones(64),
            params=P05,
            method="quadrature",
        )
        with pytest.raises(ValueError):
            profile_metrics(prof)


class TestTranslatedTrajectory:
    def test_translation_moves_minimum_by_lambda_t(self):
        times = np.array([0.0, 1.0, 2.0])
        traj = translated_trajectory(P05, WIDE, times)
        x = WIDE.x
        mins = [x[np.argmin(row)] for row in traj.values]
        assert mins[1] - mins[0] == pytest.approx(0.5, abs=WIDE.dx)
        assert mins[2] - mins[0] == pytest.approx(1.0, abs=WIDE.dx)

    def test_frames_share_grid_and_times(self):
        times = np.linspace(0.0, 1.0, 5)
        traj = translated_trajectory(P05, WIDE, times)
        assert traj.values.shape == (5, WIDE.n)
        assert traj.grid == WIDE

    def test_wraps_periodically(self):
        # after t = L/lambda the frame returns to its initial position
        period = WIDE.length / 0.5
        traj = translated_trajectory(P05, WIDE, np.array([0.0, period]))
        first, last = traj.values[0], traj.values[-1]
        assert np.max(np.abs(first - last)) < 1e-12
