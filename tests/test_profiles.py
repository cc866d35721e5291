import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly

from fhdlab import _dop853, profiles
from fhdlab.core import NumericalError, SolitonParams, d1_periodic, make_grid
from fhdlab.pseudopotential import eval_S, turning_point
from fhdlab.profiles import (
    SHOOT_ATOL,
    SHOOT_RTOL,
    TAIL_CUT_REL,
    TAIL_SWITCH_REL,
    Profile,
    decay_rate,
    default_half_width,
    profile_by_quadrature,
    profile_by_shooting,
    profile_metrics,
    solve_quadrature,
    solve_shooting,
    translated_trajectory,
)

P05 = SolitonParams(0.5, 1.0)
WIDE = make_grid(-40.0, 40.0, 2048)
# lambda/v0^3 from 1e-4 to 1 - 1e-6, log-uniform in it and in 1 - lambda/v0^3
# so that both edges are drawn
EDGE_FRACTIONS = st.one_of(st.floats(-4.0, np.log10(0.5)).map(lambda e: 10.0**e),
                           st.floats(-6.0, np.log10(0.5)).map(lambda e: 1.0 - 10.0**e))


class TestDecayRate:
    def test_reference_value(self):
        assert decay_rate(P05) == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_undefined_outside_domain(self):
        with pytest.raises(ValueError):
            decay_rate(SolitonParams(1.0, 1.0))

    def test_default_half_width(self):
        # at least 40; 1.1 * 20 decay lengths rounded up where that is wider
        assert default_half_width(P05) == 40.0
        assert default_half_width(SolitonParams(0.9999, 1.0)) == 2201


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

    def test_tail_cut_extension_matches_decay_rate(self, monkeypatch):
        # xi(v0 - tc) - xi(v0 - 2 tc) -> (ln 2)/kappa as tc -> 0
        kappa = decay_rate(P05)
        xi_far = solve_quadrature(P05).xi[-1]
        monkeypatch.setattr(profiles, "TAIL_CUT_REL", 2.0 * TAIL_CUT_REL)
        xi_near = solve_quadrature(P05).xi[-1]
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

    def test_values_stay_inside_orbit_range(self):
        for lam in (0.2, 0.5, 0.8):
            p = SolitonParams(lam, 1.0)
            prof = profile_by_quadrature(p)
            assert prof.v.min() >= lam - 1e-8
            assert prof.v.max() <= 1.0 + 1e-8


class TestClosedForm:
    """The closed-form table and its inverse over the whole existence domain.

    lambda/v0^3 is drawn log-uniformly down to 1e-4 and up to 0.9999, where
    the orbit is 1e-4 v0 deep and about 2000 units long.
    """

    @settings(max_examples=30, deadline=None)
    @given(log_frac=st.floats(-4.0, np.log10(0.9999)), v0=st.floats(0.5, 2.0))
    def test_table_matches_adaptive_quadrature(self, log_frac, v0):
        # nodes up to 5/8 of the table, where the first integral's
        # conditioning still allows 1e-11; the upper tail nodes sit where a
        # rounding of v alone moves xi by more
        params = SolitonParams(10.0**log_frac * v0**3, v0)
        sol = solve_quadrature(params)
        v_turn = sol.v[0]
        depth = v0 - v_turn

        def integrand(u):
            return 2.0 * np.sqrt(v_turn + u * u) / (depth - u * u)

        n = sol.xi.size
        for j in (1, n // 8, n // 4, n // 2 - 1, n // 2, 5 * n // 8):
            ref, _ = scipy_quad(integrand, 0.0, sol.u[j], epsabs=1e-13,
                                epsrel=1e-13, limit=200)
            assert sol.xi[j] == pytest.approx(ref, abs=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(log_frac=st.floats(-4.0, np.log10(0.9999)), v0=st.floats(0.5, 2.0))
    def test_tail_matches_quadrature_in_log_gap(self, log_frac, v0):
        # from the first upper node, v0 - v = depth/2, to the last,
        # v0 - v = tail_cut: in sigma = log(v0 - v) the integrand
        # dxi/dsigma = sqrt(v/(v - v_turn)) is smooth and bounded
        params = SolitonParams(10.0**log_frac * v0**3, v0)
        sol = solve_quadrature(params)
        v_turn = sol.v[0]
        depth = v0 - v_turn

        def integrand(sigma):
            gap = np.exp(sigma)
            return np.sqrt((v0 - gap) / (depth - gap))

        ref, _ = scipy_quad(integrand, np.log(TAIL_CUT_REL * depth),
                            np.log(0.5 * depth), epsabs=0.0, epsrel=1e-13)
        span = sol.xi[-1] - sol.xi[sol.xi.size // 2]
        assert span == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(log_frac=st.floats(-4.0, np.log10(0.9999)), v0=st.floats(0.5, 2.0))
    def test_inverse_round_trips(self, log_frac, v0):
        # the nodes of a second table fall between those of the first
        params = SolitonParams(10.0**log_frac * v0**3, v0)
        sol = solve_quadrature(params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profiles, "QUAD_NODES", 1001)
            other = solve_quadrature(params)
        assert np.max(np.abs(sol(sol.xi) - sol.v)) <= 1e-14 * v0
        assert np.max(np.abs(sol(other.xi) - other.v)) <= 1e-14 * v0

    @settings(max_examples=25, deadline=None)
    @given(log_frac=st.floats(-4.0, np.log10(0.999)), v0=st.floats(0.5, 2.0))
    def test_shooting_agrees(self, log_frac, v0):
        params = SolitonParams(10.0**log_frac * v0**3, v0)
        quad = solve_quadrature(params)
        shoot = solve_shooting(params, xi_max=quad.xi[-1])
        assert np.max(np.abs(shoot(quad.xi) - quad.v)) / v0 < 1e-6


class TestQuadratureSpline:
    @pytest.mark.parametrize(
        "lam", [1e-4, 6e-4, 0.2, 0.5, 0.8, 1.0 - 6e-4, 1.0 - 1e-4]
    )
    def test_closed_form_matches_from_derivatives(self, lam):
        # BPoly.from_derivatives interpolates the table by quintics with the
        # exact slopes sqrt(-2 S(v)) and the curvatures of the profile ODE:
        # an oracle for v(xi) between the nodes that shares nothing with the
        # Newton steps (largest difference seen 4.0e-12, at lambda 0.2)
        params = SolitonParams(lam, 1.0)
        sol = solve_quadrature(params)
        slopes = np.sqrt(np.maximum(-2.0 * eval_S(sol.v, params), 0.0))
        curvatures = 0.5 * lam * (1.0 / sol.v**2 - 1.0) + (sol.v - 1.0)
        oracle = BPoly.from_derivatives(
            sol.xi, np.column_stack((sol.v, slopes, curvatures))
        )
        xi = np.linspace(0.0, sol.xi[-1], 20001)
        assert np.max(np.abs(sol(xi) - oracle(xi))) <= 1e-11


# the library entries that take a soliton window, each of which checks it
_WINDOWED = {
    "profile_by_shooting": profile_by_shooting,
    "closed_form_field": profiles.closed_form_field,
    "translated_trajectory": lambda params, grid: translated_trajectory(
        params, grid, np.zeros(1)),
}


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

    @pytest.mark.parametrize("xi_max", [0.0, -5.0, float("nan")])
    def test_nonpositive_xi_max_rejected(self, xi_max):
        with pytest.raises(ValueError):
            solve_shooting(P05, xi_max=xi_max)

    @pytest.mark.parametrize("build", _WINDOWED.values(), ids=_WINDOWED)
    def test_asymmetric_grid_rejected(self, build):
        grid = make_grid(-30.0, 50.0, 1024)
        with pytest.raises(ValueError, match="soliton window must be symmetric about x = 0"):
            build(P05, grid)

    @pytest.mark.parametrize("build", _WINDOWED.values(), ids=_WINDOWED)
    def test_narrow_grid_rejected(self, build):
        grid = make_grid(-10.0, 10.0, 512)
        with pytest.raises(ValueError, match="grid half-width 10 spans only 7.1 decay lengths"):
            build(P05, grid)

    def test_values_stay_inside_orbit_range(self):
        prof = profile_by_shooting(P05, WIDE)
        assert prof.v.min() >= 0.5 - 1e-8
        assert prof.v.max() <= 1.0 + 1e-8


def _oracle(params, xi_max):
    """The shooting problem as SciPy's solve_ivp(method="DOP853") solves it:
    the rise r = v - v_turn, with r'' written as the ODE
    v'' = (lambda/2)(1/v^2 - 1/v0^2) + (v - v0) (checked exactly in
    ``test_rise_form_is_the_profile_ode``), and atol in units of the depth."""
    v0 = params.v0
    v_turn = turning_point(params)
    depth = v0 - v_turn

    def rhs(_xi, y):
        r = y[0]
        v = v_turn + r
        return (y[1], (r - depth) * (r * (r + 1.5 * v_turn) - 0.5 * v_turn * depth) / (v * v))

    def reach_background(_xi, y):
        return y[0] - (depth - TAIL_SWITCH_REL * depth)

    def collapse(_xi, y):
        return y[0] - (0.1 * v_turn - v_turn)

    reach_background.terminal = collapse.terminal = True
    reach_background.direction, collapse.direction = 1.0, -1.0
    result = solve_ivp(rhs, (0.0, xi_max), (0.0, 0.0), method="DOP853",
                       rtol=SHOOT_RTOL, atol=SHOOT_ATOL * depth, dense_output=True,
                       events=(reach_background, collapse))
    assert result.success and not result.t_events[1].size
    return result


def _oracle_profile(params, grid):
    """The oracle's v on the grid, with the same tail, and its step count."""
    result = _oracle(params, 0.5 * grid.length)
    v_turn = turning_point(params)
    w = np.abs(grid.x)
    xi_switch, v_switch = result.t[-1], v_turn + result.y[0, -1]
    inside = w <= xi_switch
    v = np.empty_like(w)
    v[inside] = v_turn + result.sol(w[inside])[0]
    v0 = params.v0
    v[~inside] = v0 - (v0 - v_switch) * np.exp(
        -decay_rate(params) * (w[~inside] - xi_switch)
    )
    return v, result.t.size - 1


def _window(params):
    """The CLI's default grid for these parameters, at n = 1024."""
    half = default_half_width(params)
    return make_grid(-half, half, 1024)


class TestShootingOracle:
    def test_tableau_is_scipys_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        a = np.zeros((16, 16))
        for i, row in enumerate(_dop853.A):
            a[i, :i] = row
        assert a.tobytes() == ref.A.tobytes()
        assert np.array(_dop853.A[12]).tobytes() == ref.B.tobytes()
        for ours, theirs in ((_dop853.E3, ref.E3),
                             (_dop853.E5, ref.E5), (_dop853.D, ref.D)):
            assert np.array(ours).tobytes() == theirs.tobytes()

    # The terminal root on y'' = accel(y) from rest, against SciPy's brentq
    # on the same dense row, at the shooting route's tolerances. The largest
    # gap over these five orbits was 1.5e-16 relative, and y hit y_stop
    # exactly.
    @pytest.mark.parametrize("accel, y_stop", [
        (lambda y: math.cos(y), 1.0),
        (lambda y: 1.0 + y**3, 1.2),
        (lambda y: 2.0 + math.tanh(50.0 * (y - 0.7)), 0.9),
        (lambda y: 1.0 - y * y, 1.5),
        (lambda y: math.log(math.e + y), 2.0),
    ], ids=["cos", "cube", "tanh", "square", "log"])
    def test_root_search_is_scipys_brentq(self, accel, y_stop):
        from scipy.optimize import brentq

        steps, dense, _ = _dop853.dop853(accel, 20.0, y_stop, -1.0,
                                         SHOOT_RTOL, SHOOT_ATOL)
        start, h, v, *coefficients = dense[-1]
        tol = 4.0 * np.finfo(float).eps
        root = brentq(lambda xi: _dop853.interpolate(coefficients, (xi - start) / h)
                      + v - y_stop, start, start + h, xtol=tol, rtol=tol)
        xi, y, _ = steps[-1]
        assert abs(xi - root) <= 2.0 * tol * root
        assert abs(y - y_stop) <= 4.0 * math.ulp(y_stop)

    # oracle: SciPy's brentq on the last step's dense output. Near the
    # saddle the slope v' is small, so the residual's rounding fixes either
    # root only to about 1e-13; the largest gap in a scan of 160 draws was
    # 1.9e-13. Adding v_turn to the rise rounds to an ulp of v0.
    @settings(max_examples=40, deadline=None)
    @given(frac=EDGE_FRACTIONS, v0=st.floats(0.5, 2.0))
    def test_tail_switch_is_the_root_of_the_last_step(self, frac, v0):
        from scipy.optimize import brentq

        params = SolitonParams(frac * v0**3, v0)
        sol = solve_shooting(params, xi_max=default_half_width(params))
        start, h, rise, *coefficients = sol._dense[-1]
        depth = v0 - sol.v_turn
        level = depth - TAIL_SWITCH_REL * depth
        tol = 4.0 * np.finfo(float).eps
        root = brentq(lambda xi: _dop853.interpolate(coefficients, (xi - start) / h)
                      + rise - level, start, start + h, xtol=tol, rtol=tol)
        assert abs(sol.xi_switch - root) <= 1e-12 * root
        assert (abs(sol.steps_v[-1] - sol.v_turn - level)
                <= 4.0 * math.ulp(depth) + math.ulp(v0))

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_matches_oracle_at_reference_speeds(self, lam):
        params = SolitonParams(lam, 1.0)
        grid = make_grid(-40.0, 40.0, 2048)
        v_ref, steps_ref = _oracle_profile(params, grid)
        sol = solve_shooting(params, xi_max=40.0)
        assert np.max(np.abs(sol(grid.x) - v_ref)) <= 1e-10
        assert sol.steps_xi.size - 1 == steps_ref

    # Near the lower edge the first steps' error estimates are rounding
    # noise in both solvers (the acceleration at v_turn is about
    # v0^4/(2 lambda)), their step sequences part, and the profiles differ by
    # up to 1.14e-7 in 5,000 draws; the oracle itself is about 1e-7 off the
    # quadrature there.
    @settings(max_examples=40, deadline=None)
    @given(frac=EDGE_FRACTIONS, v0=st.floats(0.5, 2.0))
    def test_matches_oracle_over_the_domain(self, frac, v0):
        params = SolitonParams(frac * v0**3, v0)
        grid = _window(params)
        v_ref, steps_ref = _oracle_profile(params, grid)
        prof = profile_by_shooting(params, grid)
        assert np.max(np.abs(prof.v - v_ref)) / v0 <= 2e-7
        assert abs(prof.diagnostics["accepted_steps"] - steps_ref) <= 1


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

    # largest error seen 1.6e-7 depths, in a scan of 500 lambda/v0^3 from
    # 1e-8 to 1 - 1e-12 at v0 = 1
    @settings(max_examples=60, deadline=None)
    @given(frac=EDGE_FRACTIONS, v0=st.floats(0.5, 2.0))
    def test_shooting_agrees_in_depths_up_to_the_edge(self, frac, v0):
        params = SolitonParams(frac * v0**3, v0)
        grid = _window(params)
        try:
            shoot = profile_by_shooting(params, grid).v
        except NumericalError:
            return
        depth = v0 - turning_point(params)
        closed = solve_quadrature(params)(grid.x)
        assert np.max(np.abs(shoot - closed)) <= 1e-6 * depth

    @pytest.mark.parametrize("frac", [1.0 - 1e-9, 0.99999984, 0.999999996,
                                      0.999999997, 0.999999998])
    def test_shooting_keeps_above_the_turning_point(self, frac):
        # shooting in v sank up to 4.46 depths below v_turn between its steps
        # at these lambda, and its width was 69% off at 1 - 1e-9
        params = SolitonParams(frac, 1.0)
        grid = _window(params)
        prof = profile_by_shooting(params, grid)
        assert prof.v.min() == turning_point(params)
        w_quad = profile_metrics(profile_by_quadrature(params)).fwhm
        assert profile_metrics(prof).fwhm == pytest.approx(w_quad, rel=1e-5)

    @pytest.mark.parametrize("lam, v0", [(0.5, 1.0), (1e-6, 2.0), (1.2, 1.1),
                                         (1.0 - 1e-9, 1.0)])
    def test_rise_form_is_the_profile_ode(self, lam, v0):
        # in exact arithmetic, with lambda = v_turn v0^2 as the turning point
        # defines it: r'' = (r - b)(r^2 + 3/2 v_turn r - v_turn b/2)/v^2 is
        # v'' = (lambda/2)(1/v^2 - 1/v0^2) + (v - v0)
        v_turn = Fraction(turning_point(SolitonParams(lam, v0)))
        v0 = Fraction(v0)
        b, lam = v0 - v_turn, v_turn * v0**2
        for r in (0, b / 7, b / 2, b * Fraction(9999, 10000), b):
            v = v_turn + r
            rise_form = (r - b) * (r * (r + Fraction(3, 2) * v_turn) - v_turn * b / 2) / v**2
            assert rise_form == lam / 2 * (1 / v**2 - 1 / v0**2) + (v - v0)


class TestOdeResidual:
    def test_profile_satisfies_second_order_ode_under_refinement(self):
        # residual of v'' = (lam/2)(1/v^2 - 1/v0^2) + (v - v0) via composed
        # first-derivative stencils must shrink by ~16x per grid doubling
        quad = solve_quadrature(P05)
        errs = []
        for n in (256, 512, 1024):
            grid = make_grid(-40.0, 40.0, n)
            v = quad(grid.x)
            v_xx = d1_periodic(d1_periodic(v, grid.dx), grid.dx)
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
        grid = make_grid(-50.0, 50.0, 4096)
        w_quad = profile_metrics(profile_by_quadrature(params)).fwhm
        w_shoot = profile_metrics(profile_by_shooting(params, grid)).fwhm
        assert abs(w_quad - w_shoot) / w_quad < 0.01

    @pytest.mark.parametrize("v0", [1e-3, 1.0, 7.0, 1e4])
    @pytest.mark.parametrize("frac", [1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999999])
    def test_quadrature_metrics_are_the_closed_form(self, frac, v0):
        # the table is not windowed: its minimum is v_turn and a node sits at
        # half the depth, so its metrics are the closed form's depth
        # b = v0 - lambda/v0^2, bit for bit, and FWHM 2 xi(v0 - b/2) up to
        # the rounding of v = v_turn + u^2 next to v0 (3.5e-10 at 1 - 1e-6)
        params = SolitonParams(frac * v0**3, v0)
        metrics = profile_metrics(profile_by_quadrature(params))
        v_turn = params.lambda_speed / v0**2
        b = v0 - v_turn
        assert metrics.depth == b
        fwhm = 2.0 * float(profiles._flank_xi(np.sqrt(b / 2), b / 2, v_turn, v0))
        assert abs(metrics.fwhm - fwhm) <= 1e-15 * v0 / b * fwhm

    def test_unbracketed_half_depth_is_numerical(self):
        xi = np.linspace(-1.0, 1.0, 64)
        prof = Profile(xi=xi, v=0.5 + 0.125 * xi**2, params=P05, method="shooting")
        with pytest.raises(NumericalError, match="not bracketed inside the window"):
            profile_metrics(prof)

    def test_flat_profile_rejected(self):
        prof = Profile(
            xi=np.linspace(-1, 1, 64),
            v=np.ones(64),
            params=P05,
            method="quadrature",
        )
        with pytest.raises(NumericalError, match="profile is flat"):
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
