import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhdlab.core import V0_MAX, V0_MIN, NumericalError, SolitonParams
from fhdlab.pseudopotential import (
    _confirm_root,
    eval_S,
    existence_check,
    phase_branch,
    turning_point,
)


def admissible_params():
    return st.builds(
        lambda v0, frac: SolitonParams(frac * v0**3, v0),
        v0=st.floats(0.3, 3.0),
        frac=st.floats(0.05, 0.95),
    )


class TestEvalS:
    def test_double_root_at_background(self):
        assert eval_S(1.0, SolitonParams(0.5, 1.0)) == 0.0

    def test_simple_root_at_turning_point(self):
        assert eval_S(0.5, SolitonParams(0.5, 1.0)) == 0.0

    def test_hand_value(self):
        # (1/(2*0.75)) * (0.5 - 0.75) * (0.25)^2 = -1/96
        assert eval_S(0.75, SolitonParams(0.5, 1.0)) == pytest.approx(
            -1.0 / 96.0, abs=1e-16
        )

    def test_rejects_nonpositive_v(self):
        p = SolitonParams(0.5, 1.0)
        with pytest.raises(ValueError):
            eval_S(0.0, p)
        with pytest.raises(ValueError):
            eval_S(-1.0, p)

    def test_array_input(self):
        p = SolitonParams(0.5, 1.0)
        v = np.array([0.5, 0.75, 1.0])
        s = eval_S(v, p)
        assert s.shape == (3,)
        assert s[0] == 0.0 and s[2] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_float_path_matches_array_path_bitwise(self, seed):
        # 300 random (lambda, v0, v) per example, a third of them with v next
        # to v0 where S cancels (the Richardson points of existence_check);
        # the 0-d array is the reference
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3.0, 3.0, 300)
        v0 = rng.uniform(0.05, 3.0, 300)
        v = np.where(np.arange(300) < 100, v0 * (1.0 + rng.uniform(-1e-4, 1e-4, 300)),
                     rng.uniform(1e-6, 5.0, 300))
        for lam_k, v0_k, v_k in zip(lam.tolist(), v0.tolist(), v.tolist()):
            params = SolitonParams(lam_k, v0_k)
            for x in (v_k, math.nan):
                s = eval_S(x, params)
                ref = eval_S(np.asarray(x), params)
                assert type(s) is float
                assert np.float64(s).tobytes() == np.float64(ref).tobytes()
            assert math.isnan(s)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_float_path_matches_vector_path_bitwise(self, seed):
        # the same 300 random v, one float at a time and as one (n,) array,
        # a third of them next to v0 where the square is tiny
        rng = np.random.default_rng(seed)
        params = SolitonParams(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        v0 = params.v0
        v = np.where(np.arange(300) < 100, v0 * (1.0 + rng.uniform(-1e-4, 1e-4, 300)),
                     rng.uniform(1e-6, 5.0, 300))
        floats = np.array([eval_S(v_k, params) for v_k in v.tolist()])
        assert floats.tobytes() == eval_S(v, params).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(params=admissible_params())
    def test_roots_vanish_for_any_admissible_params(self, params):
        v_turn = params.lambda_speed / params.v0**2
        scale = max(1.0, params.v0)
        assert abs(eval_S(params.v0, params)) <= 1e-14 * scale
        assert abs(eval_S(v_turn, params)) <= 1e-14 * scale

    @settings(max_examples=30, deadline=None)
    @given(params=admissible_params())
    def test_well_is_strictly_negative_between_roots(self, params):
        v_turn = params.lambda_speed / params.v0**2
        inner = np.linspace(v_turn, params.v0, 1202)[1:-1]
        assert np.all(np.asarray(eval_S(inner, params)) < 0.0)


class TestExistenceCheck:
    def test_admissible_inside_unit_interval(self):
        assert existence_check(SolitonParams(0.5, 1.0)).admissible is True

    def test_degenerate_boundary_rejected(self):
        assert existence_check(SolitonParams(1.0, 1.0)).admissible is False

    def test_small_background_rejected(self):
        # v0^3 = 0.125 < lambda
        assert existence_check(SolitonParams(0.5, 0.5)).admissible is False

    def test_nonpositive_speed_rejected(self):
        assert existence_check(SolitonParams(0.0, 1.0)).admissible is False
        assert existence_check(SolitonParams(-0.3, 1.0)).admissible is False

    @pytest.mark.parametrize(
        "lam,v0", [(0.2, 1.0), (0.5, 1.0), (0.8, 1.0), (0.5, 0.9)]
    )
    def test_fd_diagnostics_match_curvature_formula(self, lam, v0):
        report = existence_check(SolitonParams(lam, v0))
        assert abs(report.s_at_v0) < 1e-14
        assert abs(report.s_prime_at_v0) < 1e-8
        assert report.s_second_at_v0 == pytest.approx(
            (lam - v0**3) / v0**3, abs=1e-6
        )

    def test_curvature_negative_iff_admissible(self):
        for lam in (0.1, 0.9, 1.5):
            report = existence_check(SolitonParams(lam, 1.0))
            assert (report.s_second_at_v0 < 0) == report.admissible


class TestTurningPoints:
    def test_basic_case(self):
        assert turning_point(SolitonParams(0.5, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_second_case(self):
        assert turning_point(SolitonParams(0.2, 1.0)) == pytest.approx(0.2, abs=1e-12)

    def test_scaled_background(self):
        v_turn = turning_point(SolitonParams(0.5, 0.9))
        assert v_turn == pytest.approx(0.5 / 0.81, rel=1e-12)
        assert v_turn < 0.9

    def test_out_of_domain_raises(self):
        with pytest.raises(ValueError):
            turning_point(SolitonParams(1.5, 1.0))
        with pytest.raises(ValueError):
            turning_point(SolitonParams(-0.1, 1.0))

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.0 + 5e-11])
    def test_edges_of_the_domain_raise(self, lam):
        # at lambda = v0^3 the roots merge into a triple root: no orbit
        with pytest.raises(ValueError, match="soliton existence violated"):
            turning_point(SolitonParams(lam, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(params=admissible_params())
    def test_sign_check_confirms_analytic_root(self, params):
        v_turn = turning_point(params)
        assert v_turn < params.v0
        assert abs(eval_S(v_turn, params)) <= 1e-14 * max(1.0, params.v0)

    @settings(max_examples=1000, deadline=None)
    @given(log_frac=st.floats(-12.0, math.log10(0.5)), upper=st.booleans(),
           log_v0=st.floats(math.log10(V0_MIN), math.log10(V0_MAX)))
    @example(log_frac=-8.0, upper=True, log_v0=-60.0)  # S(hi) underflows to 0
    def test_whole_existence_domain(self, log_frac, upper, log_v0):
        # lambda/v0^3 log-uniform toward either end, to within 1e-12 of it,
        # and v0 log-uniform over its whole range
        v0 = min(max(10.0**log_v0, V0_MIN), V0_MAX)
        frac = 1.0 - 10.0**log_frac if upper else 10.0**log_frac
        params = SolitonParams(frac * v0**3, v0)
        v_turn = turning_point(params)
        assert v_turn == params.lambda_speed / v0**2
        assert 0.0 < v_turn < v0

    @pytest.mark.parametrize("moved", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_sign_check_rejects_a_moved_root(self, moved):
        params = SolitonParams(0.5, 1.0)
        _confirm_root(params, 0.5)
        with pytest.raises(NumericalError, match="does not change sign"):
            _confirm_root(params, 0.5 * moved)


class TestPhaseBranch:
    def test_zero_at_equilibrium_and_turning_point(self):
        p = SolitonParams(0.5, 1.0)
        assert phase_branch(1.0, p) == (0.0, 0.0)
        plus, minus = phase_branch(0.5, p)
        assert abs(plus) < 1e-8 and abs(minus) < 1e-8

    def test_hand_value(self):
        plus, minus = phase_branch(0.75, SolitonParams(0.5, 1.0))
        assert plus == pytest.approx(np.sqrt(1.0 / 48.0), rel=1e-12)
        assert minus == -plus

    def test_outside_orbit_raises(self):
        p = SolitonParams(0.5, 1.0)
        with pytest.raises(ValueError):
            phase_branch(0.25, p)

    @settings(max_examples=40, deadline=None)
    @given(params=admissible_params(), frac=st.floats(0.01, 0.99))
    def test_branches_square_to_minus_two_s(self, params, frac):
        v_turn = params.lambda_speed / params.v0**2
        v = v_turn + frac * (params.v0 - v_turn)
        plus, minus = phase_branch(v, params)
        assert plus == -minus
        assert plus**2 == pytest.approx(-2.0 * eval_S(v, params), rel=1e-12)
