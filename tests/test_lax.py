import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhdlab import lax
from fhdlab.core import (
    Field,
    NumericalError,
    SolitonParams,
    Trajectory,
    d1_periodic,
    make_grid,
)
from fhdlab.lax import OFF_SHELL_TOL, reduction_check, zc_residual
from fhdlab.profiles import translated_trajectory

P05 = SolitonParams(0.5, 1.0)


def build_M(v, lambda_spec):
    """Space part [[0, 1], [-lam/v^2, 1]]; v may be a scalar or an array."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("M is only defined for v > 0")
    zero = np.zeros_like(v)
    one = np.ones_like(v)
    return np.stack(
        (np.stack((zero, one)), np.stack((-lambda_spec / v**2, one)))
    )


def build_N(v, v_x, v_xx, lambda_spec):
    """Time part [[A, B], [C, D]] under the ansatz B = -4*lam*v; trace-free."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("N is only defined for v > 0")
    v_x = np.asarray(v_x, dtype=float)
    v_xx = np.asarray(v_xx, dtype=float)
    lam = lambda_spec
    a = 2.0 * lam * (v_x + v)
    b = -4.0 * lam * v
    c = 2.0 * lam * (v_xx + v_x) + 4.0 * lam**2 / v
    return np.stack((np.stack((a, b)), np.stack((c, -a))))


def smooth_field(n=256, length=20.0, amplitude=0.3):
    grid = make_grid(-0.5 * length, 0.5 * length, n)
    k = 2.0 * np.pi / length
    v = 1.0 + amplitude * np.sin(k * grid.x) + 0.1 * np.cos(3 * k * grid.x)
    return Field(grid, v)


class TestBuildM:
    def test_unit_substitution(self):
        assert np.array_equal(build_M(1.0, 1.0), [[0.0, 1.0], [-1.0, 1.0]])

    def test_quarter_entry(self):
        assert build_M(2.0, 1.0)[1, 0] == -0.25

    def test_entry_vanishes_for_large_v(self):
        assert abs(build_M(1e8, 1.0)[1, 0]) < 1e-15

    def test_rejects_nonpositive_v(self):
        with pytest.raises(ValueError):
            build_M(0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.floats(0.05, 50.0),
        lam=st.floats(0.01, 10.0),
    )
    @example(v=49.00980200261321, lam=1.0)  # pow(v, 2) != v * v here
    def test_determinant_identity(self, v, lam):
        # build_M squares by a product; a Python float's v**2 calls pow
        m = build_M(v, lam)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert det == lam / (v * v)


class TestBuildN:
    def test_constant_background_entries(self):
        lam, v0 = 0.7, 1.3
        n = build_N(v0, 0.0, 0.0, lam)
        assert n[0, 0] == pytest.approx(2.0 * lam * v0, rel=1e-15)
        assert n[0, 1] == pytest.approx(-4.0 * lam * v0, rel=1e-15)
        assert n[1, 0] == pytest.approx(4.0 * lam**2 / v0, rel=1e-15)
        assert n[1, 1] == -n[0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.floats(0.05, 50.0),
        v_x=st.floats(-5.0, 5.0),
        v_xx=st.floats(-5.0, 5.0),
        lam=st.floats(0.01, 10.0),
    )
    def test_trace_free(self, v, v_x, v_xx, lam):
        n = build_N(v, v_x, v_xx, lam)
        assert n[0, 0] + n[1, 1] == 0.0

    def test_a_consistent_with_b_derivative(self):
        # A = -(B_x + B)/2 holds identically once B_x is the discrete
        # derivative of B = -4 lam v
        field = smooth_field()
        lam = 1.0
        v = field.values
        v_x = d1_periodic(v, field.grid.dx)
        n = build_N(v, v_x, d1_periodic(v_x, field.grid.dx), lam)
        b = n[0, 1]
        b_x = d1_periodic(b, field.grid.dx)
        assert np.max(np.abs(n[0, 0] + 0.5 * (b_x + b))) < 1e-12


def matmul2(x, y):
    """Product of two 2x2 matrices whose entries are arrays."""
    return np.stack(
        (
            np.stack((x[0, 0] * y[0, 0] + x[0, 1] * y[1, 0],
                      x[0, 0] * y[0, 1] + x[0, 1] * y[1, 1])),
            np.stack((x[1, 0] * y[0, 0] + x[1, 1] * y[1, 0],
                      x[1, 0] * y[0, 1] + x[1, 1] * y[1, 1])),
        )
    )


def framewise_patch_norms(values, times, dx, lambda_spec):
    """Oracle for ``lax._patch_norms``: M_t + [M, N] - N_x frame by frame,
    from build_M, build_N and 2x2 matrix products, with the central M_t."""
    norms = np.zeros((2, 2))
    for j in range(1, len(times) - 1):
        v = values[j]
        v_x = d1_periodic(v, dx)
        v_xx = d1_periodic(v_x, dx)
        m = build_M(v, lambda_spec)
        n = build_N(v, v_x, v_xx, lambda_spec)
        n_x = d1_periodic(n, dx)

        h_left = times[j] - times[j - 1]
        h_right = times[j + 1] - times[j]
        m_prev = build_M(values[j - 1], lambda_spec)
        m_next = build_M(values[j + 1], lambda_spec)
        m_t = (m_next - m_prev) / (h_left + h_right)

        residual = m_t + matmul2(m, n) - matmul2(n, m) - n_x
        norms = np.maximum(norms, np.abs(residual).max(axis=-1))
    return norms


# a frame spacing within the 1e-12 tolerance of 0.05
NEARLY = 0.05 * (1.0 + 1e-13)
# evenly spaced frames, the only ones zc_residual accepts
STEPS = st.builds(lambda h, k: [h] * k, st.sampled_from([0.05, 0.03, 0.08, 0.003]),
                  st.integers(2, 12))


class TestPatchNorms:
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.05, 0.9),
        lambda_spec=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        n=st.integers(16, 160),
        steps=STEPS,
        amplitude=st.floats(0.0, 0.5),
    )
    @example(lam=0.5, lambda_spec=1.0, n=512, steps=[0.05] * 16, amplitude=0.0)
    @example(lam=0.8, lambda_spec=-2.0, n=33, steps=[0.08] * 4, amplitude=0.3)
    # spacings that differ within the tolerance keep the sum of the two
    @example(lam=0.5, lambda_spec=1.0, n=33, steps=[0.05, NEARLY] * 3,
             amplitude=0.3)
    def test_bitwise_equal_to_framewise_products(self, lam, lambda_spec, n,
                                                  steps, amplitude):
        # the one-pass entries must give the oracle's norms bit for bit, on
        # the fine patch and on the coarse one subsampled by two
        grid = make_grid(-120.0, 120.0, n)
        times = np.concatenate(([0.0], np.cumsum(steps)))
        values = translated_trajectory(SolitonParams(lam, 1.0), grid, times).values
        # a perturbation that is not a solution keeps the (2,1) entry large
        values = values * (1.0 + amplitude * np.sin(np.pi * grid.x / 120.0
                                                    + times[:, None]))
        for vals, ts, dx in ((values, times, grid.dx),
                             (values[::2, ::2], times[::2], 2.0 * grid.dx)):
            if len(ts) < 3:
                continue
            expected = framewise_patch_norms(vals, ts, dx, lambda_spec)
            got = lax._patch_norms(vals, ts, dx, lambda_spec)
            assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def exact_trajectory():
    grid = make_grid(-40.0, 40.0, 512)
    times = 0.05 * np.arange(17)
    return translated_trajectory(P05, grid, times)


class TestZcResidual:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_off_shell_entries_at_roundoff(self, exact_trajectory, lam):
        report = zc_residual(exact_trajectory, lam)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            assert report.entry_norms[i, j] < 1e-10
            assert report.entry_norms_coarse[i, j] < 1e-10

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_evolution_entry_converges(self, exact_trajectory, lam):
        report = zc_residual(exact_trajectory, lam)
        assert report.convergence_order >= 2.0
        assert report.passed

    def test_static_bump_is_not_a_solution(self):
        grid = make_grid(-20.0, 20.0, 512)
        v = 1.0 + 0.3 * np.exp(-(grid.x**2))
        frozen = Trajectory(grid, 0.1 * np.arange(9), np.tile(v, (9, 1)))
        report = zc_residual(frozen, 1.0)
        assert report.entry_norms[1, 0] > 0.1
        assert not report.convergence_order >= 1.0
        assert not report.passed

    @pytest.mark.parametrize("lam", [0.1, 2.0])
    def test_off_shell_bound_scales_with_the_c_entry(self, exact_trajectory, lam):
        # 4*lam^2/v of C and 4*lam*v of A and B are the largest terms the
        # off-shell entries cancel: at lam = 0.1 the second is, and the bound
        # drops below OFF_SHELL_TOL with it
        report = zc_residual(exact_trajectory, lam)
        values = exact_trajectory.values
        scale = max(4.0 * lam**2 / values.min(), 4.0 * lam * values.max())
        assert report.off_shell_tol == OFF_SHELL_TOL * scale
        assert report.to_dict()["off_shell_tol"] == report.off_shell_tol
        assert report.passed

    def test_off_shell_bound_scales_with_large_v(self):
        # at v0 = 5e4 and lam = 1 the round-off of A and B, about 1e-10,
        # once met a bound of OFF_SHELL_TOL
        v0 = 5e4
        params = SolitonParams(0.5 * v0**3, v0)
        trajectory = translated_trajectory(params, make_grid(-40.0, 40.0, 512),
                                           0.05 / v0**3 * np.arange(17))
        report = zc_residual(trajectory, 1.0)
        assert report.off_shell_tol == OFF_SHELL_TOL * (4.0 * trajectory.values.max())
        assert max(report.entry_norms[i, j] for i, j in ((0, 0), (0, 1), (1, 1))) > 1e-11
        assert report.passed

    @pytest.mark.parametrize("lambda_spec", [0.0, np.nan, np.inf, -np.inf])
    def test_rejects_undefined_spectral_parameter(self, exact_trajectory,
                                                  lambda_spec):
        with pytest.raises(ValueError, match="finite and nonzero"):
            zc_residual(exact_trajectory, lambda_spec)

    @pytest.mark.parametrize("lambda_spec", [1e155, -1e200, 1e154])
    def test_overflowing_spectral_parameter_is_numerical(self, exact_trajectory,
                                                         lambda_spec):
        # 4*lam^2/v is not a float here (lam**2 itself overflows above ~1.3e154)
        with pytest.raises(NumericalError, match="overflows"):
            zc_residual(exact_trajectory, lambda_spec)

    @pytest.mark.parametrize("rel, even", [(0.9e-12, True), (1.1e-12, False)])
    def test_uneven_frames_rejected(self, rel, even):
        # one spacing apart from the rest by rel: inside 1e-12 the frames
        # take the central M_t, outside it they are refused
        grid = make_grid(-40.0, 40.0, 64)
        steps = [0.05] * 8
        steps[5] *= 1.0 + rel
        times = np.concatenate(([0.0], np.cumsum(steps)))
        traj = translated_trajectory(P05, grid, times)
        if even:
            expected = framewise_patch_norms(traj.values, times, grid.dx, 1.0)
            assert zc_residual(traj, 1.0).entry_norms.tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="evenly spaced"):
                zc_residual(traj, 1.0)

    def test_rounded_even_times_accepted(self):
        # past k = 5123 the spacings of 0.05 * arange(k) differ by more than
        # 1e-12 relative from the rounding of the times alone, which the
        # check allows for
        times = 0.05 * np.arange(6000)
        spacings = np.diff(times)
        assert np.abs(np.diff(spacings)).max() > 1e-12 * 0.05
        grid = make_grid(-5.0, 5.0, 16)
        traj = Trajectory(grid, times, np.ones((times.size, 16)))
        assert zc_residual(traj, 1.0).entry_norms[1, 0] == 0.0

    def test_requires_three_frames(self):
        grid = make_grid(-20.0, 20.0, 64)
        traj = Trajectory(grid, np.array([0.0, 1.0]), np.ones((2, 64)))
        with pytest.raises(ValueError):
            zc_residual(traj, 1.0)

    def test_report_serializes(self, exact_trajectory):
        report = zc_residual(exact_trajectory, 1.0)
        payload = report.to_dict()
        assert payload["pass"] is True
        assert len(payload["entry_norms"]) == 4
        assert payload["dx"] == pytest.approx(80.0 / 512)
        assert payload["dt"] == pytest.approx(0.05)


class TestReductionCheck:
    def test_cancellation_on_smooth_field(self):
        report = reduction_check(smooth_field(), 1.0)
        assert report.passed
        assert report.max_discrepancy < 1e-10

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_independent_of_spectral_parameter(self, lam):
        report = reduction_check(smooth_field(), lam)
        assert report.max_discrepancy < 1e-10

    def test_perturbed_ansatz_fails(self):
        report = reduction_check(smooth_field(), 1.0)
        assert not report.control_passed
        assert report.control_discrepancy > 1e-2

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6, 1e10])
    def test_verdict_holds_on_wider_and_narrower_grids(self, scale):
        # the control's offset follows the field's own length scale
        report = reduction_check(smooth_field(length=20.0 * scale), 1.0)
        assert report.passed
        assert not report.control_passed

    def test_a_field_with_no_slope_tells_nothing(self):
        # v_x = 0 leaves nothing to cancel, so the ansatz cannot hold
        grid = make_grid(-5.0, 5.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reduction_check(Field(grid, np.full(64, 2.0)), 0.5)
        assert report.passed is False
        assert report.max_discrepancy == 0.0

    def test_rejects_nonpositive_field(self):
        grid = make_grid(-5.0, 5.0, 64)
        with pytest.raises(ValueError):
            reduction_check(Field(grid, np.linspace(-1.0, 1.0, 64)), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        amplitude=st.floats(0.01, 0.6),
        lam=st.floats(0.1, 5.0),
    )
    def test_holds_for_random_smooth_fields(self, amplitude, lam):
        report = reduction_check(smooth_field(amplitude=amplitude), lam)
        assert report.max_discrepancy < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(log_v0=st.floats(-60.0, 60.0), log_ratio=st.floats(-12.0, 20.0),
           sign=st.sampled_from([1.0, -1.0]))
    # terms of size 7e-10 once met a bound of 1e-10 * max(1, ...)
    @example(log_v0=-30.0, log_ratio=20.0, sign=1.0)
    def test_bound_scales_with_the_terms(self, log_v0, log_ratio, sign):
        # v -> s v, lambda_spec -> s^2 lambda_spec scales every term by s:
        # the exact ansatz passes and the control fails at every scale
        v0 = 10.0**log_v0
        lam = sign * v0**2 * 10.0**log_ratio
        unit = smooth_field()
        report = reduction_check(Field(unit.grid, v0 * unit.values), lam)
        assert report.passed
        assert not report.control_passed
