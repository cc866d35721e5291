import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhdlab import evolution
from fhdlab.core import (
    Field,
    NumericalError,
    SolitonParams,
    Trajectory,
    d1_periodic,
    make_grid,
)
from fhdlab.evolution import (
    EvolutionAborted,
    EvolveConfig,
    conservation_drift,
    evolve,
    measure_speed,
    minimum_positions,
    rhs_fhd,
    shape_error,
    shift_field,
)
from fhdlab.profiles import closed_form_field, profile_by_shooting, translated_trajectory

P05 = SolitonParams(0.5, 1.0)


def soliton_field(n=512, half_width=40.0):
    grid = make_grid(-half_width, half_width, n)
    return Field(grid, profile_by_shooting(P05, grid).v)


class TestRhs:
    def test_constant_background_is_stationary(self):
        grid = make_grid(-5.0, 5.0, 128)
        f = Field(grid, np.full(128, 1.3))
        assert np.max(np.abs(rhs_fhd(f).values)) < 1e-11

    def test_linearized_dispersion_oracle(self):
        # v = v0 + eps sin(kx) gives v_t = -eps v0^3 (k^3 + k) cos(kx) + O(eps^2)
        grid = make_grid(0.0, 2.0 * np.pi, 256)
        k, eps, v0 = 3, 1e-6, 1.2
        f = Field(grid, v0 + eps * np.sin(k * grid.x))
        oracle = -eps * v0**3 * (k**3 + k) * np.cos(k * grid.x)
        assert np.max(np.abs(rhs_fhd(f).values - oracle)) < 1e-9

    def test_soliton_advects_at_lambda(self):
        # travelling ansatz: v_t + lambda v_x = 0 up to discretization error
        errs = []
        for n in (512, 1024):
            f = soliton_field(n)
            residual = rhs_fhd(f).values + 0.5 * d1_periodic(
                f.values, f.grid.dx
            )
            errs.append(np.max(np.abs(residual)))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] >= 12.0

    def test_rejects_nonpositive_field(self):
        grid = make_grid(0.0, 1.0, 32)
        values = np.ones(32)
        values[5] = -0.1
        with pytest.raises(ValueError):
            rhs_fhd(Field(grid, values))


class TestEvolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolveConfig(t_final=-1.0)
        with pytest.raises(ValueError):
            EvolveConfig(t_final=1.0, cfl_constant=0.9)
        with pytest.raises(ValueError):
            EvolveConfig(t_final=1.0, output_stride=0)
        # a float stride would fail only later, in evolve's np.empty
        for stride in (2.0, 1.5, np.float64(2.0), True, "2", None):
            with pytest.raises(ValueError, match="output_stride"):
                EvolveConfig(t_final=0.05, cfl_constant=0.4, output_stride=stride)
        for stride in (1, 7, np.int64(3), np.int32(1)):
            assert EvolveConfig(t_final=0.05, output_stride=stride).output_stride == stride

    def test_a_numpy_integer_stride_runs_as_its_int(self):
        field = soliton_field(n=128)
        traj = evolve(field, EvolveConfig(t_final=0.5, cfl_constant=0.4,
                                          output_stride=np.int64(2)))
        reference = evolve(field, EvolveConfig(t_final=0.5, cfl_constant=0.4,
                                               output_stride=2))
        assert len(traj.times) >= 3
        assert traj.values.tobytes() == reference.values.tobytes()


class TestEvolve:
    def test_constant_field_is_a_fixed_point(self):
        grid = make_grid(-5.0, 5.0, 128)
        f = Field(grid, np.full(128, 1.1))
        traj = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4))
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(traj.values[-1] - 1.1)) < 1e-12

    def test_frames_recorded_on_stride_and_at_final_time(self):
        f = soliton_field(n=256)
        traj = evolve(f, EvolveConfig(t_final=0.1, cfl_constant=0.4, output_stride=5))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert traj.values.shape == (len(traj.times), 256)
        assert len(traj.times) >= 3

    @pytest.mark.parametrize("phase", np.linspace(0.0, 6.0, 13))
    def test_whole_number_of_steps_records_no_extra_frame(self, phase):
        # round-off in t can leave ~1e-17 after the 20th step; that remnant
        # belongs to the 20th step, not to a 21st step with a frame of its own
        grid = make_grid(0.0, 8.0, 32)
        f = Field(grid, 1.0 + 1e-15 * np.cos(2.0 * np.pi * grid.x / 8.0 + phase))
        dt = 0.4 * grid.dx**3 / f.values.max() ** 3
        config = EvolveConfig(t_final=20 * dt, cfl_constant=0.4, output_stride=5)
        traj = evolve(f, config)
        assert len(traj.times) == 5
        assert traj.times[-1] == config.t_final
        assert np.min(np.diff(traj.times)) > 4 * dt

    def test_positivity_abort_carries_partial_trajectory(self, monkeypatch):
        f = soliton_field(n=256)
        config = EvolveConfig(t_final=1.0, cfl_constant=0.4)
        monkeypatch.setattr(evolution, "_rk4", poisoning_rk4(3, {40: -0.1}))
        with pytest.raises(EvolutionAborted) as excinfo:
            evolve(f, config)
        partial = excinfo.value.trajectory
        assert isinstance(partial, Trajectory)
        assert partial.values.shape == (len(partial.times), 256)
        assert len(partial.times) >= 1
        assert partial.times[0] == 0.0

    def test_spatial_refinement_improves_final_frame(self):
        final = {}
        for n in (256, 512, 1024):
            f = soliton_field(n=n)
            traj = evolve(
                f, EvolveConfig(t_final=0.25, cfl_constant=0.4, output_stride=10**9)
            )
            final[n] = traj.values[-1]
        err_coarse = np.max(np.abs(final[256] - final[512][::2]))
        err_fine = np.max(np.abs(final[512] - final[1024][::2]))
        assert err_coarse / err_fine >= 12.0

    def test_error_against_the_exact_wave_falls_at_sixth_order(self):
        # halving dx cuts the error 2^6 = 64 times at sixth order, 16 at
        # fourth; at cfl 0.4 the time error is still far below it at n=1024
        errors = []
        for n in (512, 1024):
            grid = make_grid(-40.0, 40.0, n)
            traj = evolve(closed_form_field(P05, grid),
                          EvolveConfig(t_final=0.25, cfl_constant=0.4, output_stride=10**9))
            exact = translated_trajectory(P05, grid, traj.times[-1:]).values[0]
            depth = P05.v0 - P05.lambda_speed / P05.v0**2
            errors.append(np.max(np.abs(traj.values[-1] - exact)) / depth)
        assert errors[0] / errors[1] >= 40.0

    def test_rejects_nonpositive_initial_data(self):
        grid = make_grid(-5.0, 5.0, 64)
        values = np.ones(64)
        values[0] = 0.0
        with pytest.raises(ValueError):
            evolve(Field(grid, values), EvolveConfig(t_final=0.1))

    def test_field_whose_cube_overflows_gives_no_step(self):
        # max(v)^3 = inf in floats: dt = 0, which no t_final can resolve
        grid = make_grid(-5.0, 5.0, 64)
        with pytest.raises(ValueError, match="is below the float resolution"):
            evolve(Field(grid, np.full(64, 1e200)), EvolveConfig(t_final=1.0))


# sixth-order weights of f at offsets -4..4 in dx^3 v_xxx and in dx v_x
D3_WEIGHTS = np.array([-7 / 240, 3 / 10, -169 / 120, 61 / 30, 0.0,
                       -61 / 30, 169 / 120, -3 / 10, 7 / 240])
D1_WEIGHTS = np.array([0.0, -1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60, 0.0])


def sum_form_rhs(values, dx):
    """Oracle: v^3 (v_xxx - v_x) as the 9-point sum of weighted neighbours."""
    n = values.size
    p = np.concatenate((values[-4:], values, values[:4]))
    acc = np.zeros(n)
    for j, c in enumerate(D3_WEIGHTS / dx**3 - D1_WEIGHTS / dx):
        acc += c * p[j : j + n]
    return values**3 * acc


def allocating_rk4(field, config):
    """Oracle: the allocating RK4 loop with the sum-form fused stencil.

    Returns the recorded times and the stacked frames.
    """
    v = field.values.copy()
    dx = field.grid.dx
    times, frames = [0.0], [v]
    t, steps = 0.0, 0
    while t < config.t_final:
        dt = config.cfl_constant * dx**3 / v.max() ** 3
        last = t + dt * (1.0 + 1e-6) >= config.t_final
        if last:
            dt = config.t_final - t
        k1 = sum_form_rhs(v, dx)
        k2 = sum_form_rhs(v + (0.5 * dt) * k1, dx)
        k3 = sum_form_rhs(v + (0.5 * dt) * k2, dx)
        k4 = sum_form_rhs(v + dt * k3, dx)
        v = v + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t = config.t_final if last else t + dt
        steps += 1
        if steps % config.output_stride == 0 or t >= config.t_final:
            times.append(t)
            frames.append(v)
    return np.array(times), np.stack(frames)


class TestInPlaceStepper:
    def test_matches_allocating_oracle(self):
        f = soliton_field(n=256)
        config = EvolveConfig(t_final=0.2, cfl_constant=0.4, output_stride=5)
        traj = evolve(f, config)
        times, frames = allocating_rk4(f, config)
        assert traj.values.shape == frames.shape
        assert np.max(np.abs(traj.times - times)) <= 1e-13
        assert np.max(np.abs(traj.values - frames) / np.abs(frames)) <= 1e-12

    def test_frame_buffer_grows_when_max_rises(self):
        # the buffer is sized from the first step's dt; here max(v) rises,
        # later steps are shorter and the run records more frames than that
        grid = make_grid(0.0, 2.0 * np.pi, 64)
        f = Field(grid, 1.0 + 0.1 * np.cos(grid.x) - 0.1 * np.cos(3.0 * grid.x))
        config = EvolveConfig(t_final=0.1, cfl_constant=0.4, output_stride=1)
        first_dt = config.cfl_constant * grid.dx**3 / f.values.max() ** 3
        traj = evolve(f, config)
        assert len(traj.times) > int(config.t_final / first_dt) + 2
        times, frames = allocating_rk4(f, config)
        assert traj.values.shape == frames.shape
        assert np.max(np.abs(traj.times - times)) <= 1e-13
        assert np.max(np.abs(traj.values - frames) / np.abs(frames)) <= 1e-12

    def test_frame_buffer_is_bounded_up_front(self, monkeypatch):
        # t_final/dt asks for ~1e11 rows; the run still starts, then aborts
        f = soliton_field(n=128)
        config = EvolveConfig(t_final=1e12, cfl_constant=0.4)
        monkeypatch.setattr(evolution, "_rk4", poisoning_rk4(1, {7: 0.0}))
        with pytest.raises(EvolutionAborted) as excinfo:
            evolve(f, config)
        assert excinfo.value.trajectory.values.shape == (1, 128)

    def test_constant_field_is_a_bit_exact_fixed_point(self):
        # the difference-form stencil cancels exactly (the sum form left
        # ~4e-13 here), so the state never moves
        grid = make_grid(-5.0, 5.0, 128)
        f = Field(grid, np.full(128, 1.3))
        assert np.all(rhs_fhd(f).values == 0.0)
        traj = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4, output_stride=7))
        assert np.all(traj.values == 1.3)

    def test_four_rhs_calls_per_step(self, monkeypatch):
        # one correlation per right-hand side; _rk4 binds the module's
        # _correlate when it builds the step, so it is patched before evolve
        calls = []
        kernel = evolution._correlate

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(evolution, "_correlate", counting)
        traj = evolve(
            soliton_field(n=128), EvolveConfig(t_final=0.5, output_stride=1)
        )
        steps = len(traj.times) - 1
        assert steps > 10
        assert len(calls) == 4 * steps

    def test_frames_are_independent_copies(self):
        # cfl 0.35: on this grid (dx 0.625) the step cap binds at cfl 0.4
        f = soliton_field(n=128)
        config = EvolveConfig(t_final=0.5, cfl_constant=0.35, output_stride=1)
        traj = evolve(f, config)
        _, frames = allocating_rk4(f, config)
        values = traj.values
        assert len(values) > 3
        assert not np.shares_memory(values, f.values)
        # every earlier frame still holds its own step, not the final state
        assert np.allclose(values, frames, rtol=1e-12, atol=0.0)
        assert not np.array_equal(values[1], values[-1])


def rhs_composed_rk4(values, dx):
    """Oracle for ``evolution._rk4``: the same buffers, each stage one call
    of ``evolution._rhs`` with the dt-scaled taps, then the add into the
    next stage; the in-line step must give its bits."""
    taps = evolution._taps(dx)
    r = evolution._radius(taps)
    halo = 4 * r
    n = values.size
    width = n + 2 * halo
    rows, incs = np.empty((2, 4, width))
    gap = np.empty(width - 2)
    halved = taps * np.array([[0.5], [1.0]])
    scaled = np.empty_like(halved)
    vp = rows[0]
    v = vp[halo : halo + n]
    v[...] = values
    ghost = np.r_[:halo, halo + n : width]
    source = halo + (ghost - halo) % n
    inner = [slice(r * s + r, width - r * s - r) for s in range(4)]
    stages = [(rows[s, r * s : width - r * s - 2], rows[s, r * s + 2 : width - r * s],
               rows[s, inner[s]], scaled[s // 2], gap[: width - 2 * r * s - 2],
               incs[s, inner[s]]) for s in range(4)]
    adds = [(vp[inner[s]], incs[s, inner[s]], rows[s + 1, inner[s]]) for s in range(3)]
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    interior = incs[:, halo : halo + n]
    combined = np.zeros(n)

    def step(dt):
        vp[ghost] = vp[source]
        np.multiply(halved, dt, scaled)
        for s in range(4):
            evolution._rhs(*stages[s])
            if s < 3:
                np.add(*adds[s])
        np.matmul(weights, interior, combined)
        np.add(v, combined, v)

    return v, step


def poisoning_rk4(at_step, writes):
    """``evolution._rk4`` whose stepper, after its ``at_step``-th step,
    writes ``writes`` ({node: value}) into v."""
    rk4 = evolution._rk4

    def poisoning(values, dx):
        v, step = rk4(values, dx)
        taken = []

        def stepper(dt):
            step(dt)
            taken.append(dt)
            if len(taken) == at_step:
                for node, value in writes.items():
                    v[node] = value

        return v, stepper

    return poisoning


class TestAbort:
    """Each abort of the step loop: its message and the frames before it."""

    STRIDE_2 = EvolveConfig(t_final=1.0, cfl_constant=0.4, output_stride=2)

    def aborted(self, monkeypatch, at_step, writes, config=STRIDE_2):
        f = soliton_field(n=128)
        monkeypatch.setattr(evolution, "_rk4", poisoning_rk4(at_step, writes))
        with pytest.raises(EvolutionAborted) as excinfo:
            evolve(f, config)
        monkeypatch.undo()
        every_step = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4, output_stride=1))
        return excinfo.value, every_step

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_step", [1, 5])
    def test_non_finite_value(self, monkeypatch, value, at_step):
        error, every_step = self.aborted(monkeypatch, at_step, {7: value})
        t = every_step.times[at_step]
        assert str(error) == f"non-finite values at t={t:.6g} (step {at_step})"
        # the frames recorded before the abort, bit for bit
        kept = list(range(0, at_step, 2))
        assert np.array_equal(error.trajectory.times, every_step.times[kept])
        assert np.array_equal(error.trajectory.values, every_step.values[kept])

    def test_non_finite_value_is_reported_before_a_floor_crossing(self, monkeypatch):
        error, _ = self.aborted(monkeypatch, 3, {7: -0.004, 90: np.nan})
        assert str(error).startswith("non-finite values at t=")

    def test_floor_crossing(self, monkeypatch):
        # the floor is v = 0, below which the equation is undefined
        error, every_step = self.aborted(monkeypatch, 5, {7: -0.004})
        # the step cap binds on this grid (dx 0.625) at cfl 0.4
        rho = evolution._spectral_radius(evolution._taps(0.625), 128)
        assert every_step.times[5] == pytest.approx(5 * evolution.STABLE_RADIUS / rho)
        assert str(error) == ("positivity lost at t=0.461794 "
                              "(min v = -0.004, step 5)")
        assert np.array_equal(error.trajectory.values, every_step.values[[0, 2, 4]])

    def test_a_value_on_the_floor_does_not_abort(self, monkeypatch):
        # the least positive float runs on; zero itself is lost positivity
        config = EvolveConfig(t_final=1.0, cfl_constant=0.4)
        monkeypatch.setattr(evolution, "_rk4", poisoning_rk4(5, {7: 5e-324}))
        traj = evolve(soliton_field(n=128), config)
        assert traj.times[-1] == 1.0
        error, _ = self.aborted(monkeypatch, 5, {7: 0.0})
        assert str(error) == "positivity lost at t=0.461794 (min v = 0, step 5)"

    @pytest.mark.parametrize("lam", [0.005, 0.001])
    def test_soliton_below_one_percent_of_v0_runs(self, lam):
        # its minimum lam once lay under a floor of 1% of the initial maximum
        grid = make_grid(-40.0, 40.0, 1024)
        f = closed_form_field(SolitonParams(lam, 1.0), grid)
        traj = evolve(f, EvolveConfig(t_final=0.05, cfl_constant=0.4))
        assert traj.times[-1] == 0.05
        assert traj.values.min() == lam


@st.composite
def smooth_fields(draw, min_n=8, max_n=600):
    """A positive periodic field: a level plus 1-3 Fourier modes.

    Each mode has at least 32 points per wavelength where n allows it (k = 1
    below n = 64), and its amplitude is at most 15% of the level.
    """
    n = draw(st.integers(min_n, max_n))
    dx = draw(st.floats(0.01, 0.3))
    level = draw(st.floats(0.5, 2.0))
    modes = st.tuples(st.integers(1, max(1, n // 32)), st.floats(0.0, 0.15),
                      st.floats(0.0, 2.0 * np.pi))
    return mode_field(n, dx, level, draw(st.lists(modes, min_size=1, max_size=3)))


def mode_field(n, dx, level, modes):
    """level (1 + sum of amplitude cos(2 pi k x / L + phase)) on n points."""
    grid = make_grid(0.0, n * dx, n)
    values = np.full(n, level)
    for k, amplitude, phase in modes:
        values += amplitude * level * np.cos(2.0 * np.pi * k * grid.x / grid.length
                                             + phase)
    return Field(grid, values)


def stencil_scale(field):
    """max(v)^4 times the summed magnitudes of the d3 and d1 coefficients."""
    dx = field.grid.dx
    return field.values.max() ** 4 * (np.abs(D3_WEIGHTS).sum() / dx**3
                                      + np.abs(D1_WEIGHTS).sum() / dx)


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(field=smooth_fields())
    def test_rhs_matches_core_stencils(self, field):
        # the sixth-order d3 - d1 of the sum-form oracle, times v^3
        oracle = sum_form_rhs(field.values, field.grid.dx)
        error = np.max(np.abs(rhs_fhd(field).values - oracle))
        assert error <= 1e-14 * stencil_scale(field)

    @settings(max_examples=100, deadline=None)
    @given(field=smooth_fields())
    def test_inverse_integral_is_a_semi_discrete_invariant(self, field):
        # d/dt sum(1/v) = -sum(v_t / v^2) = -v.(A v), zero for antisymmetric A
        v = field.values
        rate = np.sum(rhs_fhd(field).values / v**2)
        assert abs(rate) <= 1e-14 * v.size * stencil_scale(field) / v.max() ** 2

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 600), dx=st.floats(1e-3, 1.0),
           level=st.floats(1e-3, 1e3))
    def test_every_constant_level_gives_exactly_zero(self, n, dx, level):
        grid = make_grid(0.0, n * dx, n)
        assert np.all(rhs_fhd(Field(grid, np.full(n, level))).values == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(field=smooth_fields(min_n=32))
    @example(field=mode_field(32, 0.25, 1.0, [(1, 0.15, 0.0)] * 3))
    @example(field=mode_field(32, 0.25, 1.0, [(1, 1e-15, 0.0)]))
    def test_short_evolve_matches_oracle_and_conserves(self, field):
        # 20 steps at cfl 0.4. RK4's own time error moves sum(1/v) by up to
        # ~2e-12 on coarse fields (6.8e-13 in the first example), the same in the
        # oracle, so the kernel must match the oracle's drift, not zero.
        # In the second example round-off in t leaves ~1e-17 after the 20th
        # step, which both fold into that step
        dt = 0.4 * field.grid.dx**3 / field.values.max() ** 3
        config = EvolveConfig(t_final=20 * dt, cfl_constant=0.4, output_stride=5)
        traj = evolve(field, config)
        times, frames = allocating_rk4(field, config)
        assert traj.values.shape == frames.shape
        assert np.max(np.abs(traj.values - frames) / frames) <= 1e-12
        oracle = Trajectory(field.grid, times, frames)
        assert abs(conservation_drift(traj) - conservation_drift(oracle)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(field=smooth_fields(max_n=40))
    @example(field=mode_field(8, 0.3, 1.0, [(1, 0.15, 0.0)]))
    def test_small_grids_match_oracle(self, field):
        # below n = 16 the 16-cell halo of the stepper wraps the grid more
        # than once; every n up to 40 must still step like the oracle
        dt = 0.4 * field.grid.dx**3 / field.values.max() ** 3
        config = EvolveConfig(t_final=20 * dt, cfl_constant=0.4, output_stride=5)
        traj = evolve(field, config)
        times, frames = allocating_rk4(field, config)
        assert traj.values.shape == frames.shape
        assert np.max(np.abs(traj.times - times)) <= 1e-13
        assert np.max(np.abs(traj.values - frames) / frames) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(field=smooth_fields(max_n=1100), cfl=st.sampled_from([0.4, 0.5]))
    @example(field=mode_field(8, 0.3, 1.0, [(1, 0.15, 0.0)]), cfl=0.5)
    @example(field=mode_field(1100, 0.01, 1.0, [(3, 0.15, 1.0)]), cfl=0.4)
    def test_steps_give_the_bits_of_the_rhs_composition(self, field, cfl):
        # below n = 16 the halo wraps the grid more than once; at cfl 0.5
        # the step cap sets dt
        dt = cfl * field.grid.dx**3 / field.values.max() ** 3
        config = EvolveConfig(t_final=12 * dt, cfl_constant=cfl, output_stride=3)
        traj = evolve(field, config)
        with mock.patch.object(evolution, "_rk4", rhs_composed_rk4):
            reference = evolve(field, config)
        assert len(traj.times) >= 5
        assert traj.times.tobytes() == reference.times.tobytes()
        assert traj.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("n", range(8, 16))
    def test_constant_level_is_a_fixed_point_on_small_grids(self, n):
        grid = make_grid(0.0, 0.2 * n, n)
        traj = evolve(Field(grid, np.full(n, 1.3)),
                      EvolveConfig(t_final=0.01, cfl_constant=0.4, output_stride=1))
        assert len(traj.times) > 3
        assert np.all(traj.values == 1.3)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 1100), dx=st.floats(1e-3, 3.0), scale=st.floats(1e-9, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rhs_gives_the_bits_of_np_correlate(self, n, dx, scale, seed):
        # the kernel calls the C function behind np.correlate; same sum, same bits
        rng = np.random.default_rng(seed)
        p = 1.0 + 0.2 * rng.standard_normal(n + 8)
        taps = scale * evolution._taps(dx)
        gap = p[:-2] - p[2:]
        assert evolution._correlate(gap, taps, "valid").tobytes() == (
            np.correlate(gap, taps, "valid").tobytes())
        v = p[4:-4]
        out = evolution._rhs(p[:-2], p[2:], v, taps, np.empty(n + 6), np.empty(n))
        assert out.tobytes() == (np.correlate(gap, taps, "valid") * v * v * v).tobytes()


class TestStepCap:
    """dt max(v)^3 is capped at STABLE_RADIUS over the spectral radius of the
    fused operator, which binds only on coarse grids."""

    @pytest.mark.parametrize("n", [7, 8, 12, 33, 64])
    @pytest.mark.parametrize("dx", [0.05, 0.3, 2.5])
    def test_spectral_radius_matches_the_operator_matrix(self, n, dx):
        # column j: the kernel (v = 1, so no v^3) applied to unit vector j
        taps = evolution._taps(dx)
        matrix = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            p = np.concatenate((e[-4:], e, e[:4]))
            evolution._rhs(p[:-2], p[2:], np.ones(n), taps, np.empty(n + 6), matrix[:, j])
        oracle = np.max(np.abs(np.linalg.eigvals(matrix)))
        assert evolution._spectral_radius(taps, n) == pytest.approx(oracle, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(8, 4096), dx=st.floats(1e-3, 0.3))
    @example(n=2048, dx=80.0 / 2048)  # acceptance criteria 4 and 5, CLI default n
    @example(n=1024, dx=80.0 / 1024)  # benchmark persist
    @example(n=512, dx=80.0 / 512)  # benchmark dense
    def test_no_cap_at_dx_up_to_0_3(self, n, dx):
        # cfl 0.4 and below keep dt = cfl dx^3 / max(v)^3 here
        rho = evolution._spectral_radius(evolution._taps(dx), n)
        assert 0.4 * dx**3 <= evolution.STABLE_RADIUS / rho

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(8, 4096), dx=st.floats(1e-3, 1e3))
    @example(n=10, dx=1e-3)  # the smallest rho dx^3 of any grid, 5.67
    def test_cap_binds_at_cfl_0_5_on_every_grid(self, n, dx):
        # 0.5 rho dx^3 is at least 2.84 (3.09 on fine grids), above
        # STABLE_RADIUS, so the cap sets dt at cfl 0.5
        rho = evolution._spectral_radius(evolution._taps(dx), n)
        assert 0.5 * dx**3 > evolution.STABLE_RADIUS / rho

    @pytest.mark.parametrize("x_max, n, cfl", [
        (40.0, 256, 0.4), (40.0, 64, 0.1), (30.0, 64, 0.2)])
    def test_no_cap_on_the_coarse_test_grids(self, x_max, n, cfl):
        dx = 2.0 * x_max / n
        rho = evolution._spectral_radius(evolution._taps(dx), n)
        assert cfl * dx**3 <= evolution.STABLE_RADIUS / rho

    def test_cap_sets_dt_on_a_coarse_grid(self):
        # n=32 on [-40, 40]: cfl 0.4 alone would put dt max(v)^3 rho at 6.25
        f = soliton_field(n=32)
        dx, vmax = f.grid.dx, f.values.max()
        rho = evolution._spectral_radius(evolution._taps(dx), 32)
        traj = evolve(f, EvolveConfig(t_final=10.0, cfl_constant=0.4, output_stride=1))
        assert 0.4 * dx**3 * rho > 5.0
        assert traj.times[1] == evolution.STABLE_RADIUS / rho / vmax**3


class TestConservedFunctional:
    def test_constant_value(self):
        # the integrals of 1/2 and 1/4 over [0, 10] are 5 and 2.5
        grid = make_grid(0.0, 10.0, 64)
        traj = Trajectory(grid, [0.0, 1.0], [np.full(64, 2.0), np.full(64, 4.0)])
        assert conservation_drift(traj) == pytest.approx(0.5, rel=1e-15)

    def test_shift_invariance(self):
        f = soliton_field(n=256)
        traj = Trajectory(f.grid, [0.0, 1.0], [f.values, np.roll(f.values, 17)])
        assert conservation_drift(traj) <= 1e-13

    def test_rejects_nonpositive(self):
        # in any frame, not only the first
        grid = make_grid(0.0, 1.0, 32)
        values = np.ones((2, 32))
        values[1] = np.linspace(-1, 1, 32)
        with pytest.raises(ValueError, match="strictly positive"):
            conservation_drift(Trajectory(grid, [0.0, 1.0], values))

    @pytest.mark.parametrize("shape", [(264, 1024), (830, 512), (3, 8), (5, 4097)])
    def test_integrals_match_row_loop_bitwise(self, shape):
        grid = make_grid(0.0, 10.0, shape[1])
        values = np.random.default_rng(shape[0]).uniform(0.05, 3.0, shape)
        loop = grid.dx * np.array([np.sum(1.0 / row) for row in values])
        rows = evolution._inverse_integrals(grid, values)
        assert rows.tobytes() == loop.tobytes()

    def test_drift_small_over_soliton_run(self):
        f = soliton_field(n=256)
        traj = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4, output_stride=50))
        assert conservation_drift(traj) < 1e-6


class TestMeasureSpeed:
    def test_recovers_imposed_shift_speed_exactly(self):
        f = soliton_field(n=512)
        dx = f.grid.dx
        dt = 0.25
        shifts = [0, 3, 6, 9, 12]
        frames = [np.roll(f.values, s) for s in shifts]
        times = dt * np.arange(len(shifts))
        traj = Trajectory(f.grid, times, frames)
        expected = 3 * dx / dt
        assert measure_speed(traj) == pytest.approx(expected, abs=1e-10)

    def test_unwraps_across_periodic_seam(self):
        f = soliton_field(n=512)
        n = f.grid.n
        dx, dt = f.grid.dx, 1.0
        step = n // 3  # three steps wrap fully around the domain
        shifts = [0, step, 2 * step, 3 * step, 4 * step]
        frames = [np.roll(f.values, s % n) for s in shifts]
        traj = Trajectory(f.grid, dt * np.arange(len(shifts)), frames)
        assert measure_speed(traj) == pytest.approx(step * dx / dt, abs=1e-10)

    @pytest.mark.parametrize("dt", [1e-300, 1e300])
    def test_fit_holds_at_any_time_scale(self, dt):
        # the times' squares once underflowed (exit 2) or overflowed (exit 3)
        f = soliton_field(n=512)
        frames = [np.roll(f.values, 3 * k) for k in range(5)]
        traj = Trajectory(f.grid, dt * np.arange(5.0), frames)
        assert measure_speed(traj) == pytest.approx(3 * f.grid.dx / dt, rel=1e-14)

    def test_slope_that_overflows_is_a_numerical_error(self):
        f = soliton_field(n=512)
        frames = [np.roll(f.values, 3 * k) for k in range(5)]
        traj = Trajectory(f.grid, 1e-310 * np.arange(5.0), frames)
        with pytest.raises(NumericalError, match="speed fit over a time span"):
            measure_speed(traj)

    def test_flat_frames_rejected(self):
        grid = make_grid(-5.0, 5.0, 64)
        # the ulp is taken of the largest magnitude, so no sign divides by 0
        for level in (1.0, 0.0, -1.0):
            traj = Trajectory(grid, np.array([0.0, 1.0, 2.0]), np.full((3, 64), level))
            with pytest.raises(NumericalError, match="frame is flat"):
                measure_speed(traj)

    def test_minimum_positions_monotone_for_rightward_motion(self):
        f = soliton_field(n=512)
        frames = [np.roll(f.values, 5 * k) for k in range(4)]
        traj = Trajectory(f.grid, np.arange(4.0), frames)
        pos, _ = minimum_positions(traj)
        assert np.all(np.diff(pos) > 0)

    @pytest.mark.parametrize("roundoffs, moves", [(0, False), (10, False), (1e3, True)])
    def test_move_within_100_round_offs_is_a_numerical_error(self, roundoffs, moves):
        still = dip_trajectory(64, 80.0, -40.0, 3.0, [0.1, 0.1])
        roundoff = minimum_positions(still)[1].max()
        assert 0.0 < roundoff < 1e-14
        traj = dip_trajectory(64, 80.0, -40.0, 3.0, [0.1, 0.1 + roundoffs * roundoff])
        if moves:
            assert measure_speed(traj) == pytest.approx(roundoffs * roundoff, rel=0.1)
        else:
            with pytest.raises(NumericalError, match="less than 100 round-offs"):
                measure_speed(traj)


def looped_minimum_positions(trajectory):
    """Oracle: each frame's minimum on the degree-6 polynomial through its
    lowest node and the 3 nodes on either side (numpy.polynomial's fit, the
    real root of its derivative nearest the node), and those minima
    unwrapped by a loop that moves each frame to within L/2 of the last."""
    grid = trajectory.grid
    offsets = np.arange(-3, 4)
    raw = []
    for row in trajectory.values:
        i = row.argmin()
        roots = Polynomial.fit(offsets, row[(i + offsets) % grid.n], 6).deriv().roots()
        real = roots[roots.imag == 0.0].real
        raw.append(grid.x[i] + real[np.argmin(np.abs(real))] * grid.dx)
    raw = np.array(raw)
    out = raw.copy()
    length = grid.length
    for k in range(1, out.size):
        jump = raw[k] - out[k - 1]
        out[k] = out[k - 1] + jump - length * np.round(jump / length)
    return raw, out


def dip_trajectory(n, length, origin, width, centres):
    """Frames of 1 - 0.5 sech^2 dips of the given width at the given centres,
    periodic on [origin, origin + length)."""
    grid = make_grid(origin, origin + length, n)
    frames = []
    for c in centres:
        d = (grid.x - c + 0.5 * length) % length - 0.5 * length
        frames.append(1.0 - 0.5 / np.cosh(d / width) ** 2)
    return Trajectory(grid, np.arange(float(len(centres))), frames)


@st.composite
def moving_dips(draw):
    """A dip that moves by up to 0.4 L between frames, either way, so that
    its minimum crosses the periodic seam in both directions."""
    n = draw(st.integers(24, 256))
    length = draw(st.floats(5.0, 200.0))
    origin = draw(st.sampled_from([0.0, -0.5, draw(st.floats(-1.0, 1.0))])) * length
    width = draw(st.floats(3.0, n / 8.0)) * length / n
    start = origin + draw(st.floats(0.0, 1.0)) * length
    moves = draw(st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=30))
    centres = start + length * np.cumsum([0.0] + moves)
    return dip_trajectory(n, length, origin, width, centres)


class TestMinimumPositions:
    @settings(max_examples=200, deadline=None)
    @given(traj=moving_dips())
    @example(traj=dip_trajectory(64, 80.0, -40.0, 3.0, 30.0 + 7.0 * np.arange(12)))
    @example(traj=dip_trajectory(64, 80.0, -40.0, 3.0, -30.0 - 7.0 * np.arange(12)))
    @example(traj=dip_trajectory(97, 10.0, 0.0, 0.5, [0.3, 0.1, 9.9, 0.2, 9.8, 0.35]))
    def test_one_pass_unwrap_matches_the_loop(self, traj):
        raw, looped = looped_minimum_positions(traj)
        positions, _ = minimum_positions(traj)
        assert np.max(np.abs(positions - looped)) <= 1e-12 * traj.grid.length
        if np.all(np.abs(np.diff(raw)) < 0.5 * traj.grid.length):
            # no frame wraps: the module's own vertices, bit for bit. The
            # loop adds fl(b - a) back to a, which can miss b by an ulp where
            # the minimum moves toward 0 (0.3 + (0.1 - 0.3) = 0.10000000000000003)
            assert positions.tobytes() == evolution._vertices(traj)[0].tobytes()

    def test_tracks_a_sub_cell_shift_of_the_exact_wave(self):
        # the parabola through 3 nodes missed by 1.15e-3 dx; the 7-point
        # interpolant converges with the sixth-order stencil
        grid = make_grid(-40.0, 40.0, 512)
        times = grid.dx / P05.lambda_speed * np.arange(17) / 16
        positions, _ = minimum_positions(translated_trajectory(P05, grid, times))
        assert np.max(np.abs(positions - P05.lambda_speed * times)) < 5e-5 * grid.dx

    @pytest.mark.parametrize("shift", [0.0, 0.3, 0.5, 0.8])
    def test_one_ulp_in_each_value_moves_the_vertex_at_most_its_round_off(self, shift):
        # all 128 sign patterns of one ulp in each of the 7 values about the
        # lowest node, one frame each. The round-off is a first-order
        # sensitivity; the tracker's own rounding of p' and of the position
        # adds up to 0.42% of it here, hence the 1% margin
        grid = make_grid(-40.0, 40.0, 512)
        frame = translated_trajectory(P05, grid, [shift * grid.dx / P05.lambda_speed]).values[0]
        window = (frame.argmin() + np.arange(-3, 4)) % grid.n
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 7)).reshape(7, -1).T
        frames = np.tile(frame, (len(signs), 1))
        frames[:, window] = np.nextafter(frame[window], signs * np.inf)
        position, roundoff = minimum_positions(Trajectory(grid, [0.0], [frame]))
        moved, _ = minimum_positions(Trajectory(grid, np.arange(len(signs)), frames))
        move = np.abs(moved - position[0])
        assert move.max() <= 1.01 * roundoff[0]
        # the round-off is the sensitivity itself, not a loose bound
        assert move.max() >= 0.9 * roundoff[0]

    def test_a_frame_bent_down_at_its_lowest_node_has_no_round_off_bound(self):
        # curvature fm - 2 f0 + fp > 0 passes the flatness gate, but the
        # steep nodes 2 cells out bend the 7-point interpolant down there:
        # Newton takes no step and the round-off is infinite, so no speed
        frame = np.ones(32)
        frame[13:20] = [1.0, 0.99, 0.5 + 1e-6, 0.5, 0.5 + 1e-6, 0.99, 1.0]
        traj = Trajectory(make_grid(-5.0, 5.0, 32), [0.0, 1.0], [frame, np.roll(frame, 1)])
        positions, roundoff = minimum_positions(traj)
        assert np.array_equal(positions, traj.grid.x[[16, 17]])
        assert np.all(roundoff == np.inf)
        with pytest.raises(NumericalError, match="less than 100 round-offs"):
            measure_speed(traj)

    @settings(max_examples=200, deadline=None)
    @given(row=st.integers(8, 40).flatmap(
               lambda n: st.lists(st.floats(1.0, 2.0), min_size=n, max_size=n)),
           exponent=st.integers(-60, 60))
    def test_every_frame_past_the_flatness_gate_tracks_without_a_warning(self, row, exponent):
        # any positive frame from 1e-60 to 2e60: a RuntimeWarning is an error here
        frame = np.array(row) * 10.0**exponent
        grid = make_grid(-5.0, 5.0, frame.size)
        try:
            positions, roundoff = minimum_positions(Trajectory(grid, [0.0], [frame]))
        except NumericalError as exc:
            assert "frame is flat" in str(exc)
            return
        assert abs(positions[0] - grid.x[frame.argmin()]) <= grid.dx
        assert roundoff[0] >= 0.0

    def test_reads_the_trajectory_row_by_row(self):
        # argmin(axis=1) of the whole read-only (T, n) array would copy it
        f = soliton_field(n=512)
        traj = Trajectory(f.grid, np.arange(200.0),
                          [np.roll(f.values, k) for k in range(200)])
        tracemalloc.start()
        minimum_positions(traj)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 0.25 * traj.values.nbytes


class TestShapeTools:
    def test_fourier_shift_matches_integer_roll(self):
        f = soliton_field(n=256)
        shifted = shift_field(f, 4 * f.grid.dx)
        assert np.max(np.abs(shifted.values - np.roll(f.values, 4))) < 1e-10

    def test_shape_error_zero_for_pure_translation(self):
        f = soliton_field(n=512)
        frames = [np.roll(f.values, 7 * k) for k in range(3)]
        traj = Trajectory(f.grid, np.arange(3.0), frames)
        assert shape_error(traj, background=1.0) < 1e-9

    def test_shape_error_detects_distortion(self):
        f = soliton_field(n=512)
        widened = 1.0 + 1.5 * (f.values - 1.0)
        traj = Trajectory(f.grid, np.array([0.0, 1.0]), [f.values, widened])
        assert shape_error(traj, background=1.0) > 0.1
