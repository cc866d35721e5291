import numpy as np
import pytest

from fhdlab import evolution
from fhdlab.core import Field, SolitonParams, Trajectory, d1_periodic, make_grid
from fhdlab.evolution import (
    EvolutionAborted,
    EvolveConfig,
    conservation_drift,
    conserved_functional,
    evolve,
    measure_speed,
    minimum_positions,
    rhs_fhd,
    shape_error,
    shift_field,
)
from fhdlab.profiles import profile_by_shooting

P05 = SolitonParams(0.5, 1.0)


def soliton_field(n=512, half_width=40.0):
    grid = make_grid(-half_width, half_width, n, periodic=True)
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

    def test_rejects_nonperiodic_grid(self):
        grid = make_grid(0.0, 1.0, 32, periodic=False)
        with pytest.raises(ValueError):
            rhs_fhd(Field(grid, np.ones(32)))


class TestEvolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolveConfig(t_final=-1.0)
        with pytest.raises(ValueError):
            EvolveConfig(t_final=1.0, cfl_constant=0.9)
        with pytest.raises(ValueError):
            EvolveConfig(t_final=1.0, output_stride=0)
        with pytest.raises(ValueError):
            EvolveConfig(t_final=1.0, positivity_floor=-0.5)


class TestEvolve:
    def test_constant_field_is_a_fixed_point(self):
        grid = make_grid(-5.0, 5.0, 128)
        f = Field(grid, np.full(128, 1.1))
        traj = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4))
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(traj.frames[-1].values - 1.1)) < 1e-12

    def test_frames_recorded_on_stride_and_at_final_time(self):
        f = soliton_field(n=256)
        traj = evolve(f, EvolveConfig(t_final=0.1, cfl_constant=0.4, output_stride=5))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert len(traj.frames) >= 3

    def test_positivity_abort_carries_partial_trajectory(self):
        f = soliton_field(n=256)
        config = EvolveConfig(t_final=1.0, cfl_constant=0.4, positivity_floor=0.9)
        with pytest.raises(EvolutionAborted) as excinfo:
            evolve(f, config)
        partial = excinfo.value.trajectory
        assert isinstance(partial, Trajectory)
        assert len(partial.frames) >= 1
        assert partial.times[0] == 0.0

    def test_spatial_refinement_improves_final_frame(self):
        final = {}
        for n in (256, 512, 1024):
            f = soliton_field(n=n)
            traj = evolve(
                f, EvolveConfig(t_final=0.25, cfl_constant=0.4, output_stride=10**9)
            )
            final[n] = traj.frames[-1].values
        err_coarse = np.max(np.abs(final[256] - final[512][::2]))
        err_fine = np.max(np.abs(final[512] - final[1024][::2]))
        assert err_coarse / err_fine >= 12.0

    def test_rejects_nonpositive_initial_data(self):
        grid = make_grid(-5.0, 5.0, 64)
        values = np.ones(64)
        values[0] = 0.0
        with pytest.raises(ValueError):
            evolve(Field(grid, values), EvolveConfig(t_final=0.1))


def allocating_rk4(field, config):
    """Oracle: the allocating RK4 loop with the sum-form fused stencil.

    Returns the recorded times and the stacked frames.
    """

    def rhs(values, dx):
        n = values.shape[-1]
        c3 = 1.0 / (8.0 * dx**3)
        c2 = 8.0 / (8.0 * dx**3) + 1.0 / (12.0 * dx)
        c1 = 13.0 / (8.0 * dx**3) + 8.0 / (12.0 * dx)
        p = np.concatenate((values[-3:], values, values[:3]))
        acc = c3 * p[0:n]
        acc -= c2 * p[1 : n + 1]
        acc += c1 * p[2 : n + 2]
        acc -= c1 * p[4 : n + 4]
        acc += c2 * p[5 : n + 5]
        acc -= c3 * p[6 : n + 6]
        return values**3 * acc

    v = field.values.copy()
    dx = field.grid.dx
    times, frames = [0.0], [v]
    t, steps = 0.0, 0
    while t < config.t_final:
        dt = config.cfl_constant * dx**3 / v.max() ** 3
        if t + dt >= config.t_final:
            dt = config.t_final - t
        k1 = rhs(v, dx)
        k2 = rhs(v + (0.5 * dt) * k1, dx)
        k3 = rhs(v + (0.5 * dt) * k2, dx)
        k4 = rhs(v + dt * k3, dx)
        v = v + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += dt
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
        assert len(traj.frames) == len(times)
        assert np.max(np.abs(traj.times - times)) <= 1e-13
        assert np.max(np.abs(traj.values - frames) / np.abs(frames)) <= 1e-12

    def test_constant_field_is_a_bit_exact_fixed_point(self):
        # the difference-form stencil cancels exactly (the sum form left
        # ~4e-13 here), so the state never moves
        grid = make_grid(-5.0, 5.0, 128)
        f = Field(grid, np.full(128, 1.3))
        assert np.all(rhs_fhd(f).values == 0.0)
        traj = evolve(f, EvolveConfig(t_final=1.0, cfl_constant=0.4, output_stride=7))
        assert np.all(traj.values == 1.3)

    def test_four_rhs_calls_per_step(self, monkeypatch):
        calls = []
        kernel = evolution._rhs

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(evolution, "_rhs", counting)
        traj = evolve(
            soliton_field(n=128), EvolveConfig(t_final=0.5, output_stride=1)
        )
        steps = len(traj.frames) - 1
        assert steps > 10
        assert len(calls) == 4 * steps

    def test_frames_are_independent_copies(self):
        f = soliton_field(n=128)
        config = EvolveConfig(t_final=0.5, cfl_constant=0.4, output_stride=1)
        traj = evolve(f, config)
        _, frames = allocating_rk4(f, config)
        values = [frame.values for frame in traj.frames]
        assert len(values) > 3
        for i, a in enumerate(values):
            assert not any(np.shares_memory(a, b) for b in values[i + 1 :])
        # every earlier frame still holds its own step, not the final state
        assert np.allclose(np.stack(values), frames, rtol=1e-12, atol=0.0)
        assert not np.array_equal(values[1], values[-1])


class TestConservedFunctional:
    def test_constant_value(self):
        grid = make_grid(0.0, 10.0, 64)
        assert conserved_functional(Field(grid, np.full(64, 2.0))) == pytest.approx(
            5.0, rel=1e-15
        )

    def test_shift_invariance(self):
        f = soliton_field(n=256)
        rolled = Field(f.grid, np.roll(f.values, 17))
        a, b = conserved_functional(f), conserved_functional(rolled)
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_rejects_nonpositive(self):
        grid = make_grid(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            conserved_functional(Field(grid, np.zeros(32) + np.linspace(-1, 1, 32)))

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
        frames = tuple(Field(f.grid, np.roll(f.values, s)) for s in shifts)
        times = dt * np.arange(len(shifts))
        traj = Trajectory(times, frames)
        expected = 3 * dx / dt
        assert measure_speed(traj) == pytest.approx(expected, abs=1e-10)

    def test_unwraps_across_periodic_seam(self):
        f = soliton_field(n=512)
        n = f.grid.n
        dx, dt = f.grid.dx, 1.0
        step = n // 3  # three steps wrap fully around the domain
        shifts = [0, step, 2 * step, 3 * step, 4 * step]
        frames = tuple(Field(f.grid, np.roll(f.values, s % n)) for s in shifts)
        traj = Trajectory(dt * np.arange(len(shifts)), frames)
        assert measure_speed(traj) == pytest.approx(step * dx / dt, abs=1e-10)

    def test_flat_frames_rejected(self):
        grid = make_grid(-5.0, 5.0, 64)
        f = Field(grid, np.ones(64))
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), (f, f, f))
        with pytest.raises(ValueError):
            measure_speed(traj)

    def test_minimum_positions_monotone_for_rightward_motion(self):
        f = soliton_field(n=512)
        frames = tuple(Field(f.grid, np.roll(f.values, 5 * k)) for k in range(4))
        traj = Trajectory(np.arange(4.0), frames)
        pos = minimum_positions(traj)
        assert np.all(np.diff(pos) > 0)


class TestShapeTools:
    def test_fourier_shift_matches_integer_roll(self):
        f = soliton_field(n=256)
        shifted = shift_field(f, 4 * f.grid.dx)
        assert np.max(np.abs(shifted.values - np.roll(f.values, 4))) < 1e-10

    def test_shape_error_zero_for_pure_translation(self):
        f = soliton_field(n=512)
        frames = tuple(Field(f.grid, np.roll(f.values, 7 * k)) for k in range(3))
        traj = Trajectory(np.arange(3.0), frames)
        assert shape_error(traj, background=1.0) < 1e-9

    def test_shape_error_detects_distortion(self):
        f = soliton_field(n=512)
        widened = Field(f.grid, 1.0 + 1.5 * (f.values - 1.0))
        traj = Trajectory(np.array([0.0, 1.0]), (f, widened))
        assert shape_error(traj, background=1.0) > 0.1
