"""Method-of-lines evolution of v_t = v^3 (v_xxx - v_x) on a periodic grid.

Space is discretized with the 4th-order central stencils from ``core``;
time stepping is classical four-stage Runge-Kutta with a dispersive CFL
restriction dt = cfl * dx^3 / max(v)^3, recomputed every step. The third
derivative acts like a linear dispersive operator with local coefficient
v^3, hence the cubic step scaling; RK4's imaginary-axis stability interval
makes cfl values up to ~0.6 stable, and the configurable range is capped
at 0.5.

The dispersive limit makes runs long (about 26k steps at n=1024 to t=5)
on arrays small enough that per-call overhead, not arithmetic, sets the
cost of a step. The stepper therefore allocates nothing inside its loop:
one padded stage buffer (n interior values plus 3 periodic ghost cells on
each side), the four stage slopes and one work array are allocated once
per run, every stage and the final combination are formed in place, and
only the 3+3 ghost cells are refreshed before each right-hand-side call.
The fused 7-point stencil is evaluated in the difference form
c3(p0-p6) - c2(p1-p5) + c1(p2-p4), and max(v) and min(v) are reduced once
per step, after the update; that max sets the next step's dt.

The semi-discrete system conserves sum(1/v) exactly (the stencils are
antisymmetric), so the integral of 1/v is a sharp accuracy diagnostic for
the time integration. In the difference form a constant field has an
exactly zero right-hand side, so it is a bit-exact fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Field, NumericalError, Trajectory


@dataclass(frozen=True)
class EvolveConfig:
    """Run controls for ``evolve``.

    ``positivity_floor`` defaults to 1% of the initial field maximum (the
    background level for depression data); the equation degenerates as
    v -> 0 and aborting cleanly beats producing garbage.
    """

    t_final: float
    cfl_constant: float = 0.1
    output_stride: int = 100
    positivity_floor: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be positive and finite")
        if not (0.0 < self.cfl_constant <= 0.5):
            raise ValueError("cfl_constant must lie in (0, 0.5]")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        if self.positivity_floor is not None and self.positivity_floor <= 0.0:
            raise ValueError("positivity_floor must be positive")


class EvolutionAborted(NumericalError):
    """Raised when the run hits the positivity floor or loses finiteness.

    Carries the trajectory recorded up to the last good frame.
    """

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def _windows(padded: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of a buffer of n+6 values that ``_rhs`` reads and writes.

    The first seven are the stencil windows padded[j:j+n], j = 0..6; the
    middle one (j = 3) is the field itself. The last four pair the left
    and the right 3 ghost cells with the interior cells they mirror.
    Building the views once per run keeps slicing out of the step loop.
    """
    n = padded.shape[-1] - 6
    shifted = tuple(padded[j : j + n] for j in range(7))
    return shifted + (padded[:3], padded[n : n + 3], padded[n + 3 :], padded[3:6])


def _rhs(
    windows: tuple[np.ndarray, ...], dx: float, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Write v^3 (v_xxx - v_x) into ``out`` without allocating.

    ``windows`` comes from ``_windows`` on a buffer holding the field in
    its interior; the periodic ghost cells are refreshed here. ``work`` is
    an n-array of scratch space. The two stencils are fused into one
    7-point pass in the difference form, whose coefficients are exactly
    antisymmetric, so sum(1/v) stays a discrete invariant of the
    semi-discretization.
    """
    p0, p1, p2, v, p4, p5, p6, left, left_src, right, right_src = windows
    c3 = 1.0 / (8.0 * dx**3)
    c2 = 8.0 / (8.0 * dx**3) + 1.0 / (12.0 * dx)
    c1 = 13.0 / (8.0 * dx**3) + 8.0 / (12.0 * dx)
    left[...] = left_src
    right[...] = right_src
    np.subtract(p0, p6, out=out)
    out *= c3
    np.subtract(p1, p5, out=work)
    work *= c2
    out -= work
    np.subtract(p2, p4, out=work)
    work *= c1
    out += work
    np.multiply(v, v, out=work)
    work *= v
    out *= work
    return out


def rhs_fhd(field: Field) -> Field:
    """Pointwise v^3 (v_xxx - v_x) on a positive periodic field."""
    if not field.grid.periodic:
        raise ValueError("the evolution operator requires a periodic grid")
    if np.any(field.values <= 0.0):
        raise ValueError("field must be strictly positive")
    n = field.grid.n
    windows = _windows(np.empty(n + 6))
    windows[3][...] = field.values
    return Field(field.grid, _rhs(windows, field.grid.dx, np.empty(n), np.empty(n)))


def evolve(field: Field, config: EvolveConfig) -> Trajectory:
    """March the field to t_final, recording every output_stride-th step.

    The step size cfl*dx^3/max(v)^3 is refreshed from the current state so
    general initial data stay inside the stability region even if max(v)
    drifts. Aborts (with the partial trajectory attached) on any value
    dropping below the positivity floor or turning non-finite. The state
    and all RK4 stage arrays are allocated once; recorded frames are
    copies of the state.
    """
    if not field.grid.periodic:
        raise ValueError("evolve requires a periodic grid")
    v = field.values.copy()
    if np.any(v <= 0.0):
        raise ValueError("initial field must be strictly positive")
    n = field.grid.n
    dx = field.grid.dx
    floor = config.positivity_floor
    if floor is None:
        floor = 0.01 * float(v.max())

    windows = _windows(np.empty(n + 6))
    stage = windows[3]
    k1, k2, k3, k4, work = np.empty((5, n))
    dt_scale = config.cfl_constant * dx**3

    times = [0.0]
    frames = [field]
    t = 0.0
    steps = 0
    vmax = v.max()
    while t < config.t_final:
        dt = dt_scale / vmax**3
        if t + dt >= config.t_final:
            dt = config.t_final - t

        stage[...] = v
        _rhs(windows, dx, k1, work)
        np.multiply(k1, 0.5 * dt, out=stage)
        stage += v
        _rhs(windows, dx, k2, work)
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += v
        _rhs(windows, dx, k3, work)
        np.multiply(k3, dt, out=stage)
        stage += v
        _rhs(windows, dx, k4, work)
        # v += (dt/6) (k1 + 2 (k2 + k3) + k4), accumulated in k2
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        v += k2
        t += dt
        steps += 1

        vmin, vmax = v.min(), v.max()
        if not (np.isfinite(vmin) and np.isfinite(vmax)):
            raise EvolutionAborted(
                f"non-finite values at t={t:.6g} (step {steps})",
                Trajectory(np.asarray(times), tuple(frames)),
            )
        if vmin < floor:
            raise EvolutionAborted(
                f"positivity floor {floor:.6g} crossed at t={t:.6g} "
                f"(min v = {vmin:.6g}, step {steps})",
                Trajectory(np.asarray(times), tuple(frames)),
            )
        if steps % config.output_stride == 0 or t >= config.t_final:
            times.append(t)
            frames.append(Field(field.grid, v))

    return Trajectory(np.asarray(times), tuple(frames))


def _parabolic_minimum(field: Field) -> float:
    """Sub-grid minimum location from a parabola through the 3 lowest nodes."""
    v = field.values
    scale = float(np.abs(v).max())
    if float(v.max() - v.min()) <= 1e-12 * max(scale, 1.0):
        raise ValueError("frame is flat: no localized structure to track")
    n = field.grid.n
    i = int(np.argmin(v))
    fm, f0, fp = v[(i - 1) % n], v[i], v[(i + 1) % n]
    denom = fm - 2.0 * f0 + fp
    if denom <= 0.0:
        raise ValueError("minimum neighborhood is not convex; cannot interpolate")
    offset = 0.5 * (fm - fp) / denom
    return float(field.grid.x[i] + offset * field.grid.dx)


def minimum_positions(trajectory: Trajectory) -> np.ndarray:
    """Per-frame minimum locations, unwrapped across the periodic seam."""
    length = trajectory.grid.length
    raw = np.array([_parabolic_minimum(f) for f in trajectory.frames])
    out = raw.copy()
    for k in range(1, out.size):
        jump = raw[k] - out[k - 1]
        out[k] = out[k - 1] + jump - length * np.round(jump / length)
    return out


def measure_speed(trajectory: Trajectory) -> float:
    """Least-squares propagation speed of the tracked minimum."""
    if len(trajectory.frames) < 2:
        raise ValueError("need at least two frames to measure a speed")
    pos = minimum_positions(trajectory)
    slope = np.polyfit(trajectory.times, pos, 1)[0]
    return float(slope)


def conserved_functional(field: Field) -> float:
    """Trapezoidal integral of 1/v over the periodic cell."""
    if not field.grid.periodic:
        raise ValueError("the conserved functional is defined on periodic grids")
    if np.any(field.values <= 0.0):
        raise ValueError("field must be strictly positive")
    return float(field.grid.dx * np.sum(1.0 / field.values))


def conservation_drift(trajectory: Trajectory) -> float:
    """Max relative drift of the 1/v integral across the trajectory."""
    values = np.array([conserved_functional(f) for f in trajectory.frames])
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def shift_field(field: Field, shift: float) -> Field:
    """Translate a periodic field by +shift via the Fourier phase ramp.

    Spectrally accurate for smooth fields; the shift need not be a grid
    multiple.
    """
    if not field.grid.periodic:
        raise ValueError("Fourier shift requires a periodic grid")
    n = field.grid.n
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=field.grid.dx)
    spectrum = np.fft.rfft(field.values) * np.exp(-1j * k * shift)
    return Field(field.grid, np.fft.irfft(spectrum, n=n))


def shape_error(trajectory: Trajectory, background: float) -> float:
    """Relative L2 profile distortion after undoing the measured translation.

    The final frame is shifted back by the displacement of its tracked
    minimum and compared against the initial frame; the difference norm is
    scaled by the norm of the initial depression (initial frame minus the
    background level).
    """
    pos = minimum_positions(trajectory)
    displacement = pos[-1] - pos[0]
    first = trajectory.frames[0]
    realigned = shift_field(trajectory.frames[-1], -displacement)
    num = float(np.linalg.norm(realigned.values - first.values))
    den = float(np.linalg.norm(first.values - background))
    if den == 0.0:
        raise ValueError("initial frame has no depression relative to background")
    return num / den
