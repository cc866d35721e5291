"""Method-of-lines evolution of v_t = v^3 (v_xxx - v_x) on a periodic grid.

Space is discretized with the 4th-order central stencils from ``core``;
time stepping is classical four-stage Runge-Kutta with a dispersive CFL
restriction dt = cfl * dx^3 / max(v)^3, recomputed every step. The third
derivative acts like a linear dispersive operator with local coefficient
v^3, hence the cubic step scaling; RK4's imaginary-axis stability interval
makes cfl values up to ~0.6 stable, and the configurable range is capped
at 0.5. On coarse grids the first-derivative part of the stencil matters
too, so dt max(v)^3 is also capped at STABLE_RADIUS / rho, for rho the
spectral radius of the fused operator on the grid, computed once per run.
rho dx^3 is 4.62 on fine grids and 12.8 at n=32 on [-40, 40]; at any cfl
the config allows, the cap can bind only where dx > 0.3, so finer grids
keep dt = cfl dx^3 / max(v)^3 bit for bit.

The dispersive limit makes runs long (about 26k steps at n=1024 to t=5)
on arrays small enough that per-call overhead, not arithmetic, sets the
cost of a step, so a step is about 30 NumPy calls on buffers allocated
once per run, each ``out`` passed positionally and the correlation called
without NumPy's __array_function__ dispatch. v sits in row 0 of a
(4, n+24) buffer inside a 12-cell periodic halo per side, 3 cells for
each stage: stage s reads row s on [3s, n+24-3s), its slope is valid 3
cells further in, and stage s+1 is one add of v and that increment into
row s+1. One gather refreshes the halo of v once per step (for n < 12 it
wraps the grid more than once). dt is folded into the taps: one multiply
scales the stored taps/2 and taps by dt, so the right-hand sides write
dt/2 k1, dt/2 k2, dt k3 and dt k4, which one matmul with the weights
(1/3, 2/3, 1/3, 1/6) and one add combine into v. The loop around the step
reads min(v) and max(v) as v.item(v.argmin()) and v.item(v.argmax()),
about 0.5 us each against 1.2 us for a ufunc reduction, and both stop at
the first NaN as the reductions do. t, dt and the extremes stay Python
floats, and one comparison tests both the floor and finiteness; the max
sets the next dt. Recorded steps are copied into one (frames, n) buffer,
sized from the first dt and doubled only if max(v) rises enough to need
more.

The fused 7-point stencil c3(p0-p6) - c2(p1-p5) + c1(p2-p4) of a stage
window p is evaluated through the gap-2 difference g_j = p_j - p_{j+2}:
p2-p4 = g2, p1-p5 = g1+g3 and p0-p6 = g0+g2+g4, so the stencil is one
5-tap correlation of g with the symmetric taps (c3, -c2, c3+c1, -c2, c3),
and a right-hand side is 5 NumPy calls: the difference, the correlation
and 3 in-place multiplies by v.

Symmetric taps on an antisymmetric difference give an exactly
antisymmetric operator for the float taps, scaled by dt or not: the
neighbour at offset d gets the weight t_{3+d} - t_{1+d} (taps t_0..t_4,
zero outside), which t_j = t_{4-j} makes the exact negative of the weight
at offset -d. So the semi-discrete system conserves sum(1/v), a sharp
diagnostic of the time error, since d/dt sum(1/v) = -v.(A v) = 0; a
constant field has g = 0 and so is a bit-exact fixed point.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Field, Grid1D, NumericalError, Trajectory


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
        floor = self.positivity_floor
        if floor is not None and not (math.isfinite(floor) and floor > 0.0):
            raise ValueError("positivity_floor must be positive and finite")


class EvolutionAborted(NumericalError):
    """Raised when the run hits the positivity floor or loses finiteness.

    Carries the trajectory recorded up to the last good frame, a view of
    the run's frame buffer.
    """

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


HALO = 12  # 3 periodic cells per RK4 stage on each side of the state
# the largest dt max(v)^3 rho used, for rho the spectral radius of the fused
# operator: inside RK4's imaginary-axis interval 2 sqrt(2), and above the 2.36
# that cfl 0.5 gives on any grid with dx <= 0.3, so there dt = cfl dx^3/max(v)^3
STABLE_RADIUS = 2.4


def _taps(dx: float) -> np.ndarray:
    """The symmetric 5 taps (c3, -c2, c3+c1, -c2, c3) of the fused stencil."""
    c3 = 1.0 / (8.0 * dx**3)
    c2 = 8.0 / (8.0 * dx**3) + 1.0 / (12.0 * dx)
    c1 = 13.0 / (8.0 * dx**3) + 8.0 / (12.0 * dx)
    return np.array([c3, -c2, c3 + c1, -c2, c3])


# np.correlate without its __array_function__ dispatch, about 1 us a call
_correlate = getattr(np.correlate, "__wrapped__", np.correlate)


def _rhs(head: np.ndarray, tail: np.ndarray, v: np.ndarray, taps: np.ndarray,
         gap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write v^3 times the stencil of ``taps`` into ``out`` in 5 NumPy calls.

    For a window p of m periodic values, head = p[:-2], tail = p[2:] and
    v = p[3:-3]: writes g = head - tail into the (m-2)-array ``gap``,
    correlates g with the taps and multiplies by v three times, so ``out``
    holds m-6 values. A constant window has g = 0, hence 0 here.
    """
    np.subtract(head, tail, gap)
    np.multiply(_correlate(gap, taps, "valid"), v, out)
    np.multiply(out, v, out)
    np.multiply(out, v, out)
    return out


def _spectral_radius(taps: np.ndarray, n: int) -> float:
    """The largest |eigenvalue| of the periodic operator of ``taps`` on n points.

    The operator is antisymmetric with weight w_d = t_{3+d} - t_{1+d} at
    offset d = 1, 2, 3, so its eigenvalues are 2i sum_d w_d sin(d theta) at
    the grid's wavenumbers theta = 2 pi k / n.
    """
    w = np.array([taps[4] - taps[2], -taps[3], -taps[4]])
    theta = 2.0 * np.pi / n * np.arange(n // 2 + 1)
    return 2.0 * float(np.max(np.abs(np.sin(np.outer(theta, [1.0, 2.0, 3.0])) @ w)))


def rhs_fhd(field: Field) -> Field:
    """Pointwise v^3 (v_xxx - v_x) on a positive periodic field."""
    if np.any(field.values <= 0.0):
        raise ValueError("field must be strictly positive")
    v = field.values
    p = np.concatenate((v[-3:], v, v[:3]))
    rhs = _rhs(p[:-2], p[2:], v, _taps(field.grid.dx), np.empty(v.size + 4), np.empty(v.size))
    return Field(field.grid, rhs)


def _rk4(values: np.ndarray, dx: float) -> tuple[np.ndarray, Callable[[float], None]]:
    """The state v, a view that starts as ``values``, and its RK4 step(dt).

    step advances v in place, calls the module's ``_rhs`` 4 times and
    allocates only the arrays ``np.correlate`` returns.
    """
    n = values.size
    width = n + 2 * HALO
    rows, incs = np.empty((2, 4, width))  # stage s and its increment in row s
    gap = np.empty(width - 2)
    # taps/2 for stages 1-2 and taps for 3-4, scaled by dt; halving is exact
    halved = _taps(dx) * np.array([[0.5], [1.0]])
    scaled = np.empty((2, 5))
    vp = rows[0]
    v = vp[HALO : HALO + n]
    v[...] = values
    ghost = np.r_[:HALO, HALO + n : width]
    source = HALO + (ghost - HALO) % n
    inner = [slice(3 * s + 3, width - 3 * s - 3) for s in range(4)]
    k1, k2, k3, k4 = [(rows[s, 3 * s : width - 3 * s - 2], rows[s, 3 * s + 2 : width - 3 * s],
                       rows[s, inner[s]], scaled[s // 2], gap[: width - 6 * s - 2],
                       incs[s, inner[s]]) for s in range(4)]
    # stage s+1 = v + increment s, on the cells where that increment is valid
    a1, a2, a3 = [(vp[inner[s]], incs[s, inner[s]], rows[s + 1, inner[s]]) for s in range(3)]
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    interior = incs[:, HALO : HALO + n]
    combined = np.zeros(n)  # some BLAS builds scale it by beta = 0, keeping NaN

    def step(dt: float) -> None:
        vp[ghost] = vp[source]
        np.multiply(halved, dt, scaled)
        _rhs(*k1)
        np.add(*a1)
        _rhs(*k2)
        np.add(*a2)
        _rhs(*k3)
        np.add(*a3)
        _rhs(*k4)
        # v += (dt/6) (k1 + 2 k2 + 2 k3 + k4) from dt/2 k1, dt/2 k2, dt k3, dt k4
        np.matmul(weights, interior, combined)
        np.add(v, combined, v)

    return v, step


def evolve(field: Field, config: EvolveConfig) -> Trajectory:
    """March the field to t_final, recording every output_stride-th step.

    The step size min(cfl*dx^3, STABLE_RADIUS/rho)/max(v)^3 is refreshed
    from the current state so general initial data stay inside the
    stability region even if max(v) drifts. Aborts (with the partial
    trajectory attached) on any value dropping below the positivity floor
    or turning non-finite. Recorded steps go to rows of one frame buffer;
    the trajectory is a view of it.
    """
    if np.any(field.values <= 0.0):
        raise ValueError("initial field must be strictly positive")
    grid, n = field.grid, field.grid.n
    floor = config.positivity_floor
    if floor is None:
        floor = 0.01 * float(field.values.max())
    v, step = _rk4(field.values, grid.dx)
    # dt max(v)^3 times the spectral radius stays inside RK4's stable interval
    rho = _spectral_radius(_taps(grid.dx), n)
    dt_scale = min(config.cfl_constant * grid.dx**3, STABLE_RADIUS / rho)
    t_final, stride = config.t_final, config.output_stride
    t, steps, last = 0.0, 0, False
    vmax = v.item(v.argmax())
    try:
        dt_first = dt_scale / vmax**3
    except OverflowError:  # a Python float's cube raises where NumPy's is inf
        dt_first = 0.0
    # a step that t_final + dt rounds away could never end the run
    if not t_final + dt_first > t_final:
        raise ValueError(f"dt = cfl*dx^3/max(v)^3 = {dt_first:.3g} is below the "
                         f"float resolution at t_final {t_final:g}")
    # enough rows for every recorded step unless max(v) rises during the run;
    # at most 2**24 values up front, however many steps a tiny dx implies
    rows = int(t_final / dt_first) // stride + 2
    frames = np.empty((min(rows, max(2, 2**24 // n)), n))
    frames[0] = v
    times = [t]
    while not last:
        dt = dt_scale / vmax**3
        # end on t_final from within 1e-6 dt, so round-off adds no ~1e-17 step
        last = t + dt * (1.0 + 1e-6) >= t_final
        if last:
            dt = t_final - t
        step(dt)
        t = t_final if last else t + dt
        steps += 1
        # argmin and argmax stop at the first NaN, as the reductions do
        vmin, vmax = v.item(v.argmin()), v.item(v.argmax())
        # False for NaN and for either infinity, so one test covers each abort
        if not (vmin >= floor and vmax < math.inf):
            if not (math.isfinite(vmin) and math.isfinite(vmax)):
                message = f"non-finite values at t={t:.6g} (step {steps})"
            else:
                message = (f"positivity floor {floor:.6g} crossed at t={t:.6g} "
                           f"(min v = {vmin:.6g}, step {steps})")
            raise EvolutionAborted(message, Trajectory(grid, times, frames[: len(times)]))
        if last or steps % stride == 0:
            if len(times) == len(frames):
                frames = np.concatenate((frames, np.empty_like(frames)))
            frames[len(times)] = v
            times.append(t)

    return Trajectory(grid, times, frames[: len(times)])


def minimum_positions(trajectory: Trajectory) -> np.ndarray:
    """Per-frame minimum locations, unwrapped across the periodic seam.

    Each frame's minimum sits at the vertex of the parabola through its
    lowest node and that node's two neighbours, to sub-grid accuracy. A
    frame whose depth is within 1e-12 of its scale is a NumericalError.
    """
    grid = trajectory.grid
    values = trajectory.values
    rows = np.arange(len(values))
    # row by row: argmin along axis 1 copies a read-only (T, n) array
    i = np.array([row.argmin() for row in values])
    f0 = values[rows, i]
    top = values.max(axis=1)
    if np.any(top - f0 <= 1e-12 * np.maximum(np.maximum(top, -f0), 1.0)):
        raise NumericalError("frame is flat: no localized structure to track")
    fm = values[rows, (i - 1) % grid.n]
    fp = values[rows, (i + 1) % grid.n]
    denom = fm - 2.0 * f0 + fp
    if np.any(denom <= 0.0):
        raise ValueError("minimum neighborhood is not convex; cannot interpolate")
    raw = grid.x[i] + 0.5 * (fm - fp) / denom * grid.dx
    # a jump of more than L/2 between frames is a crossing of the seam
    crossings = np.cumsum(np.round(np.diff(raw) / grid.length))
    raw[1:] -= grid.length * crossings
    return raw


def measure_speed(trajectory: Trajectory) -> float:
    """Least-squares propagation speed of the tracked minimum."""
    times = trajectory.times
    if times.size < 2:
        raise ValueError("need at least two frames to measure a speed")
    # the fit scales the times by their 2-norm, which must not underflow
    if not np.sum(times * times) > 0.0:
        raise ValueError(f"frames span too short a time ({times[-1]:g}) to fit a speed")
    pos = minimum_positions(trajectory)
    slope = np.polyfit(times, pos, 1)[0]
    return float(slope)


def _inverse_integrals(grid: Grid1D, rows: np.ndarray) -> np.ndarray:
    """Trapezoidal integrals of 1/v over the periodic cell, one per row.

    One reduction per block of about 2**13 values, not per row: the sums
    are those of the rows, bit for bit, and no (T, n) reciprocal is built
    (at T=264, n=1024 one would raise a run's peak memory by 2 MB).
    """
    if rows.min() <= 0.0:
        raise ValueError("field must be strictly positive")
    step = max(1, 2**13 // rows.shape[1])
    sums = [np.sum(1.0 / rows[i : i + step], axis=1) for i in range(0, len(rows), step)]
    return grid.dx * np.concatenate(sums)


def conservation_drift(trajectory: Trajectory) -> float:
    """Max relative drift of the 1/v integral across the trajectory."""
    values = _inverse_integrals(trajectory.grid, trajectory.values)
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def shift_field(field: Field, shift: float) -> Field:
    """Translate a periodic field by +shift via the Fourier phase ramp.

    Spectrally accurate for smooth fields; the shift need not be a grid
    multiple.
    """
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
    first, last = trajectory.values[0], trajectory.values[-1]
    realigned = shift_field(Field(trajectory.grid, last), -displacement)
    num = float(np.linalg.norm(realigned.values - first))
    den = float(np.linalg.norm(first - background))
    if den == 0.0:
        raise ValueError("initial frame has no depression relative to background")
    return num / den
