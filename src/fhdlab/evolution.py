"""Method-of-lines evolution of v_t = v^3 (v_xxx - v_x) on a periodic grid.

Space is discretized with the 9-point sixth-order central stencils of v_xxx
and v_x (weights from Fornberg, Math. Comp. 51, 1988), fused into one
operator; time stepping is classical four-stage Runge-Kutta with a
dispersive CFL restriction dt = cfl * dx^3 / max(v)^3, recomputed every
step. The third derivative acts like a linear dispersive operator with
local coefficient v^3, hence the cubic step scaling; RK4's imaginary-axis
stability interval makes cfl values up to ~0.46 stable, and the
configurable range is capped at 0.5. So dt max(v)^3 is also capped at
STABLE_RADIUS / rho, for rho the spectral radius of the fused operator on
the grid, computed once per run. rho dx^3 is 6.18 on fine grids and 15.6
at n=32 on [-40, 40]; at cfl 0.4 and below the cap can bind only where
dx > 0.3125, so finer grids keep dt = cfl dx^3 / max(v)^3 bit for bit,
while cfl 0.5 is capped on every grid.

The dispersive limit makes runs long (about 26k steps at n=1024 to t=5)
on arrays small enough that per-call overhead, not arithmetic, sets the
cost of a step, so a step is 28 NumPy calls on buffers allocated once
per run (the halo gather counts two), straight-line code over closure
locals with no Python call between them: each view, tap row and ufunc is
bound once when the step is built, each ``out`` is passed positionally
and the correlation is ``correlate2``, the C function that np.correlate's
Python wrapper calls. At n=1024 a step takes about 22.3 us of CPU, against
about 23.4 us when each stage called ``_rhs`` and np.correlate's wrapper
(fastest of 7 batches of 3000 steps, 2-vCPU VM, NumPy 2.4.6). v sits in
row 0 of a (4, n+32) buffer inside a 16-cell periodic halo per side, 4
cells (the stencil's radius r) for each stage: stage s reads row s on
[4s, n+32-4s), its slope is valid 4 cells further in, and stage s+1 is
one add of v and that increment into row s+1. One gather refreshes the
halo of v once per step (for n < 16 it wraps the grid more than once). dt
is folded into the taps: one multiply scales the stored taps/2 and taps
by dt, so the right-hand sides write dt/2 k1, dt/2 k2, dt k3 and dt k4,
which one matmul with the weights (1/3, 2/3, 1/3, 1/6) and one add
combine into v. The loop around the step reads min(v) and max(v) as
v.item(v.argmin()) and v.item(v.argmax()), the three methods bound once
per run, about 0.5 us each against
1.2 us for a ufunc reduction, and both stop at the first NaN as the
reductions do. t, dt and the extremes stay Python floats, and one
comparison tests both positivity and finiteness; the max sets the next
dt. Recorded steps are copied into one (frames, n) buffer, sized from the
first dt and doubled only if max(v) rises enough to need more.

The fused 9-point stencil sum_j W_j (p_-j - p_j), j = 1..4, of a stage
window p is evaluated through the gap-2 difference g_k = p_k - p_{k+2}:
p_-1 - p_1 = g_-1, p_-2 - p_2 = g_-2 + g_0, p_-3 - p_3 = g_-3 + g_-1 + g_1
and p_-4 - p_4 = g_-4 + g_-2 + g_0 + g_2, so the stencil is one 7-tap
correlation of g with the symmetric taps
(W4, W3, W2+W4, W1+W3, W2+W4, W3, W4), and a right-hand side is 5 NumPy
calls: the difference, the correlation and 3 in-place multiplies by v.
``_rhs`` holds them for ``rhs_fhd``; the step writes them out in line for
each stage, in the same order on the same operands, so its bits are those
of 4 ``_rhs`` calls.
The stencils of ``core`` stay fourth order for the Lax residual.

Symmetric taps on an antisymmetric difference give an exactly
antisymmetric operator for the float taps, scaled by dt or not: the
neighbour at offset d gets the weight t_{r+d} - t_{r-2+d} (taps
t_0..t_{2r-2}, zero outside), which t_j = t_{2r-2-j} makes the exact
negative of the weight at offset -d. So the semi-discrete system
conserves sum(1/v), a sharp diagnostic of the time error, since
d/dt sum(1/v) = -v.(A v) = 0; a constant field has g = 0 and so is a
bit-exact fixed point.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
# the C function behind np.correlate: no __array_function__ dispatch and no
# Python frame per call
from numpy._core.multiarray import correlate2 as _correlate

from .core import Field, Grid1D, NumericalError, Trajectory


@dataclass(frozen=True)
class EvolveConfig:
    """Run controls for ``evolve``."""

    t_final: float
    cfl_constant: float = 0.1
    output_stride: int = 100

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be positive and finite")
        if not (0.0 < self.cfl_constant <= 0.5):
            raise ValueError("cfl_constant must lie in (0, 0.5]")
        # a float stride would pass a comparison and then fail in np.empty
        stride = self.output_stride
        if not (isinstance(stride, (int, np.integer)) and not isinstance(stride, bool)
                and stride >= 1):
            raise ValueError(f"output_stride must be an integer of at least 1, "
                             f"got {stride!r}")


class EvolutionAborted(NumericalError):
    """Raised when the run loses positivity or finiteness.

    Carries the trajectory recorded up to the last good frame, a view of
    the run's frame buffer.
    """

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


# the largest dt max(v)^3 rho used, for rho the spectral radius of the fused
# operator: 10% inside RK4's imaginary-axis interval 2 sqrt(2), and above the
# 2.525 that cfl 0.4 gives on any grid with dx <= 0.3125, so there
# dt = cfl dx^3/max(v)^3
STABLE_RADIUS = 2.55

# sixth-order weights a_j, b_j of (f_j - f_-j), j = 1..4, in dx^3 f''' and dx f'
_A = (-61.0 / 30.0, 169.0 / 120.0, -3.0 / 10.0, 7.0 / 240.0)
_B = (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0, 0.0)


def _taps(dx: float) -> np.ndarray:
    """The symmetric 7 taps (W4, W3, W2+W4, W1+W3, W2+W4, W3, W4) of the
    fused stencil, W_j = -a_j/dx^3 + b_j/dx."""
    w1, w2, w3, w4 = [-a / dx**3 + b / dx for a, b in zip(_A, _B)]
    return np.array([w4, w3, w2 + w4, w1 + w3, w2 + w4, w3, w4])


def _radius(taps: np.ndarray) -> int:
    """The reach r of the stencil: its 2r-1 gap taps span p_-r..p_r."""
    return taps.size // 2 + 1


def _rhs(head: np.ndarray, tail: np.ndarray, v: np.ndarray, taps: np.ndarray,
         gap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write v^3 times the stencil of ``taps`` into ``out`` in 5 NumPy calls.

    For a window p of m periodic values and r the radius of the taps,
    head = p[:-2], tail = p[2:] and v = p[r:-r]: writes g = head - tail into
    the (m-2)-array ``gap``, correlates g with the taps and multiplies by v
    three times, so ``out`` holds m-2r values. A constant window has g = 0,
    hence 0 here.
    """
    np.subtract(head, tail, gap)
    np.multiply(_correlate(gap, taps, "valid"), v, out)
    np.multiply(out, v, out)
    np.multiply(out, v, out)
    return out


def _spectral_radius(taps: np.ndarray, n: int) -> float:
    """The largest |eigenvalue| of the periodic operator of ``taps`` on n points.

    The operator is antisymmetric with weight w_d = t_{r+d} - t_{r-2+d} at
    offset d = 1..r (taps t_0..t_{2r-2}, zero outside), so its eigenvalues
    are 2i sum_d w_d sin(d theta) at the grid's wavenumbers theta = 2 pi k / n.
    """
    r = _radius(taps)
    t = np.concatenate((taps, [0.0, 0.0]))
    w = t[r + 1 :] - t[r - 1 : -2]
    theta = 2.0 * np.pi / n * np.arange(n // 2 + 1)
    return 2.0 * float(np.max(np.abs(np.sin(np.outer(theta, np.arange(1, r + 1))) @ w)))


def rhs_fhd(field: Field) -> Field:
    """Pointwise v^3 (v_xxx - v_x) on a positive periodic field."""
    if np.any(field.values <= 0.0):
        raise ValueError("field must be strictly positive")
    v, n = field.values, field.grid.n
    taps = _taps(field.grid.dx)
    r = _radius(taps)
    p = np.concatenate((v[-r:], v, v[:r]))
    rhs = _rhs(p[:-2], p[2:], v, taps, np.empty(n + 2 * r - 2), np.empty(n))
    return Field(field.grid, rhs)


def _rk4(values: np.ndarray, dx: float) -> tuple[np.ndarray, Callable[[float], None]]:
    """The state v, a view that starts as ``values``, and its RK4 step(dt).

    step advances v in place in 28 NumPy calls on closure locals, with no
    Python call between them: per stage the gap difference, the module's
    ``_correlate`` (bound when the step is built), 3 in-place multiplies by
    the stage values and the add into the next stage. It allocates only the
    arrays the correlation returns.
    """
    taps = _taps(dx)
    r = _radius(taps)
    halo = 4 * r  # r periodic cells per stage on each side of the state
    n = values.size
    width = n + 2 * halo
    rows, incs = np.empty((2, 4, width))  # stage s and its increment in row s
    gap = np.empty(width - 2)
    # taps/2 for stages 1-2 and taps for 3-4, scaled by dt; halving is exact
    halved = taps * np.array([[0.5], [1.0]])
    scaled = np.empty_like(halved)
    half, whole = scaled
    vp = rows[0]
    v = vp[halo : halo + n]
    v[...] = values
    ghost = np.r_[:halo, halo + n : width]
    source = halo + (ghost - halo) % n
    inner = [slice(r * s + r, width - r * s - r) for s in range(4)]
    # stage s: its window's head and tail, its values, its gap and increment
    (h1, h2, h3, h4), (t1, t2, t3, t4) = [
        [rows[s, r * s + shift : width - r * s - 2 + shift] for s in range(4)]
        for shift in (0, 2)]
    p1, p2, p3, p4 = [rows[s, inner[s]] for s in range(4)]
    g1, g2, g3, g4 = [gap[: width - 2 * r * s - 2] for s in range(4)]
    d1, d2, d3, d4 = [incs[s, inner[s]] for s in range(4)]
    # stage s+1 = v + increment s, on the cells where that increment is valid
    (v1, n1), (v2, n2), (v3, n3) = [(vp[inner[s]], rows[s + 1, inner[s]]) for s in range(3)]
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    interior = incs[:, halo : halo + n]
    combined = np.zeros(n)  # some BLAS builds scale it by beta = 0, keeping NaN
    add, subtract, multiply, matmul = np.add, np.subtract, np.multiply, np.matmul
    correlate = _correlate

    def step(dt: float) -> None:
        vp[ghost] = vp[source]
        multiply(halved, dt, scaled)
        # each stage is _rhs into its increment, then the add into the next stage
        subtract(h1, t1, g1)
        multiply(correlate(g1, half, "valid"), p1, d1)
        multiply(d1, p1, d1)
        multiply(d1, p1, d1)
        add(v1, d1, n1)
        subtract(h2, t2, g2)
        multiply(correlate(g2, half, "valid"), p2, d2)
        multiply(d2, p2, d2)
        multiply(d2, p2, d2)
        add(v2, d2, n2)
        subtract(h3, t3, g3)
        multiply(correlate(g3, whole, "valid"), p3, d3)
        multiply(d3, p3, d3)
        multiply(d3, p3, d3)
        add(v3, d3, n3)
        subtract(h4, t4, g4)
        multiply(correlate(g4, whole, "valid"), p4, d4)
        multiply(d4, p4, d4)
        multiply(d4, p4, d4)
        # v += (dt/6) (k1 + 2 k2 + 2 k3 + k4) from dt/2 k1, dt/2 k2, dt k3, dt k4
        matmul(weights, interior, combined)
        add(v, combined, v)

    return v, step


def evolve(field: Field, config: EvolveConfig) -> Trajectory:
    """March the field to t_final, recording every output_stride-th step.

    The step size min(cfl*dx^3, STABLE_RADIUS/rho)/max(v)^3 is refreshed
    from the current state so general initial data stay inside the
    stability region even if max(v) drifts. Aborts (with the partial
    trajectory attached) where the equation is undefined: on any value
    that is not positive or not finite. Recorded steps go to rows of one
    frame buffer; the trajectory is a view of it.
    """
    if np.any(field.values <= 0.0):
        raise ValueError("initial field must be strictly positive")
    grid, n = field.grid, field.grid.n
    v, step = _rk4(field.values, grid.dx)
    # dt max(v)^3 times the spectral radius stays inside RK4's stable interval
    rho = _spectral_radius(_taps(grid.dx), n)
    dt_scale = min(config.cfl_constant * grid.dx**3, STABLE_RADIUS / rho)
    t_final, stride = config.t_final, config.output_stride
    t, steps, last = 0.0, 0, False
    argmin, argmax, item = v.argmin, v.argmax, v.item
    vmax = item(argmax())
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
        vmin, vmax = item(argmin()), item(argmax())
        # False for NaN and for either infinity, so one test covers each abort
        if not (vmin > 0.0 and vmax < math.inf):
            if not (math.isfinite(vmin) and math.isfinite(vmax)):
                message = f"non-finite values at t={t:.6g} (step {steps})"
            else:
                message = (f"positivity lost at t={t:.6g} "
                           f"(min v = {vmin:.6g}, step {steps})")
            raise EvolutionAborted(message, Trajectory(grid, times, frames[: len(times)]))
        if last or steps % stride == 0:
            if len(times) == len(frames):
                frames = np.concatenate((frames, np.empty_like(frames)))
            frames[len(times)] = v
            times.append(t)

    return Trajectory(grid, times, frames[: len(times)])


# the 7-point central weights D_j (Fornberg 1988) on f_-3..f_3 of
# dx^j f^(j)(0), j = 1..6, over (j-1)!: row m gives the coefficient of s^m
# in p'(s) = sum_j (D_j f) s^(j-1)/(j-1)!, s in cells
_SLOPE = np.array([
    (-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60),
    (1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90),
    (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8),
    (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6),
    (-1 / 2, 2.0, -5 / 2, 0.0, 5 / 2, -2.0, 1 / 2),
    (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0),
]) / np.array([[1.0], [1.0], [2.0], [6.0], [24.0], [120.0]])


def _slope_and_bend(coefficients: list[np.ndarray],
                    s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p'(s) = sum_m c_m s^m and p''(s) by Horner's rule."""
    slope, bend = coefficients[-1], 0.0
    for c in coefficients[-2::-1]:
        bend = bend * s + slope
        slope = slope * s + c
    return slope, bend


def _vertices(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's minimum on its 7-point interpolant, before unwrapping,
    and its round-off; see ``minimum_positions``."""
    grid, values = trajectory.grid, trajectory.values
    # lowest nodes a block of about 2**13 values at a time: argmin(axis=1)
    # of the whole read-only (T, n) array would copy it
    block = max(1, 2**13 // grid.n)
    i = np.concatenate([values[k : k + block].argmin(axis=1)
                        for k in range(0, len(values), block)])
    # row k + 3 holds each frame's f_k, k = -3..3
    window = values[np.arange(len(values)), (i + np.arange(-3, 4)[:, None]) % grid.n]
    fm, f0, fp = window[2:5]
    curvature = fm - 2.0 * f0 + fp
    ulp = np.spacing(np.maximum(np.maximum(fm, fp), -f0))
    if np.any(curvature <= 10.0 * ulp):
        raise NumericalError("frame is flat: no localized structure to track")
    rise = window - f0
    # row by row: einsum's buffers or a BLAS matmul would raise a run's
    # peak memory by 0.16 to 0.28 MB
    coefficients = [sum(w * r for w, r in zip(row, rise)) for row in _SLOPE]
    s = 0.5 * (fm - fp) / curvature  # the parabola's vertex, in cells
    for _ in range(4):
        slope, bend = _slope_and_bend(coefficients, s)
        step = np.divide(slope, bend, out=np.zeros_like(s), where=bend > 0.0)
        s = np.clip(s - step, -1.0, 1.0)
    bend = _slope_and_bend(coefficients, s)[1]
    # dp'(s)/df_k for the 7 values, by Horner's rule on the rows of _SLOPE
    weight = _SLOPE[-1][:, None]
    for row in _SLOPE[-2::-1]:
        weight = weight * s + row[:, None]
    gain = np.sum(np.spacing(np.abs(window)) * np.abs(weight), axis=0)
    cells = np.divide(gain, bend, out=np.full_like(s, np.inf), where=bend > 0.0)
    return grid.x[i] + s * grid.dx, cells * grid.dx


def minimum_positions(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame minimum positions, unwrapped across the seam, and their round-off.

    Each frame's minimum is that of p, the degree-6 polynomial through its
    lowest node f0 and the 3 nodes on either side, p(s) = sum_j (D_j f) s^j/j!
    for s in cells and D_j the 7-point weights of the j-th derivative
    applied to f - f0; it converges with the sixth-order stencil. It is
    found by 4 Newton steps on p' from the vertex of the parabola through
    f0 and its neighbours fm, fp, with s clipped to [-1, 1] and no step
    where p'' <= 0. A frame whose curvature c = fm - 2 f0 + fp is at most
    10 ulps of the largest of those three in magnitude is flat, a
    NumericalError. The round-off is the vertex's first-order shift under
    one ulp in each of its 7 values, dx sum_k ulp(f_k) |dp'/df_k| / p'',
    and inf where p'' <= 0. A move of L/2 or more between two frames is
    unwrapped the wrong way, silently; only ``fhdlab evolve`` checks the
    spacing.
    """
    raw, roundoff = _vertices(trajectory)
    # a jump of more than L/2 between frames is a crossing of the seam
    crossings = np.cumsum(np.round(np.diff(raw) / trajectory.grid.length))
    raw[1:] -= trajectory.grid.length * crossings
    return raw, roundoff


def measure_speed(trajectory: Trajectory) -> float:
    """Least-squares propagation speed of the tracked minimum.

    The positions are the minima of each frame's 7-point interpolant from
    ``minimum_positions``; like it, the fit cannot see a move of L/2 or more
    between two frames; only ``fhdlab evolve`` checks the spacing. The fit
    runs in times divided by the power of two of the largest |t| (exact), so
    it holds at any time scale. A net move below 100 times the largest
    round-off of those minima (identical end frames too, and any frame whose
    interpolant bends down at its lowest node, whose round-off is inf) or a
    slope that overflows is a NumericalError.
    """
    times = trajectory.times
    if times.size < 2:
        raise ValueError("need at least two frames to measure a speed")
    pos, roundoff = minimum_positions(trajectory)
    move, limit = abs(pos[-1] - pos[0]), 100.0 * roundoff.max()
    if not move >= limit:
        raise NumericalError(f"the tracked minimum moves {move:.3g}, less than 100 "
                             f"round-offs ({limit:.3g}): no speed to measure")
    scale = math.frexp(max(abs(times[0]), abs(times[-1])))[1]
    t = np.ldexp(times, -scale)
    t -= t.mean()
    slope = float(np.dot(t, pos - pos.mean()) / np.dot(t, t))
    try:
        return math.ldexp(slope, -scale)
    except OverflowError:
        raise NumericalError(f"the speed fit over a time span of "
                             f"{times[-1] - times[0]:g} overflows") from None


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
    minimum, the minimum of its 7-point interpolant (``minimum_positions``),
    and compared against the initial frame; the difference norm is
    scaled by the norm of the initial depression (initial frame minus the
    background level).
    """
    if not math.isfinite(background):
        raise ValueError(f"background must be finite, got {background}")
    pos = minimum_positions(trajectory)[0]
    displacement = pos[-1] - pos[0]
    first, last = trajectory.values[0], trajectory.values[-1]
    realigned = shift_field(Field(trajectory.grid, last), -displacement)
    num = float(np.linalg.norm(realigned.values - first))
    den = float(np.linalg.norm(first - background))
    if den == 0.0:
        raise ValueError("initial frame has no depression relative to background")
    return num / den
