"""Travelling-wave profile construction by two independent routes.

Route 1 (quadrature): the first integral (1/2) v'^2 + S(v) = 0 integrates
in closed form. With v_turn = lambda/v0^2, depth b = v0 - v_turn and
u = sqrt(v - v_turn), the flank from the minimum is

    xi(u) = 2 sqrt(v0/b) artanh(sqrt(v0/(b v)) u) - 2 arsinh(u/sqrt(v_turn)),

as for the implicit waves of the Harry Dym equation (Hereman, Banerjee &
Chatterjee, J. Phys. A 22, 1989). It is tabulated on nodes clustered toward
v0, where xi diverges logarithmically, and inverted by Newton's method; the
table stops TAIL_CUT_REL depths below v0 and the remaining tail is the
linearized exponential v0 - C*exp(-kappa*xi) with
kappa = sqrt((v0^3 - lambda)/v0^3).

Route 2 (shooting): integrate v'' = (lambda/2)(1/v^2 - 1/v0^2) + (v - v0)
outward from the minimum (v(0) = v_turn, v'(0) = 0) with an adaptive
embedded Runge-Kutta pair. Shooting outward rides the unstable manifold of
the saddle at v0, so the integration is stopped once v comes within
TAIL_SWITCH_REL of the background and the same linearized tail takes over;
integrating further would let the accumulated error grow like
exp(+kappa*xi) and contaminate the tail. The state is the rise
r = v - v_turn, with an absolute tolerance scaled by the depth b, and with
lambda = v_turn v0^2 the right-hand side factors as

    r'' = (r - b)(r^2 + (3/2) v_turn r - v_turn b/2)/v^2,

where nothing cancels at either end of the orbit. So the error is a fixed
fraction of the depth at every lambda; error control on v itself allows
errors of a fixed fraction of v0, a million depths at lambda/v0^3 = 1 - 1e-6.

Both routes start from ``pseudopotential.turning_point`` and extend their
flank evenly with the same tail; beyond that they share no machinery,
which makes their pointwise agreement a strong cross-validation.

Shooting runs the DOP853 pair of ``_dop853`` in Python floats, with
SciPy's tableau, step-size controller and dense output; Newton's method on
the last step's dense output finds the tail switch. On this 2-D system
SciPy's integrator spends most of its time in per-step NumPy calls on
2-element arrays, and importing ``scipy.integrate`` loads about 350 SciPy
modules (about 50 MB and 0.3 s of CPU), so no module here imports SciPy.
SciPy's DOP853 stays in the tests as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import Field, Grid1D, NumericalError, SolitonParams, Trajectory
from .pseudopotential import _s_second, eval_S, require_admissible, turning_point

#: Truncation of the quadrature table, relative to the orbit depth.
TAIL_CUT_REL = 1e-8

#: Nodes of the quadrature table.
QUAD_NODES = 800

#: Fraction of the depth below v0 at which shooting hands over to the tail.
TAIL_SWITCH_REL = 1e-4

#: Newton steps that refine the interpolated root of xi(u) = |xi|.
NEWTON_STEPS = 3

#: Shooting solver tolerances, the absolute one in units of the depth; the
#: profile error budget must sit far below the tolerances of the PDE runs it
#: seeds.
SHOOT_RTOL = 1e-10
SHOOT_ATOL = 1e-12

#: Minimum half-width of a soliton window, in units of the decay length 1/kappa.
MIN_DECAY_LENGTHS = 20.0


def decay_rate(params: SolitonParams) -> float:
    """Linearized tail decay rate sqrt(-S''(v0)) = sqrt((v0^3 - lambda)/v0^3)
    about v = v0."""
    require_admissible(params)
    return float(np.sqrt(-_s_second(params.lambda_speed, params.v0)))


@dataclass(frozen=True, eq=False)
class Profile:
    """A sampled travelling-wave profile v(xi), even about its minimum at xi=0.

    ``diagnostics`` holds what the construction reports about itself; for
    shooting, ``ShootingSolution.diagnostics``.
    """

    xi: np.ndarray
    v: np.ndarray
    params: SolitonParams
    method: Literal["quadrature", "shooting"]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if xi.shape != v.shape or xi.ndim != 1:
            raise ValueError("xi and v must be 1D arrays of equal length")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(v))):
            raise ValueError("profile samples must be finite")
        if np.any(np.diff(xi) <= 0.0):
            raise ValueError("xi samples must be strictly increasing")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class ProfileMetrics:
    depth: float
    fwhm: float


class _EvenProfile:
    """Callable v(xi), even: the subclass's ``_flank(|xi|)`` up to ``xi_end``,
    then the linearized tail v0 - (v0 - v_end)*exp(-kappa*(|xi| - xi_end))."""

    def __init__(self, params: SolitonParams, xi_end: float, v_end: float):
        self.params = params
        self.kappa = decay_rate(params)
        self._xi_end = xi_end
        self._v_end = v_end

    def __call__(self, xi) -> np.ndarray:
        w = np.abs(np.asarray(xi, dtype=float))
        inside = w <= self._xi_end
        out = np.empty_like(w)
        out[inside] = self._flank(w[inside])
        v0 = self.params.v0
        out[~inside] = v0 - (v0 - self._v_end) * np.exp(
            -self.kappa * (w[~inside] - self._xi_end)
        )
        return out


class QuadratureSolution(_EvenProfile):
    """Callable v(xi), even, on the closed-form table of the first integral.

    Inside the table v = v_turn + u^2, where u solves ``_flank_xi(u) = |xi|``
    by ``NEWTON_STEPS`` Newton steps from linear interpolation on the table,
    each kept inside the bracketing table interval; beyond it, the linear tail.
    """

    def __init__(self, params: SolitonParams, xi: np.ndarray, v: np.ndarray,
                 u: np.ndarray):
        super().__init__(params, xi[-1], v[-1])
        self.xi = xi
        self.v = v
        self.u = u

    def _flank(self, w_in: np.ndarray) -> np.ndarray:
        j = np.clip(np.searchsorted(self.xi, w_in), 1, self.u.size - 1)
        lo, hi = self.u[j - 1], self.u[j]
        u = np.interp(w_in, self.xi, self.u)
        v0 = self.params.v0
        v_turn = self.v[0]
        depth = v0 - v_turn
        for _ in range(NEWTON_STEPS):
            gap = depth - u * u
            slope = 2.0 * np.sqrt(v_turn + u * u) / gap
            u = np.clip(u - (_flank_xi(u, gap, v_turn, v0) - w_in) / slope, lo, hi)
        return v_turn + u * u


def _flank_xi(u: np.ndarray, gap: np.ndarray, v_turn: float,
              v0: float) -> np.ndarray:
    """The closed form xi(u) of the flank, given ``gap`` = v0 - v.

    Its artanh(x), x = sqrt(v0/(b v)) u, is log1p(2x/(1 - x))/2 with
    1 - x = v_turn gap/(sqrt(b v) (sqrt(b v) + sqrt(v0) u)), so nothing
    cancels as v -> v0 if ``gap`` is exact. xi is scale-free, so it is
    evaluated in units of v0, where v_turn gap is subnormal only if the ratio
    overflows."""
    b = (v0 - v_turn) / v0
    u, gap, v_turn = u / np.sqrt(v0), gap / v0, v_turn / v0
    root_bv = np.sqrt(b * (v_turn + u * u))
    ratio = 2.0 * u * (root_bv + u) / (v_turn * gap)
    return np.sqrt(1.0 / b) * np.log1p(ratio) - 2.0 * np.arcsinh(u / np.sqrt(v_turn))


def solve_quadrature(params: SolitonParams) -> QuadratureSolution:
    """Tabulate the closed-form xi(v) of the flank on QUAD_NODES nodes, up to
    TAIL_CUT_REL depths below v0."""
    v0, v_turn = params.v0, turning_point(params)
    depth = v0 - v_turn
    tail_cut = TAIL_CUT_REL * depth

    # Lower half of the orbit: uniform in u (dense xi resolution around the
    # minimum). Upper half: geometric ladder in t = (v0 - v)/depth down to
    # the tail cut, resolving the logarithmic divergence of xi(v) at v0;
    # there v0 - v is depth*t, free of the cancellation in depth - u^2.
    n_lo = QUAD_NODES // 2
    u_half = np.sqrt(0.5 * depth)
    u_lo = np.linspace(0.0, u_half, n_lo, endpoint=False)
    t_hi = np.exp(np.linspace(np.log(0.5), np.log(tail_cut / depth), QUAD_NODES - n_lo))
    u_hi = np.sqrt(depth * (1.0 - t_hi))
    u = np.concatenate((u_lo, u_hi))
    v = v_turn + u**2
    v[0] = v_turn
    gap = np.concatenate((depth - u_lo**2, depth * t_hi))
    with np.errstate(over="ignore", divide="ignore"):
        xi = _flank_xi(u, gap, v_turn, v0)
    if not np.isfinite(xi[-1]):
        raise NumericalError(f"closed-form xi overflows at lambda={params.lambda_speed}")
    return QuadratureSolution(params, xi, v, u)


def profile_by_quadrature(params: SolitonParams) -> Profile:
    """Even profile from the first-integral quadrature, minimum at xi = 0."""
    sol = solve_quadrature(params)
    xi = np.concatenate((-sol.xi[:0:-1], sol.xi))
    v = np.concatenate((sol.v[:0:-1], sol.v))
    return Profile(xi=xi, v=v, params=params, method="quadrature")


class ShootingSolution(_EvenProfile):
    """Callable v(xi) from outward integration of the profile ODE.

    ``steps_xi`` / ``steps_v`` / ``steps_vp`` hold the accepted solver steps,
    the last one ending at the tail switch ``xi_switch``, so the first
    integral can be audited along the actual solution. ``rejected_steps``
    counts the steps the error control refused. Between steps, v is v_turn
    plus the DOP853 dense output of the rise over the step that covers xi.
    """

    def __init__(self, params: SolitonParams, v_turn: float, steps: list,
                 dense: list, rejected_steps: int):
        self.steps_xi, rise, self.steps_vp = np.array(steps).T
        self.steps_v = v_turn + rise
        self.v_turn = v_turn
        self.rejected_steps = rejected_steps
        self.xi_switch = float(self.steps_xi[-1])
        super().__init__(params, self.xi_switch, float(self.steps_v[-1]))
        # one row per step: start, length, rise at the start, 7 coefficients
        self._dense = np.array(dense)

    def diagnostics(self) -> dict:
        """Step counts, tail switch and max |v'^2/2 + S(v)| on the steps."""
        energy = 0.5 * self.steps_vp**2 + eval_S(self.steps_v, self.params)
        return {
            "accepted_steps": self.steps_xi.size - 1,
            "rejected_steps": self.rejected_steps,
            "xi_switch": self.xi_switch,
            "first_integral_residual": float(np.max(np.abs(energy))),
        }

    def _flank(self, w_in: np.ndarray) -> np.ndarray:
        from ._dop853 import interpolate

        # the step whose span holds w; a step boundary goes to the earlier
        step = np.maximum(np.searchsorted(self._dense[:, 0], w_in) - 1, 0)
        start, h, rise, *coefficients = self._dense[step].T
        return (interpolate(coefficients, (w_in - start) / h) + rise) + self.v_turn


def solve_shooting(params: SolitonParams, xi_max: float) -> ShootingSolution:
    """Integrate the profile ODE outward from the minimum to the tail switch.

    Initial data v(0) = v_turn, v'(0) = 0 sit exactly on the first-integral
    level set. A terminal event at v = v0 - TAIL_SWITCH_REL*depth hands over
    to the analytic tail before the saddle's unstable direction can amplify
    the accumulated error; a second one stops a collapse toward v = 0. A run
    that reaches xi_max before the switch, 10 to 10.6 decay lengths out,
    raises NumericalError. The state is the rise
    v - v_turn, as the module docstring sets out.
    """
    from ._dop853 import dop853

    v_turn = turning_point(params)
    if not xi_max > 0.0:
        raise ValueError(f"xi_max must be positive, got {xi_max}")
    v0 = params.v0
    depth = v0 - v_turn
    half_turn_depth = 0.5 * v_turn * depth

    def accel(rise):
        v = v_turn + rise
        return (rise - depth) * (rise * (rise + 1.5 * v_turn) - half_turn_depth) / (v * v)

    v_collapse = 0.1 * v_turn
    if v_collapse * v_collapse < 1.0 / np.finfo(float).max:
        raise NumericalError(f"turning point v_turn = {v_turn:.6g} is too deep to "
                             "shoot: v^2 underflows at v_turn/10")
    steps, dense, rejected = dop853(accel, float(xi_max), depth - TAIL_SWITCH_REL * depth,
                                    v_collapse - v_turn, SHOOT_RTOL, SHOOT_ATOL * depth)
    if steps[-1][1] > depth:
        raise NumericalError("profile shooting overshot the background v0")
    return ShootingSolution(params, v_turn, steps, dense, rejected)


def default_half_width(params: SolitonParams) -> float:
    """The default window's half-width: 1.1*MIN_DECAY_LENGTHS decay lengths
    rounded up, and at least 40."""
    return max(40.0, math.ceil(1.1 * MIN_DECAY_LENGTHS / decay_rate(params)))


def _half_width(params: SolitonParams, grid: Grid1D) -> float:
    """Half the width of a symmetric grid wide enough for the tails to relax."""
    if abs(grid.x_min + grid.x_max) > 1e-9 * grid.length:
        raise ValueError("soliton window must be symmetric about x = 0")
    half_width = 0.5 * grid.length
    kappa = decay_rate(params)
    if kappa * half_width < MIN_DECAY_LENGTHS:
        raise ValueError(
            f"grid half-width {half_width:g} spans only "
            f"{kappa * half_width:.1f} decay lengths; need at least "
            f"{MIN_DECAY_LENGTHS:g} for the tails to relax"
        )
    return half_width


def profile_by_shooting(params: SolitonParams, grid: Grid1D) -> Profile:
    """Shooting profile resampled onto a symmetric grid (even extension).

    The first integral is audited only at the solver's steps, and a few
    steps can span a whole flank, so a sample that the dense output puts
    below the turning point, the profile's minimum, raises NumericalError.
    """
    sol = solve_shooting(params, xi_max=_half_width(params, grid))
    v = sol(grid.x)
    if v.min() < sol.v_turn:
        dip = (sol.v_turn - v.min()) / (params.v0 - sol.v_turn)
        raise NumericalError(f"profile shooting dips {dip:.3g} depths below the "
                             "turning point between its steps")
    return Profile(xi=grid.x, v=v, params=params, method="shooting",
                   diagnostics=sol.diagnostics())


def closed_form_field(params: SolitonParams, grid: Grid1D) -> Field:
    """The closed-form soliton on a symmetric grid, its minimum at x = 0.

    The grid must pass the window checks of ``profile_by_shooting``.
    """
    _half_width(params, grid)
    return Field(grid, solve_quadrature(params)(grid.x))


def profile_metrics(profile: Profile) -> ProfileMetrics:
    """Depression depth v0 - min(v) and full width at half the depth.

    The half-depth crossings are located by linear interpolation on each
    flank; the width is their separation. A profile less than 1e-12*v0 deep,
    or one that does not rise back above the half-depth level inside its
    window, is a numerical failure, not invalid input, so it raises
    NumericalError.
    """
    v0 = profile.params.v0
    v = profile.v
    depth = float(v0 - v.min())
    if depth < 1e-12 * v0:
        raise NumericalError("profile is flat: no measurable depression")
    level = v0 - 0.5 * depth
    below = v < level
    idx = np.flatnonzero(below)
    if idx.size == 0 or idx[0] == 0 or idx[-1] == v.size - 1:
        half_width = 0.5 * (profile.xi[-1] - profile.xi[0])
        raise NumericalError(
            f"half-depth level is not bracketed inside the window of "
            f"half-width {half_width:g} ({profile.method} profile)"
        )

    def cross(i_out: int, i_in: int) -> float:
        x0, x1 = profile.xi[i_out], profile.xi[i_in]
        f0, f1 = v[i_out] - level, v[i_in] - level
        return x0 + f0 * (x1 - x0) / (f0 - f1)

    left = cross(idx[0] - 1, idx[0])
    right = cross(idx[-1] + 1, idx[-1])
    return ProfileMetrics(depth=depth, fwhm=float(right - left))


def translated_trajectory(
    params: SolitonParams, grid: Grid1D, times: np.ndarray
) -> Trajectory:
    """Exact travelling-wave trajectory v(x, t) = profile(x - lambda*t).

    Frames are direct evaluations of the closed form at the shifted,
    periodically wrapped positions, so the trajectory solves the evolution
    equation up to profile accuracy alone (no time stepping involved), at
    every admissible lambda. All (time, node) positions are evaluated in one
    call. The grid must pass the window checks of ``profile_by_shooting``.
    """
    _half_width(params, grid)
    sol = solve_quadrature(params)
    times = np.asarray(times, dtype=float)
    shifted = (
        np.mod(grid.x - params.lambda_speed * times[:, None] - grid.x_min, grid.length)
        + grid.x_min
    )
    return Trajectory(grid, times, sol(shifted.ravel()).reshape(shifted.shape))
