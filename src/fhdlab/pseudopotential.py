"""Sagdeev pseudopotential analysis for the travelling-wave reduction.

In the frame xi = x - lambda*t the field obeys the energy-like first
integral (1/2) (dv/dxi)^2 + S(v) = 0 with

    S(v) = (lambda - v*v0^2) * (v - v0)^2 / (2 * v * v0^2).

S has a double root at the background v0 and a simple root at
v_turn = lambda / v0^2. A localized depression orbit exists exactly when
0 < lambda < v0^3, in which case S < 0 on the open interval (v_turn, v0).
``require_admissible`` is the one gate on that domain; ``turning_point``
passes it before it returns v_turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, SolitonParams

#: Step (relative to v0) for the finite-difference diagnostics at the background.
_FD_STEP_REL = 1e-5


def eval_S(v, params: SolitonParams):
    """Evaluate the pseudopotential S(v); accepts scalars or arrays, v > 0.

    A float ``v`` is not converted to a NumPy array: the same expression runs
    in float arithmetic. ``v - v0`` is squared by a product ``d * d`` on
    every path, never by a power, so a float, a 0-d array and each entry of
    an array of shape (n,) give the same bits. NaN passes through as NaN.
    """
    if not isinstance(v, float):
        v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0) if isinstance(v, np.ndarray) else v <= 0.0:
        raise ValueError("pseudopotential is only defined for v > 0")
    lam, v0 = params.lambda_speed, params.v0
    d = v - v0
    s = (lam - v * v0**2) * (d * d) / (2.0 * v * v0**2)
    return s if isinstance(s, np.ndarray) else float(s)


@dataclass(frozen=True)
class ExistenceReport:
    """Soliton admissibility plus finite-difference diagnostics at v = v0.

    ``s_at_v0`` and ``s_prime_at_v0`` must vanish for any parameters; the
    curvature ``s_second_at_v0`` must be negative for a localized orbit and
    equals (lambda - v0^3)/v0^3 analytically.
    """

    admissible: bool
    s_at_v0: float
    s_prime_at_v0: float
    s_second_at_v0: float
    s_second_predicted: float


def _derivatives_at_v0(params: SolitonParams) -> tuple[float, float, float]:
    """S, S' and S'' at v0: central differences with step 1e-5*v0 and its
    half, combined by one Richardson extrapolation."""
    v0 = params.v0
    h = _FD_STEP_REL * v0
    s0 = eval_S(v0, params)

    def central(step: float) -> tuple[float, float]:
        # first and second central differences from one pair of samples
        plus, minus = eval_S(v0 + step, params), eval_S(v0 - step, params)
        return (plus - minus) / (2.0 * step), (plus - 2.0 * s0 + minus) / step**2

    (d1_h, d2_h), (d1_half, d2_half) = central(h), central(h / 2.0)
    # one Richardson step for each O(h^2) central difference
    return s0, (4.0 * d1_half - d1_h) / 3.0, (4.0 * d2_half - d2_h) / 3.0


def require_admissible(params: SolitonParams) -> None:
    """Raise ValueError unless a soliton exists, i.e. 0 < lambda < v0^3.

    The package's one test of that domain; every other check calls it.
    """
    lam, v0 = params.lambda_speed, params.v0
    if not 0.0 < lam < v0**3:
        raise ValueError(
            f"soliton existence violated: lambda={lam}, "
            f"v0={v0} needs 0 < lambda < v0^3 = {v0**3:.6g} "
            f"(S''(v0) = {_derivatives_at_v0(params)[2]:.6g})"
        )


def existence_check(params: SolitonParams) -> ExistenceReport:
    """Decide whether params admit a localized depression orbit.

    Admissible iff ``require_admissible`` passes. The report carries the
    finite-difference values of S, S' and S'' at v0 (step 1e-5*v0, one
    Richardson extrapolation) so the decision can be audited numerically.
    """
    s0, s1, s2 = _derivatives_at_v0(params)
    try:
        require_admissible(params)
        admissible = True
    except ValueError:
        admissible = False
    lam, v0 = params.lambda_speed, params.v0
    return ExistenceReport(
        admissible=admissible,
        s_at_v0=s0,
        s_prime_at_v0=s1,
        s_second_at_v0=s2,
        s_second_predicted=(lam - v0**3) / v0**3,
    )


def _confirm_root(params: SolitonParams, v_turn: float) -> None:
    """Raise NumericalError unless S changes sign, or vanishes, at the ends of
    [v_turn - delta, v_turn + delta], delta = 1e-12*max(1, v0), clipped to
    [v_turn/2, (v_turn + v0)/2]. (S underflows to zero near v0 at the
    smallest backgrounds.)"""
    v0 = params.v0
    delta = 1e-12 * max(1.0, v0)
    lo = max(v_turn - delta, 0.5 * v_turn)
    hi = min(v_turn + delta, 0.5 * (v_turn + v0))
    s_lo, s_hi = eval_S(lo, params), eval_S(hi, params)
    if min(s_lo, s_hi) > 0.0 or max(s_lo, s_hi) < 0.0:
        raise NumericalError(f"S does not change sign across [{lo}, {hi}]: "
                             f"{v_turn} is not its simple root")


def turning_point(params: SolitonParams) -> float:
    """The simple root v_turn = lambda/v0^2 of S, past ``require_admissible``
    and confirmed by ``_confirm_root``."""
    require_admissible(params)
    v_turn = params.lambda_speed / params.v0**2
    _confirm_root(params, v_turn)
    return v_turn


def phase_branch(v, params: SolitonParams):
    """Both branches dv/dxi = +/- sqrt(-2 S(v)) of the phase-plane orbit.

    Defined only where S(v) <= 0, i.e. for v between the turning point and
    the background. Returns a (plus, minus) pair.
    """
    s = np.asarray(eval_S(v, params))
    # tolerate sign noise from the factorized formula right at the roots
    tol = 1e-14 * max(1.0, params.v0)
    if np.any(s > tol):
        raise ValueError("S(v) > 0: point lies outside the soliton orbit")
    r = np.sqrt(np.maximum(-2.0 * s, 0.0))
    if r.ndim == 0:
        r = float(r)
    return r, -r


def potential_samples(
    params: SolitonParams, n: int = 1000, span: float = 0.25
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate (v, S(v)) across the orbit with a margin of span*(v0 - v_turn)."""
    v_turn = turning_point(params)
    width = params.v0 - v_turn
    lo = max(v_turn - span * width, 0.05 * v_turn)
    hi = params.v0 + span * width
    v = np.linspace(lo, hi, n)
    return v, np.asarray(eval_S(v, params))


def phase_samples(
    params: SolitonParams, n: int = 1000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate (v, v'_plus, v'_minus) along the orbit between the roots."""
    v = np.linspace(turning_point(params), params.v0, n)
    plus, minus = phase_branch(v, params)
    return v, plus, minus
