"""Sagdeev pseudopotential analysis for the travelling-wave reduction.

In the frame xi = x - lambda*t the field obeys the energy-like first
integral (1/2) (dv/dxi)^2 + S(v) = 0 with

    S(v) = (lambda - v*v0^2) * (v - v0)^2 / (2 * v * v0^2).

S has a double root at the background v0 and a simple root at
v_turn = lambda / v0^2. A localized depression orbit exists exactly when
0 < lambda < v0^3, in which case S < 0 on the open interval (v_turn, v0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SolitonParams

#: |lambda - v0^3| below this relative tolerance counts as the triple-root case.
DEGENERACY_RTOL = 1e-10

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


def _richardson_pair(coarse: float, fine: float) -> float:
    # one Richardson step for an O(h^2) central-difference estimate
    return (4.0 * fine - coarse) / 3.0


def existence_check(params: SolitonParams) -> ExistenceReport:
    """Decide whether params admit a localized depression orbit.

    Admissible iff 0 < lambda < v0^3. The report carries central
    finite-difference values of S, S' and S'' at v0 (step 1e-5*v0, one
    Richardson extrapolation) so the decision can be audited numerically.
    """
    lam, v0 = params.lambda_speed, params.v0
    h = _FD_STEP_REL * v0
    s0 = eval_S(v0, params)

    def central(step: float) -> tuple[float, float]:
        # first and second central differences from one pair of samples
        plus, minus = eval_S(v0 + step, params), eval_S(v0 - step, params)
        return (plus - minus) / (2.0 * step), (plus - 2.0 * s0 + minus) / step**2

    (d1_h, d2_h), (d1_half, d2_half) = central(h), central(h / 2.0)
    s1 = _richardson_pair(d1_h, d1_half)
    s2 = _richardson_pair(d2_h, d2_half)
    admissible = 0.0 < lam < v0**3
    return ExistenceReport(
        admissible=admissible,
        s_at_v0=s0,
        s_prime_at_v0=s1,
        s_second_at_v0=s2,
        s_second_predicted=(lam - v0**3) / v0**3,
    )


@dataclass(frozen=True)
class TurningPoints:
    """Roots of S: the double root v0 and the simple root lambda/v0^2."""

    v_equilibrium: float
    v_turn: float
    degenerate: bool


def _bisect_root(f, lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"root bracket [{lo}, {hi}] does not straddle a sign change"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def turning_points(params: SolitonParams) -> TurningPoints:
    """Locate the orbit's turning points, confirming the simple root by bisection.

    The analytic simple root lambda/v0^2 is cross-checked against a bracketed
    bisection of S on (0, v0); a mismatch above 1e-12 is an internal error.
    Within DEGENERACY_RTOL of lambda = v0^3 the roots coalesce (triple root)
    and the degenerate flag is set instead.
    """
    lam, v0 = params.lambda_speed, params.v0
    if lam <= 0.0 or lam > v0**3 * (1.0 + DEGENERACY_RTOL):
        raise ValueError(
            f"no turning points: lambda={lam} outside (0, v0^3={v0**3}]"
        )
    if abs(lam - v0**3) < DEGENERACY_RTOL * v0**3:
        return TurningPoints(v_equilibrium=v0, v_turn=lam / v0**2, degenerate=True)

    v_turn = lam / v0**2
    lo, hi = 0.5 * v_turn, 0.5 * (v_turn + v0)
    confirmed = _bisect_root(lambda v: eval_S(v, params), lo, hi, tol=1e-14 * v0)
    if abs(confirmed - v_turn) > 1e-12 * max(1.0, v0):
        raise ValueError(
            f"bisection root {confirmed} disagrees with analytic turning point {v_turn}"
        )
    return TurningPoints(v_equilibrium=v0, v_turn=v_turn, degenerate=False)


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
    tp = turning_points(params)
    width = params.v0 - tp.v_turn
    lo = max(tp.v_turn - span * width, 0.05 * tp.v_turn)
    hi = params.v0 + span * width
    v = np.linspace(lo, hi, n)
    return v, np.asarray(eval_S(v, params))


def phase_samples(
    params: SolitonParams, n: int = 1000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate (v, v'_plus, v'_minus) along the orbit between the roots."""
    tp = turning_points(params)
    v = np.linspace(tp.v_turn, params.v0, n)
    plus, minus = phase_branch(v, params)
    return v, plus, minus
