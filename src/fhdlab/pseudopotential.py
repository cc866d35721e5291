"""Sagdeev pseudopotential analysis for the travelling-wave reduction.

In the frame xi = x - lambda*t the field obeys the energy-like first
integral (1/2) (dv/dxi)^2 + S(v) = 0 with

    S(v) = (lambda - v*v0^2) * (v - v0)^2 / (2 * v * v0^2).

S has a double root at the background v0, of curvature
S''(v0) = (lambda - v0^3)/v0^3, and a simple root at v_turn = lambda / v0^2.
A localized depression orbit exists exactly when 0 < lambda < v0^3, where
the background is a saddle and S < 0 on the open interval (v_turn, v0).
``_admissible`` is the one test of that domain and ``_s_second`` the closed
form of the curvature, both vectorized over lambda: ``existence_check``
reports them, ``require_admissible`` raises on them, and ``turning_point``
passes that gate before it returns v_turn; every soliton command passes
through it, so it also decides the float edges of the domain.
"""

from __future__ import annotations

import sys

import numpy as np

from .core import NumericalError, SolitonParams

#: Samples of each table of ``potential_samples`` and ``phase_samples``.
TABLE_SAMPLES = 1000


def eval_S(v, params: SolitonParams):
    """Evaluate the pseudopotential S(v); accepts scalars or arrays, v/v0 > 0.

    S is evaluated in units of v0: ``v0**2`` times S at ``w = v / v0`` and
    lambda / v0**3, whose factors do not scale with v0 (a product of the
    unscaled ones is subnormal below v0 = 1e-57 near lambda = v0^3); at
    v0 = 1 each scaling is exact. A scalar runs through the array expression
    and returns as a Python float. ``w - 1`` is squared by a product
    ``d * d``, never by a power, so a float, a 0-d array and each entry of an
    array of shape (n,) give the same bits. NaN passes through as NaN.
    """
    lam, v0 = params.lambda_speed, params.v0
    w = np.asarray(v, dtype=float) / v0
    if np.any(w <= 0.0):
        raise ValueError("pseudopotential is only defined for v/v0 > 0")
    d = w - 1.0
    s = (lam / v0**3 - w) * (d * d) / (2.0 * w) * v0**2
    return s if s.ndim else float(s)


def _admissible(lam, v0: float):
    """Whether a soliton exists, i.e. 0 < lambda < v0^3, for a scalar or an
    array of lambda: the package's one test of that domain."""
    return (0.0 < lam) & (lam < v0**3)


def _s_second(lam, v0: float):
    """The curvature S''(v0) = (lambda - v0^3)/v0^3 for a scalar or an array
    of lambda; +-inf where it overflows, without a warning."""
    cube = v0**3
    with np.errstate(over="ignore"):
        return (lam - cube) / cube


def require_admissible(params: SolitonParams) -> None:
    """Raise ValueError unless ``_admissible``; every other check calls it."""
    lam, v0 = params.lambda_speed, params.v0
    if not _admissible(lam, v0):
        raise ValueError(
            f"soliton existence violated: lambda={lam}, "
            f"v0={v0} needs 0 < lambda < v0^3 = {v0**3:.6g} "
            f"(S''(v0) = {_s_second(lam, v0):.6g})"
        )


def existence_check(lambdas, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """Decide, for each speed in ``lambdas``, whether a localized depression
    orbit exists over the background ``v0``.

    Returns the boolean array ``_admissible`` and the curvature S''(v0) of
    ``_s_second``, which is negative exactly where lambda < v0^3. A ``v0``
    that ``SolitonParams`` refuses raises ValueError.
    """
    SolitonParams(0.0, v0)
    lambdas = np.asarray(lambdas, dtype=float)
    return _admissible(lambdas, v0), _s_second(lambdas, v0)


def turning_point(params: SolitonParams) -> float:
    """The simple root v_turn = lambda/v0^2 of S, past ``require_admissible``.
    At the float edges of the domain, a v_turn or v_turn/v0 below the normal
    floats or a v_turn that rounds to v0, it raises NumericalError."""
    require_admissible(params)
    lam, v0 = params.lambda_speed, params.v0
    v_turn = lam / v0**2
    if min(v_turn, lam / v0**3) < sys.float_info.min:
        raise NumericalError(f"turning point v_turn = {v_turn:.6g} is too deep: it or "
                             f"v_turn/v0 is below the normal floats, {sys.float_info.min:.3g}")
    if not v_turn < v0:
        raise NumericalError(f"turning point v_turn = {v_turn!r} rounds to v0: no depression")
    return v_turn


def phase_branch(v, params: SolitonParams):
    """Both branches dv/dxi = +/- sqrt(-2 S(v)) of the phase-plane orbit.

    Defined only where S(v) <= 0, i.e. for v between the turning point and
    the background. Returns a (plus, minus) pair.
    """
    s = np.asarray(eval_S(v, params))
    # tolerate sign noise from the factorized formula right at the roots;
    # S scales as v0^2 under v -> s*v, lambda -> s^3*lambda, and so does it
    tol = 1e-14 * params.v0 * params.v0
    if np.any(s > tol):
        raise ValueError("S(v) > 0: point lies outside the soliton orbit")
    r = np.sqrt(np.maximum(-2.0 * s, 0.0))
    if r.ndim == 0:
        r = float(r)
    return r, -r


def potential_samples(params: SolitonParams) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate (v, S(v)) across the orbit with a margin of (v0 - v_turn)/4.

    A table with no negative S, a well that rounds away, is a NumericalError."""
    v_turn = turning_point(params)
    width = params.v0 - v_turn
    lo = max(v_turn - 0.25 * width, 0.05 * v_turn)
    hi = params.v0 + 0.25 * width
    v = np.linspace(lo, hi, TABLE_SAMPLES)
    s = np.asarray(eval_S(v, params))
    if not s.min() < 0.0:
        raise NumericalError("potential is flat: S(v) rounds to 0 over the whole orbit")
    return v, s


def phase_samples(params: SolitonParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate (v, v'_plus, v'_minus) along the orbit between the roots."""
    v = np.linspace(turning_point(params), params.v0, TABLE_SAMPLES)
    plus, minus = phase_branch(v, params)
    return v, plus, minus
