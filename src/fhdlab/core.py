"""Shared domain types, grid construction and discrete derivative operators.

The volatility field v(x, t) lives on a uniform periodic 1D mesh. The
4th-order central stencils defined here give the first and third
x-derivatives that the zero-curvature residuals and the tests use; the RK4
right-hand side builds the same stencils as taps in ``evolution._taps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or left its validity domain."""


#: Range of the background level: the terms of S(v), of size up to v0^5,
#: stay normal floats.
V0_MIN, V0_MAX = 1e-60, 1e60

#: Largest count of values a single array may hold: grid nodes, scan steps,
#: quadrature nodes, and lax.frames times n (32 MiB of floats).
MAX_VALUES = 1 << 22


@dataclass(frozen=True)
class SolitonParams:
    """Travelling-frame speed and asymptotic background level.

    ``lambda_speed`` is the speed of the moving frame xi = x - lambda*t,
    ``v0`` the constant value the field approaches far from the excitation.
    Soliton existence (0 < lambda_speed < v0**3) is deliberately *not*
    enforced here; ``pseudopotential.require_admissible`` is its one check.
    """

    lambda_speed: float
    v0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_speed) and math.isfinite(self.v0)):
            raise ValueError("soliton parameters must be finite")
        if not V0_MIN <= self.v0 <= V0_MAX:
            raise ValueError(f"background v0 must lie in [{V0_MIN:g}, {V0_MAX:g}], "
                             f"got {self.v0}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1D mesh.

    Every grid is periodic: x_max is identified with x_min and excluded, so
    node i sits at x_min + i*dx with dx = (x_max - x_min)/n.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes, got {self.n}")
        if self.n > MAX_VALUES:
            raise ValueError(f"need at most {MAX_VALUES} nodes, got {self.n}")
        try:
            cube = self.dx**3
        except OverflowError:
            cube = math.inf
        if not 0.0 < cube < math.inf:  # the third derivative divides by dx^3
            raise ValueError(f"grid spacing dx = {self.dx:g}: dx**3 under- or overflows")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)


def make_grid(x_min: float, x_max: float, n: int) -> Grid1D:
    """Build a periodic grid, dx = (x_max - x_min)/n; rejects non-finite
    bounds, x_max <= x_min and n outside [8, MAX_VALUES]."""
    return Grid1D(float(x_min), float(x_max), int(n))


@dataclass(frozen=True, eq=False)
class Field:
    """Samples of v(x) on a grid at one instant. Immutable once constructed.

    Compares and hashes by identity: an array field has no single truth value.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid with n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Frames of v(x, t) on one grid: row k of ``values`` samples v(x, times[k]).

    ``values`` is a read-only (n_times, n_nodes) float array. It is a view
    of the array passed in, not a copy: a float array given by the caller
    is kept, so the caller must not write to it afterwards. Compares and
    hashes by identity, as ``Field`` does.
    """

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).copy()
        values = np.asarray(self.values, dtype=float).view()
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trajectory needs a 1D array of at least one time")
        if values.shape != (times.size, self.grid.n):
            raise ValueError(
                f"values shape {values.shape} does not match {times.size} times "
                f"on a grid with n={self.grid.n}"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        # min and max propagate NaN and inf without a (T, n) temporary
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("trajectory values must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _pad_periodic(values: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate(
        (values[..., -k:], values, values[..., :k]), axis=-1
    )


def d1_periodic(values: np.ndarray, dx: float) -> np.ndarray:
    """4th-order central first derivative with periodic wraparound (last axis)."""
    n = values.shape[-1]
    p = _pad_periodic(values, 2)
    return (
        p[..., 0:n] - 8.0 * p[..., 1 : n + 1] + 8.0 * p[..., 3 : n + 3] - p[..., 4 : n + 4]
    ) / (12.0 * dx)


def d3_periodic(values: np.ndarray, dx: float) -> np.ndarray:
    """4th-order central third derivative with periodic wraparound (last axis)."""
    n = values.shape[-1]
    p = _pad_periodic(values, 3)
    return (
        p[..., 0:n]
        - 8.0 * p[..., 1 : n + 1]
        + 13.0 * p[..., 2 : n + 2]
        - 13.0 * p[..., 4 : n + 4]
        + 8.0 * p[..., 5 : n + 5]
        - p[..., 6 : n + 6]
    ) / (8.0 * dx**3)
