"""Zero-curvature (Lax) structure checks for the evolution equation.

The linear system Psi_x = M Psi, Psi_t = N Psi with

    M = [[0, 1], [-lam/v^2, 1]],
    N = [[A, B], [C, D]],  B = -4*lam*v,  A = -(B_x + B)/2 = 2*lam*(v_x + v),
    D = -A,                C = -(B_xx + B_x)/2 - (lam/v^2)*B
                             = 2*lam*(v_xx + v_x) + 4*lam^2/v,

is compatible for all spectral parameters lam exactly when v solves
v_t = v^3 (v_xxx - v_x). The structure residual M_t + [M, N] - N_x then
vanishes; three of its four entries vanish identically by construction of
A, C, D (they hold off-shell), and only the (2,1) entry carries the
evolution equation. ``zc_residual`` measures all four entrywise over a
space-time patch and fits a convergence order by coarsening the patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, Trajectory, d1_periodic, d3_periodic

#: Residual entries that must hold identically stay below this at any resolution.
OFF_SHELL_TOL = 1e-10

#: Minimum fitted convergence order for the evolution entry.
MIN_ORDER = 2.0


def build_M(v, lambda_spec: float) -> np.ndarray:
    """Space part [[0, 1], [-lam/v^2, 1]]; v may be a scalar or an array."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("M is only defined for v > 0")
    zero = np.zeros_like(v)
    one = np.ones_like(v)
    return np.stack(
        (np.stack((zero, one)), np.stack((-lambda_spec / v**2, one)))
    )


def build_N(v, v_x, v_xx, lambda_spec: float) -> np.ndarray:
    """Time part [[A, B], [C, D]] under the ansatz B = -4*lam*v; trace-free."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("N is only defined for v > 0")
    v_x = np.asarray(v_x, dtype=float)
    v_xx = np.asarray(v_xx, dtype=float)
    lam = lambda_spec
    a = 2.0 * lam * (v_x + v)
    b = -4.0 * lam * v
    c = 2.0 * lam * (v_xx + v_x) + 4.0 * lam**2 / v
    return np.stack((np.stack((a, b)), np.stack((c, -a))))


@dataclass(frozen=True)
class LaxPair:
    """The matrix pair at a fixed spectral parameter."""

    lambda_spec: float

    def M(self, v) -> np.ndarray:
        return build_M(v, self.lambda_spec)

    def N(self, v, v_x, v_xx) -> np.ndarray:
        return build_N(v, v_x, v_xx, self.lambda_spec)


@dataclass(frozen=True)
class LaxResidualReport:
    """Entrywise max-norms of M_t + [M, N] - N_x over a space-time patch.

    ``entry_norms`` belongs to the patch at (dx, dt); ``entry_norms_coarse``
    to the same data subsampled to (2dx, 2dt). The convergence order is
    fitted from the (2,1) entry, the one carrying the evolution equation;
    it is NaN when the patch is too small to coarsen (None in ``to_dict``).
    """

    lambda_spec: float
    entry_norms: np.ndarray
    entry_norms_coarse: np.ndarray
    dx: float
    dt: float
    convergence_order: float

    @property
    def passed(self) -> bool:
        off = [self.entry_norms[i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
        off += [self.entry_norms_coarse[i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
        return bool(
            max(off) < OFF_SHELL_TOL
            and np.isfinite(self.convergence_order)
            and self.convergence_order >= MIN_ORDER
        )

    def to_dict(self) -> dict:
        """JSON-ready fields; an undefined (NaN) order or norm becomes None."""
        return {
            "lambda_spec": self.lambda_spec,
            "entry_norms": [_finite_or_none(x) for x in self.entry_norms.ravel()],
            "entry_norms_coarse": [
                _finite_or_none(x) for x in self.entry_norms_coarse.ravel()
            ],
            "dx": self.dx,
            "dt": self.dt,
            "convergence_order": _finite_or_none(self.convergence_order),
            "pass": self.passed,
        }


def _finite_or_none(x: float) -> float | None:
    """``x`` as a float, or None where standard JSON has no number for it."""
    x = float(x)
    return x if np.isfinite(x) else None


def _matmul2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.stack(
        (
            np.stack((x[0, 0] * y[0, 0] + x[0, 1] * y[1, 0],
                      x[0, 0] * y[0, 1] + x[0, 1] * y[1, 1])),
            np.stack((x[1, 0] * y[0, 0] + x[1, 1] * y[1, 0],
                      x[1, 0] * y[0, 1] + x[1, 1] * y[1, 1])),
        )
    )


def _patch_norms(values: np.ndarray, times: np.ndarray, dx: float,
                 lambda_spec: float) -> np.ndarray:
    """Entrywise residual max-norms over the interior frames of one patch."""
    norms = np.zeros((2, 2))
    for j in range(1, len(times) - 1):
        v = values[j]
        v_x = d1_periodic(v, dx)
        v_xx = d1_periodic(v_x, dx)
        m = build_M(v, lambda_spec)
        n = build_N(v, v_x, v_xx, lambda_spec)
        n_x = d1_periodic(n, dx)

        h_left = times[j] - times[j - 1]
        h_right = times[j + 1] - times[j]
        m_prev = build_M(values[j - 1], lambda_spec)
        m_next = build_M(values[j + 1], lambda_spec)
        if abs(h_right - h_left) <= 1e-12 * h_left:
            m_t = (m_next - m_prev) / (h_left + h_right)
        else:
            # 3-point nonuniform central difference
            w_prev = -h_right / (h_left * (h_left + h_right))
            w_mid = (h_right - h_left) / (h_left * h_right)
            w_next = h_left / (h_right * (h_left + h_right))
            m_t = w_prev * m_prev + w_mid * m + w_next * m_next

        residual = m_t + _matmul2(m, n) - _matmul2(n, m) - n_x
        norms = np.maximum(norms, np.abs(residual).max(axis=-1))
    return norms


def zc_residual(trajectory: Trajectory, lambda_spec: float) -> LaxResidualReport:
    """Measure the structure-equation residual on a trajectory.

    M_t uses central differences between stored frames, N_x the 4th-order
    periodic stencil along each frame (with v_x, v_xx from repeated first
    derivatives). The same frames subsampled by two in x and t provide the
    companion patch at (2dx, 2dt) from which the convergence order of the
    (2,1) entry is fitted.
    """
    if len(trajectory.frames) < 3:
        raise ValueError("need at least 3 frames for the time derivative")
    if not trajectory.grid.periodic:
        raise ValueError("residual evaluation requires a periodic grid")
    values = trajectory.values
    times = trajectory.times
    dx = trajectory.grid.dx
    fine = _patch_norms(values, times, dx, lambda_spec)

    can_coarsen = trajectory.grid.n % 2 == 0 and len(times) >= 5
    if can_coarsen:
        coarse = _patch_norms(values[::2, ::2], times[::2], 2.0 * dx, lambda_spec)
        if fine[1, 0] > 0.0 and coarse[1, 0] > 0.0:
            order = float(np.log2(coarse[1, 0] / fine[1, 0]))
        else:
            order = float("nan")
    else:
        coarse = np.full((2, 2), np.nan)
        order = float("nan")

    return LaxResidualReport(
        lambda_spec=lambda_spec,
        entry_norms=fine,
        entry_norms_coarse=coarse,
        dx=dx,
        dt=float(np.median(np.diff(times))),
        convergence_order=order,
    )


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of checking that the ansatz B = -4*lam*v collapses the flow.

    Substituting B into -B_xxx/(4 lam) + B_x/(4 lam) + (v_x/v^3) B - B_x/v^2
    must reproduce v_xxx - v_x identically: the last two terms cancel and
    lam drops out. ``max_discrepancy`` is the worst pointwise difference.
    """

    passed: bool
    max_discrepancy: float
    lambda_spec: float


def reduction_check(
    v_samples: Field, lambda_spec: float, b_offset: float = 0.0
) -> ReductionReport:
    """Compare the B-form flow against v_xxx - v_x on a smooth positive field.

    ``b_offset`` perturbs the ansatz to B = -4*lam*v + b_offset; any nonzero
    offset breaks the algebraic cancellation and serves as a negative
    control.
    """
    if not v_samples.grid.periodic:
        raise ValueError("reduction check requires a periodic grid")
    if not (np.isfinite(lambda_spec) and lambda_spec != 0.0):
        raise ValueError(f"lambda_spec must be finite and nonzero, got {lambda_spec}")
    v = v_samples.values
    if np.any(v <= 0.0):
        raise ValueError("field must be strictly positive")
    dx = v_samples.grid.dx
    lam = lambda_spec
    b = -4.0 * lam * v + b_offset
    b_x = d1_periodic(b, dx)
    b_xxx = d3_periodic(b, dx)
    v_x = d1_periodic(v, dx)
    lhs = -b_xxx / (4.0 * lam) + b_x / (4.0 * lam) + (v_x / v**3) * b - b_x / v**2
    rhs = d3_periodic(v, dx) - v_x
    disc = float(np.max(np.abs(lhs - rhs)))
    return ReductionReport(
        passed=bool(disc < OFF_SHELL_TOL), max_discrepancy=disc, lambda_spec=lam
    )
