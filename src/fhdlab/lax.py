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
space-time patch of evenly spaced frames, all frames in one pass, and
fits a convergence order by coarsening the patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, NumericalError, Trajectory, d1_periodic, d3_periodic

#: Residual entries that must hold identically stay below this at any
#: resolution, once scaled by the size of the 4*lam^2/v term (``zc_residual``).
OFF_SHELL_TOL = 1e-10

#: Minimum fitted convergence order for the evolution entry.
MIN_ORDER = 2.0


@dataclass(frozen=True, eq=False)
class LaxResidualReport:
    """Entrywise max-norms of M_t + [M, N] - N_x over a space-time patch.

    ``entry_norms`` belongs to the patch at (dx, dt); ``entry_norms_coarse``
    to the same data subsampled to (2dx, 2dt). The convergence order is
    fitted from the (2,1) entry, the one carrying the evolution equation;
    it is NaN when the patch is too small to coarsen (None in ``to_dict``).
    ``off_shell_tol`` bounds the three entries that hold off-shell.
    """

    lambda_spec: float
    entry_norms: np.ndarray
    entry_norms_coarse: np.ndarray
    dx: float
    dt: float
    convergence_order: float
    off_shell_tol: float = OFF_SHELL_TOL

    @property
    def passed(self) -> bool:
        off = [self.entry_norms[i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
        off += [self.entry_norms_coarse[i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
        return bool(
            max(off) < self.off_shell_tol
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
            "off_shell_tol": self.off_shell_tol,
            "pass": self.passed,
        }


def _finite_or_none(x: float) -> float | None:
    """``x`` as a float, or None where standard JSON has no number for it."""
    x = float(x)
    return x if np.isfinite(x) else None


def _patch_norms(values: np.ndarray, times: np.ndarray, dx: float,
                 lam: float) -> np.ndarray:
    """Entrywise residual max-norms over the interior frames of one patch.

    The entries of ((M_t + M N) - N M) - N_x, M = [[0, 1], [q, 1]] and
    N = [[a, b], [c, -a]], are written out in the order of the 2x2 products,
    without the products by 0 and 1; M_t is the central difference over the
    two spacings around each frame, which ``zc_residual`` requires equal.
    """
    q = -lam / (values * values)
    v, q_mid = values[1:-1], q[1:-1]
    v_x = d1_periodic(v, dx)
    a = 2.0 * lam * (v_x + v)
    b = -4.0 * lam * v
    c = 2.0 * lam * (d1_periodic(v_x, dx) + v_x) + 4.0 * lam**2 / v
    a_x, b_x, c_x = d1_periodic(np.stack((a, b, c)), dx)

    h = np.diff(times)[:, None]
    q_t = (q[2:] - q[:-2]) / (h[:-1] + h[1:])

    qa, qb = q_mid * a, q_mid * b
    residual = ((c - qb) - a_x, (-a - (a + b)) - b_x,
                ((q_t + (qa + c)) + qa) - c_x, ((qb - a) - (c - a)) + a_x)
    return np.array([np.abs(r).max() for r in residual]).reshape(2, 2)


def zc_residual(trajectory: Trajectory, lambda_spec: float) -> LaxResidualReport:
    """Measure the structure-equation residual on a trajectory.

    M_t uses central differences between stored frames, N_x the 4th-order
    periodic stencil along each frame (with v_x, v_xx from repeated first
    derivatives). The same frames subsampled by two in x and t provide the
    companion patch at (2dx, 2dt) from which the convergence order of the
    (2,1) entry is fitted.

    Neighbouring frame spacings that differ by more than 1e-12 relative,
    beyond 2 ulps of the later time (``dt * arange(k)`` exceeds 1e-12 from
    rounding alone past k of about 5000), are a ValueError.

    The off-shell entries cancel terms as large as the ``4 lam^2/v`` of C,
    so their round-off grows with it: their bound is OFF_SHELL_TOL times
    ``max(1, max|4 lam^2/v|)`` over the frames. A lam for which that term
    overflows is a numerical failure.
    """
    if trajectory.times.size < 3:
        raise ValueError("need at least 3 frames for the time derivative")
    if not (np.isfinite(lambda_spec) and lambda_spec != 0.0):
        raise ValueError(f"lambda_spec must be finite and nonzero, got {lambda_spec}")
    values, times = trajectory.values, trajectory.times
    h = np.diff(times)
    if not np.all(np.abs(np.diff(h)) <= 1e-12 * h[:-1] + 2.0 * np.spacing(times[2:])):
        raise ValueError("frames must be evenly spaced: neighbouring spacings "
                         "differ by more than 1e-12 relative")
    if np.any(values <= 0.0):
        raise ValueError("M is only defined for v > 0")
    # a float64 square overflows to inf, where a Python float's raises
    with np.errstate(over="ignore"):
        c_scale = float(4.0 * np.float64(lambda_spec) ** 2 / values.min())
    if c_scale == np.inf:
        raise NumericalError(f"4 lambda_spec^2/v overflows for lambda_spec {lambda_spec}")
    dx = trajectory.grid.dx
    coarse, order = np.full((2, 2), np.nan), float("nan")
    # an intermediate that overflows, or a v whose square underflows to 0,
    # leaves a non-finite norm where it is used, which fails the check and is
    # reported as such
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fine = _patch_norms(values, times, dx, lambda_spec)
        if trajectory.grid.n % 2 == 0 and len(times) >= 5:
            coarse = _patch_norms(values[::2, ::2], times[::2], 2.0 * dx, lambda_spec)
            if fine[1, 0] > 0.0 and coarse[1, 0] > 0.0:
                order = float(np.log2(coarse[1, 0] / fine[1, 0]))

    return LaxResidualReport(
        lambda_spec=lambda_spec,
        entry_norms=fine,
        entry_norms_coarse=coarse,
        dx=dx,
        dt=float(np.median(h)),
        convergence_order=order,
        off_shell_tol=OFF_SHELL_TOL * max(1.0, c_scale),
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
    if not (np.isfinite(lambda_spec) and lambda_spec != 0.0):
        raise ValueError(f"lambda_spec must be finite and nonzero, got {lambda_spec}")
    v = v_samples.values
    if np.any(v <= 0.0):
        raise ValueError("field must be strictly positive")
    dx = v_samples.grid.dx
    lam = lambda_spec
    with np.errstate(over="ignore", invalid="ignore"):
        b = -4.0 * lam * v + b_offset
        b_x = d1_periodic(b, dx)
        b_xxx = d3_periodic(b, dx)
        v_x = d1_periodic(v, dx)
        lhs = -b_xxx / (4.0 * lam) + b_x / (4.0 * lam) + (v_x / v**3) * b - b_x / v**2
        rhs = d3_periodic(v, dx) - v_x
        disc = float(np.max(np.abs(lhs - rhs)))
    if not np.isfinite(disc):
        raise NumericalError(f"the reduction check overflows for lambda_spec {lam}")
    return ReductionReport(
        passed=bool(disc < OFF_SHELL_TOL), max_discrepancy=disc, lambda_spec=lam
    )
