import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhdlab.core import (
    Field,
    Grid1D,
    SolitonParams,
    Trajectory,
    d1_periodic,
    d3_periodic,
    make_grid,
)
from fhdlab.lax import LaxResidualReport
from fhdlab.profiles import Profile


class TestMakeGrid:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 10.0, 5)

    @pytest.mark.parametrize("build", [Grid1D, make_grid])
    @pytest.mark.parametrize("n", [64.0, 64.5, True, "64", None])
    def test_rejects_a_node_count_that_is_no_integer(self, build, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            build(-40.0, 40.0, n)

    def test_a_numpy_integer_node_count_is_stored_as_its_int(self):
        grid = Grid1D(-40.0, 40.0, np.int64(64))
        assert type(grid.n) is int and grid == Grid1D(-40.0, 40.0, 64)

    def test_periodic_spacing(self):
        grid = make_grid(0.0, 10.0, 10)
        assert grid.dx == 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            make_grid(5.0, 5.0, 16)
        with pytest.raises(ValueError):
            make_grid(5.0, 1.0, 16)

    def test_rejects_nonfinite_bounds(self):
        with pytest.raises(ValueError):
            make_grid(0.0, np.inf, 16)
        with pytest.raises(ValueError):
            make_grid(np.nan, 1.0, 16)

    def test_nodes_start_at_xmin_and_skip_right_endpoint(self):
        grid = make_grid(-3.0, 5.0, 16)
        assert grid.x[0] == -3.0
        assert grid.x[-1] < 5.0
        assert np.allclose(np.diff(grid.x), grid.dx)


class TestField:
    def test_length_mismatch_rejected(self):
        grid = make_grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            Field(grid, np.ones(8))

    def test_nonfinite_rejected(self):
        grid = make_grid(0.0, 1.0, 16)
        values = np.ones(16)
        values[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid, values)

    def test_values_are_immutable(self):
        grid = make_grid(0.0, 1.0, 16)
        f = Field(grid, np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_constructor_copies_input(self):
        grid = make_grid(0.0, 1.0, 16)
        raw = np.ones(16)
        f = Field(grid, raw)
        raw[0] = 99.0
        assert f.values[0] == 1.0


class TestTrajectory:
    def test_times_must_increase(self):
        grid = make_grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, 0.0]), np.ones((2, 16)))

    def test_values_shape_must_match_grid_and_times(self):
        grid = make_grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, 1.0]), np.ones((2, 15)))
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, 1.0]), np.ones((3, 16)))
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, 1.0]), np.ones(32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, bad):
        grid = make_grid(0.0, 1.0, 16)
        values = np.ones((2, 16))
        values[1, 7] = bad
        with pytest.raises(ValueError):
            Trajectory(grid, np.array([0.0, 1.0]), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_times_rejected(self, bad):
        # [0, inf] once passed: its speed read nan and the Lax residual
        # blamed uneven spacing
        grid = make_grid(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="trajectory times must be finite"):
            Trajectory(grid, np.array([0.0, bad]), np.ones((2, 16)))

    def test_values_are_read_only(self):
        grid = make_grid(0.0, 1.0, 16)
        raw = np.ones((2, 16))
        traj = Trajectory(grid, np.array([0.0, 1.0]), raw)
        # a view of the caller's array: no copy, and the caller's flags stay
        assert np.shares_memory(traj.values, raw)
        assert raw.flags.writeable
        with pytest.raises(ValueError):
            traj.values[1, 0] = 2.0
        with pytest.raises(ValueError):
            traj.times[0] = 2.0

    def test_values_stacks_frames(self):
        grid = make_grid(0.0, 1.0, 16)
        traj = Trajectory(grid, np.array([0.0, 1.0]), [np.zeros(16), np.ones(16)])
        assert traj.values.shape == (2, 16)
        assert traj.grid == grid
        assert np.array_equal(traj.values[1], np.ones(16))


_GRID16 = make_grid(0.0, 1.0, 16)
_ARRAY_RECORDS = {
    "Field": lambda: Field(_GRID16, np.ones(16)),
    "Trajectory": lambda: Trajectory(_GRID16, np.array([0.0, 1.0]), np.ones((2, 16))),
    "Profile": lambda: Profile(
        xi=np.linspace(-1.0, 1.0, 8), v=np.ones(8),
        params=SolitonParams(0.5, 1.0), method="quadrature",
    ),
    "LaxResidualReport": lambda: LaxResidualReport(
        lambda_spec=1.0, entry_norms=np.zeros((2, 2)),
        entry_norms_coarse=np.zeros((2, 2)), dx=0.1, dt=0.01,
        convergence_order=4.0,
    ),
}


@pytest.mark.parametrize("make", _ARRAY_RECORDS.values(), ids=_ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare arrays and raise on their truth value
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


_STENCILS = {1: d1_periodic, 3: d3_periodic}


def _sin_values(n, k=3):
    grid = make_grid(0.0, 2.0 * np.pi, n)
    return grid, np.sin(k * grid.x)


class TestDerivative:
    # the two periodic stencils, checked against analytic derivatives
    def test_constant_field_has_zero_derivatives(self):
        grid = make_grid(-5.0, 5.0, 64)
        for stencil in _STENCILS.values():
            assert np.max(np.abs(stencil(np.full(64, 2.7), grid.dx))) < 1e-12

    @pytest.mark.parametrize("order", [1, 3])
    def test_sin_oracle(self, order):
        k, n = 3, 128
        grid, values = _sin_values(n, k)
        got = _STENCILS[order](values, grid.dx)
        # analytic derivatives of sin(kx)
        expected = k * np.cos(k * grid.x) if order == 1 else -(k**3) * np.cos(k * grid.x)
        err = np.max(np.abs(got - expected))
        assert err < 40.0 * grid.dx**4 * k ** (order + 4)

    @pytest.mark.parametrize("order", [1, 3])
    def test_refinement_shrinks_error_fourth_order(self, order):
        k = 3
        errs = []
        for n in (64, 128, 256):
            grid, values = _sin_values(n, k)
            expected = (
                k * np.cos(k * grid.x) if order == 1 else -(k**3) * np.cos(k * grid.x)
            )
            errs.append(np.max(np.abs(_STENCILS[order](values, grid.dx) - expected)))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 12.0

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10.0, 10.0, allow_nan=False),
        b=st.floats(-10.0, 10.0, allow_nan=False),
        order=st.sampled_from([1, 3]),
    )
    def test_linearity(self, a, b, order):
        grid = make_grid(0.0, 2.0 * np.pi, 64)
        f = np.sin(grid.x) + 0.3 * np.cos(4 * grid.x)
        g = np.cos(2 * grid.x) - 0.1 * np.sin(5 * grid.x)
        stencil = _STENCILS[order]
        lhs = stencil(a * f + b * g, grid.dx)
        rhs = a * stencil(f, grid.dx) + b * stencil(g, grid.dx)
        scale = (abs(a) + abs(b) + 1.0) / grid.dx**order
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale
