"""Grid, curve, and population basics.

Hand-computed values: on the uniform grid with D = 4 and horizon 1 every
weight is 0.25, so for a = (1, 2, 3, 4) and b = (2, 0, 1, 1)

    <a, b> = 0.25 * (1*2 + 2*0 + 3*1 + 4*1) = 0.25 * 9  = 2.25
    ||a||^2 = 0.25 * (1 + 4 + 9 + 16)       = 0.25 * 30 = 7.5
"""

import numpy as np
import pytest

from medcurve import (
    Curve,
    CurvePopulation,
    GridMismatchError,
    TimeGrid,
    norm,
    pointwise_median,
)
from medcurve.curves import as_matrix


def test_uniform_grid_weights_sum_to_horizon():
    grid = TimeGrid.uniform(4)
    assert np.allclose(grid.weights, 0.25)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)
    grid2 = TimeGrid.uniform(7, horizon=3.5)
    assert grid2.weights.sum() == pytest.approx(3.5, rel=1e-15)
    assert np.all(np.diff(grid2.points) > 0)


def test_uniform_grid_uses_midpoints():
    grid = TimeGrid.uniform(4)
    assert np.allclose(grid.points, [0.125, 0.375, 0.625, 0.875])


def test_inner_product_and_norm_match_hand_computation():
    grid = TimeGrid.uniform(4)
    a = Curve(np.array([1.0, 2.0, 3.0, 4.0]), grid)
    b = Curve(np.array([2.0, 0.0, 1.0, 1.0]), grid)
    assert grid.integrate(a.values * b.values) == pytest.approx(2.25, abs=1e-12)
    assert norm(a) == pytest.approx(np.sqrt(7.5), abs=1e-12)


def test_constant_curve_norm_is_scaled_by_sqrt_horizon():
    for t in (1.0, 2.0, 0.5):
        grid = TimeGrid.uniform(6, horizon=t)
        c = Curve(np.full(6, -3.0), grid)
        assert norm(c) == pytest.approx(3.0 * np.sqrt(t), rel=1e-12)


def test_cauchy_schwarz_on_random_curves():
    rng = np.random.default_rng(21)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0, 3, size=9)))
    for _ in range(50):
        a = Curve(rng.normal(size=9), grid)
        b = Curve(rng.normal(size=9), grid)
        assert abs(grid.integrate(a.values * b.values)) <= norm(a) * norm(b) + 1e-12


def test_from_points_equal_spacing_gets_uniform_weights():
    grid = TimeGrid.from_points([0.5, 1.5, 2.5, 3.5])
    assert np.allclose(grid.weights, 1.0)
    assert grid.horizon == pytest.approx(4.0)


def test_from_points_uneven_spacing_gets_trapezoid_weights():
    # spacings 0.5, 1.0, 0.5 over a span of 2:
    # end weights are half the adjacent spacing, interior weights average the two
    grid = TimeGrid.from_points([0.0, 0.5, 1.5, 2.0])
    assert np.allclose(grid.weights, [0.25, 0.75, 0.75, 0.25])
    assert grid.horizon == pytest.approx(2.0)
    assert grid.weights.sum() == pytest.approx(grid.horizon, rel=1e-15)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.2, 0.1]), weights=np.array([0.5, 0.5]), horizon=1.0)
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.1, 0.2]), weights=np.array([0.5, -0.5]), horizon=0.0)
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.1, 0.2]), weights=np.array([0.5, 0.6]), horizon=1.0)


def test_curve_requires_matching_grid_and_finite_values():
    grid = TimeGrid.uniform(3)
    with pytest.raises(ValueError):
        Curve(np.array([1.0, 2.0]), grid)
    with pytest.raises(ValueError):
        Curve(np.array([1.0, np.nan, 2.0]), grid)
    other = TimeGrid.uniform(3, horizon=2.0)
    with pytest.raises(GridMismatchError):
        as_matrix([Curve(np.zeros(3), grid), Curve(np.zeros(3), other)])


def test_population_defaults_and_subset():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.arange(8.0).reshape(4, 2), grid)
    assert list(pop.ids) == [1, 2, 3, 4]
    assert len(pop) == 4
    sub = pop.subset([2, 0])
    assert list(sub.ids) == [3, 1]
    assert np.allclose(sub.values[0], [4.0, 5.0])
    with pytest.raises(ValueError):
        CurvePopulation(np.zeros((2, 2)), grid, ids=[1, 1])


def _subset_outcome(make):
    """What make() gives: the population's parts, or the raised error's type and text."""
    try:
        pop = make()
    except Exception as err:  # the error itself is the outcome compared
        return type(err), str(err)
    return (
        pop.values.tolist(),
        pop.values.dtype,
        pop.values.flags.writeable,
        pop.ids.tolist(),
        pop.ids.dtype,
        pop.ids.flags.writeable,
        pop.grid,
    )


@pytest.mark.parametrize(
    "indices",
    [
        [0],
        [1, 3],
        np.arange(5),
        np.array([0, 2, 4], dtype=np.int32),
        np.array([1, 4], dtype=np.uint8),
        [2, 0],
        [1, 1],
        [-1, 0],
        [-5, -1],
        [-5, 0],
        [0, 5],
        [0, -6],
        [True, False, True, False, True],
        [True, False],
        [0.0, 1.0],
        [],
        np.array([], dtype=np.int64),
        [[0, 1]],
        2,
    ],
)
def test_subset_matches_the_full_constructor(indices):
    grid = TimeGrid.uniform(3)
    for ids in (None, np.array(["a", "b", "c", "d", "e"])):
        pop = CurvePopulation(np.arange(15.0).reshape(5, 3), grid, ids=ids)
        idx = np.asarray(indices)
        want = _subset_outcome(lambda: CurvePopulation(pop.values[idx], grid, ids=pop.ids[idx]))
        assert _subset_outcome(lambda: pop.subset(indices)) == want


def test_sorted_subset_shares_the_checked_rows(monkeypatch):
    pop = CurvePopulation(np.arange(15.0).reshape(5, 3), TimeGrid.uniform(3))
    built = []
    check = CurvePopulation.__post_init__
    monkeypatch.setattr(CurvePopulation, "__post_init__", lambda self: built.append(1) or check(self))
    sub = pop.subset(np.array([0, 3, 4]))
    assert not built
    assert not np.shares_memory(sub.values, pop.values)
    pop.subset([3, 0])
    assert built


def test_population_values_are_readonly():
    pop = CurvePopulation(np.zeros((2, 3)), TimeGrid.uniform(3))
    with pytest.raises(ValueError):
        pop.values[0, 0] = 1.0


def test_pointwise_median_odd_count():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.array([[1.0, 5.0], [3.0, 1.0], [2.0, 9.0]]), grid)
    med = pointwise_median(pop)
    assert np.allclose(med.values, [2.0, 5.0])


def test_pointwise_median_even_count_takes_lower_value():
    grid = TimeGrid.uniform(1)
    pop = CurvePopulation(np.array([[1.0], [2.0], [3.0], [4.0]]), grid)
    assert pointwise_median(pop).values[0] == pytest.approx(2.0)


def test_pointwise_median_respects_weights():
    grid = TimeGrid.uniform(1)
    pop = CurvePopulation(np.array([[1.0], [2.0], [3.0], [10.0]]), grid)
    # total weight 6, half 3; the cumulative weight reaches 3 exactly at the value 3
    med = pointwise_median(pop, weights=[1.0, 1.0, 1.0, 3.0])
    assert med.values[0] == pytest.approx(3.0)
    # weight 4 on the value 10: half is 4, only reached at 10
    med = pointwise_median(pop, weights=[1.0, 1.0, 1.0, 4.0])
    assert med.values[0] == pytest.approx(10.0)


def test_pointwise_median_is_permutation_invariant():
    rng = np.random.default_rng(11)
    grid = TimeGrid.uniform(5)
    values = rng.normal(size=(9, 5))
    pop = CurvePopulation(values, grid)
    perm = rng.permutation(9)
    shuffled = CurvePopulation(values[perm], grid)
    assert np.array_equal(pointwise_median(pop).values, pointwise_median(shuffled).values)


@pytest.mark.parametrize("n", [7, 8])
def test_unit_weight_median_selects_what_the_weighted_rule_picks(n):
    # few distinct values, so every column has ties, signed zeros among them
    rng = np.random.default_rng(n)
    values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, 40))
    pop = CurvePopulation(values, TimeGrid.uniform(40))
    plain = pointwise_median(pop).values
    weighted = pointwise_median(pop, weights=np.ones(n)).values
    assert np.array_equal(plain.view(np.int64), weighted.view(np.int64))

