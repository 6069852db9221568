"""Derivative operator of the estimating equation and linearized variables.

Hand-computed oracle: uniform grid with D = 2 (weights 0.5 each),
expansion point at the origin, curves Y1 = (1, 0) and Y2 = (0, 2). Then
r1 = sqrt(0.5), r2 = sqrt(2), the unit directions are (sqrt(2), 0) and
(0, sqrt(2)), and the operator's action matrix works out to

    A = diag(c - 1/r1, c - 1/r2) = diag(1/r2, 1/r1)

with c = 1/r1 + 1/r2, because each rank-one term removes exactly the
1/r_k of its own coordinate.
"""

import numpy as np
import pytest

from medcurve import CurvePopulation, TimeGrid
from medcurve.errors import LinearizationError
from medcurve.linearize import gamma_matrix, linearized_variables
from medcurve.solver import SolverConfig, l1_median, score
from oracles import tensor_gamma


def test_two_orthogonal_directions_hand_oracle():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.array([[1.0, 0.0], [0.0, 2.0]]), grid)
    g = gamma_matrix(pop, np.zeros(2))
    r1, r2 = np.sqrt(0.5), np.sqrt(2.0)
    assert np.allclose(g.matrix, np.diag([1.0 / r2, 1.0 / r1]), atol=1e-14)
    assert np.allclose(g.apply(np.array([1.0, 1.0])), [1.0 / r2, 1.0 / r1], atol=1e-14)
    # G u = e1 with e1 = (sqrt(2), 0) gives u = (sqrt(2) * r2, 0) = (2, 0)
    u = g.solve(np.array([np.sqrt(2.0), 0.0]))
    assert np.allclose(u, [2.0, 0.0], atol=1e-12)


def test_assembly_forms_agree_entrywise():
    rng = np.random.default_rng(9)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 2.0, size=7)))
    pop = CurvePopulation(rng.normal(size=(15, 7)), grid)
    point = rng.normal(size=7)
    w = rng.uniform(0.5, 3.0, size=15)
    a = gamma_matrix(pop, point, weights=w)
    b = tensor_gamma(pop, point, weights=w)
    scale = np.abs(a.matrix).max()
    assert np.max(np.abs(a.matrix - b)) <= 1e-12 * scale


def test_operator_is_positive_definite_for_generic_curves():
    rng = np.random.default_rng(13)
    pop = CurvePopulation(rng.normal(size=(12, 5)), TimeGrid.uniform(5))
    g = gamma_matrix(pop, rng.normal(size=5))
    assert g.min_eigenvalue() > 0
    assert not g.ridged
    assert np.isfinite(g.condition)


def test_solve_inverts_apply():
    rng = np.random.default_rng(19)
    pop = CurvePopulation(rng.normal(size=(10, 6)), TimeGrid.uniform(6, horizon=3.0))
    g = gamma_matrix(pop, np.zeros(6))
    b = rng.normal(size=(4, 6))
    assert np.allclose(g.apply(g.solve(b)), b, atol=1e-10)
    assert np.allclose(g.solve(g.apply(b)), b, atol=1e-10)


def test_matches_finite_differences_of_the_score():
    rng = np.random.default_rng(23)
    grid = TimeGrid.uniform(5)
    pop = CurvePopulation(rng.normal(size=(20, 5)), grid)
    point = rng.normal(size=5)
    g = gamma_matrix(pop, point)
    eps = 1e-6
    for _ in range(5):
        v = rng.normal(size=5)
        plus = score(pop, point + eps * v).values
        minus = score(pop, point - eps * v).values
        fd = (minus - plus) / (2.0 * eps)
        assert np.allclose(g.apply(v), fd, atol=1e-5 * max(1.0, float(grid.norms(fd))))


def test_linearized_variables_sum_to_zero_at_the_median():
    rng = np.random.default_rng(31)
    pop = CurvePopulation(rng.standard_gamma(2.0, size=(60, 8)), TimeGrid.uniform(8))
    fit = l1_median(pop, cfg=SolverConfig(tol=1e-13))
    assert fit.converged and not fit.anchored
    lin = linearized_variables(pop, fit.median)
    total = lin.values.sum(axis=0)
    typical = float(np.mean(pop.grid.norms(lin.values)))
    assert float(pop.grid.norms(total)) <= 1e-8 * typical * len(pop)
    assert lin.units.shape == (60,)
    # each u_k solves G u = e_k
    diffs = pop.values - fit.median.values
    e = diffs / pop.grid.norms(diffs)[:, None]
    assert np.allclose(lin.gamma.apply(lin.values), e, atol=1e-9)


def test_weighted_variables_sum_to_zero_at_the_weighted_median():
    rng = np.random.default_rng(37)
    pop = CurvePopulation(rng.normal(size=(30, 6)), TimeGrid.uniform(6))
    w = rng.uniform(1.0, 4.0, size=30)
    fit = l1_median(pop, weights=w, cfg=SolverConfig(tol=1e-13))
    assert fit.converged and not fit.anchored
    lin = linearized_variables(pop, fit.median, weights=w)
    total = w @ lin.values
    typical = float(np.mean(pop.grid.norms(lin.values)))
    assert float(pop.grid.norms(total)) <= 1e-7 * typical * w.sum()


def test_coincident_curve_is_excluded_with_a_warning():
    rng = np.random.default_rng(43)
    values = rng.normal(size=(8, 4))
    point = values[3].copy()
    pop = CurvePopulation(values, TimeGrid.uniform(4))
    with pytest.warns(UserWarning, match="excluded"):
        lin = linearized_variables(pop, point)
    assert lin.gamma.excluded == (3,)
    assert 3 not in lin.units
    assert lin.values.shape == (7, 4)


def test_collinear_directions_force_a_ridge():
    # both curves point along one line through the expansion point, so the
    # operator annihilates that direction and needs the diagonal ridge
    grid = TimeGrid.uniform(3)
    base = np.array([1.0, -1.0, 2.0])
    pop = CurvePopulation(np.vstack([base, -2.0 * base]), grid)
    g = gamma_matrix(pop, np.zeros(3))
    assert g.ridged
    assert g.min_eigenvalue() > 0


def test_all_curves_on_the_point_is_an_error():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.array([[1.0, 1.0], [1.0, 1.0]]), grid, ids=[1, 2])
    with pytest.raises(LinearizationError):
        gamma_matrix(pop, np.array([1.0, 1.0]))


def test_rejects_bad_inputs():
    pop = CurvePopulation(np.eye(3), TimeGrid.uniform(3))
    with pytest.raises(ValueError):
        gamma_matrix(pop, np.zeros(2))
    with pytest.raises(ValueError):
        gamma_matrix(pop, np.zeros(3), weights=[1.0, 1.0])
