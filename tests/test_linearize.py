"""Derivative operator of the estimating equation and linearized variables.

Hand-computed oracle: uniform grid with D = 2 (weights 0.5 each),
expansion point at the origin, curves Y1 = (1, 0) and Y2 = (0, 2). Then
r1 = sqrt(0.5), r2 = sqrt(2), the unit directions are (sqrt(2), 0) and
(0, sqrt(2)), and the operator's action matrix works out to

    A = diag(c - 1/r1, c - 1/r2) = diag(1/r2, 1/r1)

with c = 1/r1 + 1/r2, because each rank-one term removes exactly the
1/r_k of its own coordinate.
"""

import tracemalloc

import numpy as np
import pytest

from medcurve import CurvePopulation, TimeGrid, linearize
from medcurve.curves import pointwise_median
from medcurve.errors import LinearizationError
from medcurve.linearize import linearized_variables
from medcurve.solver import SolverConfig, l1_median
from oracles import eigenvalue_ridge_rule, score, symmetrized, tensor_gamma


def test_two_orthogonal_directions_hand_oracle():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.array([[1.0, 0.0], [0.0, 2.0]]), grid)
    g = linearized_variables(pop, np.zeros(2)).gamma
    r1, r2 = np.sqrt(0.5), np.sqrt(2.0)
    assert np.allclose(g.matrix, np.diag([1.0 / r2, 1.0 / r1]), atol=1e-14)
    assert np.allclose(np.array([1.0, 1.0]) @ g.matrix.T, [1.0 / r2, 1.0 / r1], atol=1e-14)
    # G u = e1 with e1 = (sqrt(2), 0) gives u = (sqrt(2) * r2, 0) = (2, 0)
    u = g.solve(np.array([np.sqrt(2.0), 0.0]))
    assert np.allclose(u, [2.0, 0.0], atol=1e-12)


def test_assembly_forms_agree_entrywise():
    rng = np.random.default_rng(9)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 2.0, size=7)))
    pop = CurvePopulation(rng.normal(size=(15, 7)), grid)
    point = rng.normal(size=7)
    w = rng.uniform(0.5, 3.0, size=15)
    a = linearized_variables(pop, point, weights=w).gamma
    b = tensor_gamma(pop, point, weights=w)
    scale = np.abs(a.matrix).max()
    assert np.max(np.abs(a.matrix - b)) <= 1e-12 * scale


def test_operator_is_positive_definite_for_generic_curves():
    rng = np.random.default_rng(13)
    pop = CurvePopulation(rng.normal(size=(12, 5)), TimeGrid.uniform(5))
    g = linearized_variables(pop, rng.normal(size=5)).gamma
    assert g.min_eigenvalue() > 0
    assert not g.ridged
    assert np.isfinite(g.condition)


def test_solve_inverts_apply():
    rng = np.random.default_rng(19)
    pop = CurvePopulation(rng.normal(size=(10, 6)), TimeGrid.uniform(6, horizon=3.0))
    g = linearized_variables(pop, np.zeros(6)).gamma
    b = rng.normal(size=(4, 6))
    assert np.allclose(g.solve(b) @ g.matrix.T, b, atol=1e-10)
    assert np.allclose(g.solve(b @ g.matrix.T), b, atol=1e-10)


def test_matches_finite_differences_of_the_score():
    rng = np.random.default_rng(23)
    grid = TimeGrid.uniform(5)
    pop = CurvePopulation(rng.normal(size=(20, 5)), grid)
    point = rng.normal(size=5)
    g = linearized_variables(pop, point).gamma
    eps = 1e-6
    for _ in range(5):
        v = rng.normal(size=5)
        plus = score(pop, point + eps * v).values
        minus = score(pop, point - eps * v).values
        fd = (minus - plus) / (2.0 * eps)
        assert np.allclose(v @ g.matrix.T, fd, atol=1e-5 * max(1.0, float(grid.norms(fd))))


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
    assert np.allclose(lin.values @ lin.gamma.matrix.T, e, atol=1e-9)


def test_variables_equal_the_inverse_applied_to_grid_directions_on_an_uneven_grid():
    rng = np.random.default_rng(41)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 3.0, size=9)))
    pop = CurvePopulation(rng.normal(size=(25, 9)), grid)
    point = rng.normal(size=9)
    w = rng.uniform(0.5, 3.0, size=25)
    lin = linearized_variables(pop, point, weights=w)
    diffs = pop.values - point
    want = lin.gamma.solve(diffs / grid.norms(diffs)[:, None])
    assert np.max(np.abs(lin.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_peak_memory_is_about_twice_the_curve_matrix():
    # the working array and u are the only N x D arrays ever live
    rng = np.random.default_rng(47)
    pop = CurvePopulation(rng.standard_gamma(3.0, size=(4000, 96)), TimeGrid.uniform(96))
    at = pointwise_median(pop)
    tracemalloc.start()
    try:
        linearized_variables(pop, at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * pop.values.nbytes


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


def test_exclusion_warning_names_the_calling_line():
    values = np.random.default_rng(43).normal(size=(8, 4))
    pop = CurvePopulation(values, TimeGrid.uniform(4))
    with pytest.warns(UserWarning, match="excluded") as caught:
        linearized_variables(pop, values[3])
    assert caught[0].filename == __file__


@pytest.mark.parametrize("n_units, n_points", [(12, 4), (40, 5)])
@pytest.mark.parametrize("heavy", [None, 0.6, 1.5])
def test_linearization_at_a_fit_excludes_exactly_its_anchor(n_units, n_points, heavy):
    # the solver and the linearization apply one coincidence rule: at a
    # fitted median the linearization drops the anchor curve and no other.
    # A curve weighing 1.5 times the rest is always the median; at 0.6
    # times the rest it is in some draws and not in others
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pop = CurvePopulation(rng.normal(size=(n_units, n_points)), TimeGrid.uniform(n_points))
        w = rng.uniform(0.5, 2.0, size=n_units)
        if heavy is not None:
            k = int(rng.integers(n_units))
            w[k] = heavy * (w.sum() - w[k])
        fit = l1_median(pop, weights=w)
        assert fit.converged
        if heavy is None:
            assert not fit.anchored
        if heavy == 1.5:
            assert fit.anchored and fit.anchor_index == k
        if fit.anchored:
            with pytest.warns(UserWarning, match="excluded from the linearization"):
                lin = linearized_variables(pop, fit.median, weights=w)
            assert lin.gamma.excluded == (fit.anchor_index,)
        else:
            assert linearized_variables(pop, fit.median, weights=w).gamma.excluded == ()


def test_collinear_directions_force_a_ridge():
    # both curves point along one line through the expansion point, so the
    # operator annihilates that direction and needs the diagonal ridge
    grid = TimeGrid.uniform(3)
    base = np.array([1.0, -1.0, 2.0])
    pop = CurvePopulation(np.vstack([base, -2.0 * base]), grid)
    g = linearized_variables(pop, np.zeros(3)).gamma
    assert g.ridged
    assert g.min_eigenvalue() > 0


def test_all_curves_on_the_point_is_an_error():
    grid = TimeGrid.uniform(2)
    pop = CurvePopulation(np.array([[1.0, 1.0], [1.0, 1.0]]), grid, ids=[1, 2])
    with pytest.raises(LinearizationError):
        linearized_variables(pop, np.array([1.0, 1.0]))


def test_rejects_bad_inputs():
    pop = CurvePopulation(np.eye(3), TimeGrid.uniform(3))
    with pytest.raises(ValueError):
        linearized_variables(pop, np.zeros(2))
    with pytest.raises(ValueError):
        linearized_variables(pop, np.zeros(3), weights=[1.0, 1.0])


def _spd(d, condition, seed):
    """A symmetric PSD matrix with eigenvalues spread geometrically over the condition."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    s = (q * np.geomspace(1.0, 1.0 / condition, d)) @ q.T
    return (s + s.T) / 2.0


def _operators(monkeypatch):
    """Synthetic operators with conditions 1 to 1e16 and singular ones, then two built from populations."""
    d = 8
    cases = [_spd(d, c, seed) for seed, c in enumerate(
        [1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e11, 3e11, 1e12, 3e12, 1e13, 1e14, 1e16]
    )]
    v = np.random.default_rng(99).normal(size=d)
    cases += [np.diag([1.0] * (d - 1) + [0.0]), np.outer(v, v), np.zeros((d, d))]
    grid = TimeGrid.from_points(np.cumsum(np.linspace(1.0, 2.0, d)))
    built = [(sym, grid) for sym in cases]

    # the operators the library assembles for a generic and a collinear population
    captured = []
    real = linearize._operator
    monkeypatch.setattr(
        linearize, "_operator", lambda sym, g, *rest: captured.append((sym, g)) or real(sym, g, *rest)
    )
    rng = np.random.default_rng(5)
    pgrid = TimeGrid.uniform(4)
    linearized_variables(CurvePopulation(rng.normal(size=(20, 4)), pgrid), np.zeros(4))
    base = np.array([1.0, -1.0, 2.0, 0.5])
    linearized_variables(CurvePopulation(np.outer([1.0, -2.0, 3.0], base), pgrid), np.zeros(4))
    monkeypatch.setattr(linearize, "_operator", real)
    return built + captured


def test_ridge_decision_matches_the_eigenvalue_rule(monkeypatch):
    ridged = 0
    for sym, grid in _operators(monkeypatch):
        try:
            want_ridged, want_condition, used = eigenvalue_ridge_rule(sym)
        except LinearizationError as want:
            with pytest.raises(LinearizationError) as got:
                linearize._operator(sym, grid)
            assert got.value.condition == want.condition
            continue
        g = linearize._operator(sym, grid)
        assert g.ridged == want_ridged
        assert g.condition == want_condition
        assert np.array_equal(symmetrized(g), used)
        assert g.min_eigenvalue() == np.linalg.eigvalsh(used)[0]
        ridged += g.ridged

        # u from the inverse agrees with an LU solve on the same operator
        d = sym.shape[0]
        sqrt_q = np.sqrt(grid.weights)
        b = np.random.default_rng(d).normal(size=(6, d))
        want_u = np.linalg.solve(used, (b * sqrt_q).T).T / sqrt_q
        eig = np.linalg.eigvalsh(used)
        bound = 100 * d * np.finfo(float).eps * (eig[-1] / eig[0]) * np.abs(want_u).max()
        assert np.abs(g.solve(b) - want_u).max() <= bound
    assert ridged >= 5


def test_a_well_conditioned_operator_takes_no_eigenvalues(monkeypatch):
    rng = np.random.default_rng(21)
    pop = CurvePopulation(rng.normal(size=(30, 5)), TimeGrid.uniform(5))

    def refuse(_):
        raise AssertionError("eigvalsh ran")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", refuse)
        lin = linearized_variables(pop, np.zeros(5))
    assert not lin.gamma.ridged
    assert lin.gamma.condition == eigenvalue_ridge_rule(symmetrized(lin.gamma))[1]
