"""Median solver behaviour on configurations with known answers.

Geometry notes: on a uniform grid all quadrature weights are equal, so the
grid norm is a constant multiple of the Euclidean norm and the median
coincides with the classical geometric median of the value vectors. That
gives exact targets: the centre of an equilateral triangle, the crossing
point of a rectangle's diagonals, and the weighted median for scalar data.
"""

import warnings

import numpy as np
import pytest

from medcurve import Curve, CurvePopulation, TimeGrid
from medcurve.solver import (
    MedianFit,
    SolverConfig,
    _collinear,
    l1_median,
    objective_value,
    score,
)


def pop_from_rows(rows, horizon=1.0):
    rows = np.asarray(rows, dtype=float)
    return CurvePopulation(rows, TimeGrid.uniform(rows.shape[1], horizon=horizon))


TIGHT = SolverConfig(tol=1e-12)


def test_scalar_data_reduces_to_weighted_median():
    pop = pop_from_rows([[0.0], [1.0], [10.0]])
    fit = l1_median(pop, cfg=TIGHT)
    assert fit.converged
    assert fit.anchored and fit.anchor_index == 1
    assert fit.median.values[0] == pytest.approx(1.0, abs=1e-10)


def test_equilateral_triangle_median_is_the_centre():
    angles = np.deg2rad([90.0, 210.0, 330.0])
    pop = pop_from_rows(np.column_stack([np.cos(angles), np.sin(angles)]))
    fit = l1_median(pop, cfg=TIGHT)
    assert fit.converged and not fit.anchored
    assert np.allclose(fit.median.values, [0.0, 0.0], atol=1e-9)


def test_rectangle_median_is_the_diagonal_crossing():
    pop = pop_from_rows([[1.0, 2.0], [1.0, -2.0], [-1.0, 2.0], [-1.0, -2.0]])
    fit = l1_median(pop, cfg=TIGHT)
    assert fit.converged
    assert np.allclose(fit.median.values, [0.0, 0.0], atol=1e-9)


def test_dominant_weight_pins_the_median_to_that_curve():
    # one unit carries at least the combined weight of the rest, so the
    # estimating equation norm over the others can never exceed it
    rng = np.random.default_rng(3)
    values = rng.normal(size=(5, 8))
    pop = CurvePopulation(values, TimeGrid.uniform(8))
    fit = l1_median(pop, weights=[6.0, 1.0, 1.0, 1.0, 1.0], cfg=TIGHT)
    assert fit.converged and fit.anchored and fit.anchor_index == 0
    assert np.allclose(fit.median.values, values[0], atol=1e-9)


def test_integer_weights_match_repeated_curves():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, 6))
    pop = CurvePopulation(values, TimeGrid.uniform(6))
    repeated = CurvePopulation(values[[0, 0, 0, 1, 2, 2, 3]], TimeGrid.uniform(6))
    a = l1_median(pop, weights=[3.0, 1.0, 2.0, 1.0], cfg=TIGHT)
    b = l1_median(repeated, cfg=TIGHT)
    assert np.allclose(a.median.values, b.median.values, atol=1e-9)


def test_identical_curves_converge_immediately():
    pop = pop_from_rows([[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
    fit = l1_median(pop)
    assert fit.converged and fit.anchored and fit.iterations == 0
    assert np.allclose(fit.median.values, [2.0, 3.0])


def test_init_choice_does_not_change_the_answer():
    rng = np.random.default_rng(17)
    values = rng.normal(size=(30, 12)) + rng.normal(size=12)
    pop = CurvePopulation(values, TimeGrid.uniform(12))
    a = l1_median(pop, cfg=SolverConfig(tol=1e-12, init="pointwise-median"))
    b = l1_median(pop, cfg=SolverConfig(tol=1e-12, init="mean"))
    c = l1_median(pop, cfg=SolverConfig(tol=1e-12, init=np.zeros(12)))
    assert np.allclose(a.median.values, b.median.values, atol=1e-8)
    assert np.allclose(a.median.values, c.median.values, atol=1e-8)


def test_objective_trace_is_monotone_and_solution_beats_plug_ins():
    rng = np.random.default_rng(29)
    values = rng.standard_gamma(2.0, size=(40, 10))
    pop = CurvePopulation(values, TimeGrid.uniform(10))
    fit = l1_median(pop, cfg=TIGHT)
    assert fit.converged
    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * trace[0])
    from medcurve.curves import mean_curve, pointwise_median

    best = objective_value(pop, fit.median)
    assert best <= objective_value(pop, pointwise_median(pop)) + 1e-12
    assert best <= objective_value(pop, mean_curve(pop)) + 1e-12


def test_score_vanishes_at_the_fitted_median():
    rng = np.random.default_rng(41)
    pop = CurvePopulation(rng.normal(size=(25, 7)), TimeGrid.uniform(7))
    fit = l1_median(pop, cfg=TIGHT)
    assert not fit.anchored
    residual = score(pop, fit.median)
    assert float(pop.grid.norms(residual.values)) <= 1e-12 * len(pop)


def test_score_warns_and_excludes_coincident_curves():
    pop = pop_from_rows([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    with pytest.warns(UserWarning, match="coincide"):
        s = score(pop, Curve(np.array([0.0, 0.0]), pop.grid))
    # remaining directions are (1, 0) and (0, 1) in the grid geometry
    assert np.allclose(s.values * np.sqrt(0.5), [1.0, 1.0], atol=1e-12)


def test_non_convergence_returns_last_iterate_without_raising():
    rng = np.random.default_rng(53)
    pop = CurvePopulation(rng.normal(size=(50, 6)), TimeGrid.uniform(6))
    fit = l1_median(pop, cfg=SolverConfig(tol=1e-15, max_iter=2))
    assert isinstance(fit, MedianFit)
    assert not fit.converged
    assert fit.iterations == 2
    assert np.all(np.isfinite(fit.median.values))


def test_collinear_populations_are_flagged_as_maybe_non_unique():
    base = np.array([1.0, 2.0, 0.5])
    rows = [t * base for t in (0.0, 1.0, 2.0, 5.0)]
    fit = l1_median(pop_from_rows(rows), cfg=TIGHT)
    assert fit.maybe_non_unique
    rng = np.random.default_rng(61)
    generic = CurvePopulation(rng.normal(size=(10, 3)), TimeGrid.uniform(3))
    assert not l1_median(generic, cfg=TIGHT).maybe_non_unique


def test_two_curves_objective_equals_their_distance():
    # any point on the segment between two curves minimizes, and the
    # minimum value is the distance between them
    pop = pop_from_rows([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    fit = l1_median(pop, cfg=SolverConfig(tol=1e-10))
    gap = float(pop.grid.norms(pop.values[1] - pop.values[0]))
    assert objective_value(pop, fit.median) == pytest.approx(gap, rel=1e-9)
    assert fit.maybe_non_unique


def test_weights_must_be_positive_and_match():
    pop = pop_from_rows([[0.0], [1.0]])
    with pytest.raises(ValueError):
        l1_median(pop, weights=[1.0])
    with pytest.raises(ValueError):
        l1_median(pop, weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        l1_median(pop, cfg=SolverConfig(tol=-1.0))


def test_solver_accepts_curve_sequences():
    grid = TimeGrid.uniform(4)
    curves = [Curve(np.full(4, v), grid) for v in (0.0, 1.0, 2.0)]
    fit = l1_median(curves, cfg=TIGHT)
    assert fit.converged
    assert np.allclose(fit.median.values, 1.0, atol=1e-9)


def svd_collinear(values, grid):
    """The flag computed from the full SVD, as the certificate must reproduce it."""
    if values.shape[0] <= 2 or values.shape[1] == 1:
        return True
    centered = (values - values.mean(axis=0)) * np.sqrt(grid.weights)
    s = np.linalg.svd(centered, compute_uv=False)
    return bool(s[1] <= 1e-8 * s[0]) if s[0] > 0 else True


def collinearity_cases():
    rng = np.random.default_rng(71)
    for n, d in [(1, 4), (2, 6), (3, 1), (12, 1), (5, 5), (40, 9), (200, 48)]:
        yield rng.normal(size=(n, d))
        line = rng.normal(size=d)
        yield rng.normal(size=(n, 1)) * line + rng.normal(size=d)
        for eps in 10.0 ** np.arange(-12, -3):
            yield rng.normal(size=(n, 1)) * line + eps * rng.normal(size=(n, d))
        yield np.tile(rng.normal(size=d), (n, 1))
        yield np.zeros((n, d))
    # one curve off the line of the rest, and the spread right at the threshold
    base = np.outer(np.arange(30.0), rng.normal(size=8))
    for off in (1e-7, 2e-8, 1.1e-8, 1e-8, 9e-9):
        tilted = base.copy()
        tilted[0] += off * np.linalg.norm(base) * rng.normal(size=8)
        yield tilted


def test_collinearity_certificate_matches_the_svd():
    for values in collinearity_cases():
        grid = TimeGrid.uniform(values.shape[1], horizon=2.0)
        assert _collinear(values, grid) == svd_collinear(values, grid), values.shape


def test_generic_populations_are_certified_without_an_svd(monkeypatch):
    rng = np.random.default_rng(73)
    values = rng.normal(size=(300, 48))

    def no_svd(*args, **kwargs):
        raise AssertionError("the O(N D) certificate should have decided")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert not _collinear(values, TimeGrid.uniform(48))


def masked_weiszfeld(values, grid, w, y, tol, max_iter, anchor_eps=1e-12):
    """The iteration written with per-step masked copies of the free rows."""
    spread = float(np.max(grid.norms(values - y)))
    eps = anchor_eps * max(spread, 1.0)
    for it in range(max_iter + 1):
        diffs = values - y
        r = grid.norms(diffs)
        free = r > eps
        eta = float(w[~free].sum())
        if not np.any(free):
            return y, 0.0
        inv_r = w[free] / r[free]
        rn = float(grid.norms(inv_r @ diffs[free]))
        gap = max(0.0, rn - eta)
        if gap <= tol * w.sum() or it == max_iter:
            return y, gap
        t_point = (inv_r @ values[free]) / inv_r.sum()
        if eta > 0 and rn > 0:
            beta = min(1.0, eta / rn)
            y = (1.0 - beta) * t_point + beta * y
        else:
            y = t_point


@pytest.mark.parametrize("anchored", [False, True])
def test_buffered_iteration_is_bit_identical_to_the_masked_form(anchored):
    rng = np.random.default_rng(79)
    if anchored:
        # a heavy curve pulls the iterate onto itself
        values = rng.normal(size=(15, 6))
        w = np.ones(15)
        w[4] = 20.0
    else:
        values = rng.standard_gamma(2.0, size=(60, 10))
        w = rng.uniform(0.5, 2.0, size=60)
    pop = CurvePopulation(values, TimeGrid.uniform(values.shape[1]))
    cfg = SolverConfig(tol=1e-12, init="mean")
    fit = l1_median(pop, weights=w, cfg=cfg)
    y, gap = masked_weiszfeld(values, pop.grid, w, values.mean(axis=0), cfg.tol, cfg.max_iter)
    assert fit.anchored == anchored
    assert np.array_equal(fit.median.values.view(np.int64), y.view(np.int64))
    assert fit.residual_norm == gap
