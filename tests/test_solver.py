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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medcurve import Curve, CurvePopulation, TimeGrid, linearized_variables
from medcurve.curves import lower_median
from medcurve.solver import (
    MedianFit,
    SolverConfig,
    _collinear,
    l1_median,
    objective_value,
)
from oracles import score


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
    b = l1_median(pop, cfg=SolverConfig(tol=1e-12, init=values.mean(axis=0)))
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
    from medcurve.curves import pointwise_median

    best = objective_value(pop, fit.median)
    assert best <= objective_value(pop, pointwise_median(pop)) + 1e-12
    assert best <= objective_value(pop, pop.values.mean(axis=0)) + 1e-12


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "n_units, max_iter",
    [(12, 500), (40, 500), (40, 1)],
    ids=["weiszfeld", "newton", "stopped"],
)
def test_fit_objective_is_bit_equal_to_objective_value(weighted, n_units, max_iter):
    rng = np.random.default_rng(71)
    pop = CurvePopulation(rng.standard_gamma(2.0, size=(n_units, 8)), TimeGrid.uniform(8))
    weights = rng.uniform(0.5, 3.0, size=n_units) if weighted else None
    fit = l1_median(pop, weights=weights, cfg=SolverConfig(max_iter=max_iter))
    assert fit.converged == (max_iter > 1)
    assert fit.objective == objective_value(pop, fit.median, weights=weights)


def test_fit_keeps_its_curves_and_a_read_only_copy_of_its_weights():
    pop = pop_from_rows([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]])
    weights = np.array([1.0, 2.0, 1.5])
    fit = l1_median(pop, weights=weights)
    assert fit.curves is pop
    assert np.array_equal(fit.weights, weights)
    with pytest.raises(ValueError, match="read-only"):
        fit.weights[0] = 9.0
    weights[0] = 9.0
    assert fit.weights[0] == 1.0
    assert np.array_equal(l1_median(pop).weights, np.ones(3))


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


def test_small_fits_converge_on_or_next_to_a_data_curve():
    # under 3 curves per grid point a fit begins with Weiszfeld steps, which
    # crawl when the median is a data curve or lies just off one; 25 of
    # these 3,000 fits stopped at max_iter when Weiszfeld ran throughout
    rng = np.random.default_rng(0)
    for _ in range(3000):
        pop = pop_from_rows(rng.gamma(4.0, size=(rng.integers(3, 12), 4)))
        fit = l1_median(pop)
        assert fit.converged
        # the optimality certificate, with curves within 1e-9 counted as
        # the median's own weight
        diffs = pop.values - fit.median.values
        r = pop.grid.norms(diffs)
        free = r > 1e-9
        gap = pop.grid.norms((1.0 / r[free]) @ diffs[free]) - np.count_nonzero(~free)
        assert gap <= 1e-8 * len(r)


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


def masked_newton(values, grid, w, y, tol, max_iter, anchor_eps=1e-12):
    """Newton steps with the Weiszfeld fallback, written with per-step masked copies.

    At a non-anchored iterate the step solves (c I - Z^T diag(w/r^3) Z) s' =
    R sqrt(q) with Z = (Y - y) sqrt(q), and y + s'/sqrt(q) replaces y unless
    its objective rises by more than 1e-12 of the first, in which case the
    Weiszfeld point from y does. Anchored iterates take the blended step.
    """
    sqrt_q = np.sqrt(grid.weights)
    spread = float(np.max(grid.norms(values - y)))
    eps = anchor_eps * max(spread, 1.0)
    trace = []
    fallback = None
    for it in range(max_iter + 1):
        diffs = values - y
        r = grid.norms(diffs)
        objective = float(w @ r)
        if fallback is not None and not objective - trace[-1] <= 1e-12 * trace[0]:
            y = fallback
            diffs = values - y
            r = grid.norms(diffs)
            objective = float(w @ r)
        fallback = None
        trace.append(objective)
        free = r > eps
        eta = float(w[~free].sum())
        if not np.any(free):
            return y, 0.0
        inv_r = w[free] / r[free]
        residual = inv_r @ diffs[free]
        rn = float(grid.norms(residual))
        gap = max(0.0, rn - eta)
        if gap <= tol * w.sum() or it == max_iter:
            return y, gap
        t_point = (inv_r @ values[free]) / inv_r.sum()
        if eta > 0:
            if rn > 0:
                beta = min(1.0, eta / rn)
                y = (1.0 - beta) * t_point + beta * y
            else:
                y = t_point
            continue
        z = diffs * sqrt_q
        wz = z * (inv_r / (r * r))[:, None]
        sym = -(wz.T @ z)
        sym[np.diag_indices(len(sym))] += inv_r.sum()
        try:
            step = np.linalg.solve(sym, residual * sqrt_q) / sqrt_q
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            y = t_point
        else:
            fallback = t_point
            y = y + step


@pytest.mark.parametrize(
    "n_units, n_points, heavy",
    [
        pytest.param(60, 10, None, id="False"),
        # a heavy curve pulls the iterate onto itself
        pytest.param(30, 6, 40.0, id="True"),
        # fewer than 3 curves per grid point: plain Weiszfeld steps
        pytest.param(20, 10, None, id="weiszfeld-side"),
        pytest.param(15, 6, 20.0, id="weiszfeld-side-anchored"),
    ],
)
def test_buffered_iteration_is_bit_identical_to_the_masked_form(n_units, n_points, heavy):
    rng = np.random.default_rng(79)
    if heavy:
        values = rng.normal(size=(n_units, n_points))
        w = np.ones(n_units)
        w[4] = heavy
    else:
        values = rng.standard_gamma(2.0, size=(n_units, n_points))
        w = rng.uniform(0.5, 2.0, size=n_units)
    pop = CurvePopulation(values, TimeGrid.uniform(values.shape[1]))
    cfg = SolverConfig(tol=1e-12, init=values.mean(axis=0))
    fit = l1_median(pop, weights=w, cfg=cfg)
    masked = masked_newton if n_units >= 3 * n_points else masked_weiszfeld
    y, gap = masked(values, pop.grid, w, values.mean(axis=0), cfg.tol, cfg.max_iter)
    assert fit.anchored == bool(heavy)
    assert np.array_equal(fit.median.values.view(np.int64), y.view(np.int64))
    assert fit.residual_norm == gap


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(2, 8),
    offset=st.integers(-4, 4),
    case=st.sampled_from(["generic", "planted", "heavy"]),
)
def test_newton_and_weiszfeld_agree_within_the_tolerance(seed, n_points, offset, case):
    # populations on both sides of the 3 curves per grid point rule, on
    # an uneven grid so that the sqrt(q) scaling matters
    rng = np.random.default_rng(seed)
    n_units = max(5, 3 * n_points + offset)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 2.0, size=n_points)))
    values = rng.standard_gamma(2.0, size=(n_units, n_points)) * rng.uniform(0.5, 3.0, size=n_points)
    w = rng.uniform(0.5, 3.0, size=n_units)
    cfg = SolverConfig(tol=1e-10, max_iter=20000)
    if case == "planted":
        # a curve within 1e-6 of the median of the others; when that median
        # sits on a data curve, two curves 1e-6 apart leave Weiszfeld
        # crawling, which is no test of agreement
        rest_cfg = SolverConfig(cfg.tol, cfg.max_iter, init=values[1:].mean(axis=0))
        rest = l1_median(CurvePopulation(values[1:], grid), weights=w[1:], cfg=rest_cfg)
        assume(not rest.anchored)
        direction = rng.normal(size=n_points)
        values[0] = rest.median.values + 1e-6 * direction / grid.norms(direction)
    elif case == "heavy":
        # outweighs the rest, so the median is that curve
        w[0] = 1.5 * w[1:].sum()
    pop = CurvePopulation(values, grid)
    start = values.mean(axis=0)

    y, gap = masked_weiszfeld(values, grid, w, start, cfg.tol, cfg.max_iter)
    # next to a data curve that is not the median, Weiszfeld can crawl
    # past any iteration cap; such draws compare nothing
    assume(gap <= cfg.tol * w.sum())
    fit = l1_median(pop, weights=w, cfg=SolverConfig(cfg.tol, cfg.max_iter, init=start))
    assert fit.converged and fit.residual_norm <= cfg.tol * w.sum()

    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    radius = 1e-12 * max(float(np.max(grid.norms(values - start))), 1.0)
    on_point = grid.norms(values - y) <= radius
    assert fit.anchored == bool(on_point.any())
    if case == "heavy":
        assert fit.anchored and fit.anchor_index == 0
    if fit.anchored:
        # both iterates sit within the anchor radius of the same curve
        assert fit.anchor_index == int(np.argmax(on_point))
        bound = 2.0 * radius
    else:
        # strong convexity: |m_N - m_W| <= |R(m_N) - R(m_W)| / lambda_min(G);
        # each gap sums n terms of size w_k, so it is known to n eps W
        lam = linearized_variables(pop, fit.median, weights=w).gamma.min_eigenvalue()
        rounding = 2 * n_units * np.finfo(float).eps * w.sum()
        bound = (fit.residual_norm + gap + rounding) / lam
    assert float(grid.norms(fit.median.values - y)) <= bound


@st.composite
def median_problems(draw):
    """Gamma curves on an uneven grid with random weights; in some, curve 0 outweighs the rest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_units, n_points = draw(st.integers(3, 30)), draw(st.integers(2, 6))
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 2.0, size=n_points)))
    values = rng.standard_gamma(2.0, size=(n_units, n_points))
    w = rng.uniform(0.5, 3.0, size=n_units)
    if draw(st.booleans()):
        w[0] = 1.5 * w[1:].sum()
    return CurvePopulation(values, grid), w


PROPERTY = SolverConfig(tol=1e-10)


def assert_same_median(pop, w, a, b):
    """Two converged fits of the objective of (pop, w) agree as closely as their gaps allow."""
    assert a.converged and b.converged
    assert a.anchored == b.anchored
    distance = float(pop.grid.norms(a.median.values - b.median.values))
    if a.anchored:
        # on one data curve, each within its anchor radius (1e-12 of the spread)
        assert np.array_equal(a.curves.values[a.anchor_index], b.curves.values[b.anchor_index])
        bound = 1e-10 * max(float(pop.grid.norms(pop.values - a.median.values).max()), 1.0)
    else:
        # strong convexity, as in the Newton/Weiszfeld agreement test
        lam = linearized_variables(pop, a.median, weights=w).gamma.min_eigenvalue()
        rounding = 2 * len(w) * np.finfo(float).eps * w.sum()
        bound = (a.residual_norm + b.residual_norm + rounding) / lam
    assert distance <= bound


@settings(max_examples=100, deadline=None)
@given(problem=median_problems(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_curves_with_their_weights_keeps_the_median(problem, seed):
    pop, w = problem
    order = np.random.default_rng(seed).permutation(len(w))
    fit = l1_median(pop, weights=w, cfg=PROPERTY)
    assume(not fit.maybe_non_unique)
    permuted = l1_median(CurvePopulation(pop.values[order], pop.grid), weights=w[order], cfg=PROPERTY)
    assert_same_median(pop, w, fit, permuted)


@settings(max_examples=100, deadline=None)
@given(problem=median_problems(), k=st.integers(0, 29))
def test_a_duplicated_curve_counts_as_that_curve_at_double_weight(problem, k):
    pop, w = problem
    k %= len(w)
    doubled = w.copy()
    doubled[k] *= 2.0
    fit = l1_median(pop, weights=doubled, cfg=PROPERTY)
    assume(not fit.maybe_non_unique)
    twice = CurvePopulation(np.vstack([pop.values, pop.values[k]]), pop.grid)
    duplicated = l1_median(twice, weights=np.append(w, w[k]), cfg=PROPERTY)
    assert_same_median(pop, doubled, fit, duplicated)


@settings(max_examples=150, deadline=None)
@given(
    problem=median_problems(),
    tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
    max_iter=st.sampled_from([1, 3, 500]),
)
def test_every_converged_fit_meets_its_certificate(problem, tol, max_iter):
    pop, w = problem
    cfg = SolverConfig(tol=tol, max_iter=max_iter)
    fit = l1_median(pop, weights=w, cfg=cfg)
    assert fit.converged == (fit.residual_norm <= cfg.tol * fit.weights.sum())
    if fit.converged:
        # the gap again, from the fit's own curves and weights and the solver's anchor rule
        values, grid = fit.curves.values, fit.curves.grid
        radius = 1e-12 * max(float(grid.norms(values - lower_median(values)).max()), 1.0)
        diffs = values - fit.median.values
        r = grid.norms(diffs)
        on = r <= radius
        assert fit.anchored == bool(on.any())
        if not on.all():
            residual = grid.norms((fit.weights[~on] / r[~on]) @ diffs[~on])
            rounding = 2 * len(w) * np.finfo(float).eps * w.sum()
            assert residual - fit.weights[on].sum() <= cfg.tol * w.sum() + rounding


# five curves on three points, two of them outweighing the rest by far
FIVE = [[1.0, 2.0, 3.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [3.0, 3.0, 1.0], [1.0, 0.0, 2.0]]


@pytest.mark.parametrize("huge", [1e308, 1e300])
def test_weights_that_only_rescale_the_problem_keep_the_answer(huge):
    # unscaled, the weight total overflowed at 1e308 (converged at iteration
    # 0 on an infinite tolerance), and the gap's square did at 1e300 (500
    # iterations, never converged)
    pop = pop_from_rows(FIVE)
    weights = [huge, huge, 1.0, 1.0, 1.0]
    fit = l1_median(pop, weights=weights)
    same = l1_median(pop, weights=[1.0, 1.0, 1 / huge, 1 / huge, 1 / huge])
    assert fit.converged and same.converged
    assert fit.iterations == same.iterations >= 1
    assert np.array_equal(fit.weights, weights)
    # the two weight vectors have the same ratios up to one rounding
    assert float(pop.grid.norms(fit.median.values - same.median.values)) <= 1e-12
    assert np.isfinite(fit.residual_norm)


def test_a_weight_the_scaling_takes_to_zero_is_refused():
    with pytest.raises(ValueError, match="the smallest scales to zero"):
        l1_median(pop_from_rows(FIVE), weights=[1e308, 5e-324, 1.0, 1.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(problem=median_problems(), k=st.integers(-1000, 1000))
def test_weights_times_a_power_of_two_give_a_bit_identical_fit(problem, k):
    pop, w = problem
    fit = l1_median(pop, weights=w, cfg=PROPERTY)
    scaled = l1_median(pop, weights=np.ldexp(w, k), cfg=PROPERTY)
    assert np.array_equal(scaled.median.values.view(np.int64), fit.median.values.view(np.int64))
    assert (scaled.converged, scaled.iterations) == (fit.converged, fit.iterations)
    assert (scaled.anchored, scaled.anchor_index) == (fit.anchored, fit.anchor_index)
    assert np.array_equal(scaled.weights, np.ldexp(w, k))
    # the reported gap and objectives scale with the weights, exactly
    # where the scaled value is a normal float
    ours = np.array([fit.residual_norm, *fit.objective_trace])
    theirs = np.array([scaled.residual_norm, *scaled.objective_trace])
    normal = np.abs(theirs) >= np.finfo(float).tiny
    assert np.array_equal(np.ldexp(ours, k)[normal], theirs[normal])
