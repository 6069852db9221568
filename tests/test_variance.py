"""Variance formulas: closed forms against the Horvitz-Thompson double sums.

On enumeration-scale frames the double sum over pi_kl counted from every
possible sample is an independent oracle for each closed form. Hand
oracle for the with-replacement estimator: N units with equal p = 1/N,
two draws hitting units with values a and -a gives draw-expanded values
Na and -Na, mean 0, and variance estimate (1/(2*1)) * 2 (Na)^2 = N^2 a^2.
"""

import numpy as np
import pytest

from medcurve import CurvePopulation, SolverConfig, TimeGrid, linearized_variables
from medcurve.designs import (
    DESIGNS,
    PpsWr,
    SampleDraw,
    Srswor,
    StrataSpec,
    Stratified,
    Systematic,
    draw_ppswr,
    draw_srswor,
    draw_stratified,
)
from medcurve.errors import DesignError, EstimationError
from medcurve.estimators import weighted_median
from medcurve.variance import (
    VarianceFunction,
    median_variance,
    variance_estimate,
    variance_function,
)
from oracles import double_sum_variance, enumerated_pi_kl


def test_census_variance_is_zero():
    grid = TimeGrid.uniform(3)
    u = np.random.default_rng(1).normal(size=(6, 3))
    v = variance_function(u, Srswor(6, 6), grid=grid)
    assert np.allclose(v.values, 0.0)


def test_identical_variables_give_zero_variance():
    grid = TimeGrid.uniform(4)
    u = np.tile([1.0, -2.0, 0.5, 3.0], (5, 1))
    v = variance_function(u, Srswor(5, 2), grid=grid)
    assert np.allclose(v.values, 0.0)


def test_srswor_population_closed_form_equals_double_sum():
    rng = np.random.default_rng(7)
    grid = TimeGrid.uniform(5)
    u = rng.normal(size=(6, 5))
    design = Srswor(6, 2)
    closed = variance_function(u, design, grid=grid)
    mat = enumerated_pi_kl(design)
    generic = double_sum_variance(u, np.diag(mat), mat)
    assert np.max(np.abs(closed.values - generic)) <= 1e-10 * closed.values.max()


@pytest.mark.parametrize(
    "design",
    [
        pytest.param(Srswor(4, 2), id="srswor-4-2"),
        pytest.param(Srswor(6, 2), id="srswor-6-2"),
        pytest.param(Srswor(6, 3), id="srswor-6-3"),
        pytest.param(Srswor(1, 1), id="srswor-census-of-one"),
        pytest.param(Stratified(StrataSpec(np.array([0, 0, 0, 1, 1, 1])), [1, 2]), id="strat-3-3"),
        pytest.param(Stratified(StrataSpec(np.array([0, 0, 0, 0, 1, 1, 1])), [2, 2]), id="strat-4-3"),
        pytest.param(Stratified(StrataSpec(np.array([0, 0, 0, 1, 1, 1, 1])), [2, 3]), id="strat-3-4"),
        pytest.param(Stratified(StrataSpec(np.array([1, 0, 2, 1, 2, 1])), [1, 1, 2]), id="single-unit-stratum"),
    ],
)
def test_closed_form_variance_equals_the_enumerated_double_sum(design):
    # the criterion-6 and variance-test designs, plus edge cases
    u = np.random.default_rng(design.N).normal(size=(design.N, 3))
    closed = variance_function(u, design, grid=TimeGrid.uniform(3)).values
    mat = enumerated_pi_kl(design)
    assert np.allclose(closed, double_sum_variance(u, np.diag(mat), mat), rtol=1e-10, atol=1e-12)


def test_stratified_population_closed_form_equals_double_sum():
    rng = np.random.default_rng(11)
    grid = TimeGrid.uniform(4)
    u = rng.normal(size=(7, 4))
    spec = StrataSpec(np.array([0, 0, 0, 0, 1, 1, 1]))
    draw = draw_stratified(spec, [2, 2], seed=0)
    closed = variance_function(u, draw.design, grid=grid)
    mat = enumerated_pi_kl(draw.design)
    generic = double_sum_variance(u, np.diag(mat), mat)
    assert np.max(np.abs(closed.values - generic)) <= 1e-10 * closed.values.max()


def test_srswor_estimator_closed_form_equals_double_sum():
    rng = np.random.default_rng(13)
    grid = TimeGrid.uniform(6)
    draw = draw_srswor(6, 3, seed=4)
    u_hat = rng.normal(size=(3, 6))
    closed = variance_estimate(draw, u_hat, grid=grid)
    mat = enumerated_pi_kl(draw.design)[np.ix_(draw.units, draw.units)]
    generic = double_sum_variance(u_hat, draw.pi, mat, sampled=True)
    assert np.max(np.abs(closed.values - generic)) <= 1e-10 * closed.values.max()


def test_stratified_estimator_closed_form_equals_double_sum():
    rng = np.random.default_rng(17)
    grid = TimeGrid.uniform(3)
    spec = StrataSpec(np.array([0, 0, 0, 1, 1, 1, 1]))
    draw = draw_stratified(spec, [2, 3], seed=6)
    u_hat = rng.normal(size=(5, 3))
    closed = variance_estimate(draw, u_hat, grid=grid)
    mat = enumerated_pi_kl(draw.design)[np.ix_(draw.units, draw.units)]
    generic = double_sum_variance(u_hat, draw.pi, mat, sampled=True)
    assert np.max(np.abs(closed.values - generic)) <= 1e-10 * closed.values.max()


def test_proportional_stratification_beats_srswor_with_separated_means():
    # strata whose u-means differ remove the between part of the variance
    rng = np.random.default_rng(19)
    grid = TimeGrid.uniform(4)
    u = np.vstack(
        [rng.normal(0.0, 0.3, size=(30, 4)), rng.normal(5.0, 0.3, size=(30, 4))]
    )
    spec = StrataSpec(np.repeat([0, 1], 30))
    strat_design = Stratified(spec, np.array([6, 6]))
    v_strat = variance_function(u, strat_design, grid=grid)
    v_srs = variance_function(u, Srswor(60, 12), grid=grid)
    assert np.all(v_strat.values <= v_srs.values)
    assert v_strat.integrated() < 0.5 * v_srs.integrated()


def test_poststratified_tracks_proportional_stratification_on_larger_frames():
    rng = np.random.default_rng(23)
    grid = TimeGrid.uniform(4)
    u = np.vstack(
        [rng.normal(0.0, 1.0, size=(300, 4)), rng.normal(3.0, 1.5, size=(300, 4))]
    )
    labels = np.repeat([0, 1], 300)
    spec = StrataSpec(labels)
    post = variance_function(u, Srswor(600, 60, groups=spec), grid=grid)
    strat = variance_function(u, Stratified(spec, np.array([30, 30])), grid=grid)
    assert post.integrated() == pytest.approx(strat.integrated(), rel=0.05)


def test_poststratified_estimator_is_the_plug_in_of_its_form():
    rng = np.random.default_rng(37)
    spec = StrataSpec(np.array([0, 1] * 6))
    draw = Srswor(12, 8, groups=spec).draw(seed=4)
    u_hat = rng.normal(size=(8, 3))
    v = variance_estimate(draw, u_hat, grid=TimeGrid.uniform(3))
    labels = spec.labels[draw.units]
    within = sum(5 / 11 * np.var(u_hat[labels == g], axis=0, ddof=1) for g in (0, 1))
    assert np.allclose(v.values, 144 * (1 / 8 - 1 / 12) * within, rtol=1e-12)
    assert v.design == "poststratified"


def test_systematic_estimate_is_the_flagged_srswor_formula():
    u_hat = np.random.default_rng(41).normal(size=(3, 2))
    draw = Systematic(np.arange(9.0), 3).draw(seed=2)
    v = variance_estimate(draw, u_hat, grid=TimeGrid.uniform(2))
    expected = 81 * (1 / 3 - 1 / 9) * np.var(u_hat, axis=0, ddof=1)
    assert np.allclose(v.values, expected, rtol=1e-12)
    assert v.approximation == "srswor-formula"
    plain = variance_estimate(draw_srswor(9, 3, seed=2), u_hat, grid=TimeGrid.uniform(2))
    assert plain.approximation is None


def test_hansen_hurwitz_hand_oracle():
    grid = TimeGrid.uniform(1)
    n_population, a = 5, 2.0
    p = np.full(n_population, 1.0 / n_population)
    draw = SampleDraw(
        units=np.array([1, 3]),
        pi=1.0 - (1.0 - p[[1, 3]]) ** 2,
        design=PpsWr(p, 2),
        multiplicities=np.array([1, 1]),
    )
    u_hat = np.array([[a], [-a]])
    v = variance_estimate(draw, u_hat, grid=grid)
    assert v.values[0] == pytest.approx((n_population * a) ** 2, rel=1e-12)


def test_hansen_hurwitz_single_repeated_unit_gives_zero():
    grid = TimeGrid.uniform(2)
    p = np.array([0.6, 0.4])
    draw = SampleDraw(
        units=np.array([0]),
        pi=np.array([1.0 - 0.4**3]),
        design=PpsWr(p, 3),
        multiplicities=np.array([3]),
    )
    v = variance_estimate(draw, np.array([[1.0, 2.0]]), grid=grid)
    assert np.allclose(v.values, 0.0)


def test_hansen_hurwitz_is_unbiased_for_the_mean_estimator_variance():
    # u fixed per unit; the HH mean estimator's Monte Carlo variance should
    # match the average of the variance estimates
    rng = np.random.default_rng(29)
    grid = TimeGrid.uniform(2)
    p = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    u = rng.normal(size=(5, 2))
    totals, estimates = [], []
    for r in range(4000):
        draw = draw_ppswr(p, 3, seed=np.random.SeedSequence(31, spawn_key=(r,)))
        mult = draw.multiplicities.astype(float)
        expanded = u[draw.units] / p[draw.units][:, None]
        totals.append((mult @ expanded) / 3)
        estimates.append(variance_estimate(draw, u[draw.units], grid=grid).values)
    empirical = np.var(np.array(totals), axis=0, ddof=1)
    mean_estimate = np.mean(np.array(estimates), axis=0)
    assert np.all(np.abs(mean_estimate - empirical) <= 0.1 * empirical)


def test_error_paths():
    grid = TimeGrid.uniform(2)
    u = np.zeros((3, 2))
    with pytest.raises(DesignError, match="closed-form"):
        variance_function(u, Systematic(np.arange(3.0), 2), grid=grid)

    draw = draw_srswor(6, 3, seed=1)
    with pytest.raises(EstimationError, match="per unit"):
        variance_estimate(draw, np.zeros((2, 2)), grid=grid)

    spec = StrataSpec(np.array([0, 0, 0, 1, 1]))
    strat = draw_stratified(spec, [1, 2], seed=2)
    with pytest.raises(EstimationError, match="single sampled unit"):
        variance_estimate(strat, np.zeros((3, 2)), grid=grid)

    single = SampleDraw(
        units=np.array([0]),
        pi=np.array([0.6]),
        design=PpsWr(np.array([0.6, 0.4]), 1),
        multiplicities=np.array([1]),
    )
    with pytest.raises(EstimationError, match="two draws"):
        variance_estimate(single, np.zeros((1, 2)), grid=grid)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "srswor", "n": 12},
        {"type": "poststratified", "n": 12, "strata": [k % 2 for k in range(60)]},
        {"type": "systematic", "n": 12},
        {"type": "stratified", "n": 12, "strata": [k % 3 for k in range(60)]},
        {"type": "ppswr", "n": 12},
    ],
    ids=lambda spec: spec["type"],
)
def test_median_variance_is_the_linearize_then_estimate_composition(spec):
    rng = np.random.default_rng(23)
    pop = CurvePopulation(rng.gamma(3.0, size=(60, 6)), TimeGrid.uniform(6))
    design = DESIGNS[spec["type"]][0].from_json(spec, pop)
    draw = design.draw(4)
    weights = design.weights(draw)
    fit = weighted_median(draw, pop, weights, SolverConfig())
    got = median_variance(draw, pop, fit.median, weights)
    u_hat = linearized_variables(pop.subset(draw.units), fit.median, weights=weights)
    want = variance_estimate(draw, u_hat)
    assert np.array_equal(got.values, want.values)
    assert (got.kind, got.design, got.approximation) == (
        want.kind,
        want.design,
        want.approximation,
    )


def test_median_variance_refuses_a_draw_with_a_curve_on_the_median():
    # the single unit drawn from the 15-unit stratum weighs 15, more than
    # the 5 census units together, so the weighted median is that curve
    rng = np.random.default_rng(0)
    pop = CurvePopulation(rng.normal(size=(20, 3)), TimeGrid.uniform(3))
    design = Stratified(StrataSpec(np.repeat([0, 1], [15, 5])), [1, 5])
    draw = design.draw(1)
    weights = design.weights(draw)
    fit = weighted_median(draw, pop, weights, SolverConfig())
    assert fit.anchored
    with pytest.warns(UserWarning, match="excluded"):
        with pytest.raises(EstimationError, match="one linearized variable per unit"):
            median_variance(draw, pop, fit.median, weights)


def test_stratified_estimator_skips_census_strata():
    spec = StrataSpec(np.array([0, 0, 0, 1, 1]))
    draw = draw_stratified(spec, [2, 2], seed=3)
    u_hat = np.random.default_rng(5).normal(size=(4, 3))
    v = variance_estimate(draw, u_hat, grid=TimeGrid.uniform(3))
    labels = spec.labels[draw.units]
    factor = 9.0 * (1.0 / 2.0 - 1.0 / 3.0)
    expected = factor * np.var(u_hat[labels == 0], axis=0, ddof=1)
    assert np.allclose(v.values, expected)


def test_variance_function_clamps_tiny_negatives_and_rejects_big_ones():
    grid = TimeGrid.uniform(2)
    v = VarianceFunction(np.array([-5e-11, 1.0]), grid, "estimated", "srswor")
    assert v.values[0] == 0.0
    with pytest.raises(ValueError, match="floor"):
        VarianceFunction(np.array([-1.0, 1.0]), grid, "estimated", "srswor")
