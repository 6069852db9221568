"""Design-weighted median estimators."""

import numpy as np
import pytest

from medcurve import CurvePopulation, TimeGrid
from medcurve.designs import Srswor, StrataSpec, draw_ppswr, draw_srswor, draw_stratified
from medcurve.errors import EstimationError
from medcurve.estimators import (
    ht_median,
    ht_weights,
    poststratified_weights,
    weighted_median,
)
from medcurve.solver import SolverConfig, l1_median

TIGHT = SolverConfig(tol=1e-12)


def make_pop(seed, n=40, d=6):
    rng = np.random.default_rng(seed)
    return CurvePopulation(rng.standard_gamma(2.0, size=(n, d)), TimeGrid.uniform(d))


def test_census_recovers_the_population_median():
    pop = make_pop(1)
    truth = l1_median(pop, cfg=TIGHT)
    draw = draw_srswor(len(pop), len(pop), seed=0)
    fit = ht_median(draw, pop, cfg=TIGHT)
    assert np.allclose(fit.median.values, truth.median.values, atol=1e-8)


def test_srswor_weights_are_constant_so_plain_median_matches():
    pop = make_pop(2)
    draw = draw_srswor(len(pop), 15, seed=5)
    weighted = ht_median(draw, pop, cfg=TIGHT)
    plain = l1_median(pop.subset(draw.units), cfg=TIGHT)
    assert np.allclose(weighted.median.values, plain.median.values, atol=1e-9)
    assert np.allclose(ht_weights(draw).weights, 40 / 15)


def test_weight_scaling_does_not_move_the_median():
    pop = make_pop(3, n=20)
    sub = pop.subset(np.arange(12))
    w = np.random.default_rng(8).uniform(0.5, 2.0, size=12)
    a = l1_median(sub, weights=w, cfg=TIGHT)
    b = l1_median(sub, weights=10.0 * w, cfg=TIGHT)
    assert np.allclose(a.median.values, b.median.values, atol=1e-9)


def test_pps_median_runs_on_distinct_units():
    pop = make_pop(4, n=30)
    p = pop.values.mean(axis=1)
    p = p / p.sum()
    draw = draw_ppswr(p, 12, seed=9)
    fit = ht_median(draw, pop, cfg=TIGHT)
    assert fit.converged
    assert draw.units.size <= 12


def test_poststratified_single_group_is_plain_ht():
    pop = make_pop(5)
    design = Srswor(len(pop), 10, StrataSpec(np.zeros(len(pop), dtype=np.int64)))
    draw = design.draw(seed=11)
    a = weighted_median(draw, pop, design.weights(draw), TIGHT)
    b = ht_median(draw, pop, cfg=TIGHT)
    assert np.allclose(a.median.values, b.median.values, atol=1e-9)


def test_poststratified_weights_calibrate_group_sizes():
    pop = make_pop(6, n=60)
    labels = np.repeat([0, 1, 2], 20)
    groups = StrataSpec(labels)
    draw = draw_srswor(60, 24, seed=13)
    ws = poststratified_weights(draw, groups)
    for g in range(3):
        in_g = groups.labels[ws.units] == g
        assert ws.weights[in_g].sum() == pytest.approx(20.0, rel=1e-12)


def test_exactly_proportional_groups_reduce_to_constant_weights():
    # with n_g = n N_g / N in the realized sample the calibration factor
    # N_g / (n_g N / n) is 1, so the weights are N/n everywhere
    pop = make_pop(7, n=30)
    labels = np.repeat([0, 1], 15)
    groups = StrataSpec(labels)
    strat_draw = draw_stratified(groups, [5, 5], seed=17)
    ws = poststratified_weights(strat_draw, groups)
    assert np.allclose(ws.weights, 3.0)


def test_empty_sampled_group_is_an_error():
    labels = np.array([0] * 9 + [1])
    groups = StrataSpec(labels)
    for seed in range(50):
        draw = draw_srswor(10, 3, seed=seed)
        if 9 not in draw.units:
            with pytest.raises(EstimationError, match="aggregate"):
                poststratified_weights(draw, groups)
            return
    raise AssertionError("no draw missed the singleton group")


def test_frame_size_mismatch_is_an_error():
    pop = make_pop(9, n=12)
    draw = draw_srswor(20, 5, seed=1)
    with pytest.raises(EstimationError, match="frame"):
        ht_median(draw, pop)


def test_larger_samples_estimate_better_on_average():
    rng_pop = np.random.default_rng(100)
    pop = CurvePopulation(rng_pop.standard_gamma(2.0, size=(300, 6)), TimeGrid.uniform(6))
    truth = l1_median(pop, cfg=SolverConfig(tol=1e-10)).median.values

    def mean_loss(n, entropy):
        losses = []
        for r in range(60):
            draw = draw_srswor(300, n, seed=np.random.SeedSequence(entropy, spawn_key=(r,)))
            fit = ht_median(draw, pop)
            losses.append(np.mean(np.abs(fit.median.values - truth)))
        return float(np.mean(losses))

    assert mean_loss(120, 200) < mean_loss(30, 201)
