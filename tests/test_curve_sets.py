"""The curve-set rule: every function that takes a set of curves reads only .values and .grid.

Each case runs one function twice on the same numbers, once given the
library's own object (a CurvePopulation, or the LinearizedSet where the
function takes linearized variables) and once a bare object carrying
only values and a grid (oracles.on_grid). The results must agree bit for
bit.
"""

import numpy as np
import pytest

from medcurve import CurvePopulation, Srswor, TimeGrid
from medcurve.linearize import linearized_variables
from medcurve.solver import SolverConfig, l1_median, objective_value
from medcurve.stratify import kmeans_strata, optimal_allocation, quartile_strata
from medcurve.variance import variance_estimate, variance_function
from oracles import on_grid


def _population():
    rng = np.random.default_rng(8)
    grid = TimeGrid.from_points(np.sort(rng.uniform(0.0, 2.0, size=6)))
    return CurvePopulation(rng.standard_gamma(2.0, size=(60, 6)), grid)


def _linearized(pop):
    """The LinearizedSet at the population median."""
    return linearized_variables(pop, l1_median(pop, cfg=SolverConfig(tol=1e-12)).median)


def _sample_linearized(pop):
    design = Srswor(pop.n_units, 20)
    draw = design.draw(3)
    fit = l1_median(pop.subset(draw.units), weights=design.weights(draw))
    return draw, linearized_variables(pop.subset(draw.units), fit.median, design.weights(draw))


# each case gives the object to pass and a run that returns what the result holds


def _l1_median(pop):
    def run(x):
        fit = l1_median(x, cfg=SolverConfig(tol=1e-12))
        return fit.median.values, fit.objective_trace, fit.iterations, fit.anchored

    return pop, run


def _objective_value(pop):
    return pop, lambda x: (objective_value(x, pop.values.mean(axis=0)),)


def _linearized_variables(pop):
    def run(x):
        u = linearized_variables(x, pop.values.mean(axis=0))
        return u.values, u.units, u.gamma.matrix, u.gamma.ridged

    return pop, run


def _kmeans_strata(pop):
    return _linearized(pop), lambda x: (kmeans_strata(x, 3, seed=5).labels,)


def _optimal_allocation(pop):
    strata = quartile_strata(pop.values.max(axis=1), 3)

    def run(x):
        alloc = optimal_allocation(strata, x, 12, rule="u-OPTIM")
        return alloc.counts, alloc.repaired, alloc.fallback

    return _linearized(pop), run


def _variance_function(pop):
    return _linearized(pop), lambda x: (variance_function(x, Srswor(pop.n_units, 20)).values,)


def _variance_estimate(pop):
    draw, u_hat = _sample_linearized(pop)
    return u_hat, lambda x: (variance_estimate(draw, x).values,)


CASES = [
    _l1_median,
    _objective_value,
    _linearized_variables,
    _kmeans_strata,
    _optimal_allocation,
    _variance_function,
    _variance_estimate,
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__.lstrip("_"))
def test_a_bare_values_and_grid_object_gives_bit_identical_results(case):
    native, run = case(_population())
    want = run(native)
    got = run(on_grid(native.values, native.grid))
    for a, b in zip(want, got, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
