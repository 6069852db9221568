"""Variance functions of the median estimator via linearized variables.

First-order, the median estimator's error behaves like the HT estimation
error of the total of the linearized variables u_k, so its pointwise
asymptotic variance is the familiar design variance applied to u(t):

    var(t) = sum_k sum_l (pi_kl - pi_k pi_l) u_k(t) u_l(t) / (pi_k pi_l)

with closed forms for the equal-probability designs (population variance
S^2 with the N-1 denominator throughout):

    SRSWOR  N^2 (1/n - 1/N) S^2_{u(t), U}
    STRAT   sum_h N_h^2 (1/n_h - 1/N_h) S^2_{u(t), U_h}
    POST    N^2 (1/n - 1/N) sum_g ((N_g - 1)/(N - 1)) S^2_{u(t), U_g}

Estimators substitute the sample variance of the estimated linearized
variables. Systematic samples admit no unbiased variance estimator, so
that design applies the SRSWOR formula and says so in the result.
With-replacement PPS uses the Hansen-Hurwitz form built from draw
multiplicities.

Each design class in ``designs`` evaluates its own forms. This module
holds the VarianceFunction result type, the two entry points that check
their input and hand it to the design (variance_function for the
population form, variance_estimate for the estimator), and
median_variance, which linearizes a fitted draw and estimates its
variance in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TimeGrid, values_on_grid
from .errors import DesignError, EstimationError
from .linearize import linearized_variables

__all__ = [
    "VarianceFunction",
    "variance_function",
    "variance_estimate",
    "median_variance",
]

_CLAMP_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class VarianceFunction:
    """Pointwise variance over the grid.

    kind is "population-asymptotic" or "estimated". Values within a
    rounding error below zero are set to zero. approximation names a
    substituted formula (the systematic path reuses the SRSWOR estimator).
    """

    values: np.ndarray
    grid: TimeGrid
    kind: str
    design: str
    approximation: str | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError("variance values must align with the grid")
        if np.any(values < _CLAMP_FLOOR):
            raise ValueError("variance dipped below the clamping floor; formula bug")
        clipped = np.clip(values, 0.0, None)
        clipped.setflags(write=False)
        object.__setattr__(self, "values", clipped)
        if self.kind not in ("population-asymptotic", "estimated"):
            raise ValueError(f"unknown kind {self.kind!r}")

    def integrated(self) -> float:
        return self.grid.integrate(self.values)


def _check_rows(rows: int, expected: int, what: str):
    if rows != expected:
        raise EstimationError(
            f"{what} requires one linearized variable per unit "
            f"({expected}), got {rows}; anchored exclusions make the "
            "formula undefined"
        )


def variance_function(u, design, grid: TimeGrid | None = None) -> VarianceFunction:
    """Population asymptotic variance under a design with closed forms.

    u holds the linearized variables of all N population units (at the
    population median); design is one of the designs classes. Designs
    without a closed form are refused by name.
    """
    values, grid = values_on_grid(u, grid)
    if not design.closed_form:
        raise DesignError(
            f"design {design.kind!r} has no closed-form asymptotic variance here"
        )
    _check_rows(values.shape[0], design.N, f"{design.kind} variance")
    out = design.population_variance(values)
    return VarianceFunction(out, grid, "population-asymptotic", design.kind)


def variance_estimate(draw, u_hat, grid: TimeGrid | None = None) -> VarianceFunction:
    """The drawing design's variance estimator from the sample's linearized variables.

    u_hat rows align with draw.units. SRSWOR and stratified use their
    closed forms, poststratified SRSWOR the plug-in of its asymptotic form
    and with-replacement PPS the Hansen-Hurwitz estimator; systematic
    substitutes the SRSWOR formula (no unbiased estimator exists) and
    flags the result.
    """
    values, grid = values_on_grid(u_hat, grid)
    _check_rows(values.shape[0], draw.n_units, "variance estimation")
    design = draw.design
    out = design.variance_estimate(draw, values)
    return VarianceFunction(
        out, grid, "estimated", design.kind, approximation=getattr(design, "approximation", None)
    )


def median_variance(draw, pop, median, weights) -> VarianceFunction:
    """The drawing design's variance estimate for a median fitted to the draw.

    Linearizes the drawn curves of pop at median under the estimation
    weights used for the fit (Deville, 1999), then applies
    variance_estimate, which refuses a draw where a curve coincided with
    the median and so has no linearized variable.
    """
    if draw.n_units < 2:
        raise EstimationError(
            "the variance needs at least two sampled units; this draw holds one"
        )
    u_hat = linearized_variables(pop.subset(draw.units), median, weights=weights)
    return variance_estimate(draw, u_hat)

