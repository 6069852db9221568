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
variables; the generic estimator weights sampled pairs by
(pi_kl - pi_k pi_l)/(pi_kl pi_k pi_l). Systematic samples admit no
unbiased variance estimator, so that design applies the SRSWOR formula
and says so in the result. With-replacement PPS uses the Hansen-Hurwitz
form built from draw multiplicities.

Each design class in ``designs`` evaluates its own forms. This module
holds the VarianceFunction result type, the two entry points that check
their input and hand it to the design (variance_function for the
population form, variance_estimate for the estimator), median_variance,
which linearizes a fitted draw and estimates its variance in one call,
and the generic double sums that cross-check the closed forms on
enumeration-scale frames.
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
    "variance_function_generic",
    "variance_estimate",
    "variance_estimate_generic",
    "median_variance",
]

_CLAMP_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class VarianceFunction:
    """Pointwise variance over the grid.

    kind is "population-asymptotic" or "estimated". Generic double sums can
    dip slightly negative in finite samples; values are clamped at zero and
    clamped counts how many points needed it. approximation names a
    substituted formula (the systematic path reuses the SRSWOR estimator).
    """

    values: np.ndarray
    grid: TimeGrid
    kind: str
    design: str
    clamped: int = 0
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

    def std(self) -> np.ndarray:
        """Pointwise standard deviation, for plotting."""
        return np.sqrt(self.values)

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
    without closed-form pairwise inclusion probabilities are refused by
    name.
    """
    values, grid = values_on_grid(u, grid)
    if not design.closed_form:
        raise DesignError(
            f"design {design.kind!r} has no closed-form asymptotic variance here; "
            "use the generic double sum with explicit pairwise probabilities"
        )
    _check_rows(values.shape[0], design.N, f"{design.kind} variance")
    out = design.population_variance(values)
    return VarianceFunction(out, grid, "population-asymptotic", design.kind)


def variance_function_generic(u, pi, pi_kl, grid: TimeGrid | None = None) -> VarianceFunction:
    """Double-sum asymptotic variance from explicit pi and pi_kl.

    pi_kl is the full N x N pairwise matrix with pi on the diagonal.
    Intended for enumeration-scale cross-checks of the closed forms.
    """
    values, grid = values_on_grid(u, grid)
    pi = np.asarray(pi, dtype=float)
    pi_kl = np.asarray(pi_kl, dtype=float)
    n_population = values.shape[0]
    if pi.shape != (n_population,) or pi_kl.shape != (n_population, n_population):
        raise ValueError("pi and pi_kl must cover every population unit")
    delta = pi_kl - np.outer(pi, pi)
    scaled = values / pi[:, None]
    out = np.einsum("kl,kt,lt->t", delta, scaled, scaled)
    clamped = int((out < 0).sum())
    return VarianceFunction(
        np.clip(out, 0.0, None), grid, "population-asymptotic", "generic", clamped=clamped
    )


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


def variance_estimate_generic(
    u_hat, pi, pi_kl, grid: TimeGrid | None = None
) -> VarianceFunction:
    """Double-sum variance estimator over sampled pairs.

    pi and pi_kl are restricted to the sample (n and n x n). Zero pairwise
    probabilities make the estimator undefined; the systematic design hits
    this, and the error points at its stock remedy.
    """
    values, grid = values_on_grid(u_hat, grid)
    pi = np.asarray(pi, dtype=float)
    pi_kl = np.asarray(pi_kl, dtype=float)
    n = values.shape[0]
    if pi.shape != (n,) or pi_kl.shape != (n, n):
        raise ValueError("pi and pi_kl must cover every sampled unit")
    if np.any(pi_kl <= 0):
        raise EstimationError(
            "a sampled pair has zero joint inclusion probability; "
            "fall back to the SRSWOR-formula approximation"
        )
    delta = (pi_kl - np.outer(pi, pi)) / pi_kl
    scaled = values / pi[:, None]
    out = np.einsum("kl,kt,lt->t", delta, scaled, scaled)
    clamped = int((out < 0).sum())
    return VarianceFunction(
        np.clip(out, 0.0, None), grid, "estimated", "generic", clamped=clamped
    )
