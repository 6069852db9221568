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
unbiased variance estimator, so that path applies the SRSWOR formula and
says so in the result. With-replacement PPS uses the separate
Hansen-Hurwitz form built from draw multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TimeGrid, values_on_grid
from .designs import SampleDraw
from .errors import DesignError, EstimationError

__all__ = [
    "VarianceFunction",
    "variance_function",
    "variance_function_generic",
    "variance_estimate",
    "variance_estimate_generic",
    "poststratified_variance_estimate",
    "hansen_hurwitz_variance",
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


def _s2(values: np.ndarray) -> np.ndarray:
    """Column-wise variance with the N-1 denominator; zero for a single row."""
    if values.shape[0] < 2:
        return np.zeros(values.shape[1])
    return np.var(values, axis=0, ddof=1)


def _check_rows(rows: int, expected: int, what: str):
    if rows != expected:
        raise EstimationError(
            f"{what} requires one linearized variable per unit "
            f"({expected}), got {rows}; anchored exclusions make the "
            "formula undefined"
        )


def variance_function(u, design: dict, grid: TimeGrid | None = None) -> VarianceFunction:
    """Population asymptotic variance under a design with closed forms.

    u holds the linearized variables of all N population units (at the
    population median). Designs without closed-form pairwise inclusion
    probabilities are refused by name.
    """
    values, grid = values_on_grid(u, grid)
    dtype = design["type"]
    if dtype == "srswor":
        n_population, n = design["N"], design["n"]
        _check_rows(values.shape[0], n_population, "SRSWOR variance")
        factor = n_population**2 * (1.0 / n - 1.0 / n_population)
        return VarianceFunction(factor * _s2(values), grid, "population-asymptotic", "srswor")
    if dtype == "stratified":
        labels, alloc, sizes = design["labels"], design["alloc"], design["sizes"]
        _check_rows(values.shape[0], labels.size, "stratified variance")
        out = np.zeros(grid.n_points)
        for h, (n_h, cap) in enumerate(zip(alloc, sizes)):
            member_values = values[labels == h]
            out += cap**2 * (1.0 / n_h - 1.0 / cap) * _s2(member_values)
        return VarianceFunction(out, grid, "population-asymptotic", "stratified")
    if dtype == "poststratified":
        n_population, n = design["N"], design["n"]
        labels, sizes = design["labels"], design["sizes"]
        _check_rows(values.shape[0], n_population, "poststratified variance")
        acc = np.zeros(grid.n_points)
        for g, size in enumerate(sizes):
            acc += (size - 1) / (n_population - 1) * _s2(values[labels == g])
        factor = n_population**2 * (1.0 / n - 1.0 / n_population)
        return VarianceFunction(factor * acc, grid, "population-asymptotic", "poststratified")
    raise DesignError(
        f"design {dtype!r} has no closed-form asymptotic variance here; "
        "use the generic double sum with explicit pairwise probabilities"
    )


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


def variance_estimate(draw: SampleDraw, u_hat, grid: TimeGrid | None = None) -> VarianceFunction:
    """Design variance estimator from the sample's linearized variables.

    u_hat rows align with draw.units. SRSWOR and stratified use their
    closed forms; systematic substitutes the SRSWOR formula (no unbiased
    estimator exists) and flags the result; with-replacement PPS is
    refused in favor of hansen_hurwitz_variance.
    """
    values, grid = values_on_grid(u_hat, grid)
    _check_rows(values.shape[0], draw.n_units, "variance estimation")
    dtype = draw.design["type"]
    if dtype in ("srswor", "systematic"):
        n_population, n = draw.design["N"], draw.design["n"]
        if n < 2:
            raise EstimationError("variance estimation needs at least two sampled units")
        factor = n_population**2 * (1.0 / n - 1.0 / n_population)
        return VarianceFunction(
            factor * _s2(values),
            grid,
            "estimated",
            dtype,
            approximation="srswor-formula" if dtype == "systematic" else None,
        )
    if dtype == "stratified":
        labels = draw.design["labels"][draw.units]
        alloc, sizes = draw.design["alloc"], draw.design["sizes"]
        out = np.zeros(grid.n_points)
        for h, (n_h, cap) in enumerate(zip(alloc, sizes)):
            if n_h == cap:
                continue
            if n_h < 2:
                raise EstimationError(
                    f"stratum {h} has a single sampled unit; its variance "
                    "cannot be estimated (allocate at least 2 or take a census)"
                )
            out += cap**2 * (1.0 / n_h - 1.0 / cap) * _s2(values[labels == h])
        return VarianceFunction(out, grid, "estimated", "stratified")
    if dtype == "ppswr":
        raise DesignError(
            "with-replacement draws have no pairwise-inclusion estimator "
            "here; use hansen_hurwitz_variance"
        )
    raise DesignError(f"unknown design type {dtype!r}")


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


def poststratified_variance_estimate(
    draw: SampleDraw, u_hat, group_labels, group_sizes, grid: TimeGrid | None = None
) -> VarianceFunction:
    """Plug-in of the poststratified asymptotic form under SRSWOR.

    Substitutes within-group sample variances of u_hat into
    N^2 (1/n - 1/N) sum_g ((N_g - 1)/(N - 1)) S^2_g. Each group needs at
    least two sampled units.
    """
    values, grid = values_on_grid(u_hat, grid)
    _check_rows(values.shape[0], draw.n_units, "poststratified variance estimation")
    if draw.design["type"] != "srswor":
        raise DesignError("poststratified variance estimation expects an SRSWOR draw")
    n_population, n = draw.design["N"], draw.design["n"]
    labels = np.asarray(group_labels)[draw.units]
    sizes = np.asarray(group_sizes)
    acc = np.zeros(grid.n_points)
    for g, size in enumerate(sizes):
        in_g = values[labels == g]
        if in_g.shape[0] < 2:
            raise EstimationError(
                f"group {g} has fewer than two sampled units; aggregate "
                "small groups before estimating the variance"
            )
        acc += (size - 1) / (n_population - 1) * _s2(in_g)
    factor = n_population**2 * (1.0 / n - 1.0 / n_population)
    return VarianceFunction(factor * acc, grid, "estimated", "poststratified")


def hansen_hurwitz_variance(
    draw: SampleDraw, u_hat, grid: TimeGrid | None = None
) -> VarianceFunction:
    """With-replacement variance estimator from draw multiplicities.

    Pointwise (1/(n(n-1))) sum over the n draws of
    (u_{k_i}(t)/p_{k_i} - mean over draws)^2, where repeated draws of one
    unit contribute through its multiplicity. u_hat rows align with
    draw.units (the distinct drawn units).
    """
    values, grid = values_on_grid(u_hat, grid)
    _check_rows(values.shape[0], draw.n_units, "Hansen-Hurwitz variance")
    if draw.design["type"] != "ppswr" or draw.multiplicities is None:
        raise DesignError("Hansen-Hurwitz variance needs a with-replacement draw record")
    n = draw.design["n"]
    if n < 2:
        raise EstimationError("Hansen-Hurwitz variance needs at least two draws")
    p = draw.design["p"][draw.units]
    mult = draw.multiplicities.astype(float)
    expanded = values / p[:, None]
    mean = (mult @ expanded) / n
    sq = mult @ (expanded - mean) ** 2
    return VarianceFunction(sq / (n * (n - 1)), grid, "estimated", "ppswr")
