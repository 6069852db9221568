"""Design-based median estimators.

The population median is the solution of an estimating equation, so the
design-based version replaces each population term by its sampled,
weighted counterpart: the weighted L1-median of the sampled curves with
weights 1/pi_k. Under equal-probability designs the weights are constant
and drop out of the equation, so the estimate is just the sample median;
under PPS the equation runs over the distinct drawn units. The
poststratified variant rescales the weights inside each population group
g so they add up to the known group size N_g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePopulation, _positive_weights
from .designs import SampleDraw, StrataSpec, calibrated_weights
from .errors import EstimationError
from .solver import MedianFit, SolverConfig, l1_median

__all__ = [
    "WeightedSample",
    "ht_weights",
    "poststratified_weights",
    "ht_median",
    "weighted_median",
]


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Sampled units with estimation weights.

    The weights are exactly 1/pi_k (Horvitz-Thompson), or N_g / (Nhat_g
    pi_k) when poststratified, with Nhat_g the HT estimate of the group
    size, so each group's weights sum to N_g.
    """

    units: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _positive_weights(self.weights, self.units.size)


def ht_weights(draw: SampleDraw) -> WeightedSample:
    return WeightedSample(units=draw.units, weights=draw.weights)


def poststratified_weights(draw: SampleDraw, groups: StrataSpec) -> WeightedSample:
    """Rescale 1/pi_k so each group's weights total its known size N_g."""
    return WeightedSample(units=draw.units, weights=calibrated_weights(draw, groups))


def weighted_median(
    draw: SampleDraw, pop: CurvePopulation, weights: np.ndarray, cfg: SolverConfig | None
) -> MedianFit:
    """L1-median of the drawn curves of pop under the given weights."""
    if draw.design.N != pop.n_units:
        raise EstimationError(
            f"draw comes from a frame of {draw.design.N} units "
            f"but the population has {pop.n_units}"
        )
    return l1_median(pop.subset(draw.units), weights=weights, cfg=cfg)


def ht_median(
    draw: SampleDraw, pop: CurvePopulation, cfg: SolverConfig | None = None
) -> MedianFit:
    """Weighted sample median with weights 1/pi_k (distinct units for PPS)."""
    return weighted_median(draw, pop, draw.weights, cfg)

