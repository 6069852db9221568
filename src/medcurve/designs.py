"""Sampling designs over a finite frame of N units.

Units are addressed by position 0..N-1 throughout; mapping positions to
external unit ids is the caller's business. Every draw is pure given
(design, seed): it builds its own generator and never touches global RNG
state. Seeds may be ints or numpy SeedSequence objects; all derived
streams are SeedSequence children (child_seeds), so concurrent draws with
distinct seeds never share a stream, and a SeedSequence passed in is
never advanced: the same sequence gives the same draw every time.

A design is one frozen object, checked when built: Srswor (poststratified
when given groups), Systematic, Stratified or PpsWr. It owns its draw, its
estimation weights, its closed-form population variance where one exists
(closed_form) and its variance estimator. DESIGNS maps the five design
kinds to these classes; dataio alone reads design files into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .curves import CurvePopulation
from .errors import DesignError, EstimationError

__all__ = [
    "StrataSpec",
    "SampleDraw",
    "Srswor",
    "Systematic",
    "Stratified",
    "PpsWr",
    "DESIGNS",
    "calibrated_weights",
    "as_seed",
    "child_seeds",
    "draw_srswor",
    "draw_systematic",
    "draw_stratified",
    "draw_ppswr",
    "pps_weights_from_curves",
]


def as_seed(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        raise DesignError("a seed is required; draws must be reproducible")
    return np.random.SeedSequence(seed)


def child_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """The n children a first seed.spawn(n) gives, without advancing seed."""
    parent = as_seed(seed)
    return [
        np.random.SeedSequence(
            parent.entropy, spawn_key=parent.spawn_key + (i,), pool_size=parent.pool_size
        )
        for i in range(n)
    ]


@dataclass(frozen=True, eq=False)
class StrataSpec:
    """Partition of the frame into H nonempty strata.

    labels holds a stratum index 0..H-1 per unit and sizes the N_h, both
    read-only. from_labels accepts any label values and canonicalizes them
    in sorted-unique order.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise DesignError("strata labels must be a nonempty vector")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DesignError("strata labels must be integers; use from_labels to canonicalize")
        labels = labels.astype(np.int64, copy=True)
        if labels.min() < 0:
            raise DesignError("strata labels must be non-negative")
        sizes = np.bincount(labels)
        if np.any(sizes == 0):
            raise DesignError("every stratum must contain at least one unit")
        _frozen(self, "labels", labels)
        _frozen(self, "sizes", sizes)

    @classmethod
    def from_labels(cls, raw) -> "StrataSpec":
        raw = np.asarray(raw)
        _, canonical = np.unique(raw, return_inverse=True)
        return cls(labels=canonical)

    @property
    def n_units(self) -> int:
        return self.labels.size

    @property
    def n_strata(self) -> int:
        return self.sizes.size

    @cached_property
    def _members(self) -> list[np.ndarray]:
        order = np.argsort(self.labels, kind="stable")
        order.setflags(write=False)
        return np.split(order, np.cumsum(self.sizes)[:-1])

    def members(self, h: int) -> np.ndarray:
        """Frame positions of stratum h, ascending (read-only)."""
        return self._members[h]


@dataclass(frozen=True, eq=False)
class SampleDraw:
    """One realized sample.

    units: selected distinct frame positions, ascending. pi: first-order
    inclusion probability per selected unit. design: the design object
    that drew the sample. multiplicities: PPS draw counts per distinct
    unit, None elsewhere. The arrays are stored as read-only copies.
    """

    units: np.ndarray
    pi: np.ndarray
    design: Any
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        units = np.array(self.units, dtype=np.int64)
        pi = np.asarray(self.pi, dtype=float)
        if units.ndim != 1 or units.size == 0:
            raise DesignError("a sample must contain at least one unit")
        if np.any(np.diff(units) <= 0):
            raise DesignError("sample units must be distinct and ascending")
        if pi.shape != units.shape:
            raise DesignError("pi must align with the selected units")
        if np.any(pi <= 0) or np.any(pi > 1 + 1e-12):
            raise DesignError("inclusion probabilities must lie in (0, 1]")
        _frozen(self, "units", units)
        _frozen(self, "pi", np.minimum(pi, 1.0))
        if self.multiplicities is not None:
            mult = np.array(self.multiplicities, dtype=np.int64)
            if mult.shape != units.shape or np.any(mult < 1):
                raise DesignError("multiplicities must be positive and align with units")
            _frozen(self, "multiplicities", mult)

    @property
    def n_units(self) -> int:
        return self.units.size

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / self.pi


def _check_sizes(n: int, limit: int):
    if not 1 <= n <= limit:
        raise DesignError(f"sample size {n} must lie in 1..{limit} (population size)")


def _frozen(obj, name: str, values: np.ndarray) -> None:
    values.setflags(write=False)
    object.__setattr__(obj, name, values)


def _s2(values: np.ndarray) -> np.ndarray:
    """Column-wise variance with the N-1 denominator; zero for a single row."""
    if values.shape[0] < 2:
        return np.zeros(values.shape[1])
    return np.var(values, axis=0, ddof=1)


def _srswor_variance(n_population: int, n: int, values: np.ndarray) -> np.ndarray:
    return n_population**2 * (1.0 / n - 1.0 / n_population) * _s2(values)


def _group_s2(values: np.ndarray, labels: np.ndarray, n_groups: int):
    """Rows per group, and each group's _s2 of its rows (zero below two rows).

    Every group at once from one-hot products: group means, then the sums
    of squared deviations from them.
    """
    onehot = (labels[:, None] == np.arange(n_groups)).astype(float)
    counts = np.bincount(labels, minlength=n_groups)
    means = (onehot.T @ values) / np.maximum(counts, 1)[:, None]
    centered = values - means[labels]
    # a lone row is its own mean, so its group's sum of squares is exactly 0
    return counts, (onehot.T @ (centered * centered)) / np.maximum(counts - 1, 1)[:, None]


def _ht_weights(self, draw: SampleDraw) -> np.ndarray:
    """Horvitz-Thompson weights 1/pi_k."""
    return draw.weights


def _srswor_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
    """The SRSWOR closed form with sample variances."""
    if self.n < 2:
        raise EstimationError("variance estimation needs at least two sampled units")
    return _srswor_variance(self.N, self.n, values)


def calibrated_weights(draw: SampleDraw, groups: StrataSpec) -> np.ndarray:
    """1/pi_k rescaled to N_g / (Nhat_g pi_k), Nhat_g the HT estimate of N_g.

    Each group's weights then total its known size N_g, so every group
    must catch a sampled unit; the error gives the standard remedy.
    """
    if groups.n_units != draw.design.N:
        raise EstimationError("group labels must cover the whole frame")
    labels = groups.labels[draw.units]
    d = draw.weights
    nhat = np.bincount(labels, weights=d, minlength=groups.n_strata)
    empty = np.flatnonzero(nhat == 0)
    if empty.size:
        raise EstimationError(
            f"group {int(empty[0])} has no sampled units; aggregate small "
            "groups before poststratifying"
        )
    return d * (groups.sizes[labels] / nhat[labels])


@dataclass(frozen=True, eq=False)
class Srswor:
    """Simple random sampling of n of the N frame units without replacement.

    groups, a StrataSpec over the frame, selects the poststratified
    estimator: weights calibrated to the known group sizes, and the
    poststratified variance forms. The draw is the same either way.
    """

    N: int
    n: int
    groups: StrataSpec | None = None

    closed_form = True

    def __post_init__(self):
        _check_sizes(self.n, self.N)

    @property
    def kind(self) -> str:
        return "srswor" if self.groups is None else "poststratified"

    def draw(self, seed) -> SampleDraw:
        """Uniform n-subset of 0..N-1; pi = n/N for every unit."""
        rng = np.random.default_rng(as_seed(seed))
        units = np.sort(rng.choice(self.N, size=self.n, replace=False))
        return SampleDraw(units, np.full(self.n, self.n / self.N), self)

    def weights(self, draw: SampleDraw) -> np.ndarray:
        """1/pi_k, calibrated to the group sizes when the design has groups."""
        return draw.weights if self.groups is None else calibrated_weights(draw, self.groups)

    def _grouped(self, values: np.ndarray, labels: np.ndarray, sampled: bool) -> np.ndarray:
        """N^2 (1/n - 1/N) sum_g ((N_g - 1)/(N - 1)) S^2_g over the rows given."""
        sizes = self.groups.sizes
        counts, s2 = _group_s2(values, labels, sizes.size)
        thin = np.flatnonzero(counts < 2)
        if sampled and thin.size:
            raise EstimationError(
                f"group {int(thin[0])} has fewer than two sampled units; aggregate "
                "small groups before estimating the variance"
            )
        acc = ((sizes - 1) / (self.N - 1)) @ s2
        return self.N**2 * (1.0 / self.n - 1.0 / self.N) * acc

    def population_variance(self, values: np.ndarray) -> np.ndarray:
        if self.groups is None:
            return _srswor_variance(self.N, self.n, values)
        return self._grouped(values, self.groups.labels, sampled=False)

    def variance_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
        """The closed form with sample variances; with groups, the plug-in of the poststratified form."""
        if self.groups is None:
            return _srswor_estimate(self, draw, values)
        return self._grouped(values, self.groups.labels[draw.units], sampled=True)


@dataclass(frozen=True, eq=False)
class Systematic:
    """Systematic selection of n units along the frame sorted by order_key.

    The real-valued step N/n keeps every first-order inclusion
    probability exactly n/N even when N/n is not an integer. No unbiased
    variance estimator exists, so the SRSWOR formula stands in, flagged.
    """

    order_key: np.ndarray
    n: int

    closed_form = False
    kind = "systematic"
    approximation = "srswor-formula"

    def __post_init__(self):
        _frozen(self, "order_key", np.array(self.order_key, dtype=float))
        _check_sizes(self.n, self.N)

    @property
    def N(self) -> int:
        return self.order_key.size

    def draw(self, seed) -> SampleDraw:
        """Step N/n from a start uniform on [0, step); ranks floor(start + j * step).

        Ties in order_key are broken by a seeded random permutation, so a
        constant key degrades to random-start selection on a random
        ordering.
        """
        n_population, n = self.N, self.n
        rng = np.random.default_rng(as_seed(seed))
        perm = rng.permutation(n_population)
        order = perm[np.argsort(self.order_key[perm], kind="stable")]
        step = n_population / n
        start = rng.uniform(0.0, step)
        ranks = np.floor(start + step * np.arange(n)).astype(np.int64)
        units = np.sort(order[ranks])
        return SampleDraw(units, np.full(n, n / n_population), self)

    weights = _ht_weights
    variance_estimate = _srswor_estimate


@dataclass(frozen=True, eq=False)
class Stratified:
    """Independent SRSWOR of alloc[h] units within each stratum h."""

    strata: StrataSpec
    alloc: np.ndarray

    closed_form = True
    kind = "stratified"

    def __post_init__(self):
        # bounds first, on the counts as given: one too large for int64 is refused
        alloc = np.array(self.alloc, dtype=object)
        if alloc.shape != (self.strata.n_strata,):
            raise DesignError(
                f"allocation must give one size per stratum ({self.strata.n_strata})"
            )
        for h, (n_h, cap) in enumerate(zip(alloc, self.strata.sizes)):
            if not 1 <= n_h <= cap:
                raise DesignError(f"allocation {n_h} for stratum {h} must lie in 1..{cap}")
        _frozen(self, "alloc", alloc.astype(np.int64))

    @property
    def N(self) -> int:
        return self.strata.n_units

    @property
    def n(self) -> int:
        return int(self.alloc.sum())

    def draw(self, seed) -> SampleDraw:
        strata = self.strata
        sizes = strata.sizes
        children = child_seeds(seed, strata.n_strata)
        picked = []
        for h in range(strata.n_strata):
            members = strata.members(h)
            rng = np.random.default_rng(children[h])
            picked.append(members[rng.choice(members.size, size=int(self.alloc[h]), replace=False)])
        units = np.sort(np.concatenate(picked))
        labels = strata.labels[units]
        return SampleDraw(units, self.alloc[labels] / sizes[labels], self)

    weights = _ht_weights

    def _strata_sum(self, values: np.ndarray, labels: np.ndarray, sampled: bool) -> np.ndarray:
        """sum_h N_h^2 (1/n_h - 1/N_h) S^2_h over the rows given; census strata add nothing."""
        alloc, sizes = self.alloc, self.strata.sizes
        drawn = alloc < sizes
        thin = np.flatnonzero(drawn & (alloc < 2))
        if sampled and thin.size:
            raise EstimationError(
                f"stratum {int(thin[0])} has a single sampled unit; its variance "
                "cannot be estimated (allocate at least 2 or take a census)"
            )
        coef = np.where(drawn, sizes**2 * (1.0 / alloc - 1.0 / sizes), 0.0)
        return coef @ _group_s2(values, labels, sizes.size)[1]

    def population_variance(self, values: np.ndarray) -> np.ndarray:
        return self._strata_sum(values, self.strata.labels, sampled=False)

    def variance_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
        return self._strata_sum(values, self.strata.labels[draw.units], sampled=True)


@dataclass(frozen=True, eq=False)
class PpsWr:
    """n independent draws with per-unit probability p_k, with replacement.

    Estimation uses the distinct units with inclusion probabilities
    1 - (1 - p_k)^n; the variance estimator is Hansen-Hurwitz's, built
    from the draw multiplicities.
    """

    p: np.ndarray
    n: int

    closed_form = False
    kind = "ppswr"

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if self.n < 1:
            raise DesignError("need at least one draw")
        if np.any(~np.isfinite(p)) or np.any(p <= 0):
            raise DesignError("selection probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-10:
            raise DesignError(f"selection probabilities sum to {p.sum()!r}, expected 1")
        _frozen(self, "p", p)

    @property
    def N(self) -> int:
        return self.p.size

    def draw(self, seed) -> SampleDraw:
        """The distinct drawn units with multiplicities; pi = 1 - (1 - p_k)^n."""
        rng = np.random.default_rng(as_seed(seed))
        draws = rng.choice(self.N, size=self.n, replace=True, p=self.p / self.p.sum())
        units, mult = np.unique(draws, return_counts=True)
        pi = 1.0 - (1.0 - self.p[units]) ** self.n
        return SampleDraw(units, pi, self, multiplicities=mult)

    weights = _ht_weights

    def variance_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
        """Hansen-Hurwitz: (1/(n(n-1))) sum over the n draws of (u/p - mean)^2.

        Repeated draws of one unit contribute through its multiplicity;
        values rows align with draw.units.
        """
        if draw.multiplicities is None:
            raise DesignError("Hansen-Hurwitz variance needs a with-replacement draw record")
        n = self.n
        if n < 2:
            raise EstimationError("Hansen-Hurwitz variance needs at least two draws")
        p = self.p[draw.units]
        mult = draw.multiplicities.astype(float)
        expanded = values / p[:, None]
        mean = (mult @ expanded) / n
        sq = mult @ (expanded - mean) ** 2
        return sq / (n * (n - 1))


# design kind (a design file's "type", a DesignPlan's kind) -> class
DESIGNS = {
    "srswor": Srswor,
    "poststratified": Srswor,
    "systematic": Systematic,
    "stratified": Stratified,
    "ppswr": PpsWr,
}


def draw_srswor(n_population: int, n: int, seed) -> SampleDraw:
    return Srswor(n_population, n).draw(seed)


def draw_systematic(order_key, n: int, seed) -> SampleDraw:
    return Systematic(order_key, n).draw(seed)


def draw_stratified(strata: StrataSpec, alloc, seed) -> SampleDraw:
    return Stratified(strata, alloc).draw(seed)


def draw_ppswr(p, n: int, seed) -> SampleDraw:
    return PpsWr(p, n).draw(seed)


def pps_weights_from_curves(pop: CurvePopulation) -> np.ndarray:
    """Draw probabilities proportional to each unit's plain mean level."""
    means = pop.values.mean(axis=1)
    bad = np.flatnonzero(means <= 0)
    if bad.size:
        raise DesignError(
            f"unit {pop.ids[bad[0]]!r} has nonpositive mean level; "
            "size-proportional draw probabilities need positive means"
        )
    return means / means.sum()

