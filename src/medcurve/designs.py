"""Sampling designs over a finite frame of N units.

Units are addressed by position 0..N-1 throughout; mapping positions to
external unit ids is the caller's business. Every draw is pure given
(design, seed): it builds its own generator and never touches global RNG
state. Seeds may be ints or numpy SeedSequence objects; all derived
streams are SeedSequence children (child_seeds), so concurrent draws with
distinct seeds never share a stream, and a SeedSequence passed in is
never advanced: the same sequence gives the same draw every time.

A design is one frozen object whose parameters are checked when it is
built: Srswor (poststratified when given groups), Systematic, Stratified
or PpsWr. It owns its draw, its estimation weights, its pairwise
inclusion rule, its closed-form population variance where one exists
(closed_form), its variance estimator and the design-JSON fields it
reads. DESIGNS maps the five design-JSON "type" strings, which are also
the DesignPlan kinds, to these classes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "joint_inclusion",
    "pi_kl_matrix",
    "SRSWOR_APPROXIMATION",
    "HANSEN_HURWITZ",
]

# rule tags returned by joint_inclusion for designs without usable pairwise
# inclusion probabilities
SRSWOR_APPROXIMATION = "use-SRSWOR-approximation"
HANSEN_HURWITZ = "use-Hansen-Hurwitz"


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

    labels holds a stratum index 0..H-1 per unit. from_labels accepts any
    label values and canonicalizes them in sorted-unique order.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise DesignError("strata labels must be a nonempty vector")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DesignError("strata labels must be integers; use from_labels to canonicalize")
        labels = labels.astype(np.int64, copy=True)
        h = int(labels.max()) + 1
        if labels.min() < 0:
            raise DesignError("strata labels must be non-negative")
        sizes = np.bincount(labels, minlength=h)
        if np.any(sizes == 0):
            raise DesignError("every stratum must contain at least one unit")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

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
        return int(self.labels.max()) + 1

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_strata)

    def members(self, h: int) -> np.ndarray:
        return np.flatnonzero(self.labels == h)


@dataclass(frozen=True, eq=False)
class SampleDraw:
    """One realized sample.

    units: selected distinct frame positions, ascending. pi: first-order
    inclusion probability per selected unit. design: the design object
    that drew the sample. multiplicities: PPS draw counts per distinct
    unit, None elsewhere.
    """

    units: np.ndarray
    pi: np.ndarray
    design: Any
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        units = np.asarray(self.units, dtype=np.int64)
        pi = np.asarray(self.pi, dtype=float)
        if units.ndim != 1 or units.size == 0:
            raise DesignError("a sample must contain at least one unit")
        if np.any(np.diff(units) <= 0):
            raise DesignError("sample units must be distinct and ascending")
        if pi.shape != units.shape:
            raise DesignError("pi must align with the selected units")
        if np.any(pi <= 0) or np.any(pi > 1 + 1e-12):
            raise DesignError("inclusion probabilities must lie in (0, 1]")
        units.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "pi", np.minimum(pi, 1.0))
        if self.multiplicities is not None:
            mult = np.asarray(self.multiplicities, dtype=np.int64)
            if mult.shape != units.shape or np.any(mult < 1):
                raise DesignError("multiplicities must be positive and align with units")
            mult.setflags(write=False)
            object.__setattr__(self, "multiplicities", mult)

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


def _ht_weights(self, draw: SampleDraw) -> np.ndarray:
    """Horvitz-Thompson weights 1/pi_k."""
    return draw.weights


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


def _json_strata(spec: dict, n_population: int) -> StrataSpec:
    labels = spec["strata"]
    if len(labels) != n_population:
        raise DesignError(
            f"'strata' must list one label per population unit ({n_population}), got {len(labels)}"
        )
    return StrataSpec.from_labels(labels)


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

    @classmethod
    def from_json(cls, spec: dict, pop: CurvePopulation) -> "Srswor":
        groups = _json_strata(spec, pop.n_units) if "strata" in spec else None
        return cls(pop.n_units, spec["n"], groups)

    def draw(self, seed) -> SampleDraw:
        """Uniform n-subset of 0..N-1; pi = n/N for every unit."""
        rng = np.random.default_rng(as_seed(seed))
        units = np.sort(rng.choice(self.N, size=self.n, replace=False))
        return SampleDraw(units, np.full(self.n, self.n / self.N), self)

    def weights(self, draw: SampleDraw) -> np.ndarray:
        """1/pi_k, calibrated to the group sizes when the design has groups."""
        return draw.weights if self.groups is None else calibrated_weights(draw, self.groups)

    def joint_inclusion(self, k: int, l: int) -> float:
        if k == l:
            return self.n / self.N
        return self.n * (self.n - 1) / (self.N * (self.N - 1))

    def pi_kl_matrix(self) -> np.ndarray:
        out = np.full((self.N, self.N), self.n * (self.n - 1) / max(self.N * (self.N - 1), 1))
        np.fill_diagonal(out, self.n / self.N)
        return out

    def _grouped(self, values: np.ndarray, labels: np.ndarray, sampled: bool) -> np.ndarray:
        """N^2 (1/n - 1/N) sum_g ((N_g - 1)/(N - 1)) S^2_g over the rows given."""
        acc = np.zeros(values.shape[1])
        for g, size in enumerate(self.groups.sizes):
            in_g = values[labels == g]
            if sampled and in_g.shape[0] < 2:
                raise EstimationError(
                    f"group {g} has fewer than two sampled units; aggregate "
                    "small groups before estimating the variance"
                )
            acc += (size - 1) / (self.N - 1) * _s2(in_g)
        return self.N**2 * (1.0 / self.n - 1.0 / self.N) * acc

    def population_variance(self, values: np.ndarray) -> np.ndarray:
        if self.groups is None:
            return _srswor_variance(self.N, self.n, values)
        return self._grouped(values, self.groups.labels, sampled=False)

    def variance_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
        """The closed form with sample variances; with groups, the plug-in of the poststratified form."""
        if self.groups is not None:
            return self._grouped(values, self.groups.labels[draw.units], sampled=True)
        if self.n < 2:
            raise EstimationError("variance estimation needs at least two sampled units")
        return _srswor_variance(self.N, self.n, values)


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

    @classmethod
    def from_json(cls, spec: dict, pop: CurvePopulation) -> "Systematic":
        key = spec.get("order_key_column", "mean")
        if key == "mean":
            return cls(pop.values.mean(axis=1), spec["n"])
        if key == "max":
            return cls(pop.values.max(axis=1), spec["n"])
        try:
            col = int(key)
        except ValueError:
            raise DesignError(
                f"order_key_column must be 'mean', 'max', or a grid point index, got {key!r}"
            )
        if not 0 <= col < pop.grid.n_points:
            raise DesignError(f"order_key_column index {col} outside grid of {pop.grid.n_points}")
        return cls(pop.values[:, col], spec["n"])

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

    def joint_inclusion(self, k: int, l: int) -> float | str:
        """pi_k on the diagonal; pairs that never share a sample give pi_kl = 0, so the tag."""
        return self.n / self.N if k == l else SRSWOR_APPROXIMATION

    def variance_estimate(self, draw: SampleDraw, values: np.ndarray) -> np.ndarray:
        """The SRSWOR formula (see approximation)."""
        if self.n < 2:
            raise EstimationError("variance estimation needs at least two sampled units")
        return _srswor_variance(self.N, self.n, values)


@dataclass(frozen=True, eq=False)
class Stratified:
    """Independent SRSWOR of alloc[h] units within each stratum h."""

    strata: StrataSpec
    alloc: np.ndarray

    closed_form = True
    kind = "stratified"

    def __post_init__(self):
        alloc = np.array(self.alloc, dtype=np.int64)
        if alloc.shape != (self.strata.n_strata,):
            raise DesignError(
                f"allocation must give one size per stratum ({self.strata.n_strata})"
            )
        for h, (n_h, cap) in enumerate(zip(alloc, self.strata.sizes)):
            if not 1 <= n_h <= cap:
                raise DesignError(f"allocation {n_h} for stratum {h} must lie in 1..{cap}")
        _frozen(self, "alloc", alloc)

    @property
    def N(self) -> int:
        return self.strata.n_units

    @property
    def n(self) -> int:
        return int(self.alloc.sum())

    @classmethod
    def from_json(cls, spec: dict, pop: CurvePopulation) -> "Stratified":
        # imported here: stratify builds its strata on this module's StrataSpec
        from .stratify import proportional_allocation

        strata, n = _json_strata(spec, pop.n_units), spec["n"]
        alloc = spec.get("allocation")
        if alloc is None:
            return cls(strata, proportional_allocation(strata.sizes, n).counts)
        if len(alloc) != strata.n_strata or sum(alloc) != n:
            raise DesignError(f"'allocation' must give {strata.n_strata} counts summing to {n}")
        return cls(strata, alloc)

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

    def joint_inclusion(self, k: int, l: int) -> float:
        labels, alloc, sizes = self.strata.labels, self.alloc, self.strata.sizes
        hk, hl = labels[k], labels[l]
        pik = alloc[hk] / sizes[hk]
        if k == l:
            return float(pik)
        if hk == hl:
            n_h, cap = alloc[hk], sizes[hk]
            return float(n_h * (n_h - 1) / (cap * (cap - 1)))
        return float(pik * alloc[hl] / sizes[hl])

    def pi_kl_matrix(self) -> np.ndarray:
        labels, alloc, sizes = self.strata.labels, self.alloc, self.strata.sizes
        pi = alloc[labels] / sizes[labels]
        # a single-unit stratum has no within pairs; its 0/0 is never read
        within = alloc * (alloc - 1) / np.maximum(sizes * (sizes - 1), 1)
        across = pi[:, None] * alloc[labels] / sizes[labels]
        out = np.where(labels[:, None] == labels, within[labels][:, None], across)
        np.fill_diagonal(out, pi)
        return out

    def _strata_sum(self, values: np.ndarray, labels: np.ndarray, sampled: bool) -> np.ndarray:
        """sum_h N_h^2 (1/n_h - 1/N_h) S^2_h over the rows given; census strata add nothing."""
        out = np.zeros(values.shape[1])
        for h, (n_h, cap) in enumerate(zip(self.alloc, self.strata.sizes)):
            if n_h == cap:
                continue
            if sampled and n_h < 2:
                raise EstimationError(
                    f"stratum {h} has a single sampled unit; its variance "
                    "cannot be estimated (allocate at least 2 or take a census)"
                )
            out += cap**2 * (1.0 / n_h - 1.0 / cap) * _s2(values[labels == h])
        return out

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

    @classmethod
    def from_json(cls, spec: dict, pop: CurvePopulation) -> "PpsWr":
        """p_source "mean" (the default) or one positive size per unit."""
        src = spec.get("p_source", "mean")
        if src == "mean":
            return cls(pps_weights_from_curves(pop), spec["n"])
        sizes = np.asarray(src, dtype=float)
        if sizes.shape != (pop.n_units,):
            raise DesignError(f"'p_source' must list one size per unit ({pop.n_units})")
        if np.any(sizes <= 0) or not np.all(np.isfinite(sizes)):
            raise DesignError("'p_source' sizes must be positive and finite")
        return cls(sizes / sizes.sum(), spec["n"])

    def draw(self, seed) -> SampleDraw:
        """The distinct drawn units with multiplicities; pi = 1 - (1 - p_k)^n."""
        rng = np.random.default_rng(as_seed(seed))
        draws = rng.choice(self.N, size=self.n, replace=True, p=self.p / self.p.sum())
        units, mult = np.unique(draws, return_counts=True)
        pi = 1.0 - (1.0 - self.p[units]) ** self.n
        return SampleDraw(units, pi, self, multiplicities=mult)

    weights = _ht_weights

    def joint_inclusion(self, k: int, l: int) -> float | str:
        """pi_k on the diagonal; pairs point at the Hansen-Hurwitz estimator."""
        return float(1.0 - (1.0 - self.p[k]) ** self.n) if k == l else HANSEN_HURWITZ

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


# design-JSON "type" (and DesignPlan kind) -> (class, the JSON fields it
# reads); cls.from_json(validated JSON, population) builds the design, and a
# type that reads "strata" cannot do without them
DESIGNS = {
    "srswor": (Srswor, ()),
    "poststratified": (Srswor, ("strata",)),
    "systematic": (Systematic, ("order_key_column",)),
    "stratified": (Stratified, ("strata", "allocation")),
    "ppswr": (PpsWr, ("p_source",)),
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


def joint_inclusion(design, k: int, l: int) -> float | str:
    """Pairwise inclusion probability, or the rule tag when none is usable.

    Systematic samples give pi_kl = 0 for units that can never share a
    sample, so the tag points at the SRSWOR approximation; with-replacement
    PPS points at the Hansen-Hurwitz estimator.
    """
    for unit in (k, l):
        if not 0 <= unit < design.N:
            raise DesignError(f"unit {unit} outside the frame 0..{design.N - 1}")
    return design.joint_inclusion(k, l)


def pi_kl_matrix(design) -> np.ndarray:
    """Full N x N pairwise inclusion matrix (diagonal = pi_k).

    Only meaningful for designs with closed-form pairwise probabilities;
    intended for small enumeration-scale checks.
    """
    if not design.closed_form:
        raise DesignError(
            f"no closed-form pairwise probabilities for {design.kind!r}; "
            f"joint_inclusion returns the applicable rule tag"
        )
    return design.pi_kl_matrix()
