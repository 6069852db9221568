"""Synthetic load-curve populations and the design-comparison harness.

The generator produces a two-week panel (week 1 as the known auxiliary
X_k, week 2 as the study variable Y_k) of positive daily-shaped curves:

    Y_k = scale_k * (base + shape_sigma * zeta_k * shape2) + noise

where base is a within-day sinusoidal profile with an optional weekend
dip, scale_k is a heavy-tailed unit level (lognormal around one of a few
planted regime multipliers), zeta_k is a persistent per-unit shape
coefficient (the same in both weeks, so week-1 structure predicts week
2), and the noise is fresh each week. A configurable fraction of units is
scaled up hard in both weeks to act as outliers.

The Monte Carlo harness replays a list of design plans against the study
week: per replicate it draws, estimates the median, and records the
integrated absolute loss against the full-population median; designs with
closed-form variance estimators also get a per-replicate loss between the
estimated and asymptotic variance functions. Seeds derive from the master
seed by design index then replicate index, so reports are reproducible
and independent of execution order: a large run gives each forked worker
process a fixed share of every design's replicates, or runs them all here
when the OS refuses a fork, without changing a byte.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .curves import Curve, CurvePopulation, TimeGrid
from .dataio import _finite, _is_int
from .designs import DESIGNS, StrataSpec, as_seed, child_seeds, pps_weights_from_curves
from .errors import EstimationError, GridMismatchError, MedcurveError
from .estimators import weighted_median
from .forking import forked_map, worker_count
from .linearize import LinearizedSet, linearized_variables
from .solver import SolverConfig, l1_median
from .stratify import kmeans_strata, optimal_allocation, proportional_allocation, quartile_strata
from .variance import VarianceFunction, median_variance, variance_function

__all__ = [
    "SynthConfig",
    "SynthPopulation",
    "synth_population",
    "loss_r_median",
    "loss_r_variance",
    "linearized_at_median",
    "DesignPlan",
    "SUITE_NAMES",
    "standard_design_suite",
    "DesignOutcome",
    "MonteCarloReport",
    "monte_carlo_compare",
]

# the population fits (the auxiliary week's, the study week's truth) are
# solved this tightly, far inside the replicate fits' tolerance
_POPULATION_TOL = 1e-10
# a synthetic panel holds at most this many values (n_units x
# points_per_week x weeks, 800 MB of floats); each count is capped at it too
_MAX_PANEL_VALUES = 10**8


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic population shape.

    points_per_week must be divisible by points_per_day; days beyond the
    fifth of each 7-day block count as weekend and get the contrast dip.
    scale_groups plants distinct consumption regimes (balanced across
    units); scale_sigma adds lognormal spread around each regime level.
    The counts and the panel's n_units x points_per_week x weeks are capped.
    """

    n_units: int = 2000
    points_per_week: int = 48
    points_per_day: int = 48
    weeks: int = 2
    day_amplitude: float = 0.6
    weekend_contrast: float = 0.25
    scale_groups: tuple = (0.6, 1.0, 1.8, 3.2)
    scale_sigma: float = 0.4
    shape_sigma: float = 0.25
    noise_sd: float = 0.08
    outlier_frac: float = 0.02
    outlier_mag: float = 6.0
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            least = 0 if f.name == "seed" else 1
            if f.type == "int" and not _is_int(value, least):
                raise ValueError(f"{f.name} must be an integer of at least {least}")
            if f.type == "int" and f.name != "seed" and value > _MAX_PANEL_VALUES:
                raise ValueError(f"{f.name} must be at most {_MAX_PANEL_VALUES}")
            if f.type == "float" and not _finite(value):
                raise ValueError(f"{f.name} must be a finite number")
        groups = self.scale_groups
        if not isinstance(groups, (tuple, list)) or not groups or not all(
            _finite(g) and g > 0 for g in groups
        ):
            raise ValueError("scale_groups must be a nonempty list of positive finite multipliers")
        object.__setattr__(self, "scale_groups", tuple(float(g) for g in groups))
        if self.n_units < 10:
            raise ValueError("need at least 10 units")
        if self.n_units * self.points_per_week * self.weeks > _MAX_PANEL_VALUES:
            raise ValueError(f"n_units x points_per_week x weeks is over {_MAX_PANEL_VALUES}")
        if self.points_per_week % self.points_per_day != 0:
            raise ValueError("points_per_week must be divisible by points_per_day")
        if not 0.0 <= self.outlier_frac <= 0.2:
            raise ValueError("outlier fraction must lie in [0, 0.2]")
        if not 0.0 <= self.weekend_contrast < 1.0:
            raise ValueError("weekend contrast must lie in [0, 1)")
        if self.outlier_mag <= 0 or self.day_amplitude < 0:
            raise ValueError("magnitudes must be positive")


@dataclass(frozen=True, eq=False)
class SynthPopulation:
    """Generated panel: aux is week 1 (X), study is the last week (Y)."""

    aux: CurvePopulation
    study: CurvePopulation
    weeks: tuple
    scales: np.ndarray
    groups: np.ndarray
    outliers: np.ndarray
    config: SynthConfig


def _base_profile(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(cfg.points_per_week)
    day = j // cfg.points_per_day
    theta = ((j % cfg.points_per_day) + 0.5) / cfg.points_per_day
    daily = 1.0 + cfg.day_amplitude * np.sin(np.pi * theta) ** 2
    weekend = (day % 7) >= 5
    base = daily * np.where(weekend, 1.0 - cfg.weekend_contrast, 1.0)
    shape2 = np.sin(2.0 * np.pi * theta)
    return base, shape2


def synth_population(cfg: SynthConfig) -> SynthPopulation:
    """Generate the panel; fully determined by cfg (including its seed)."""
    rng = np.random.default_rng(as_seed(cfg.seed))
    n, d = cfg.n_units, cfg.points_per_week
    base, shape2 = _base_profile(cfg)

    groups = rng.permutation(np.resize(np.arange(len(cfg.scale_groups)), n))
    scales = np.asarray(cfg.scale_groups)[groups] * rng.lognormal(0.0, cfg.scale_sigma, size=n)
    zeta = rng.normal(size=n)
    n_out = int(np.floor(cfg.outlier_frac * n))
    outliers = np.sort(rng.choice(n, size=n_out, replace=False)) if n_out else np.array([], int)
    mag = np.ones(n)
    mag[outliers] = cfg.outlier_mag

    grid = TimeGrid.uniform(d)
    signal = scales[:, None] * (base[None, :] + cfg.shape_sigma * zeta[:, None] * shape2[None, :])
    weeks = []
    for _ in range(cfg.weeks):
        noise = cfg.noise_sd * scales[:, None] * rng.normal(size=(n, d))
        weeks.append(CurvePopulation(mag[:, None] * (signal + noise), grid))
    return SynthPopulation(
        aux=weeks[0],
        study=weeks[-1],
        weeks=tuple(weeks),
        scales=scales,
        groups=groups,
        outliers=outliers,
        config=cfg,
    )


def _integrated_abs_error(estimate, truth) -> float:
    if not (isinstance(estimate, (Curve, VarianceFunction)) and type(truth) is type(estimate)):
        raise TypeError("loss arguments must both be Curves or both VarianceFunctions")
    if not estimate.grid.matches(truth.grid):
        raise GridMismatchError("losses need a shared grid")
    return float(np.abs(estimate.values - truth.values).mean())


def loss_r_median(estimate: Curve, truth: Curve) -> float:
    """Integrated absolute error, discretized as the plain average (1/D) sum."""
    return _integrated_abs_error(estimate, truth)


def loss_r_variance(estimate: VarianceFunction, truth: VarianceFunction) -> float:
    """The loss_r_median rule applied to variance functions."""
    return _integrated_abs_error(estimate, truth)


def linearized_at_median(pop: CurvePopulation, cfg: SolverConfig, what: str) -> LinearizedSet:
    """Every curve's linearized variable at pop's median under cfg; `what` names pop.

    An unconverged fit raises MedcurveError, a curve on the median EstimationError.
    """
    fit = l1_median(pop, cfg=cfg)
    if not fit.converged:
        raise MedcurveError(f"{what} median did not converge; cannot linearize")
    u = linearized_variables(pop, fit.median)
    if u.values.shape[0] != pop.n_units:
        raise EstimationError(
            f"some {what} curves coincide with the median; their linearized variables are undefined"
        )
    return u


@dataclass(frozen=True, eq=False)
class DesignPlan:
    """One design configured against the auxiliary week.

    kind names the design class in designs.DESIGNS ("srswor",
    "systematic", "stratified", "ppswr", or "poststratified": an SRSWOR
    draw with group-calibrated weights). The fields beyond (name, kind)
    are that class's constructor arguments, bar the frame size N.
    """

    name: str
    kind: str
    n: int
    strata: StrataSpec | None = None
    alloc: np.ndarray | None = None
    order_key: np.ndarray | None = None
    p: np.ndarray | None = None
    groups: StrataSpec | None = None

    def design(self, n_population: int):
        """The design this plan describes over a frame of n_population units."""
        if self.kind not in DESIGNS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        cls = DESIGNS[self.kind]
        given = {"N": n_population, **vars(self)}
        return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)})

    def population_design(self, n_population: int):
        """The design whose closed-form variance scores the replicates, or None.

        Systematic and PPS designs have no closed form; poststratified
        plans are not scored.
        """
        design = self.design(n_population)
        return design if design.closed_form and self.groups is None else None


SUITE_NAMES = (
    "SRSWOR",
    "SYS",
    "STRAT-u-PROP",
    "STRAT-u-OPTIM",
    "STRAT-x-PROP",
    "STRAT-x-OPTIM",
    "POST",
    "PPS",
)


def standard_design_suite(
    aux: CurvePopulation, n: int, n_strata: int = 4, seed: int = 0
) -> list[DesignPlan]:
    """The comparison lineup, configured from the auxiliary week.

    SRSWOR; systematic ordered by mean level; stratified on k-means strata
    of the week-1 linearized variables (proportional and optimal
    allocations); stratified on quartiles of the week-1 peak level
    (proportional and optimal); poststratified SRSWOR on the k-means
    groups; and PPS with draw probabilities proportional to mean level.
    """
    u1 = linearized_at_median(aux, SolverConfig(tol=_POPULATION_TOL), "auxiliary-week")
    u_strata = kmeans_strata(u1, n_strata, seed=child_seeds(seed, 1)[0])
    x_strata = quartile_strata(aux.values.max(axis=1), n_strata)

    stratified = [
        (u_strata, proportional_allocation(u_strata.sizes, n)),
        (u_strata, optimal_allocation(u_strata, u1, n, rule="u-OPTIM")),
        (x_strata, proportional_allocation(x_strata.sizes, n)),
        (x_strata, optimal_allocation(x_strata, aux, n, rule="x-OPTIM")),
    ]
    fields = [  # in SUITE_NAMES order
        dict(kind="srswor"),
        dict(kind="systematic", order_key=aux.values.mean(axis=1)),
        *(dict(kind="stratified", strata=h, alloc=a.counts) for h, a in stratified),
        dict(kind="poststratified", groups=u_strata),
        dict(kind="ppswr", p=pps_weights_from_curves(aux)),
    ]
    return [DesignPlan(name=name, n=n, **f) for name, f in zip(SUITE_NAMES, fields)]


@dataclass(frozen=True, eq=False)
class DesignOutcome:
    """Per-design Monte Carlo record; NaN marks a failed replicate."""

    name: str
    losses: np.ndarray
    variance_losses: np.ndarray | None
    estimate_failures: int
    variance_failures: int

    def loss_summary(self) -> dict[str, float]:
        ok = self.losses[~np.isnan(self.losses)]
        if ok.size == 0:
            return {"mean": float("nan"), "q1": float("nan"), "median": float("nan"), "q3": float("nan")}
        q1, med, q3 = np.percentile(ok, [25.0, 50.0, 75.0])
        return {"mean": float(ok.mean()), "q1": float(q1), "median": float(med), "q3": float(q3)}


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    outcomes: tuple
    replicates: int
    truth: Curve

    def outcome(self, name: str) -> DesignOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def summary(self) -> dict[str, Any]:
        designs = []
        for o in self.outcomes:
            entry = {"name": o.name, "loss": o.loss_summary(), "estimate_failures": o.estimate_failures}
            if o.variance_losses is not None:
                ok = o.variance_losses[~np.isnan(o.variance_losses)]
                entry["variance_loss_mean"] = float(ok.mean()) if ok.size else float("nan")
                entry["variance_failures"] = o.variance_failures
            designs.append(entry)
        return {"replicates": self.replicates, "designs": designs}


@dataclass(frozen=True, eq=False)
class _Replicates:
    """What every replicate of one monte_carlo_compare call reads, fixed before any runs."""

    study: CurvePopulation
    designs: tuple
    var_truths: tuple  # per plan, the closed-form variance truth or None
    plan_seeds: tuple  # per plan, the master seed's child d
    truth: Curve
    cfg: SolverConfig


@dataclass(frozen=True, eq=False)
class _Block:
    """The outcome of replicates lo..hi-1 of one plan, and the warnings they raised."""

    losses: np.ndarray
    variance_losses: np.ndarray
    estimate_failures: int
    variance_failures: int
    warnings: list


def _run_block(job: _Replicates, d: int, lo: int, hi: int) -> _Block:
    """Replicates lo..hi-1 of plan d, replicate r drawn from the master seed's child (d, r)."""
    design, var_truth = job.designs[d], job.var_truths[d]
    losses = np.full(hi - lo, np.nan)
    var_losses = np.full(hi - lo, np.nan)
    est_fail = var_fail = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, rep_seed in enumerate(child_seeds(job.plan_seeds[d], range(lo, hi))):
            try:
                draw = design.draw(rep_seed)
                fit = weighted_median(draw, job.study, design.weights(draw), job.cfg)
            except MedcurveError:
                fit = None
            if fit is None or not fit.converged:
                est_fail += 1
                continue
            losses[i] = loss_r_median(fit.median, job.truth)
            if var_truth is None:
                continue
            try:
                var_losses[i] = loss_r_variance(median_variance(draw, fit), var_truth)
            except MedcurveError:
                var_fail += 1
    return _Block(losses, var_losses, est_fail, var_fail, caught)


# A worker process is forked only when it gets at least this many replicates.
# On a 2-vCPU Xeon, forking and reaping two workers for two empty jobs took
# 3-5 ms (medians of 20). On SRSWOR and PPS replicates of the default study
# (N = 2000, n = 200, D = 48), two workers broke even at 16 replicates each;
# at 32 they were faster in 7 and 9 of 10 calls, and at 64, kept, in 10 and 8.
_MIN_REPS_PER_WORKER = 64


def monte_carlo_compare(
    study: CurvePopulation,
    plans,
    replicates: int,
    seed,
    solver_cfg: SolverConfig | None = None,
) -> MonteCarloReport:
    """Replay each plan against the study population for `replicates` replicates.

    Per replicate r of plan d the draw seed is the master seed's child
    (d, r), so a replicate's result does not depend on how many replicates
    run, in what order or in which process; a SeedSequence seed is not
    advanced, so a second call with it repeats the first. Replicate
    failures (non-convergence, estimator errors) are recorded as NaN
    losses and counted, never raised; a plan that describes no valid
    design raises before its replicates run. A replicate's variance is
    median_variance of its fit.

    On Linux, once the run gives every usable CPU _MIN_REPS_PER_WORKER
    replicates or more, one forked worker process per usable CPU runs an
    equal contiguous share of each plan's replicates; otherwise, or with one
    RuntimeWarning when the OS refuses a fork, this process runs them all
    (forking.forked_map). The report is the same either way, and the
    replicates' warnings are raised again here in replicate order.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    plans = list(plans)
    cfg = solver_cfg or SolverConfig()
    truth_cfg = SolverConfig(tol=_POPULATION_TOL, max_iter=2000, init=cfg.init)
    truth_fit = l1_median(study, cfg=truth_cfg)
    if not truth_fit.converged:
        raise MedcurveError("population median did not converge at the truth tolerance")
    truth = truth_fit.median

    pop_u = None
    designs, var_truths = [], []
    for plan in plans:
        designs.append(plan.design(study.n_units))
        var_truth = None
        if plan.population_design(study.n_units) is not None:
            if pop_u is None:
                pop_u = linearized_variables(study, truth)
            var_truth = variance_function(pop_u, designs[-1])
        var_truths.append(var_truth)
    job = _Replicates(
        study, tuple(designs), tuple(var_truths), tuple(child_seeds(seed, len(plans))), truth, cfg
    )

    # one block per plan and worker; forked_map gives worker b the b-th block of every plan
    workers = worker_count(len(plans) * replicates, _MIN_REPS_PER_WORKER)
    cuts = [replicates * b // workers for b in range(workers + 1)]
    blocks = [(d, lo, hi) for d in range(len(plans)) for lo, hi in zip(cuts, cuts[1:])]
    losses = [np.full(replicates, np.nan) for _ in plans]
    var_losses = [np.full(replicates, np.nan) for _ in plans]
    est_fail, var_fail = [0] * len(plans), [0] * len(plans)
    registry: dict = {}  # shows a repeated warning once per call under the default filter
    for (d, lo, hi), block in zip(blocks, forked_map(_run_block, job, blocks, workers)):
        losses[d][lo:hi] = block.losses
        var_losses[d][lo:hi] = block.variance_losses
        est_fail[d] += block.estimate_failures
        var_fail[d] += block.variance_failures
        for w in block.warnings:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
    outcomes = tuple(
        DesignOutcome(
            name=plan.name,
            losses=losses[d],
            variance_losses=var_losses[d] if var_truths[d] is not None else None,
            estimate_failures=est_fail[d],
            variance_failures=var_fail[d],
        )
        for d, plan in enumerate(plans)
    )
    return MonteCarloReport(outcomes=outcomes, replicates=replicates, truth=truth)
