"""Traced replay of the CLI commands' pipelines, and the per-layer metrics.

Each replay calls the same public functions of the medcurve modules that
the command calls, in the same order and with the same arguments, and
records a span around each call. Two calls are split so their layers can
be timed apart: every L1-median fit first computes its pointwise-median
start with ``curves.pointwise_median`` and then passes it to
``solver.l1_median`` as ``SolverConfig(init=Curve)``, which selects the
same starting values; and ``standard_design_suite``, ``monte_carlo_compare``,
``ht_median`` and ``poststratified_median`` are replayed from the calls
they make. The worker checks that each replay reproduces the command's
results exactly, so the spans describe the program the untraced run timed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np

from medcurve.cli import build_parser
from medcurve.curves import CurvePopulation, pointwise_median
from medcurve.dataio import load_design, read_curves, write_curve, write_sample, write_variance
from medcurve.designs import (
    as_seed,
    draw_ppswr,
    draw_srswor,
    draw_stratified,
    draw_systematic,
    pps_weights_from_curves,
)
from medcurve.errors import EstimationError, MedcurveError
from medcurve.estimators import ht_weights, poststratified_weights
from medcurve.linearize import linearized_variables
from medcurve.simulate import (
    DesignOutcome,
    DesignPlan,
    MonteCarloReport,
    SynthConfig,
    loss_r_median,
    loss_r_variance,
    synth_population,
)
from medcurve.solver import SolverConfig, l1_median, objective_value
from medcurve.stratify import (
    kmeans_strata,
    optimal_allocation,
    proportional_allocation,
    quartile_strata,
)
from medcurve.variance import variance_estimate, variance_function

from checks import SUITE

MODULES = (
    "dataio",
    "curves",
    "designs",
    "solver",
    "estimators",
    "linearize",
    "variance",
    "stratify",
    "simulate",
    "cli",
)


class Span:
    __slots__ = ("tracer", "name", "attrs", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a span's parent is the span open around it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)


def _fit(tr: Tracer, pop: CurvePopulation, cfg: SolverConfig, scope: str, weights=None):
    """l1_median with its pointwise-median start timed as its own span."""
    if cfg.init != "pointwise-median":
        raise ValueError("the replay splits only the pointwise-median start")
    with tr.span("curves.pointwise_median", scope=scope):
        start = pointwise_median(pop)
    with tr.span("solver.l1_median", scope=scope) as sp:
        fit = l1_median(pop, weights=weights, cfg=dataclasses.replace(cfg, init=start))
    sp.attrs["iterations"] = fit.iterations
    sp.attrs["converged"] = fit.converged
    return fit


def _read(tr: Tracer, path: str) -> CurvePopulation:
    with tr.span("dataio.read_curves", bytes=os.path.getsize(path)):
        return read_curves(path)


def _linearize(tr: Tracer, scope: str, curves, at, weights=None):
    with tr.span("linearize.linearized_variables", scope=scope) as sp:
        u = linearized_variables(curves, at, weights=weights)
    sp.attrs["ridged"] = u.gamma.ridged
    sp.attrs["excluded"] = len(u.gamma.excluded)
    return u


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def replay_median(tr: Tracer, args, out: str) -> dict:
    pop = _read(tr, args.input)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    fit = _fit(tr, pop, cfg, "population")
    with tr.span("dataio.write"):
        write_curve(os.path.join(out, "median.csv"), fit.median)
    with tr.span("solver.objective_value"):
        obj = objective_value(pop, fit.median)
    diagnostics = {
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "residual_norm": float(fit.residual_norm),
        "anchored": bool(fit.anchored),
        "anchor_index": None if fit.anchor_index is None else int(fit.anchor_index),
        "maybe_non_unique": bool(fit.maybe_non_unique),
        "objective": float(obj),
        "tol": float(cfg.tol),
        "max_iter": int(cfg.max_iter),
    }
    _write_json(os.path.join(out, "diagnostics.json"), diagnostics)
    return {"median": fit.median.values}


def replay_estimate(tr: Tracer, args, out: str) -> dict:
    pop = _read(tr, args.input)
    with tr.span("dataio.load_design"):
        design = load_design(args.design)
    if design["type"] != "srswor":
        raise ValueError("the replay covers the SRSWOR estimate only")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    with tr.span("designs.draw"):
        draw = draw_srswor(pop.n_units, design["n"], args.seed)
    with tr.span("estimators.estimate_fit"):
        sample = ht_weights(draw)
        with tr.span("curves.subset"):
            sub = pop.subset(sample.units)
        fit = _fit(tr, sub, cfg, "sample", weights=sample.weights)
    ids = np.asarray(pop.ids)[draw.units]
    with tr.span("dataio.write"):
        write_sample(os.path.join(out, "sample.csv"), ids, draw.pi, sample.weights)
    if not fit.converged:
        raise MedcurveError("replayed estimate did not converge")
    with tr.span("dataio.write"):
        write_curve(os.path.join(out, "median.csv"), fit.median)
    with tr.span("curves.subset"):
        sub = pop.subset(draw.units)
    u_hat = _linearize(tr, "sample", sub, fit.median, weights=sample.weights)
    if u_hat.values.shape[0] != draw.n_units:
        raise EstimationError("a sampled curve coincides with the fitted median")
    with tr.span("variance.variance_estimate"):
        var = variance_estimate(draw, u_hat)
    with tr.span("dataio.write"):
        write_variance(os.path.join(out, "variance.csv"), pop.grid, var.values)
    return {"median": fit.median.values}


def _design_suite(tr: Tracer, aux: CurvePopulation, n: int, n_strata: int, seed) -> list:
    """standard_design_suite(aux, n, n_strata, seed, solver_cfg=None), call by call."""
    fit = _fit(tr, aux, SolverConfig(tol=1e-10), "population")
    u1 = _linearize(tr, "population", aux, fit.median)
    if u1.values.shape[0] != aux.n_units:
        raise EstimationError("auxiliary-week linearized variables are missing for some units")
    with tr.span("curves.population"):
        u_pop = CurvePopulation(u1.values, aux.grid)
    with tr.span("stratify.kmeans_strata"):
        u_strata = kmeans_strata(u_pop, n_strata, seed=as_seed(seed).spawn(1)[0])
    with tr.span("stratify.quartile_strata"):
        x_strata = quartile_strata(aux.values.max(axis=1), n_strata)
    with tr.span("stratify.allocation"):
        u_prop = proportional_allocation(u_strata.sizes, n).counts
    with tr.span("stratify.allocation"):
        u_optim = optimal_allocation(u_strata, u1, n, rule="u-OPTIM").counts
    with tr.span("stratify.allocation"):
        x_prop = proportional_allocation(x_strata.sizes, n).counts
    with tr.span("stratify.allocation"):
        x_optim = optimal_allocation(x_strata, aux, n, rule="x-OPTIM").counts
    with tr.span("designs.pps_weights"):
        p = pps_weights_from_curves(aux)
    return [
        DesignPlan(name="SRSWOR", kind="srswor", n=n),
        DesignPlan(name="SYS", kind="systematic", n=n, order_key=aux.values.mean(axis=1)),
        DesignPlan(name="STRAT-u-PROP", kind="stratified", n=n, strata=u_strata, alloc=u_prop),
        DesignPlan(name="STRAT-u-OPTIM", kind="stratified", n=n, strata=u_strata, alloc=u_optim),
        DesignPlan(name="STRAT-x-PROP", kind="stratified", n=n, strata=x_strata, alloc=x_prop),
        DesignPlan(name="STRAT-x-OPTIM", kind="stratified", n=n, strata=x_strata, alloc=x_optim),
        DesignPlan(name="POST", kind="poststratified", n=n, groups=u_strata),
        DesignPlan(name="PPS", kind="ppswr", n=n, p=p),
    ]


def _draw(plan: DesignPlan, n_population: int, seed):
    """DesignPlan.draw, calling the designs function it dispatches to."""
    if plan.kind in ("srswor", "poststratified"):
        return draw_srswor(n_population, plan.n, seed)
    if plan.kind == "systematic":
        return draw_systematic(plan.order_key, plan.n, seed)
    if plan.kind == "stratified":
        return draw_stratified(plan.strata, plan.alloc, seed)
    if plan.kind == "ppswr":
        return draw_ppswr(plan.p, plan.n, seed)
    raise ValueError(f"unknown plan kind {plan.kind!r}")


def _replicate(tr: Tracer, plan, study, seed, cfg, truth, var_truth):
    """One replicate of monte_carlo_compare: (loss, variance loss, est. failed, var. failed)."""
    try:
        with tr.span("designs.draw"):
            draw = _draw(plan, study.n_units, seed)
        with tr.span("estimators.replicate_fit"):
            if plan.kind == "poststratified":
                sample = poststratified_weights(draw, plan.groups)
            else:
                sample = ht_weights(draw)
            with tr.span("curves.subset"):
                sub = study.subset(sample.units)
            fit = _fit(tr, sub, cfg, "replicate", weights=sample.weights)
        if not fit.converged:
            return np.nan, np.nan, True, False
        loss = loss_r_median(fit.median, truth)
    except MedcurveError:
        return np.nan, np.nan, True, False
    if var_truth is None:
        return loss, np.nan, False, False
    try:
        with tr.span("curves.subset"):
            sub = study.subset(draw.units)
        u_hat = _linearize(tr, "replicate", sub, fit.median, weights=draw.weights)
        if u_hat.values.shape[0] != draw.n_units:
            return loss, np.nan, False, True
        with tr.span("variance.variance_estimate"):
            v_hat = variance_estimate(draw, u_hat)
        v_loss = loss_r_variance(v_hat, var_truth)
    except MedcurveError:
        return loss, np.nan, False, True
    return loss, v_loss, False, False


def _monte_carlo(tr: Tracer, study, plans, replicates: int, seed, cfg) -> MonteCarloReport:
    """monte_carlo_compare(study, plans, replicates, seed, cfg) on the serial path."""
    truth_fit = _fit(tr, study, SolverConfig(tol=1e-10, max_iter=2000, init=cfg.init), "truth")
    if not truth_fit.converged:
        raise MedcurveError("population median did not converge at the truth tolerance")
    truth = truth_fit.median
    var_truths, pop_u = [], None
    for plan in plans:
        design = plan.population_design(study.n_units)
        if design is None:
            var_truths.append(None)
            continue
        if pop_u is None:
            pop_u = _linearize(tr, "population", study, truth)
            if pop_u.values.shape[0] != study.n_units:
                raise EstimationError("some units coincide with the population median")
        with tr.span("variance.variance_function"):
            var_truths.append(variance_function(pop_u, design))

    rep_seeds = [ds.spawn(replicates) for ds in as_seed(seed).spawn(len(plans))]
    losses = np.full((len(plans), replicates), np.nan)
    var_losses = np.full((len(plans), replicates), np.nan)
    est_fail = np.zeros(len(plans), dtype=int)
    var_fail = np.zeros(len(plans), dtype=int)
    for d, plan in enumerate(plans):
        for r in range(replicates):
            with tr.span("simulate.replicate", design=plan.name) as sp:
                loss, v_loss, e_failed, v_failed = _replicate(
                    tr, plan, study, rep_seeds[d][r], cfg, truth, var_truths[d]
                )
            sp.attrs["estimate_failed"], sp.attrs["variance_failed"] = e_failed, v_failed
            losses[d, r], var_losses[d, r] = loss, v_loss
            est_fail[d] += e_failed
            var_fail[d] += v_failed
    outcomes = tuple(
        DesignOutcome(
            name=plan.name,
            losses=losses[d],
            variance_losses=var_losses[d] if var_truths[d] is not None else None,
            estimate_failures=int(est_fail[d]),
            variance_failures=int(var_fail[d]),
        )
        for d, plan in enumerate(plans)
    )
    return MonteCarloReport(outcomes=outcomes, replicates=replicates, truth=truth)


def replay_simulate(tr: Tracer, args, out: str) -> dict:
    with open(args.input[0], "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if "scale_groups" in raw:
        raw["scale_groups"] = tuple(raw["scale_groups"])
    with tr.span("simulate.synth_population"):
        panel = synth_population(SynthConfig(**raw))
    with open(args.design, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    n_strata = spec.get("n_strata") or args.H
    include = spec.get("include", list(SUITE))
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    with tr.span("simulate.standard_design_suite"):
        plans = _design_suite(tr, panel.aux, spec["n"], n_strata, args.seed)
    plans = [p for p in plans if p.name in include]
    with tr.span("simulate.monte_carlo_compare"):
        report = _monte_carlo(tr, panel.study, plans, args.reps, args.seed, cfg)
    payload = report.summary()
    payload["seed"] = args.seed
    payload["n"] = spec["n"]
    _write_json(os.path.join(out, "report.json"), payload)
    with open(os.path.join(out, "losses.csv"), "w", encoding="utf-8") as fh:
        fh.write("design,replicate,loss,variance_loss\n")
        for o in report.outcomes:
            for r in range(report.replicates):
                vloss = "" if o.variance_losses is None else "%.12g" % o.variance_losses[r]
                fh.write(f"{o.name},{r},{'%.12g' % o.losses[r]},{vloss}\n")
    return {
        "losses": np.stack([o.losses for o in report.outcomes]),
        "truth": report.truth.values,
    }


REPLAYS = {
    "median": replay_median,
    "estimate": replay_estimate,
    "simulate": replay_simulate,
}


def replay(tr: Tracer, argv: list, out: str) -> dict:
    """Replay one CLI invocation (argv as passed to medcurve.cli.main)."""
    os.makedirs(out, exist_ok=True)
    with tr.span("cli." + argv[0]):
        args = build_parser().parse_args(argv)
        return REPLAYS[argv[0]](tr, args, out)


# ---------------------------------------------------------------- metrics


def _durations(tr: Tracer, name: str, **match) -> np.ndarray:
    return np.array(
        [
            s.duration
            for s in tr.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        ]
    )


def _quantiles(prefix: str, seconds: np.ndarray, out: dict) -> None:
    """Median and p99 in ms, with the sample count.

    The p99 has at least ten samples beyond it only from 1000 samples up;
    on workloads where a layer runs fewer times it is the plain percentile.
    """
    ms = seconds * 1e3
    out[prefix + ".p50"] = float(np.median(ms)) if ms.size else 0.0
    out[prefix + ".p99"] = float(np.percentile(ms, 99)) if ms.size else 0.0
    out[prefix + ".count"] = int(ms.size)


def self_times(tr: Tracer) -> dict:
    """Seconds per module: each span's duration minus its children's."""
    child = {}
    for s in tr.spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
    out = {m: 0.0 for m in MODULES}
    for s in tr.spans:
        out[s.name.split(".", 1)[0]] += s.duration - child.get(id(s), 0.0)
    return out


def layer_metrics(tr: Tracer) -> dict:
    m: dict = {}
    reads = [s for s in tr.spans if s.name == "dataio.read_curves"]
    read_s = np.array([s.duration for s in reads])
    m["dataio.read_curves_s"] = float(np.median(read_s)) if reads else 0.0
    m["dataio.read_mb_per_s"] = (
        float(np.median([s.attrs["bytes"] / 1e6 / s.duration for s in reads])) if reads else 0.0
    )
    m["dataio.write_s"] = float(_durations(tr, "dataio.write").sum())

    m["curves.pointwise_median_s"] = float(
        _durations(tr, "curves.pointwise_median", scope="population").sum()
    )

    fits = [s for s in tr.spans if s.name == "solver.l1_median" and s.attrs["scope"] == "population"]
    fit_s = float(sum(s.duration for s in fits))
    iterations = int(sum(s.attrs["iterations"] for s in fits))
    m["solver.l1_median_s"] = fit_s
    m["solver.iterations"] = iterations
    m["solver.iter_ms"] = 1e3 * fit_s / iterations if iterations else 0.0
    m["solver.truth_s"] = float(_durations(tr, "solver.l1_median", scope="truth").sum())
    m["solver.nonconverged"] = sum(
        1 for s in tr.spans if s.name == "solver.l1_median" and not s.attrs["converged"]
    )

    rep_fit = _durations(tr, "estimators.replicate_fit")
    _quantiles("estimators.replicate_fit_ms", rep_fit, m)
    m["estimators.replicate_fit_s"] = float(rep_fit.sum())
    m["estimators.estimate_fit_s"] = float(_durations(tr, "estimators.estimate_fit").sum())

    _quantiles("designs.draw_ms", _durations(tr, "designs.draw"), m)
    m["designs.pps_weights_s"] = float(_durations(tr, "designs.pps_weights").sum())

    lin = [s for s in tr.spans if s.name == "linearize.linearized_variables"]
    m["linearize.linearized_variables_s"] = float(
        _durations(tr, "linearize.linearized_variables", scope="population").sum()
    )
    m["linearize.replicate_total_s"] = float(
        _durations(tr, "linearize.linearized_variables", scope="replicate").sum()
    )
    m["linearize.ridged"] = sum(1 for s in lin if s.attrs["ridged"])
    m["linearize.excluded"] = sum(s.attrs["excluded"] for s in lin)

    m["variance.variance_estimate_s"] = float(_durations(tr, "variance.variance_estimate").sum())
    m["variance.variance_function_s"] = float(_durations(tr, "variance.variance_function").sum())

    for name in ("kmeans_strata", "allocation", "quartile_strata"):
        m[f"stratify.{name}_s"] = float(_durations(tr, "stratify." + name).sum())

    for name in ("synth_population", "standard_design_suite", "monte_carlo_compare"):
        m[f"simulate.{name}_s"] = float(_durations(tr, "simulate." + name).sum())
    _quantiles("simulate.replicate_ms", _durations(tr, "simulate.replicate"), m)
    for design in SUITE:
        per = _durations(tr, "simulate.replicate", design=design)
        m["simulate.replicate_ms." + design] = float(np.median(per) * 1e3) if per.size else 0.0

    for kind in ("estimate", "variance"):
        m[f"simulate.{kind}_failures"] = sum(
            1 for s in tr.spans if s.name == "simulate.replicate" and s.attrs[kind + "_failed"]
        )

    for module, seconds in self_times(tr).items():
        m[module + ".self_s"] = seconds
    m["trace.spans"] = len(tr.spans)
    return m
