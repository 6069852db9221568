"""Command-line surface.

Four subcommands: median (fit the whole-file median), estimate (draw a
sample under a design JSON and estimate median + variance), simulate
(Monte Carlo design comparison on a synthetic or supplied population),
and stratify (cluster a population and compute allocations).

Every stochastic command requires an explicit --seed; there is no
implicit random seed. Outputs are plain CSV (12 significant digits) and
JSON (sorted keys), byte-identical across reruns with the same inputs,
flags, and seed. Exit codes: 0 success, 2 input error, 3 solver failure,
4 design error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .curves import CurvePopulation
from .dataio import (
    load_design,
    load_json,
    load_simulation_designs,
    read_curves,
    strata_count,
    write_curve,
    write_losses,
    write_sample,
    write_variance,
)
from .designs import StrataSpec, pps_weights_from_curves
from .errors import (
    DesignError,
    EstimationError,
    GridMismatchError,
    LinearizationError,
    MedcurveError,
    ParseError,
)
from .estimators import ht_median, poststratified_median
from .linearize import linearized_variables
from .simulate import (
    SUITE_NAMES,
    DesignPlan,
    SynthConfig,
    monte_carlo_compare,
    standard_design_suite,
    synth_population,
)
from .solver import SolverConfig, l1_median, objective_value
from .stratify import kmeans_strata, optimal_allocation, proportional_allocation, quartile_strata
from .variance import (
    hansen_hurwitz_variance,
    poststratified_variance_estimate,
    variance_estimate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DESIGN = 4

class _SolverFailure(MedcurveError):
    """Internal marker: the iteration stopped without meeting the tolerance."""


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ParseError("this command draws samples; pass an explicit --seed")
    return args.seed


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _read_weights(path: str, n: int) -> np.ndarray:
    """One positive weight per line, aligned with the population rows."""
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                w = float(text)
            except ValueError:
                raise ParseError(f"weight {text!r} is not a number", path=path, line=lineno)
            if not np.isfinite(w) or w <= 0:
                raise ParseError("weights must be positive and finite", path=path, line=lineno)
            weights.append(w)
    if len(weights) != n:
        raise ParseError(f"expected {n} weights, found {len(weights)}", path=path)
    return np.asarray(weights)


def _diagnostics(fit, cfg: SolverConfig, objective: float) -> dict:
    return {
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "residual_norm": float(fit.residual_norm),
        "anchored": bool(fit.anchored),
        "anchor_index": None if fit.anchor_index is None else int(fit.anchor_index),
        "maybe_non_unique": bool(fit.maybe_non_unique),
        "objective": float(objective),
        "tol": float(cfg.tol),
        "max_iter": int(cfg.max_iter),
    }


def cmd_median(args) -> int:
    pop = read_curves(args.input)
    weights = _read_weights(args.weights, pop.n_units) if args.weights else None
    cfg = _solver_config(args)
    fit = l1_median(pop, weights=weights, cfg=cfg)
    write_curve(_out_path(args, "median.csv"), fit.median)
    obj = objective_value(pop, fit.median, weights=weights)
    _write_json(_out_path(args, "diagnostics.json"), _diagnostics(fit, cfg, obj))
    if not fit.converged:
        print(
            f"solver stopped after {fit.iterations} iterations without "
            f"meeting tol={cfg.tol:g}; diagnostics written",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _design_strata(design: dict, n_population: int) -> StrataSpec:
    raw = design.get("strata")
    if raw is None:
        raise DesignError(f"design type {design['type']!r} needs per-unit 'strata' labels")
    labels = np.asarray(raw)
    if labels.shape != (n_population,):
        raise DesignError(
            f"'strata' must list one label per population unit ({n_population}), got {labels.size}"
        )
    return StrataSpec.from_labels(labels)


def _order_key(pop: CurvePopulation, design: dict) -> np.ndarray:
    key = design.get("order_key_column", "mean")
    if key == "mean":
        return pop.values.mean(axis=1)
    if key == "max":
        return pop.values.max(axis=1)
    try:
        col = int(key)
    except ValueError:
        raise DesignError(
            f"order_key_column must be 'mean', 'max', or a grid point index, got {key!r}"
        )
    if not 0 <= col < pop.grid.n_points:
        raise DesignError(f"order_key_column index {col} outside grid of {pop.grid.n_points}")
    return pop.values[:, col]


def _pps_probabilities(pop: CurvePopulation, design: dict) -> np.ndarray:
    src = design.get("p_source", "mean")
    if src == "mean":
        return pps_weights_from_curves(pop)
    sizes = np.asarray(src, dtype=float)
    if sizes.shape != (pop.n_units,):
        raise DesignError(f"'p_source' must list one size per unit ({pop.n_units})")
    if np.any(sizes <= 0) or not np.all(np.isfinite(sizes)):
        raise DesignError("'p_source' sizes must be positive and finite")
    return sizes / sizes.sum()


def _design_plan(pop: CurvePopulation, design: dict) -> DesignPlan:
    """The validated design JSON resolved against the population it samples."""
    kind, n = design["type"], design["n"]
    fields = {}
    if kind == "systematic":
        fields["order_key"] = _order_key(pop, design)
    elif kind == "ppswr":
        fields["p"] = _pps_probabilities(pop, design)
    elif kind == "poststratified":
        fields["groups"] = _design_strata(design, pop.n_units)
    elif kind == "stratified":
        strata = fields["strata"] = _design_strata(design, pop.n_units)
        alloc = design.get("allocation")
        if alloc is None:
            alloc = proportional_allocation(strata.sizes, n).counts
        else:
            alloc = np.asarray(alloc)
            if alloc.size != strata.n_strata or alloc.sum() != n:
                raise DesignError(
                    f"'allocation' must give {strata.n_strata} counts summing to {n}"
                )
        fields["alloc"] = alloc
    return DesignPlan(name=kind, kind=kind, n=n, **fields)


def cmd_estimate(args) -> int:
    pop = read_curves(args.input)
    design = load_design(args.design)
    seed = args.seed if args.seed is not None else design.get("seed")
    if seed is None:
        raise ParseError("estimation draws a sample; pass --seed (or a 'seed' in the design)")
    cfg = _solver_config(args)

    plan = _design_plan(pop, design)
    draw = plan.draw(pop.n_units, seed)
    sample = plan.weights(draw)
    # called by name, not through plan.estimate: perfbench's traced mode
    # patches cli.ht_median to capture the fit its replay must reproduce
    if plan.kind == "poststratified":
        fit = poststratified_median(draw, pop, plan.groups, cfg=cfg)
    else:
        fit = ht_median(draw, pop, cfg=cfg)

    ids = np.asarray(pop.ids)[draw.units]
    write_sample(_out_path(args, "sample.csv"), ids, draw.pi, sample.weights)
    if not fit.converged:
        print(
            f"solver stopped after {fit.iterations} iterations without "
            f"meeting tol={cfg.tol:g}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    write_curve(_out_path(args, "median.csv"), fit.median)

    sub = pop.subset(draw.units)
    u_hat = linearized_variables(sub, fit.median, weights=sample.weights)
    if u_hat.values.shape[0] != draw.n_units:
        raise EstimationError(
            "a sampled curve coincides with the fitted median; the variance "
            "formula is undefined for this draw"
        )
    if plan.kind == "ppswr":
        var = hansen_hurwitz_variance(draw, u_hat)
    elif plan.kind == "poststratified":
        var = poststratified_variance_estimate(draw, u_hat, plan.groups.labels, plan.groups.sizes)
    else:
        var = variance_estimate(draw, u_hat)
    write_variance(_out_path(args, "variance.csv"), pop.grid, var.values)
    return EXIT_OK


_SYNTH_FIELDS = (
    "n_units",
    "points_per_week",
    "points_per_day",
    "weeks",
    "day_amplitude",
    "weekend_contrast",
    "scale_groups",
    "scale_sigma",
    "shape_sigma",
    "noise_sd",
    "outlier_frac",
    "outlier_mag",
    "seed",
)


def _load_synth_config(path: str) -> SynthConfig:
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParseError("synthetic config must be a JSON object", path=path)
    extra = set(raw) - set(_SYNTH_FIELDS)
    if extra:
        raise ParseError(f"unknown synthetic config field(s) {sorted(extra)}", path=path)
    if "scale_groups" in raw:
        raw["scale_groups"] = tuple(raw["scale_groups"])
    try:
        return SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad synthetic config: {exc}", path=path) from exc


def cmd_simulate(args) -> int:
    seed = _require_seed(args)
    if len(args.input) == 1:
        synth = _load_synth_config(args.input[0])
        pop = synth_population(synth)
        aux, study = pop.aux, pop.study
    elif len(args.input) == 2:
        aux = read_curves(args.input[0])
        study = read_curves(args.input[1])
        if not aux.grid.matches(study.grid):
            raise GridMismatchError("auxiliary and study populations must share one grid")
        if aux.n_units != study.n_units:
            raise ParseError("auxiliary and study populations must cover the same units")
    else:
        raise ParseError("--input takes one synthetic config or an aux/study CSV pair")

    spec = load_simulation_designs(args.design, SUITE_NAMES)
    n_strata = spec["n_strata"] if spec["n_strata"] is not None else strata_count(args.H, "--H")
    cfg = _solver_config(args)
    plans = standard_design_suite(aux, n=spec["n"], n_strata=n_strata, seed=seed, solver_cfg=None)
    plans = [p for p in plans if p.name in spec["include"]]

    report = monte_carlo_compare(study, plans, replicates=args.reps, seed=seed, solver_cfg=cfg)

    payload = report.summary()
    payload["seed"] = seed
    payload["n"] = spec["n"]
    _write_json(_out_path(args, "report.json"), payload)
    write_losses(_out_path(args, "losses.csv"), report)
    return EXIT_OK


def cmd_stratify(args) -> int:
    strata_count(args.H, "--H")
    pop = read_curves(args.input)

    if args.on == "scalar-max":
        strata = quartile_strata(pop.values.max(axis=1), args.H)
        alloc_var, alloc_grid, rule = pop.values, pop.grid, "x-OPTIM"
    elif args.on == "raw":
        seed = _require_seed(args)
        strata = kmeans_strata(pop, args.H, seed=seed)
        alloc_var, alloc_grid, rule = pop.values, pop.grid, "x-OPTIM"
    elif args.on == "linearized":
        seed = _require_seed(args)
        fit = l1_median(pop, cfg=SolverConfig(tol=args.tol, max_iter=args.max_iter))
        if not fit.converged:
            raise _SolverFailure("population median did not converge; cannot linearize")
        u = linearized_variables(pop, fit.median)
        if u.values.shape[0] != pop.n_units:
            raise EstimationError(
                "some curves coincide with the median; their linearized "
                "variables are undefined, so cluster on raw curves instead"
            )
        strata = kmeans_strata(CurvePopulation(u.values, pop.grid), args.H, seed=seed)
        alloc_var, alloc_grid, rule = u.values, pop.grid, "u-OPTIM"
    else:
        raise ParseError(f"unknown stratification variable {args.on!r}")

    with open(_out_path(args, "strata.csv"), "w", encoding="utf-8") as fh:
        fh.write("unit_id,stratum\n")
        for uid, label in zip(pop.ids, strata.labels):
            fh.write(f"{uid},{label + 1}\n")

    payload = {
        "on": args.on,
        "n_strata": int(strata.n_strata),
        "sizes": [int(s) for s in strata.sizes],
    }
    if args.alloc is not None:
        prop = proportional_allocation(strata.sizes, args.alloc)
        optim = optimal_allocation(strata, alloc_var, args.alloc, grid=alloc_grid, rule=rule)
        payload["n"] = args.alloc
        payload["allocations"] = {
            "PROP": [int(c) for c in prop.counts],
            rule: [int(c) for c in optim.counts],
        }
        if optim.fallback:
            payload["allocations"]["note"] = "zero within-stratum variance; fell back to PROP"
    _write_json(_out_path(args, "allocations.json"), payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medcurve",
        description="Estimate the L1-median of a population of curves from probability samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_nargs=None):
        if input_nargs:
            p.add_argument("--input", required=True, nargs=input_nargs, help="curve CSV input")
        else:
            p.add_argument("--input", required=True, help="curve CSV input")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=500, help="solver iteration cap")

    p_median = sub.add_parser("median", help="fit the median of every curve in the file")
    common(p_median)
    p_median.add_argument("--weights", default=None, help="optional file, one weight per line")
    p_median.set_defaults(func=cmd_median)

    p_est = sub.add_parser("estimate", help="draw a sample and estimate median and variance")
    common(p_est)
    p_est.add_argument("--design", required=True, help="design description JSON")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo design comparison")
    common(p_sim, input_nargs="+")
    p_sim.add_argument("--design", required=True, help="simulation designs JSON")
    p_sim.add_argument("--reps", type=int, default=100, help="Monte Carlo replicates")
    p_sim.add_argument("--H", type=int, default=4, help="strata count for the design suite")
    p_sim.set_defaults(func=cmd_simulate)

    p_str = sub.add_parser("stratify", help="cluster a population into strata")
    common(p_str)
    p_str.add_argument(
        "--on",
        choices=("linearized", "raw", "scalar-max"),
        default="linearized",
        help="clustering variable",
    )
    p_str.add_argument("--H", type=int, default=4, help="strata count")
    p_str.add_argument("--alloc", type=int, default=None, help="sample size to allocate")
    p_str.set_defaults(func=cmd_stratify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (_SolverFailure, LinearizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DesignError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except MedcurveError as exc:
        # remaining library failures are iteration problems (truth fit etc.)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
