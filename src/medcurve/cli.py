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
import dataclasses
import io
import json
import os
import sys
import warnings

import numpy as np

from .dataio import (
    design_from_json,
    load_design,
    load_json,
    load_simulation_designs,
    read_curves,
    read_text,
    strata_count,
    write_curve,
    write_losses,
    write_sample,
    write_variance,
)
from .errors import (
    DesignError,
    EstimationError,
    GridMismatchError,
    MedcurveError,
    ParseError,
)
from .estimators import ht_median, weighted_median
from .simulate import (
    SUITE_NAMES,
    SynthConfig,
    linearized_at_median,
    monte_carlo_compare,
    standard_design_suite,
    synth_population,
)
from .solver import SolverConfig, l1_median
from .stratify import kmeans_strata, optimal_allocation, proportional_allocation, quartile_strata
from .variance import median_variance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DESIGN = 4

# main's exit code for an error: the first entry whose types match decides
_EXIT_CODES = (
    ((ParseError, GridMismatchError, OSError, ValueError), EXIT_INPUT),
    ((DesignError, EstimationError), EXIT_DESIGN),
    # remaining library failures are solver problems (unconverged fit, singular G)
    (MedcurveError, EXIT_SOLVER),
)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ParseError("this command draws samples; pass an explicit --seed")
    if args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, not {args.seed}")
    return args.seed


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _read_weights(path: str, n: int) -> np.ndarray:
    """One positive weight per line, aligned with the population rows."""
    weights = []
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
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


def _diagnostics(fit, cfg: SolverConfig) -> dict:
    return {
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "residual_norm": float(fit.residual_norm),
        "anchored": bool(fit.anchored),
        "anchor_index": None if fit.anchor_index is None else int(fit.anchor_index),
        "maybe_non_unique": bool(fit.maybe_non_unique),
        "objective": float(fit.objective),
        "tol": float(cfg.tol),
        "max_iter": int(cfg.max_iter),
    }


def cmd_median(args) -> int:
    pop = read_curves(args.input)
    weights = _read_weights(args.weights, pop.n_units) if args.weights else None
    cfg = _solver_config(args)
    fit = l1_median(pop, weights=weights, cfg=cfg)
    write_curve(_out_path(args, "median.csv"), fit.median)
    _write_json(_out_path(args, "diagnostics.json"), _diagnostics(fit, cfg))
    if not fit.converged:
        print(
            f"solver stopped after {fit.iterations} iterations without "
            f"meeting tol={cfg.tol:g}; diagnostics written",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def cmd_estimate(args) -> int:
    pop = read_curves(args.input)
    spec = load_design(args.design)
    design = design_from_json(spec, pop)
    seed = spec.get("seed") if args.seed is None else _require_seed(args)
    if seed is None:
        raise ParseError("estimation draws a sample; pass --seed (or a 'seed' in the design)")
    cfg = _solver_config(args)

    draw = design.draw(seed)
    # ht_median is called by name: perfbench's traced mode patches
    # cli.ht_median to capture the fit its replay must reproduce
    if getattr(design, "groups", None) is None:
        fit = ht_median(draw, pop, cfg=cfg)
    else:
        fit = weighted_median(draw, pop, design.weights(draw), cfg)

    write_sample(_out_path(args, "sample.csv"), fit.curves.ids, draw.pi, fit.weights)
    if not fit.converged:
        print(
            f"solver stopped after {fit.iterations} iterations without "
            f"meeting tol={cfg.tol:g}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    write_curve(_out_path(args, "median.csv"), fit.median)
    var = median_variance(draw, fit)
    write_variance(_out_path(args, "variance.csv"), pop.grid, var.values)
    if var.approximation is not None:
        print(f"note: variance.csv holds an approximation ({var.approximation})", file=sys.stderr)
    return EXIT_OK


def _load_synth_config(path: str) -> SynthConfig:
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParseError("synthetic config must be a JSON object", path=path)
    extra = set(raw) - {f.name for f in dataclasses.fields(SynthConfig)}
    if extra:
        raise ParseError(f"unknown synthetic config field(s) {sorted(extra)}", path=path)
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
        if not np.array_equal(aux.ids, study.ids):
            raise ParseError("auxiliary and study populations must list the same unit ids in order")
    else:
        raise ParseError("--input takes one synthetic config or an aux/study CSV pair")

    spec = load_simulation_designs(args.design, SUITE_NAMES)
    n_strata = spec["n_strata"] if spec["n_strata"] is not None else strata_count(args.H, "--H")
    cfg = _solver_config(args)
    plans = standard_design_suite(aux, n=spec["n"], n_strata=n_strata, seed=seed)
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
        alloc_var, rule = pop, "x-OPTIM"
    elif args.on == "raw":
        seed = _require_seed(args)
        strata = kmeans_strata(pop, args.H, seed=seed)
        alloc_var, rule = pop, "x-OPTIM"
    elif args.on == "linearized":
        seed = _require_seed(args)
        u = linearized_at_median(pop, _solver_config(args), "population")
        strata = kmeans_strata(u, args.H, seed=seed)
        alloc_var, rule = u, "u-OPTIM"
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
        optim = optimal_allocation(strata, alloc_var, args.alloc, rule=rule)
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
    # library warnings become one note line each, printed before any error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), None
        except (OSError, ValueError, MedcurveError) as exc:
            code, error = next(c for types, c in _EXIT_CODES if isinstance(exc, types)), exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"note: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
