"""Acceptance suite: one test per release criterion, run in order.

Each test prints a single PASS line with the measured quantities once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Statistical criteria use pinned seeds; the margins were checked
to be wide (each quantity sits far from its threshold), so the pins are a
reproducibility device, not a cherry-pick.
"""

import numpy as np
import pytest
from numpy.random import SeedSequence

from medcurve import (
    CurvePopulation,
    SolverConfig,
    SynthConfig,
    TimeGrid,
    draw_ppswr,
    draw_srswor,
    draw_stratified,
    draw_systematic,
    ht_median,
    l1_median,
    linearized_variables,
    monte_carlo_compare,
    objective_value,
    pointwise_median,
    proportional_allocation,
    standard_design_suite,
    synth_population,
    variance_estimate,
    variance_function,
)
from medcurve.designs import Srswor, StrataSpec, Stratified
from oracles import (
    double_sum_variance,
    enumerated_pi_kl,
    on_grid,
    score,
    symmetrized,
    tensor_gamma,
)

TIGHT = SolverConfig(tol=1e-12, max_iter=5000)


def _report(n: int, label: str, detail: str):
    print(f"\ncriterion {n} ({label}): PASS - {detail}")


def _random_population(rng, n_units, n_points, spread=1.0):
    values = spread * rng.normal(size=(n_units, n_points)) + rng.normal(size=n_points)
    return CurvePopulation(values, TimeGrid.uniform(n_points))


# --------------------------------------------------------------------------
# shared desk-scale population and Monte Carlo runs
# --------------------------------------------------------------------------

N_POP, N_SAMPLE, REPLICATES = 2000, 200, 300


@pytest.fixture(scope="module")
def desk_population():
    cfg = SynthConfig(
        n_units=N_POP, points_per_week=48, points_per_day=48, weeks=2, seed=101
    )
    return synth_population(cfg)


@pytest.fixture(scope="module")
def srswor_replicates(desk_population):
    """300 SRSWOR estimates of the study-week median, with their variance
    estimates and the matching linear-expansion errors (shared by the
    calibration and linearization-validity criteria)."""
    study = desk_population.study
    truth = l1_median(study, cfg=SolverConfig(tol=1e-10, max_iter=2000))
    assert truth.converged
    u_pop = linearized_variables(study, truth.median)
    assert u_pop.values.shape[0] == N_POP

    mid = study.grid.n_points // 2
    seeds = SeedSequence(2024).spawn(REPLICATES)
    medians = np.empty((REPLICATES, study.grid.n_points))
    vhat_integrated = np.empty(REPLICATES)
    ht_error_mid = np.empty(REPLICATES)
    for r in range(REPLICATES):
        draw = draw_srswor(N_POP, N_SAMPLE, seeds[r])
        fit = ht_median(draw, study)
        assert fit.converged
        medians[r] = fit.median.values
        u_hat = linearized_variables(
            study.subset(draw.units), fit.median, weights=draw.weights
        )
        vhat_integrated[r] = variance_estimate(draw, u_hat).values.mean()
        ht_error_mid[r] = (N_POP / N_SAMPLE) * u_pop.values[draw.units, mid].sum()
    return {
        "truth": truth.median,
        "mid": mid,
        "medians": medians,
        "vhat_integrated": vhat_integrated,
        "ht_error_mid": ht_error_mid,
    }


@pytest.fixture(scope="module")
def design_comparison(desk_population):
    """300-replicate loss comparison across the design lineup (shared by
    the design-ordering and PPS criteria)."""
    plans = standard_design_suite(desk_population.aux, n=N_SAMPLE, n_strata=4, seed=55)
    wanted = ("SRSWOR", "STRAT-u-PROP", "STRAT-x-PROP", "POST", "PPS")
    plans = [p for p in plans if p.name in wanted]
    return monte_carlo_compare(
        desk_population.study, plans, replicates=REPLICATES, seed=77
    )


# --------------------------------------------------------------------------
# 1. proportional allocation reproduces the published integer splits
# --------------------------------------------------------------------------


def test_criterion_01_proportional_allocation_exact():
    first = proportional_allocation([6767, 2420, 2503, 7212], 2000)
    assert first.counts.tolist() == [716, 256, 265, 763]
    second = proportional_allocation([4725, 4726, 4725, 4726], 2000)
    assert second.counts.tolist() == [500, 500, 500, 500]
    _report(1, "allocation", "[716,256,265,763] and [500,500,500,500], exact")


# --------------------------------------------------------------------------
# 2. solver matches a dense grid search; score residual; monotone objective
# --------------------------------------------------------------------------


def _grid_search_minimum(pop, rounds=6, width=61):
    """Zooming lattice search over the 2-point value plane. Each round
    shrinks the box to a couple of cells around the incumbent, so the
    final cell is ~1e-7 wide and the objective gap is far below 1e-4
    (the objective is convex, flat to second order at the minimum)."""
    values = pop.values
    lo = values.min(axis=0) - 1.0
    hi = values.max(axis=0) + 1.0
    best = None
    for _ in range(rounds):
        xs = np.linspace(lo[0], hi[0], width)
        ys = np.linspace(lo[1], hi[1], width)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        diffs = values[:, None, :] - points[None, :, :]
        objs = np.sqrt(0.5 * (diffs**2).sum(axis=2)).sum(axis=0)
        at = int(objs.argmin())
        best = float(objs[at])
        center = points[at]
        cell = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        lo = center - 2 * cell
        hi = center + 2 * cell
    return best


def test_criterion_02_solver_matches_grid_search():
    rng = np.random.default_rng(402)
    worst_gap = worst_residual = worst_increase = 0.0
    anchored = 0
    for _ in range(50):
        n_units = int(rng.integers(3, 21))
        pop = _random_population(rng, n_units, 2, spread=1.5)
        fit = l1_median(pop, cfg=TIGHT)
        assert fit.converged
        solver_obj = objective_value(pop, fit.median)
        grid_obj = _grid_search_minimum(pop)
        worst_gap = max(worst_gap, abs(solver_obj - grid_obj))
        assert abs(solver_obj - grid_obj) <= 1e-4
        if fit.anchored:
            # the minimum sits on a data curve: optimality is the pulled
            # residual not exceeding the anchor's unit weight
            anchored += 1
            assert max(0.0, fit.residual_norm - 1.0) <= 1e-8
        else:
            residual = float(np.sqrt((score(pop, fit.median).values**2).mean()))
            worst_residual = max(worst_residual, residual)
            assert residual <= 1e-8
        trace = np.asarray(fit.objective_trace)
        increases = np.diff(trace)
        worst_increase = max(worst_increase, float(increases.max(initial=0.0)))
        assert np.all(increases <= 1e-12 * max(trace[0], 1.0))
    _report(
        2,
        "solver",
        f"50 instances ({anchored} anchored): max |objective gap| {worst_gap:.2e}, "
        f"max score residual {worst_residual:.2e}, max objective increase "
        f"{worst_increase:.2e}",
    )


# --------------------------------------------------------------------------
# 3. equivariance under translation, positive scaling, orthogonal maps
# --------------------------------------------------------------------------


def test_criterion_03_equivariance():
    rng = np.random.default_rng(403)
    worst = {"translation": 0.0, "scaling": 0.0, "orthogonal": 0.0}
    for _ in range(20):
        pop = _random_population(rng, int(rng.integers(5, 15)), 6)
        base = l1_median(pop, cfg=TIGHT).median.values

        shift = rng.normal(size=6)
        moved = l1_median(
            CurvePopulation(pop.values + shift, pop.grid), cfg=TIGHT
        ).median.values
        worst["translation"] = max(worst["translation"], np.abs(moved - (base + shift)).max())

        s = float(rng.uniform(0.1, 3.0))
        scaled = l1_median(
            CurvePopulation(s * pop.values, pop.grid), cfg=TIGHT
        ).median.values
        worst["scaling"] = max(worst["scaling"], np.abs(scaled - s * base).max())

        # a matrix orthogonal in the usual sense is also orthogonal for the
        # uniform-grid inner product, so the median must map along with it
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        mapped = l1_median(
            CurvePopulation(pop.values @ q.T, pop.grid), cfg=TIGHT
        ).median.values
        worst["orthogonal"] = max(worst["orthogonal"], np.abs(mapped - q @ base).max())

    assert all(v <= 1e-8 for v in worst.values())
    _report(
        3,
        "equivariance",
        "20 instances: max deviation "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


# --------------------------------------------------------------------------
# 4. pushing one curve outward along its ray leaves the median in place
# --------------------------------------------------------------------------


def test_criterion_04_ray_robustness():
    rng = np.random.default_rng(404)
    pop = _random_population(rng, 15, 6)
    base = l1_median(pop, cfg=TIGHT).median.values
    worst = 0.0
    for k in range(pop.n_units):
        values = pop.values.copy()
        values[k] = base + 10.0 * (values[k] - base)
        moved = l1_median(CurvePopulation(values, pop.grid), cfg=TIGHT).median.values
        worst = max(worst, float(np.abs(moved - base).max()))
    assert worst < 1e-6
    _report(4, "ray robustness", f"15 single-curve blowups: max median shift {worst:.2e}")


# --------------------------------------------------------------------------
# 5. both matrix assemblies agree; positive semidefinite; residuals sum to 0
# --------------------------------------------------------------------------


def test_criterion_05_gamma_consistency():
    rng = np.random.default_rng(405)
    worst_entry = worst_sym = worst_eig = worst_usum = 0.0
    for _ in range(20):
        pop = _random_population(rng, int(rng.integers(6, 20)), int(rng.integers(3, 7)))
        at = np.median(pop.values, axis=0)
        integral = linearized_variables(pop, at).gamma
        tensor = tensor_gamma(pop, at)
        worst_entry = max(worst_entry, np.abs(integral.matrix - tensor).max())
        assert np.abs(integral.matrix - tensor).max() <= 1e-10

        sym = symmetrized(integral)
        worst_sym = max(worst_sym, np.abs(sym - sym.T).max())
        assert np.abs(sym - sym.T).max() <= 1e-10
        floor = -1e-10 * np.trace(integral.matrix)
        worst_eig = min(worst_eig, integral.min_eigenvalue())
        assert integral.min_eigenvalue() >= floor

        fit = l1_median(pop, cfg=TIGHT)
        u = linearized_variables(pop, fit.median)
        if u.values.shape[0] == pop.n_units:
            usum = float(np.abs(u.values.sum(axis=0)).max())
            worst_usum = max(worst_usum, usum)
            assert usum <= 1e-8
    _report(
        5,
        "linearization matrix",
        f"20 instances: max assembly gap {worst_entry:.2e}, max asymmetry "
        f"{worst_sym:.2e}, min eigenvalue {worst_eig:.2e}, max |sum of u| {worst_usum:.2e}",
    )


# --------------------------------------------------------------------------
# 6. the double-sum variance equals the closed forms on tiny frames
# --------------------------------------------------------------------------


def test_criterion_06_variance_cross_checks():
    rng = np.random.default_rng(406)
    u = rng.normal(size=(6, 3))
    grid = TimeGrid.uniform(3)
    worst = 0.0

    design = Srswor(6, 3)
    pi = np.full(6, 0.5)
    pi_kl = enumerated_pi_kl(design)
    gap = np.abs(
        double_sum_variance(u, pi, pi_kl)
        - variance_function(on_grid(u, grid), design).values
    ).max()
    worst = max(worst, gap)
    assert gap <= 1e-10

    labels = np.array([0, 0, 0, 1, 1, 1])
    strat = Stratified(StrataSpec(labels), np.array([1, 2]))
    pi_s = np.where(labels == 0, 1.0 / 3.0, 2.0 / 3.0)
    gap = np.abs(
        double_sum_variance(u, pi_s, enumerated_pi_kl(strat))
        - variance_function(on_grid(u, grid), strat).values
    ).max()
    worst = max(worst, gap)
    assert gap <= 1e-10

    # estimator side on one fixed SRSWOR draw
    draw = draw_srswor(6, 3, 77)
    u_hat = u[draw.units]
    full = enumerated_pi_kl(design)
    idx = np.ix_(draw.units, draw.units)
    gap = np.abs(
        double_sum_variance(u_hat, draw.pi, full[idx], sampled=True)
        - variance_estimate(draw, on_grid(u_hat, grid)).values
    ).max()
    worst = max(worst, gap)
    assert gap <= 1e-10
    _report(6, "variance cross-checks", f"max closed-vs-double-sum gap {worst:.2e}")


# --------------------------------------------------------------------------
# 7. the variance estimator is calibrated against the Monte Carlo truth
# --------------------------------------------------------------------------


def test_criterion_07_variance_calibration(srswor_replicates):
    emp_var = srswor_replicates["medians"].var(axis=0, ddof=1)
    ratio = srswor_replicates["vhat_integrated"].mean() / emp_var.mean()
    assert abs(ratio - 1.0) <= 0.2
    _report(
        7,
        "variance calibration",
        f"integrated average estimate / empirical variance = {ratio:.3f} "
        f"(N={N_POP}, n={N_SAMPLE}, {REPLICATES} replicates)",
    )


# --------------------------------------------------------------------------
# 8. stratifying on the linearized variables dominates the design ordering
# --------------------------------------------------------------------------


def test_criterion_08_design_ordering(design_comparison):
    means = {
        o.name: o.loss_summary()["mean"] for o in design_comparison.outcomes
    }
    assert means["STRAT-u-PROP"] <= 0.7 * means["SRSWOR"]
    assert abs(means["POST"] / means["STRAT-u-PROP"] - 1.0) <= 0.1
    assert means["STRAT-u-PROP"] <= means["STRAT-x-PROP"] <= means["SRSWOR"]
    _report(
        8,
        "design ordering",
        "mean losses "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(means.items()))
        + f"; STRAT-u/SRSWOR = {means['STRAT-u-PROP'] / means['SRSWOR']:.3f}, "
        f"POST/STRAT-u = {means['POST'] / means['STRAT-u-PROP']:.3f}",
    )


# --------------------------------------------------------------------------
# 9. the estimator error tracks the linear expansion term
# --------------------------------------------------------------------------


def test_criterion_09_linearization_validity(srswor_replicates):
    mid = srswor_replicates["mid"]
    dev = srswor_replicates["medians"][:, mid] - srswor_replicates["truth"].values[mid]
    corr = float(np.corrcoef(dev, srswor_replicates["ht_error_mid"])[0, 1])
    assert corr > 0.95
    _report(
        9,
        "linearization validity",
        f"mid-grid correlation between estimator error and expansion term = {corr:.4f}",
    )


# --------------------------------------------------------------------------
# 10. appending a second week: pointwise median blind, spatial median not
# --------------------------------------------------------------------------


def test_criterion_10_two_week_contrast():
    cfg = SynthConfig(
        n_units=60, points_per_week=14, points_per_day=2, weeks=2, seed=410
    )
    pop = synth_population(cfg)
    d = pop.aux.grid.n_points
    # both weeks end to end on one grid twice as long, same weight per point
    joined = CurvePopulation(
        np.hstack([pop.aux.values, pop.study.values]),
        TimeGrid.uniform(2 * d, horizon=2 * pop.aux.grid.horizon),
    )

    pw_one = pointwise_median(pop.aux).values
    pw_both = pointwise_median(joined).values[:d]
    assert np.array_equal(pw_one, pw_both)

    sp_one = l1_median(pop.aux, cfg=SolverConfig(tol=1e-10, max_iter=2000)).median.values
    sp_both = l1_median(joined, cfg=SolverConfig(tol=1e-10, max_iter=2000)).median.values[:d]
    sup = float(np.abs(sp_one - sp_both).max())
    assert sup > 1e-6
    _report(
        10,
        "two-week contrast",
        f"pointwise week-1 coordinates bitwise invariant; spatial sup shift {sup:.2e}",
    )


# --------------------------------------------------------------------------
# 11. empirical inclusion frequencies match the stated probabilities
# --------------------------------------------------------------------------


def test_criterion_11_inclusion_audit():
    reps = 50_000
    details = []

    def audit(name, n_population, pi_target, drawer, seed, fixed_size):
        counts = np.zeros(n_population)
        for child in SeedSequence(seed).spawn(reps):
            counts[drawer(child).units] += 1.0
        freq = counts / reps
        sigma = np.sqrt(pi_target * (1.0 - pi_target) / reps)
        z = np.abs(freq - pi_target) / np.where(sigma > 0, sigma, 1.0)
        assert z.max() <= 3.0, f"{name}: worst z-score {z.max():.2f}"
        if fixed_size is not None:
            assert pi_target.sum() == fixed_size
        details.append(f"{name} max z {z.max():.2f}")

    audit(
        "srswor(8,4)",
        8,
        np.full(8, 0.5),
        lambda s: draw_srswor(8, 4, s),
        4111,
        fixed_size=4.0,
    )
    order_key = np.random.default_rng(4112).normal(size=8)
    audit(
        "systematic(8,4)",
        8,
        np.full(8, 0.5),
        lambda s: draw_systematic(order_key, 4, s),
        4113,
        fixed_size=4.0,
    )
    strata = StrataSpec(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    alloc = np.array([1, 2])
    pi_strat = np.where(strata.labels == 0, 0.25, 0.5)
    audit(
        "stratified(4+4,[1,2])",
        8,
        pi_strat,
        lambda s: draw_stratified(strata, alloc, s),
        4114,
        fixed_size=3.0,
    )
    p = np.array([1, 1, 2, 4, 4, 4]) / 16.0
    audit(
        "ppswr(6,3)",
        6,
        1.0 - (1.0 - p) ** 3,
        lambda s: draw_ppswr(p, 3, s),
        4115,
        fixed_size=None,
    )
    _report(11, "inclusion audit", f"{reps} draws per design: " + "; ".join(details))


# --------------------------------------------------------------------------
# 12. size-proportional with-replacement draws fail on heavy-tailed sizes
# --------------------------------------------------------------------------


def test_criterion_12_pps_probe(design_comparison):
    pps = design_comparison.outcome("PPS")
    srswor = design_comparison.outcome("SRSWOR")
    pps_mean = pps.loss_summary()["mean"]
    srswor_mean = srswor.loss_summary()["mean"]
    worse_loss = pps_mean > srswor_mean
    more_failures = pps.estimate_failures > srswor.estimate_failures
    assert worse_loss or more_failures
    _report(
        12,
        "size-proportional probe",
        f"mean loss PPS {pps_mean:.4f} vs SRSWOR {srswor_mean:.4f} "
        f"(ratio {pps_mean / srswor_mean:.2f}); failures {pps.estimate_failures} "
        f"vs {srswor.estimate_failures}",
    )
