"""Tests for the synthetic generator and the Monte Carlo harness."""

import dataclasses
import json
import os
import sys
import warnings

import numpy as np
import pytest

from medcurve import (
    Curve,
    CurvePopulation,
    SolverConfig,
    TimeGrid,
)
from medcurve import simulate
from medcurve.cli import main
from medcurve.dataio import write_curves
from medcurve.errors import EstimationError, GridMismatchError, MedcurveError
from medcurve.forking import worker_count
from medcurve.simulate import (
    DesignPlan,
    SynthConfig,
    loss_r_median,
    loss_r_variance,
    monte_carlo_compare,
    standard_design_suite,
    synth_population,
)
from medcurve.variance import VarianceFunction

from conftest import no_child_process_remains, refuse_fork


def small_cfg(**overrides):
    base = dict(
        n_units=40,
        points_per_week=14,
        points_per_day=2,
        weeks=2,
        seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthPopulation:
    def test_shapes_and_panel_roles(self):
        pop = synth_population(small_cfg())
        assert pop.aux.values.shape == (40, 14)
        assert pop.study.values.shape == (40, 14)
        assert len(pop.weeks) == 2
        assert pop.aux is pop.weeks[0]
        assert pop.study is pop.weeks[-1]
        assert pop.aux.grid.horizon == 1.0

    def test_same_config_same_values(self):
        a = synth_population(small_cfg())
        b = synth_population(small_cfg())
        assert np.array_equal(a.aux.values, b.aux.values)
        assert np.array_equal(a.study.values, b.study.values)
        assert np.array_equal(a.groups, b.groups)

    def test_different_seed_differs(self):
        a = synth_population(small_cfg())
        b = synth_population(small_cfg(seed=12))
        assert not np.array_equal(a.study.values, b.study.values)

    def test_weekend_dip_in_deterministic_profile(self):
        # All randomness off: every curve equals the base profile exactly.
        # With 2 points per day over 7 days, days 5 and 6 are the weekend,
        # so points 10..13 equal points 0..3 times (1 - 0.25) = 0.75.
        cfg = small_cfg(
            noise_sd=0.0,
            shape_sigma=0.0,
            scale_sigma=0.0,
            scale_groups=(1.0,),
            outlier_frac=0.0,
            weekend_contrast=0.25,
        )
        pop = synth_population(cfg)
        v = pop.aux.values
        assert np.allclose(v, v[0])
        assert np.allclose(v[0, 10:14], 0.75 * v[0, 0:4])

    def test_signal_persists_across_weeks_without_noise(self):
        cfg = small_cfg(noise_sd=0.0)
        pop = synth_population(cfg)
        assert np.array_equal(pop.aux.values, pop.study.values)

    def test_outliers_scale_whole_rows_in_both_weeks(self):
        # With shape and noise off, row k is scales[k] * base, times the
        # outlier magnitude for the flagged units. theta for 2 points/day
        # is (0.25, 0.75), so base on a weekday is 1 + 0.6*sin(pi*theta)^2.
        cfg = small_cfg(noise_sd=0.0, shape_sigma=0.0, outlier_frac=0.1, outlier_mag=5.0)
        pop = synth_population(cfg)
        theta = np.array([0.25, 0.75])
        daily = 1.0 + cfg.day_amplitude * np.sin(np.pi * theta) ** 2
        base = np.concatenate([daily] * 5 + [(1.0 - cfg.weekend_contrast) * daily] * 2)
        assert pop.outliers.size == 4
        for k in range(cfg.n_units):
            mag = 5.0 if k in pop.outliers else 1.0
            expect = mag * pop.scales[k] * base
            assert np.allclose(pop.aux.values[k], expect)
            assert np.allclose(pop.study.values[k], expect)

    def test_group_assignment_is_balanced(self):
        pop = synth_population(small_cfg(scale_groups=(0.5, 1.0, 2.0, 4.0)))
        counts = np.bincount(pop.groups, minlength=4)
        assert np.array_equal(counts, [10, 10, 10, 10])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(points_per_day=3)  # 14 not divisible by 3
        with pytest.raises(ValueError):
            small_cfg(outlier_frac=0.5)
        with pytest.raises(ValueError):
            small_cfg(n_units=5)
        with pytest.raises(ValueError):
            small_cfg(scale_groups=())

    # these configs are only constructed: building their panels would not fit in memory
    @pytest.mark.parametrize(
        "fields, named",
        [
            pytest.param({"n_units": 10**400}, "n_units", id="n_units-overflow"),
            pytest.param({"n_units": 10**12}, "n_units", id="n_units-memory"),
            pytest.param(
                {"points_per_week": 10**400, "points_per_day": 10**400},
                "points_per_week",
                id="points-overflow",
            ),
            pytest.param({"weeks": 10**400}, "weeks", id="weeks"),
            pytest.param(
                {"n_units": 100_000, "points_per_week": 336, "points_per_day": 48, "weeks": 3},
                "n_units x points_per_week x weeks",
                id="panel",
            ),
        ],
    )
    def test_panel_size_is_bounded_at_construction(self, fields, named):
        with pytest.raises(ValueError, match=named):
            SynthConfig(**fields)

    def test_a_two_week_panel_of_100k_by_336_is_admitted(self):
        cfg = SynthConfig(n_units=100_000, points_per_week=336, points_per_day=48, weeks=2)
        assert cfg.n_units == 100_000


class TestLosses:
    def test_hand_computed_average(self):
        # |diff| = (1, 2, 3, 4) on 4 points: plain average (1+2+3+4)/4 = 2.5
        grid = TimeGrid.uniform(4)
        a = Curve(np.array([1.0, 2.0, 3.0, 4.0]), grid)
        b = Curve(np.zeros(4), grid)
        assert loss_r_median(a, b) == pytest.approx(2.5)

    def test_constant_shift_gives_shift_size(self):
        grid = TimeGrid.uniform(6)
        a = Curve(np.linspace(0, 1, 6), grid)
        b = Curve(a.values + 0.3, grid)
        assert loss_r_median(a, b) == pytest.approx(0.3)

    def test_variance_loss_same_rule(self):
        grid = TimeGrid.uniform(3)
        va = VarianceFunction(np.array([1.0, 4.0, 7.0]), grid, "estimated", "srswor")
        vb = VarianceFunction(np.array([0.0, 0.0, 1.0]), grid, "estimated", "srswor")
        assert loss_r_variance(va, vb) == pytest.approx((1.0 + 4.0 + 6.0) / 3.0)

    def test_mixed_argument_types_rejected(self):
        grid = TimeGrid.uniform(3)
        c = Curve(np.ones(3), grid)
        v = VarianceFunction(np.ones(3), grid, "estimated", "srswor")
        with pytest.raises(TypeError):
            loss_r_median(c, v)

    def test_grid_mismatch_rejected(self):
        a = Curve(np.ones(3), TimeGrid.uniform(3))
        b = Curve(np.ones(4), TimeGrid.uniform(4))
        with pytest.raises(GridMismatchError):
            loss_r_median(a, b)


class TestStandardSuite:
    def test_suite_structure(self):
        pop = synth_population(small_cfg(n_units=60))
        plans = standard_design_suite(pop.aux, n=16, n_strata=3, seed=5)
        names = [p.name for p in plans]
        assert names == [
            "SRSWOR",
            "SYS",
            "STRAT-u-PROP",
            "STRAT-u-OPTIM",
            "STRAT-x-PROP",
            "STRAT-x-OPTIM",
            "POST",
            "PPS",
        ]
        for p in plans:
            assert p.n == 16
            if p.kind == "stratified":
                assert p.alloc.sum() == 16
                assert p.strata.n_units == 60
            if p.kind == "systematic":
                assert p.order_key.shape == (60,)
            if p.kind == "ppswr":
                assert p.p.sum() == pytest.approx(1.0)
            if p.kind == "poststratified":
                assert p.groups.n_units == 60

    def test_suite_is_deterministic(self):
        pop = synth_population(small_cfg(n_units=60))
        a = standard_design_suite(pop.aux, n=16, n_strata=3, seed=5)
        b = standard_design_suite(pop.aux, n=16, n_strata=3, seed=5)
        for pa, pb in zip(a, b):
            if pa.kind == "stratified":
                assert np.array_equal(pa.strata.labels, pb.strata.labels)
                assert np.array_equal(pa.alloc, pb.alloc)

    def test_unconverged_auxiliary_median_is_refused(self, monkeypatch):
        pop = synth_population(small_cfg(n_units=60))
        real = simulate.l1_median
        monkeypatch.setattr(
            simulate,
            "l1_median",
            lambda *args, **kw: dataclasses.replace(real(*args, **kw), converged=False),
        )
        with pytest.raises(MedcurveError, match="auxiliary-week median did not converge"):
            standard_design_suite(pop.aux, n=16, n_strata=3, seed=5)

    def test_an_auxiliary_curve_on_the_median_is_refused(self):
        # a centre curve and pairs symmetric around it: the centre is the
        # median, and its linearized variable is undefined
        centre = np.array([2.0, 3.0, 4.0, 5.0])
        offsets = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, -1.0]])
        values = np.vstack([centre, centre + offsets, centre - offsets])
        aux = CurvePopulation(values, TimeGrid.uniform(4))
        with pytest.warns(UserWarning, match="excluded from the linearization"):
            with pytest.raises(EstimationError, match="auxiliary-week curves coincide with the median"):
                standard_design_suite(aux, n=4, n_strata=2, seed=5)


class TestMonteCarlo:
    def test_census_replicate_has_zero_loss(self):
        # A census SRSWOR draw feeds the solver the whole population with
        # unit weights, the same problem the truth fit solves, so with one
        # shared tolerance the two runs are bitwise identical.
        pop = synth_population(small_cfg(n_units=30, points_per_week=7, points_per_day=1))
        plan = DesignPlan(name="CENSUS", kind="srswor", n=30)
        report = monte_carlo_compare(
            pop.study,
            [plan],
            replicates=1,
            seed=3,
            solver_cfg=SolverConfig(tol=1e-10, max_iter=2000),
        )
        assert report.outcome("CENSUS").losses[0] == 0.0
        assert report.outcome("CENSUS").estimate_failures == 0

    def test_report_deterministic_and_replicate_prefix_invariant(self):
        # seeds derive from (design, replicate), not from how many replicates
        # run: the first 6 of a 10-replicate run are the 6-replicate run
        pop = synth_population(small_cfg(n_units=50))
        plans = [
            DesignPlan(name="SRSWOR", kind="srswor", n=10),
            DesignPlan(name="PPS", kind="ppswr", n=10, p=np.full(50, 0.02)),
        ]
        r1 = monte_carlo_compare(pop.study, plans, replicates=6, seed=21)
        r2 = monte_carlo_compare(pop.study, plans, replicates=6, seed=21)
        r10 = monte_carlo_compare(pop.study, plans, replicates=10, seed=21)
        for oa, ob in zip(r1.outcomes, r2.outcomes):
            assert np.array_equal(oa.losses, ob.losses)
        for oa, ob in zip(r1.outcomes, r10.outcomes):
            assert np.array_equal(oa.losses, ob.losses[:6])
            if oa.variance_losses is None:
                assert ob.variance_losses is None
            else:
                assert np.array_equal(oa.variance_losses, ob.variance_losses[:6])
        assert r1.outcome("SRSWOR").variance_losses is not None

    def test_one_seed_sequence_repeats_the_suite_and_the_comparison(self):
        # neither call advances the sequence, so both runs, and a run from
        # the int seed, build the same strata and draw the same samples
        pop = synth_population(small_cfg(n_units=60))
        seq = np.random.SeedSequence(9)
        runs = []
        for seed in (seq, seq, 9):
            plans = standard_design_suite(pop.aux, n=16, n_strata=3, seed=seed)
            with warnings.catch_warnings():
                # at n = 16 a sampled curve now and then sits on its median;
                # the replicate counts as a variance failure, compared below
                warnings.simplefilter("ignore", UserWarning)
                runs.append(monte_carlo_compare(pop.study, plans, replicates=3, seed=seed))
        for report in runs[1:]:
            for oa, ob in zip(runs[0].outcomes, report.outcomes):
                assert np.array_equal(oa.losses, ob.losses, equal_nan=True)
                if oa.variance_losses is not None:
                    assert np.array_equal(oa.variance_losses, ob.variance_losses, equal_nan=True)
                assert oa.variance_failures == ob.variance_failures

    def test_replicates_never_run_the_collinearity_check(self, monkeypatch):
        # no replicate reads MedianFit.maybe_non_unique, so its check must not run
        from medcurve import solver

        def refuse(values, grid):
            raise AssertionError("the collinearity check ran")

        monkeypatch.setattr(solver, "_collinear", refuse)
        pop = synth_population(small_cfg(n_units=60))
        plans = standard_design_suite(pop.aux, n=20, n_strata=3, seed=4)
        with warnings.catch_warnings():
            # see test_one_seed_sequence_repeats_the_suite_and_the_comparison
            warnings.simplefilter("ignore", UserWarning)
            report = monte_carlo_compare(pop.study, plans, replicates=3, seed=4)
        assert np.isfinite(report.outcome("SRSWOR").losses).all()

    def test_variance_losses_only_for_closed_form_designs(self):
        pop = synth_population(small_cfg(n_units=50))
        plans = [
            DesignPlan(name="SRSWOR", kind="srswor", n=12),
            DesignPlan(name="PPS", kind="ppswr", n=12, p=np.full(50, 0.02)),
        ]
        report = monte_carlo_compare(pop.study, plans, replicates=3, seed=9)
        assert report.outcome("SRSWOR").variance_losses is not None
        assert np.isfinite(report.outcome("SRSWOR").variance_losses).all()
        assert report.outcome("PPS").variance_losses is None

    def test_estimator_failures_recorded_not_raised(self):
        # Group labels deliberately cover a different frame size, so every
        # replicate's poststratified estimate raises and must be recorded.
        from medcurve.designs import StrataSpec

        pop = synth_population(small_cfg(n_units=50))
        bad_groups = StrataSpec(np.zeros(49, dtype=np.int64))
        plan = DesignPlan(name="BAD-POST", kind="poststratified", n=10, groups=bad_groups)
        report = monte_carlo_compare(pop.study, [plan], replicates=4, seed=2)
        out = report.outcome("BAD-POST")
        assert out.estimate_failures == 4
        assert np.isnan(out.losses).all()
        assert np.isnan(out.loss_summary()["mean"])

    def test_summary_is_json_ready(self):
        import json

        pop = synth_population(small_cfg(n_units=50))
        plans = [DesignPlan(name="SRSWOR", kind="srswor", n=10)]
        report = monte_carlo_compare(pop.study, plans, replicates=3, seed=8)
        text = json.dumps(report.summary())
        assert "SRSWOR" in text

    def test_stratified_on_planted_groups_beats_srswor(self):
        # Directional check on a population with four planted consumption
        # regimes: stratifying on k-means strata of the week-1 linearized
        # variables with proportional allocation should cut the mean loss
        # well below SRSWOR at the same sample size. Seed pinned.
        cfg = SynthConfig(
            n_units=400,
            points_per_week=12,
            points_per_day=12,
            weeks=2,
            seed=31,
        )
        pop = synth_population(cfg)
        plans = standard_design_suite(pop.aux, n=60, n_strata=4, seed=7)
        keep = [p for p in plans if p.name in ("SRSWOR", "STRAT-u-PROP")]
        report = monte_carlo_compare(pop.study, keep, replicates=40, seed=13)
        srswor = report.outcome("SRSWOR").loss_summary()["mean"]
        strat = report.outcome("STRAT-u-PROP").loss_summary()["mean"]
        assert strat < srswor


def awkward_study():
    """The suite over a small panel whose replicates fail and warn.

    A quarter of the study units share one curve far above the rest, so
    many samples' medians land on it and their linearization leaves those
    units out with a warning; with n = 16 poststratified draws often miss a
    k-means group, and some strata get one sampled unit.
    """
    panel = synth_population(SynthConfig(n_units=120, points_per_week=8, points_per_day=8, seed=3))
    values = np.array(panel.study.values)
    values[:30] = 3.0 * values.mean(axis=0)
    study = CurvePopulation(values, panel.study.grid, panel.study.ids)
    return panel.aux, study


def force_workers(monkeypatch):
    """Fork two workers for any run of 10 replicates or more, each with half of every plan's."""
    monkeypatch.setattr(simulate, "_MIN_REPS_PER_WORKER", 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert worker_count(10, simulate._MIN_REPS_PER_WORKER) == 2


@pytest.mark.skipif(sys.platform != "linux", reason="worker processes are forked on Linux only")
class TestWorkerProcesses:
    def _compare(self):
        aux, study = awkward_study()
        plans = standard_design_suite(aux, n=16, n_strata=4, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = monte_carlo_compare(study, plans, replicates=24, seed=3)
        return report, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    @staticmethod
    def _assert_same_report(pooled, serial):
        assert pooled.truth.values.tobytes() == serial.truth.values.tobytes()
        assert [o.name for o in pooled.outcomes] == list(simulate.SUITE_NAMES)
        for a, b in zip(pooled.outcomes, serial.outcomes):
            assert a.losses.tobytes() == b.losses.tobytes()
            assert (a.variance_losses is None) == (b.variance_losses is None)
            if a.variance_losses is not None:
                assert a.variance_losses.tobytes() == b.variance_losses.tobytes()
            assert (a.estimate_failures, a.variance_failures) == (
                b.estimate_failures,
                b.variance_failures,
            )

    @staticmethod
    def _simulate_argv(tmp_path):
        """simulate over awkward_study's weeks, written to tmp_path, without --out."""
        aux, study = awkward_study()
        write_curves(tmp_path / "aux.csv", aux)
        write_curves(tmp_path / "study.csv", study)
        designs = tmp_path / "designs.json"
        designs.write_text('{"n": 16, "n_strata": 4}')
        argv = ["simulate", "--input", str(tmp_path / "aux.csv"), str(tmp_path / "study.csv")]
        return argv + ["--design", str(designs), "--reps", "24", "--seed", "3"]

    def test_workers_give_the_in_process_report_and_warnings(self, monkeypatch):
        serial, serial_warnings = self._compare()
        force_workers(monkeypatch)
        pooled, pooled_warnings = self._compare()
        self._assert_same_report(pooled, serial)
        assert serial.outcome("POST").estimate_failures >= 1
        assert sum(o.variance_failures for o in serial.outcomes) >= 1
        assert any("excluded from the linearization" in w[0] for w in serial_warnings)
        assert pooled_warnings == serial_warnings
        no_child_process_remains()

    def test_workers_print_the_same_note_lines(self, tmp_path, monkeypatch, capsys):
        argv = self._simulate_argv(tmp_path)
        outputs = []
        for forced in (False, True):
            if forced:
                force_workers(monkeypatch)
            out = tmp_path / str(forced)
            assert main([*argv, "--out", str(out)]) == 0
            files = {name: (out / name).read_bytes() for name in ("report.json", "losses.csv")}
            outputs.append((capsys.readouterr().err, files))
        assert outputs[0] == outputs[1]
        assert "excluded from the linearization" in outputs[0][0]
        assert all(line.startswith("note: ") for line in outputs[0][0].splitlines())

    @pytest.mark.parametrize("nth", [1, 2])
    def test_a_refused_fork_runs_the_blocks_here_with_one_warning(self, monkeypatch, nth):
        serial, serial_warnings = self._compare()
        force_workers(monkeypatch)
        refuse_fork(monkeypatch, nth)
        fallback, fallback_warnings = self._compare()
        self._assert_same_report(fallback, serial)
        refused, *rest = fallback_warnings
        assert refused[1] is RuntimeWarning and "could not fork a worker process" in refused[0]
        assert "Resource temporarily unavailable" in refused[0]
        assert rest == serial_warnings
        no_child_process_remains()

    @pytest.mark.parametrize("nth", [1, 2])
    def test_a_refused_fork_changes_no_output_and_adds_one_note(self, tmp_path, monkeypatch, capsys, nth):
        argv = self._simulate_argv(tmp_path)
        outputs = []
        for refused in (False, True):
            if refused:
                force_workers(monkeypatch)
                refuse_fork(monkeypatch, nth)
            out = tmp_path / str(refused)
            assert main([*argv, "--out", str(out)]) == 0
            files = {name: (out / name).read_bytes() for name in ("report.json", "losses.csv")}
            outputs.append((capsys.readouterr().err.splitlines(), files))
        (serial_err, serial_files), (refused_err, refused_files) = outputs
        assert refused_files == serial_files
        note, *rest = refused_err
        assert note.startswith("note: could not fork a worker process") and rest == serial_err
        assert not any("could not fork" in line for line in serial_err)
        no_child_process_remains()

    def test_an_oserror_in_a_block_is_raised_not_taken_for_a_refused_fork(self, monkeypatch):
        parent = os.getpid()

        def broken(estimate, truth):
            assert os.getpid() != parent, "a block ran in the parent process"
            raise FileNotFoundError("a loss failed in a worker")

        force_workers(monkeypatch)
        monkeypatch.setattr(simulate, "loss_r_median", broken)
        pop = synth_population(small_cfg(n_units=50))
        plans = [DesignPlan(name="SRSWOR", kind="srswor", n=10)]
        with warnings.catch_warnings(record=True) as caught, pytest.raises(FileNotFoundError):
            warnings.simplefilter("always")
            monte_carlo_compare(pop.study, plans, replicates=12, seed=8)
        assert not caught
        no_child_process_remains()

    @pytest.mark.parametrize("failure", ["raises", "dies"])
    def test_no_worker_outlives_a_failed_block(self, monkeypatch, failure):
        # a worker that dies fails the run instead of leaving it waiting for its block
        def broken(estimate, truth):
            if failure == "dies":
                os._exit(9)
            raise RuntimeError("loss failed in a worker")

        force_workers(monkeypatch)
        monkeypatch.setattr(simulate, "loss_r_median", broken)
        pop = synth_population(small_cfg(n_units=50))
        plans = [DesignPlan(name="SRSWOR", kind="srswor", n=10)]
        expected, match = (MedcurveError, "a worker process died") if failure == "dies" else (RuntimeError, None)
        with pytest.raises(expected, match=match):
            monte_carlo_compare(pop.study, plans, replicates=12, seed=8)
        no_child_process_remains()

    def test_a_worker_that_dies_ends_the_command_in_one_error_line(self, tmp_path, monkeypatch, capsys):
        def dies(estimate, truth):
            os._exit(9)

        force_workers(monkeypatch)
        monkeypatch.setattr(simulate, "loss_r_median", dies)
        config, designs = tmp_path / "synth.json", tmp_path / "designs.json"
        config.write_text(json.dumps(dataclasses.asdict(small_cfg(n_units=50))))
        designs.write_text('{"n": 10, "include": ["SRSWOR"]}')
        argv = ["simulate", "--input", str(config), "--design", str(designs), "--reps", "12"]
        assert main([*argv, "--seed", "8", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        no_child_process_remains()
