"""End-to-end tests of the command-line surface.

Each test drives main() with real files in a tmp directory and checks
the outputs against direct library calls (parity) or hand-built
expectations. Exit codes: 0 ok, 2 input, 3 solver, 4 design.
"""

import json

import numpy as np
import pytest

from medcurve import (
    SolverConfig,
    SynthConfig,
    TimeGrid,
    draw_srswor,
    ht_median,
    l1_median,
    linearized_variables,
    synth_population,
    variance_estimate,
)
from medcurve import cli
from medcurve.cli import main
from medcurve.dataio import read_curves, write_curves
from medcurve.errors import (
    DesignError,
    EstimationError,
    GridMismatchError,
    LinearizationError,
    MedcurveError,
    ParseError,
)


@pytest.fixture
def toy_csv(tmp_path):
    """Ten curves on a 4-point grid, written the same way the CLI reads."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=(10, 4)) + np.linspace(1, 2, 4)
    grid = TimeGrid.uniform(4)
    from medcurve import CurvePopulation

    pop = CurvePopulation(values, grid)
    path = tmp_path / "pop.csv"
    write_curves(path, pop)
    return str(path), pop


class TestMedianCommand:
    def test_single_curve_echoed(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,0.125,0.375,0.625,0.875\n7,1.5,2.5,0.5,3.5\n")
        code = main(["median", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        out = np.loadtxt(tmp_path / "median.csv", delimiter=",", skiprows=1)
        assert np.allclose(out[:, 1], [1.5, 2.5, 0.5, 3.5])

    def test_symmetric_pairs_give_zero_curve(self, tmp_path):
        # (a, -a, b, -b) with a, b not collinear: the median is the zero
        # curve by symmetry of the objective.
        path = tmp_path / "sym.csv"
        path.write_text(
            "id,0.25,0.75\n"
            "1,2,0\n2,-2,0\n3,0,3\n4,0,-3\n"
        )
        code = main(["median", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        out = np.loadtxt(tmp_path / "median.csv", delimiter=",", skiprows=1)
        assert np.allclose(out[:, 1], 0.0, atol=1e-9)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["converged"] is True

    def test_collinear_population_is_flagged(self, tmp_path):
        # every curve is t * (1, 2, 0.5, 1): the median may be non-unique
        path = tmp_path / "line.csv"
        path.write_text(
            "id,0.125,0.375,0.625,0.875\n"
            "1,0,0,0,0\n2,1,2,0.5,1\n3,2,4,1,2\n4,5,10,2.5,5\n5,-1,-2,-0.5,-1\n"
        )
        code = main(["median", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["maybe_non_unique"] is True

    def test_parity_with_library(self, toy_csv, tmp_path):
        path, pop = toy_csv
        out = tmp_path / "run"
        code = main(["median", "--input", path, "--out", str(out)])
        assert code == 0
        fit = l1_median(read_curves(path))
        got = np.loadtxt(out / "median.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.allclose(got, fit.median.values, atol=1e-12)

    def test_weights_file(self, toy_csv, tmp_path):
        path, pop = toy_csv
        wpath = tmp_path / "w.txt"
        weights = np.linspace(1, 2, 10)
        wpath.write_text("\n".join(str(w) for w in weights) + "\n")
        out = tmp_path / "wrun"
        code = main(["median", "--input", path, "--weights", str(wpath), "--out", str(out)])
        assert code == 0
        fit = l1_median(pop, weights=weights)
        got = np.loadtxt(out / "median.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.allclose(got, fit.median.values, atol=1e-12)

    def test_bad_csv_is_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,0.5\n1,2,3\n")  # ragged row
        assert main(["median", "--input", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["median", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    def test_non_utf8_input_is_input_error(self, toy_csv, tmp_path, capsys):
        path, _ = toy_csv
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,0.5,1.5\n1,1,2\n2,\xff,4\n")
        assert main(["median", "--input", str(bad), "--out", str(tmp_path)]) == 2
        assert f"{bad}:3: not UTF-8 text" in capsys.readouterr().err
        wpath = tmp_path / "w.txt"
        wpath.write_bytes(b"1\n" * 4 + b"\xe9\n" + b"1\n" * 5)
        argv = ["median", "--input", path, "--weights", str(wpath), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"{wpath}:5: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
    def test_tol_must_be_finite_and_positive(self, toy_csv, tmp_path, capsys, tol):
        path, _ = toy_csv
        assert main(["median", "--input", path, "--out", str(tmp_path), f"--tol={tol}"]) == 2
        assert "tol must be a finite positive number" in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.json").exists()

    def test_solver_failure_exit_code_with_diagnostics(self, toy_csv, tmp_path):
        path, _ = toy_csv
        out = tmp_path / "failed"
        code = main(
            ["median", "--input", path, "--out", str(out), "--tol", "1e-14", "--max-iter", "1"]
        )
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is False
        assert diag["max_iter"] == 1


class TestEstimateCommand:
    def test_census_matches_median_and_zero_variance(self, toy_csv, tmp_path):
        path, pop = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 10}))
        out = tmp_path / "census"
        code = main(
            ["estimate", "--input", path, "--design", str(design), "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        med_out = tmp_path / "direct"
        main(["median", "--input", path, "--out", str(med_out)])
        assert (out / "median.csv").read_bytes() == (med_out / "median.csv").read_bytes()
        var = np.loadtxt(out / "variance.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.allclose(var, 0.0)

    def test_same_seed_identical_bytes(self, toy_csv, tmp_path):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 5}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "estimate",
                    "--input",
                    path,
                    "--design",
                    str(design),
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for fname in ("sample.csv", "median.csv", "variance.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_parity_with_library_calls(self, toy_csv, tmp_path):
        path, pop = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 5}))
        out = tmp_path / "run"
        code = main(
            ["estimate", "--input", path, "--design", str(design), "--seed", "9", "--out", str(out)]
        )
        assert code == 0

        draw = draw_srswor(10, 5, 9)
        fit = ht_median(draw, pop)
        u_hat = linearized_variables(pop.subset(draw.units), fit.median, weights=draw.weights)
        var = variance_estimate(draw, u_hat)

        got_med = np.loadtxt(out / "median.csv", delimiter=",", skiprows=1)[:, 1]
        got_var = np.loadtxt(out / "variance.csv", delimiter=",", skiprows=1)[:, 1]
        sample = np.loadtxt(out / "sample.csv", delimiter=",", skiprows=1)
        assert np.allclose(got_med, fit.median.values, atol=1e-12)
        assert np.allclose(got_var, var.values, rtol=1e-10)
        assert np.array_equal(sample[:, 0].astype(int), np.asarray(pop.ids)[draw.units])
        assert np.allclose(sample[:, 1], 0.5)
        assert np.allclose(sample[:, 2], 2.0)

    def test_missing_seed_is_input_error(self, toy_csv, tmp_path, capsys):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 5}))
        code = main(["estimate", "--input", path, "--design", str(design), "--out", str(tmp_path)])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_design_bigger_than_population_is_design_error(self, toy_csv, tmp_path):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 50}))
        code = main(
            [
                "estimate",
                "--input",
                path,
                "--design",
                str(design),
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("dtype", ["srswor", "ppswr"])
    def test_single_unit_draw_is_design_error(self, toy_csv, tmp_path, capsys, dtype):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": dtype, "n": 1}))
        out = tmp_path / "one"
        argv = ["estimate", "--input", path, "--design", str(design), "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 4
        assert "at least two sampled units" in capsys.readouterr().err
        assert len((out / "sample.csv").read_text().splitlines()) == 2
        assert (out / "median.csv").exists()
        assert not (out / "variance.csv").exists()

    @pytest.mark.parametrize("label", [None, {}], ids=["null", "object"])
    def test_malformed_strata_label_is_design_error(self, toy_csv, tmp_path, capsys, label):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        strata = [1, label] + [2] * 8
        design.write_text(json.dumps({"type": "stratified", "n": 4, "strata": strata}))
        argv = ["estimate", "--input", path, "--design", str(design), "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 4
        assert "'strata' must be a list of per-unit labels" in capsys.readouterr().err

    def test_stratified_design_roundtrip(self, toy_csv, tmp_path):
        path, pop = toy_csv
        labels = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps({"type": "stratified", "n": 4, "strata": labels, "allocation": [2, 2]})
        )
        out = tmp_path / "strat"
        code = main(
            ["estimate", "--input", path, "--design", str(design), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        sample = np.loadtxt(out / "sample.csv", delimiter=",", skiprows=1)
        assert sample.shape == (4, 3)
        # two units per stratum, each with pi = 2/5
        assert np.allclose(sample[:, 1], 0.4)


class TestSimulateCommand:
    def _synth(self, tmp_path, **overrides):
        cfg = dict(n_units=40, points_per_week=14, points_per_day=2, seed=4)
        cfg.update(overrides)
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_census_gives_zero_losses(self, tmp_path):
        synth = self._synth(tmp_path)
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 40, "include": ["SRSWOR"]}))
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--input",
                str(synth),
                "--design",
                str(designs),
                "--reps",
                "1",
                "--seed",
                "6",
                "--tol",
                "1e-10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["designs"][0]["loss"]["mean"] <= 1e-8

    def test_fixed_seed_reproducible_bytes(self, tmp_path):
        synth = self._synth(tmp_path)
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 10, "include": ["SRSWOR", "PPS"]}))
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--input",
                    str(synth),
                    "--design",
                    str(designs),
                    "--reps",
                    "4",
                    "--seed",
                    "17",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "losses.csv").read_bytes() == (outs[1] / "losses.csv").read_bytes()

    def test_pop_csv_pair_input(self, tmp_path):
        pop = synth_population(
            SynthConfig(n_units=30, points_per_week=7, points_per_day=1, seed=8)
        )
        aux_path, study_path = tmp_path / "aux.csv", tmp_path / "study.csv"
        write_curves(aux_path, pop.aux)
        write_curves(study_path, pop.study)
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 8, "include": ["SRSWOR"]}))
        out = tmp_path / "pair"
        code = main(
            [
                "simulate",
                "--input",
                str(aux_path),
                str(study_path),
                "--design",
                str(designs),
                "--reps",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        losses = (out / "losses.csv").read_text().strip().splitlines()
        assert losses[0] == "design,replicate,loss,variance_loss"
        assert len(losses) == 3

    @pytest.mark.parametrize(
        "spec, named",
        [
            pytest.param({"n": 10, "include": ["BOGUS"]}, "BOGUS", id="unknown-name"),
            pytest.param({"n": 20, "n_strata": "4"}, "n_strata", id="n_strata-string"),
            pytest.param({"n": 20, "n_strata": 2.5}, "n_strata", id="n_strata-float"),
            pytest.param({"n": 20, "n_strata": True}, "n_strata", id="n_strata-bool"),
            pytest.param({"n": 20, "n_strata": 1}, "n_strata", id="n_strata-one"),
            pytest.param({"n": 20, "include": 5}, "include", id="include-number"),
            pytest.param({"n": 20, "include": "SRSWOR"}, "include", id="include-string"),
        ],
    )
    def test_unknown_design_name_is_input_error(self, tmp_path, capsys, spec, named):
        synth = self._synth(tmp_path)
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps(spec))
        code = main(
            [
                "simulate",
                "--input",
                str(synth),
                "--design",
                str(designs),
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, named",
        [
            pytest.param({"scale_groups": 5}, "scale_groups", id="scale_groups-number"),
            pytest.param({"points_per_day": 0}, "points_per_day", id="points_per_day-zero"),
            pytest.param({"weeks": 1.5}, "weeks", id="weeks-float"),
            pytest.param({"seed": 1.5}, "seed", id="seed-float"),
            pytest.param({"noise_sd": "a"}, "noise_sd", id="noise_sd-string"),
            pytest.param({"colour": 1}, "colour", id="unknown-field"),
            pytest.param([1, 2], "JSON object", id="not-an-object"),
        ],
    )
    def test_bad_synthetic_config_is_input_error(self, tmp_path, capsys, config, named):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(config))
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 10}))
        code = main(
            [
                "simulate",
                "--input",
                str(synth),
                "--design",
                str(designs),
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert named in capsys.readouterr().err


class TestStratifyCommand:
    def test_scalar_max_quartiles_on_ranked_toy(self, tmp_path):
        # 8 units whose max values already sit in rank order: quartile
        # strata must be [0,0,1,1,2,2,3,3] reported 1-based.
        rows = ["id,0.25,0.75"]
        for i in range(8):
            rows.append(f"{i + 1},{i + 1},{0.5 * (i + 1)}")
        path = tmp_path / "ranked.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "strat"
        code = main(
            ["stratify", "--input", str(path), "--on", "scalar-max", "--H", "4", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "strata.csv").read_text().strip().splitlines()
        labels = [int(line.split(",")[1]) for line in lines[1:]]
        assert labels == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_planted_clusters_recovered(self, tmp_path):
        # four groups of curves at well-separated levels
        rng = np.random.default_rng(2)
        rows = ["id," + ",".join(str((j + 0.5) / 4) for j in range(4))]
        levels = [0.0, 10.0, 20.0, 30.0]
        truth = []
        for i in range(24):
            lvl = levels[i % 4]
            truth.append(i % 4)
            vals = lvl + 0.1 * rng.normal(size=4)
            rows.append(f"{i + 1}," + ",".join(f"{v}" for v in vals))
        path = tmp_path / "clusters.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "km"
        code = main(
            [
                "stratify",
                "--input",
                str(path),
                "--on",
                "raw",
                "--H",
                "4",
                "--seed",
                "3",
                "--alloc",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "strata.csv").read_text().strip().splitlines()
        labels = np.array([int(line.split(",")[1]) for line in lines[1:]])
        # same planted group <=> same recovered stratum
        for g in range(4):
            assert len(set(labels[np.array(truth) == g])) == 1
        payload = json.loads((out / "allocations.json").read_text())
        assert payload["sizes"] == [6, 6, 6, 6]
        assert sum(payload["allocations"]["PROP"]) == 8

    def test_kmeans_without_seed_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        rows = ["id,0.25,0.75"] + [f"{i + 1},{i},{2 * i}" for i in range(8)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["stratify", "--input", str(path), "--on", "raw", "--out", str(tmp_path)])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_linearized_stratification_runs(self, tmp_path):
        pop = synth_population(
            SynthConfig(n_units=40, points_per_week=7, points_per_day=7, seed=12)
        )
        path = tmp_path / "pop.csv"
        write_curves(path, pop.aux)
        out = tmp_path / "lin"
        code = main(
            [
                "stratify",
                "--input",
                str(path),
                "--on",
                "linearized",
                "--H",
                "3",
                "--seed",
                "4",
                "--alloc",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "allocations.json").read_text())
        assert payload["n_strata"] == 3
        assert sum(payload["sizes"]) == 40
        assert sum(payload["allocations"]["u-OPTIM"]) == 12


@pytest.mark.parametrize(
    "command, h, code",
    [
        pytest.param("simulate", "1", 2, id="simulate-H1"),
        pytest.param("simulate", "0", 2, id="simulate-H0"),
        pytest.param("stratify", "1", 2, id="stratify-H1"),
        # a valid count the population cannot fill is a design error
        pytest.param("stratify", "50", 4, id="stratify-H50"),
    ],
)
def test_strata_count_exit_codes(tmp_path, capsys, command, h, code):
    if command == "simulate":
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(dict(n_units=40, points_per_week=14, points_per_day=2, seed=4)))
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 20}))
        argv = ["simulate", "--input", str(synth), "--design", str(designs)]
    else:
        path = tmp_path / "p.csv"
        rows = ["id,0.25,0.75"] + [f"{i + 1},{i},{2 * i}" for i in range(8)]
        path.write_text("\n".join(rows) + "\n")
        argv = ["stratify", "--input", str(path), "--on", "raw"]
    assert main([*argv, "--H", h, "--seed", "1", "--out", str(tmp_path)]) == code
    if code == 2:
        assert "--H must be an integer of at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        pytest.param(ParseError("bad row", path="p.csv", line=3), 2, id="ParseError"),
        pytest.param(GridMismatchError("grids differ"), 2, id="GridMismatchError"),
        pytest.param(OSError("no such file"), 2, id="OSError"),
        pytest.param(ValueError("bad value"), 2, id="ValueError"),
        pytest.param(cli._SolverFailure("no convergence"), 3, id="_SolverFailure"),
        pytest.param(LinearizationError("singular"), 3, id="LinearizationError"),
        pytest.param(DesignError("bad design"), 4, id="DesignError"),
        pytest.param(EstimationError("no estimate"), 4, id="EstimationError"),
        pytest.param(MedcurveError("truth fit"), 3, id="MedcurveError"),
    ],
)
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, exc, code):
    def stub(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_median", stub)
    assert main(["median", "--input", "unread.csv"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"
