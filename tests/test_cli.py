"""End-to-end tests of the command-line surface.

Each test drives main() with real files in a tmp directory and checks
the outputs against direct library calls (parity) or hand-built
expectations. Exit codes: 0 ok, 2 input, 3 solver, 4 design.
"""

import json
import shutil
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from medcurve import (
    CurvePopulation,
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

    @pytest.mark.parametrize(
        "dtype, note",
        [
            ("systematic", "note: variance.csv holds an approximation (srswor-formula)\n"),
            ("srswor", ""),
        ],
        ids=["systematic", "srswor"],
    )
    def test_an_approximate_variance_is_noted_on_stderr(self, toy_csv, tmp_path, capsys, dtype, note):
        path, _ = toy_csv
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": dtype, "n": 5}))
        argv = ["estimate", "--input", path, "--design", str(design), "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == note
        assert (tmp_path / "variance.csv").exists()


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

    @pytest.mark.parametrize("reps", ["0", "1000001", "100000000000"])
    def test_reps_outside_the_cap_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, reps):
        def refuse(cfg):
            raise AssertionError("the population was generated")

        monkeypatch.setattr(cli, "synth_population", refuse)
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 10}))
        argv = ["simulate", "--input", str(self._synth(tmp_path)), "--design", str(designs)]
        assert main([*argv, "--reps", reps, "--seed", "5", "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: --reps must lie in 1..1000000, not {reps}\n"
        assert not (tmp_path / "sim").exists()

    def test_study_rows_must_list_the_aux_ids_in_order(self, tmp_path, capsys):
        # the same units, the study week listed backwards: pairing rows by
        # position would match each unit's week 1 with another unit's week 2
        pop = synth_population(
            SynthConfig(n_units=30, points_per_week=7, points_per_day=1, seed=8)
        )
        study = pop.study
        aux_path, study_path = tmp_path / "aux.csv", tmp_path / "study.csv"
        write_curves(aux_path, pop.aux)
        write_curves(study_path, CurvePopulation(study.values[::-1], study.grid, study.ids[::-1]))
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 8, "include": ["SRSWOR"]}))
        argv = ["simulate", "--input", str(aux_path), str(study_path), "--design", str(designs)]
        assert main([*argv, "--reps", "2", "--seed", "5", "--out", str(tmp_path)]) == 2
        assert "same unit ids in order" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "command, body, code, named",
    [
        pytest.param("simulate", {"scale_groups": [10**400]}, 2, "scale_groups", id="scale_groups"),
        pytest.param("simulate", {"noise_sd": 10**400}, 2, "noise_sd", id="noise_sd"),
        pytest.param(
            "estimate",
            {"type": "ppswr", "n": 5, "p_source": [10**400] + [1] * 9},
            4,
            "p_source",
            id="p_source",
        ),
        pytest.param(
            "estimate",
            {"type": "stratified", "n": 10**400 + 1, "strata": [0] * 5 + [1] * 5,
             "allocation": [10**400, 1]},
            4,
            "allocation",
            id="allocation",
        ),
        # each size fits a float but their sum does not
        pytest.param(
            "estimate",
            {"type": "ppswr", "n": 5, "p_source": [1e308] * 10},
            4,
            "p_source",
            id="p_source-sum",
        ),
        # a PPS draw holds its n draws, so n is bounded by the frame
        pytest.param("estimate", {"type": "ppswr", "n": 10**400}, 4, "sample size", id="ppswr-n"),
    ],
)
def test_numbers_beyond_a_float_or_an_int64_name_their_field(
    toy_csv, tmp_path, capsys, command, body, code, named
):
    if command == "simulate":
        inputs = tmp_path / "synth.json"
        config = dict(n_units=40, points_per_week=14, points_per_day=2, seed=4)
        inputs.write_text(json.dumps({**config, **body}))
        design = {"n": 10}
    else:
        inputs, design = toy_csv[0], body
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    argv = [command, "--input", str(inputs), "--design", str(path), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert named in capsys.readouterr().err


def test_synthetic_config_past_the_panel_bound_is_input_error(tmp_path, capsys):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"n_units": 10**400}))
    designs = tmp_path / "designs.json"
    designs.write_text(json.dumps({"n": 10}))
    argv = ["simulate", "--input", str(synth), "--design", str(designs), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "n_units must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_json_integer_past_the_digit_limit_names_the_file(toy_csv, tmp_path, capsys, command):
    path = tmp_path / "design.json"
    path.write_text('{"type": "srswor", "n": 1' + "0" * 4999 + "}")
    inputs = [toy_csv[0]] if command == "estimate" else [toy_csv[0], toy_csv[0]]
    argv = [command, "--input", *inputs, "--design", str(path), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: invalid JSON" in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


UNITS = 40
_HUGE = st.integers(0, 400).map(lambda k: 10**k)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | _HUGE | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _often(usual, rare=_JSON):
    """usual three times in four, rare (any JSON value by default) otherwise."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


_ENTRIES = [
    st.integers(0, 2),
    st.integers(-2, 45),
    _HUGE,
    st.floats(),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
]
# one entry per unit, mostly all of one kind, so that a list can pass its
# type check and then meet the checks of its values
_PER_UNIT = st.sampled_from([*_ENTRIES, st.one_of(*_ENTRIES)]).flatmap(
    lambda entry: st.lists(entry, min_size=UNITS, max_size=UNITS)
)
_TYPES = ["srswor", "poststratified", "systematic", "stratified", "ppswr"]
_DESIGNS = _often(
    st.fixed_dictionaries(
        {
            "type": _often(st.sampled_from(_TYPES)),
            "n": _often(st.integers(1, UNITS + 2), _HUGE | _JSON),
        },
        optional={
            "seed": _often(st.integers(0, 9)),
            "strata": _often(_PER_UNIT),
            "allocation": _often(st.lists(st.integers(0, 30), max_size=4), _PER_UNIT),
            "p_source": _often(_PER_UNIT, st.just("mean") | _JSON),
            "order_key_column": _often(st.sampled_from(["mean", "max", "0", "3", "4", " 2", "x"])),
        },
    )
)


@pytest.fixture
def units_csv(tmp_path):
    """UNITS positive curves on a 4-point grid."""
    rng = np.random.default_rng(11)
    path = tmp_path / "units.csv"
    write_curves(path, CurvePopulation(rng.gamma(4.0, size=(UNITS, 4)), TimeGrid.uniform(4)))
    return path


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_DESIGNS)
def test_any_design_file_ends_in_an_exit_code(units_csv, tmp_path, spec):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(spec))
    argv = ["estimate", "--input", str(units_csv), "--design", str(path), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out")]) in (0, 2, 4)


def test_systematic_six_of_the_units_fixture_converges(units_csv, tmp_path):
    # the six sampled curves have their median just off one of them, where
    # Weiszfeld steps alone needed 935 iterations and the fit exited 3
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"type": "systematic", "n": 6}))
    argv = ["estimate", "--input", str(units_csv), "--design", str(path), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


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

    def test_unconverged_median_exits_3(self, tmp_path, capsys):
        pop = synth_population(SynthConfig(n_units=40, points_per_week=7, points_per_day=7, seed=12))
        path = tmp_path / "pop.csv"
        write_curves(path, pop.aux)
        argv = ["stratify", "--input", str(path), "--seed", "4", "--max-iter", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: population median did not converge; cannot linearize\n"
        )

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


# a centre curve (unit 1) and pairs symmetric around it: the centre is the median
_SYMMETRIC_CSV = """id,0.125,0.375,0.625,0.875
1,2,3,4,5
2,3,3,4,5
3,1,3,4,5
4,2,4,4,6
5,2,2,4,4
6,2,3,5,4
7,2,3,3,6
"""
_EXCLUDED_NOTE = (
    "note: 1 curve(s) coincide with the expansion point and are excluded from the linearization\n"
)


def test_a_library_warning_is_one_note_line_before_the_error(toy_csv, tmp_path, capsys):
    population = tmp_path / "symmetric.csv"
    population.write_text(_SYMMETRIC_CSV)
    argv = ["stratify", "--input", str(population), "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 4
    assert capsys.readouterr().err == _EXCLUDED_NOTE + (
        "error: some population curves coincide with the median; their "
        "linearized variables are undefined\n"
    )

    # the median of the three sampled curves is one of them
    path, _ = toy_csv
    design = tmp_path / "post.json"
    design.write_text(json.dumps({"type": "poststratified", "n": 3, "strata": [1] * 5 + [2] * 5}))
    argv = ["estimate", "--input", path, "--design", str(design), "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == _EXCLUDED_NOTE + (
        "error: variance estimation requires one linearized variable per unit (3), "
        "got 2; anchored exclusions make the formula undefined\n"
    )


@pytest.mark.parametrize(
    "command",
    ["estimate", "simulate", "stratify-raw", "stratify-linearized", "median", "stratify-scalar-max"],
)
def test_a_negative_seed_is_an_input_error_naming_the_flag(toy_csv, tmp_path, capsys, command):
    path, _ = toy_csv
    if command == "median":
        argv = ["median", "--input", path]
    elif command == "estimate":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"type": "srswor", "n": 5}))
        argv = ["estimate", "--input", path, "--design", str(design)]
    elif command == "simulate":
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(dict(n_units=40, points_per_week=14, points_per_day=2, seed=4)))
        designs = tmp_path / "designs.json"
        designs.write_text(json.dumps({"n": 20}))
        argv = ["simulate", "--input", str(synth), "--design", str(designs)]
    else:
        argv = ["stratify", "--input", path, "--on", command.split("-", 1)[1], "--H", "2"]
    assert main([*argv, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, not -1\n"


@pytest.mark.parametrize(
    "exc, code",
    [
        pytest.param(ParseError("bad row", path="p.csv", line=3), 2, id="ParseError"),
        pytest.param(GridMismatchError("grids differ"), 2, id="GridMismatchError"),
        pytest.param(OSError("no such file"), 2, id="OSError"),
        pytest.param(ValueError("bad value"), 2, id="ValueError"),
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


# five curves on three points, written with few digits so that a median
# on one of them reads back exactly
_FIVE = "id,0,1,2\na,1,2,3\nb,2,0,1\nc,0,1,0\nd,3,3,1\ne,1,0,2\n"
_WEIGHTS = st.one_of(
    # any positive float, subnormals included
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    # every binary scale
    st.integers(-1074, 1023).map(lambda e: float(np.ldexp(1.0, e))),
    st.sampled_from([1e308, 1e300, 1.0, 1e-300, sys.float_info.min, 5e-324]),
)


def _relative_gap_and_slack(pop, w, median):
    """The optimality gap at median over the weight total, and how far %.12g rounding moves it.

    The weights are first scaled by a power of two, exactly, so that no
    total overflows; the relative gap does not change with their scale.
    """
    w = np.ldexp(w, 1 - np.frexp(w.max())[1])
    diffs = pop.values - median
    r = pop.grid.norms(diffs)
    on = r <= 1e-12 * max(float(r.max()), 1.0)
    off = ~on
    gap = float(pop.grid.norms((w[off] / r[off]) @ diffs[off])) - w[on].sum() if off.any() else 0.0
    # a value written to 12 digits is off by at most 5e-12 of itself; a
    # move of delta turns each unit vector (Y_k - m) / r_k by at most
    # 2 delta / (r_k - delta)
    delta = float(pop.grid.norms(5e-12 * np.abs(median)))
    slack = np.inf if np.any(r[off] <= 2 * delta) else (w[off] * 2 * delta / (r[off] - delta)).sum()
    return max(gap, 0.0) / w.sum(), slack / w.sum()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(weights=[1e308, 1e308, 1.0, 1.0, 1.0])
@example(weights=[1e300, 1e300, 1.0, 1.0, 1.0])
@given(weights=st.lists(_WEIGHTS, min_size=5, max_size=5))
def test_any_weight_file_ends_in_an_exit_code_and_a_converged_median_meets_tol(tmp_path, capsys, weights):
    path = tmp_path / "five.csv"
    path.write_text(_FIVE)
    wpath = tmp_path / "w.txt"
    wpath.write_text("".join(f"{w!r}\n" for w in weights))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = main(["median", "--input", str(path), "--weights", str(wpath), "--out", str(out)])
    assert code in (0, 2, 3)
    assert all(line.startswith(("error:", "note:")) for line in capsys.readouterr().err.splitlines())
    if code == 2:
        return
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["converged"] == (code == 0)
    if diagnostics["converged"]:
        median = np.loadtxt(out / "median.csv", delimiter=",", skiprows=1)[:, 1]
        gap, slack = _relative_gap_and_slack(read_curves(path), np.array(weights), median)
        assert gap <= diagnostics["tol"] + slack + 20 * np.finfo(float).eps
