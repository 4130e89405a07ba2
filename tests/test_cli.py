"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import g4vlines as g
from g4vlines import dataio
from g4vlines import cli
from g4vlines.cli import main
from g4vlines.dataio import ALPHA_HEADER, TEMPSERIES_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_row(out):
    lines = [l for l in out.strip().splitlines() if l]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


class TestPredict:
    def test_pbv_total(self, capsys):
        code, out, _ = run(capsys, "predict", "--emitter", "PbV",
                           "--temp", "6.2", "--format", "csv")
        assert code == 0
        row = csv_row(out)
        assert float(row["total_mhz"]) == pytest.approx(38.9, abs=0.01)
        assert row["validity"] == "ok"

    def test_zero_temperature_no_phonons(self, capsys):
        code, out, _ = run(capsys, "predict", "--emitter", "PbV",
                           "--temp", "0", "--format", "csv")
        row = csv_row(out)
        assert code == 0
        assert float(row["gs_phonon_mhz"]) == 0.0
        assert float(row["es_phonon_mhz"]) == 0.0
        assert float(row["total_mhz"]) == pytest.approx(38.9, rel=1e-12)

    def test_snv_d_transition_dominated_by_gs_emission(self, capsys):
        code, out, _ = run(capsys, "predict", "--emitter", "SnV",
                           "--temp", "6.2", "--transition", "d",
                           "--format", "csv")
        row = csv_row(out)
        assert code == 0
        gs = float(row["gs_phonon_mhz"])
        assert gs == pytest.approx(4160.0, abs=15.0)
        assert gs > 0.99 * float(row["total_mhz"])

    def test_validity_flag(self, capsys):
        _, out, _ = run(capsys, "predict", "--emitter", "PbV",
                        "--temp", "25", "--format", "csv")
        assert "beyond_single_phonon_validity" in csv_row(out)["validity"]

    def test_emitter_from_file(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "predict",
                           "--emitter", str(fixtures_dir / "emitter_pbv.json"),
                           "--temp", "6.2", "--format", "csv")
        assert code == 0
        assert float(csv_row(out)["total_mhz"]) == pytest.approx(38.9, abs=0.01)

    def test_unknown_emitter_exit_2(self, capsys):
        code, _, err = run(capsys, "predict", "--emitter", "NV", "--temp", "5")
        assert code == 2
        assert "unknown emitter" in err

    @pytest.mark.parametrize("temp", ["inf", "nan", "-1"])
    def test_non_finite_or_negative_temperature_exit_2(self, capsys, temp):
        code, out, err = run(capsys, "predict", "--emitter", "PbV", "--temp", temp)
        assert code == 2
        assert out == ""
        message = {"inf": "temp_k must be finite, got inf",
                   "nan": "temp_k must be finite, got nan",
                   "-1": "temp_k must be >= 0, got -1.0"}[temp]
        assert message in err

    @pytest.mark.parametrize("field, value", [
        ("gamma0", float("nan")), ("alpha_gs", float("inf")),
        ("gamma_others", float("nan"))])
    def test_non_finite_emitter_file_exit_2(self, capsys, tmp_path, field,
                                            value):
        # json.dumps writes these as the NaN / Infinity tokens json.loads
        # reads; run() fails on anything raised out of cli.main
        path = tmp_path / "bad.json"
        fields = {"name": "bad", "f_gs": 3870.0, "f_es": 6920.0, "gamma0": 36.2}
        fields[field] = value
        path.write_text(json.dumps(fields))
        code, out, err = run(capsys, "predict", "--emitter", str(path),
                             "--temp", "6.2")
        assert code == 2
        assert out == ""
        assert f"{field} must be finite" in err


class TestThreshold:
    def test_pbv(self, capsys):
        code, out, _ = run(capsys, "threshold", "--emitter", "PbV",
                           "--format", "csv")
        assert code == 0
        assert float(csv_row(out)["threshold_k"]) == pytest.approx(16.19, abs=0.05)

    @pytest.mark.parametrize("ratio", ["nan", "1.0", "0.5"])
    def test_ratio_not_above_one_exit_2(self, capsys, ratio):
        code, out, err = run(capsys, "threshold", "--emitter", "PbV",
                             "--ratio", ratio)
        assert code == 2
        assert out == ""
        assert "ratio must exceed 1" in err

    @pytest.mark.parametrize("ratio", ["inf", "1e307"])
    def test_ratio_with_non_finite_target_exit_2(self, capsys, ratio):
        code, out, err = run(capsys, "threshold", "--emitter", "PbV",
                             "--ratio", ratio)
        assert code == 2
        assert out == ""
        assert "ratio * gamma0 must be finite" in err

    @pytest.mark.parametrize("emitter, ratio", [
        ("PbV", 1e16), ({"name": "weak", "f_gs": 3870.0, "f_es": 6920.0,
                          "gamma0": 36.2, "alpha_gs": 1e-25, "alpha_es": 1e-25}, 1.2)])
    def test_threshold_above_float_resolution_terminates(self, tmp_path,
                                                         emitter, ratio):
        # above ~8.8e12 K the float spacing exceeds the 1 mK tolerance, so
        # the bisection must also stop once the midpoint equals a bracket
        if isinstance(emitter, dict):
            path = tmp_path / "weak.json"
            path.write_text(json.dumps(emitter))
            p, emitter = g.EmitterParams(**emitter), str(path)
        else:
            p = g.REGISTRY.get(emitter)
        proc = subprocess.run(
            [sys.executable, "-m", "g4vlines", "threshold", "--emitter", emitter,
             "--ratio", repr(ratio), "--format", "csv"],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        t_star = float(csv_row(proc.stdout)["threshold_k"])
        assert t_star > 8.8e12
        assert g.linewidth_c(p, t_star) == pytest.approx(ratio * p.gamma0, rel=1e-9)

    def test_unbounded_exit_3(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        dataio.save_emitter_file(
            g.EmitterParams("flat", f_gs=100.0, f_es=300.0, gamma0=30.0), path)
        code, _, err = run(capsys, "threshold", "--emitter", str(path))
        assert code == 3
        assert "never violated" in err


class TestFit:
    def test_ple_fixture(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(capsys, "fit", "ple",
                           "--in", str(fixtures_dir / "ple_pbv.csv"),
                           "--out", str(out_path))
        assert code == 0
        report = dataio.load_fit_report(out_path)
        assert report.converged
        assert report.params["fwhm"] == pytest.approx(38.9, rel=0.05)
        assert "fwhm" in out

    def test_alpha_fixture_brackets_model_coupling(self, capsys, fixtures_dir,
                                                   tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run(capsys, "fit", "alpha",
                         "--in", str(fixtures_dir / "alpha_points.csv"),
                         "--out", str(out_path))
        assert code == 0
        alpha = dataio.load_fit_report(out_path).params["alpha"]
        assert 5e-9 <= alpha <= 9e-9

    def test_alpha_equal_weights(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run(capsys, "fit", "alpha",
                         "--in", str(fixtures_dir / "alpha_points.csv"),
                         "--weights", "equal", "--out", str(out_path))
        assert code == 0
        alpha = dataio.load_fit_report(out_path).params["alpha"]
        assert alpha == pytest.approx(7.51e-9, rel=0.001)

    def test_lifetime_exp2_fixture(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(capsys, "fit", "lifetime",
                           "--in", str(fixtures_dir / "trpl_gev.csv"),
                           "--model", "exp2", "--out", str(out_path))
        assert code == 0
        report = dataio.load_fit_report(out_path)
        assert report.params["tau_slow"] == pytest.approx(5.5, rel=0.02)
        assert report.derived["transform_limit_mhz"] == pytest.approx(28.9, abs=0.8)

    def test_tempseries_fixture(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run(capsys, "fit", "tempseries",
                         "--in", str(fixtures_dir / "tempseries_pbv.csv"),
                         "--emitter", "PbV", "--out", str(out_path))
        assert code == 0
        report = dataio.load_fit_report(out_path)
        assert report.params["gamma_others"] == pytest.approx(2.7, abs=1e-6)

    def test_summary_without_std_errors_with_warnings(self, capsys):
        report = g.FitReport(
            model="lorentzian", params={"fwhm": 38.9}, units={"fwhm": "MHz"},
            std_errors=None, reduced_chi2=1.25, n_iterations=7, converged=False,
            warnings=["no prominent peak", "second"])
        cli._print_fit_summary(report)
        assert capsys.readouterr().out.splitlines() == [
            "model      lorentzian", "converged  False  (7 iterations)",
            "fwhm       38.9 MHz", "reduced_chi2 1.25",
            "warning: no prominent peak", "warning: second"]

    def test_tempseries_nan_max_temp_exit_2(self, capsys, fixtures_dir, tmp_path):
        # NaN compares false: --max-temp nan kept all 7 points and exited 0
        out_path = tmp_path / "rep.json"
        code, _, err = run(capsys, "fit", "tempseries",
                           "--in", str(fixtures_dir / "tempseries_pbv.csv"),
                           "--emitter", "PbV", "--max-temp", "nan",
                           "--out", str(out_path))
        assert code == 2
        assert "max_temp" in err
        assert not out_path.exists()

    def test_tempseries_requires_emitter(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(capsys, "fit", "tempseries",
                           "--in", str(fixtures_dir / "tempseries_pbv.csv"),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "--emitter" in err

    def test_non_convergence_exit_4(self, capsys, fixtures_dir, tmp_path):
        code, _, _ = run(capsys, "fit", "ple",
                         "--in", str(fixtures_dir / "ple_pbv.csv"),
                         "--out", str(tmp_path / "r.json"),
                         "--max-iter", "1")
        assert code == 4

    @pytest.mark.parametrize("what", [["ple", "ple_pbv.csv"],
                                      ["lifetime", "trpl_gev.csv"]])
    @pytest.mark.parametrize("max_iter", ["0", "-2"])
    def test_max_iter_below_one_exit_2(self, capsys, fixtures_dir, tmp_path,
                                       what, max_iter):
        # it used to write the start values as an unconverged report, exit 4
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "fit", what[0], "--in", str(fixtures_dir / what[1]),
                           "--out", str(out), "--max-iter", max_iter)
        assert code == 2
        assert f"max_iter must be >= 1, got {max_iter}" in err
        assert not out.exists()

    @pytest.mark.parametrize("what", [["ple", "ple_pbv.csv"],
                                      ["lifetime", "trpl_gev.csv"]])
    def test_max_iter_above_limit_exit_2(self, capsys, fixtures_dir, tmp_path,
                                         what):
        # it was accepted, however large: a fit whose step test never
        # passes ran every iteration
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "fit", what[0], "--in", str(fixtures_dir / what[1]),
                           "--out", str(out), "--max-iter", "10001")
        assert code == 2
        assert "max_iter must be <= 10000, got 10001" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, fit", [
        (["ple", "ple_pbv.csv"],
         lambda f: g.fit_lorentzian(dataio.load_spectrum(f / "ple_pbv.csv"))),
        (["lifetime", "trpl_gev.csv", "--model", "exp1"],
         lambda f: g.fit_decay(dataio.load_decay_trace(f / "trpl_gev.csv"), "exp1")),
        (["lifetime", "trpl_gev.csv", "--model", "exp2"],
         lambda f: g.fit_decay(dataio.load_decay_trace(f / "trpl_gev.csv"), "exp2")),
        (["alpha", "alpha_points.csv"],
         lambda f: g.fit_cubic_alpha(dataio.load_alpha_points(f / "alpha_points.csv"))),
        (["tempseries", "tempseries_pbv.csv", "--emitter", "PbV"],
         lambda f: g.fit_temperature_series(
             dataio.load_temperature_series(f / "tempseries_pbv.csv"),
             g.REGISTRY.get("PbV"))),
    ], ids=["ple", "exp1", "exp2", "alpha", "tempseries"])
    def test_report_round_trip(self, capsys, fixtures_dir, tmp_path, argv, fit):
        # the report file holds the fit's fields and the toolkit version,
        # and reads back into the same report
        out_path = tmp_path / "rep.json"
        what, infile, *rest = argv
        code, _, _ = run(capsys, "fit", what, "--in", str(fixtures_dir / infile),
                         *rest, "--out", str(out_path))
        assert code == 0
        original = fit(fixtures_dir).to_dict()
        assert json.loads(out_path.read_text()) == dict(
            original, toolkit_version=g.__version__)
        assert dataio.load_fit_report(out_path).to_dict() == original

    @pytest.mark.parametrize("rows, weights, name", [
        (["1e200,5.0"], "delta", "delta_mhz per unit alpha"),  # f^3 overflows
        (["1e-120,5.0"], "delta", "sum of weight"),             # f^6 underflows
        (["1e-200,5.0"], "equal", "sum of weight"),
        (["200.0,1e300"], "delta", "sum of weight"),            # weight 0
        (["200.0,1e-200", "3870.0,435300.0"], "delta", "weights 1/delta_mhz^2"),
        (["200.0,1e-170", "3870.0,435300.0"], "delta", "weights 1/delta_mhz^2"),
        (["200.0,nan", "3870.0,435300.0"], "delta", "a.csv:2: value 'nan'"),
    ])
    def test_alpha_out_of_float_range_exit_2(self, capsys, tmp_path, rows,
                                             weights, name):
        path, report = tmp_path / "a.csv", tmp_path / "r.json"
        path.write_text("\n".join([ALPHA_HEADER, *rows]) + "\n")
        code, out, err = run(capsys, "fit", "alpha", "--in", str(path),
                             "--weights", weights, "--out", str(report))
        assert code == 2
        assert out == "" and not report.exists()
        assert err.startswith("error: ") and name in err

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "ple", "--in",
                           str(tmp_path / "nope.csv"),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2


def _write_configs(tmp_path):
    ple = {"emitter": "PbV", "temperature_k": 6.2,
           "grid_mhz": {"start": -120.0, "stop": 120.0, "step": 4.0},
           "dwell_s": 0.1, "peak_rate": 5000.0, "background_rate": 100.0,
           "seed": 11}
    series = dict(ple, n_scans=4, diffusion_sigma_mhz=3.0, seed=12)
    trpl = {"lifetime_ns": 4.4, "counts_total": 200000, "bin_width_ns": 0.2,
            "t_max_ns": 60.0, "seed": 13}
    hbt = {"rate": 2e5, "lifetime_ns": 4.4, "purity_rho": 0.9,
           "duration_s": 1.0, "bin_width_ns": 2.0, "tau_max_ns": 50.0,
           "seed": 14}
    paths = {}
    for name, cfg in (("ple", ple), ("series", series), ("trpl", trpl),
                      ("hbt", hbt)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths[name] = path
    return paths


class TestSimulate:
    def test_all_subcommands_write_outputs(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        expected = {"ple": ["scan.csv"], "series": ["scan_000.csv", "events.csv"],
                    "trpl": ["trace.csv"], "hbt": ["g2.csv"]}
        for what, files in expected.items():
            out_dir = tmp_path / what
            code, _, _ = run(capsys, "simulate", what,
                             "--config", str(paths[what]), "--out", str(out_dir))
            assert code == 0
            for name in files:
                assert (out_dir / name).exists()
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["subcommand"] == f"simulate {what}"
            assert manifest["toolkit_version"] == g.__version__
            assert manifest["seed"] == json.loads(paths[what].read_text())["seed"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        for what in ("ple", "series", "trpl", "hbt"):
            d1, d2 = tmp_path / f"{what}_a", tmp_path / f"{what}_b"
            for d in (d1, d2):
                code, _, _ = run(capsys, "simulate", what,
                                 "--config", str(paths[what]), "--out", str(d))
                assert code == 0
            names = sorted(p.name for p in d1.iterdir())
            assert names == sorted(p.name for p in d2.iterdir())
            for name in names:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_seed_override_changes_data(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        run(capsys, "simulate", "ple", "--config", str(paths["ple"]),
            "--out", str(d1))
        run(capsys, "simulate", "ple", "--config", str(paths["ple"]),
            "--out", str(d2), "--seed", "999")
        assert (d1 / "scan.csv").read_bytes() != (d2 / "scan.csv").read_bytes()
        manifest = json.loads((d2 / "manifest.json").read_text())
        assert manifest["seed"] == 999

    def test_outputs_parse_back(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        out_dir = tmp_path / "parse"
        run(capsys, "simulate", "series", "--config", str(paths["series"]),
            "--out", str(out_dir))
        spec = dataio.load_spectrum(out_dir / "scan_002.csv")
        assert spec.meta["scan_index"] == 2
        events = (out_dir / "events.csv").read_text().splitlines()
        assert events[0] == "scan_index,point_index,time_s,kind,center_mhz"
        assert len(events) >= 5

    def test_svg_smoke(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        out_dir = tmp_path / "svg"
        code, _, _ = run(capsys, "simulate", "trpl", "--config",
                         str(paths["trpl"]), "--out", str(out_dir), "--svg")
        assert code == 0
        svg = (out_dir / "trace.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        # a flat curve, one point wide, is drawn on a unit span
        cli._svg_lineplot(tmp_path / "flat.svg", [2.0], [5.0], "x", "y")
        assert 'points="56.00,364.00"' in (tmp_path / "flat.svg").read_text()

    def test_invalid_config_exit_2_names_field(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"emitter": "PbV", "temperature_k": 6.2,
                                   "dwell_s": 0.1, "peak_rate": 100.0,
                                   "background_rate": 1.0}))
        code, _, err = run(capsys, "simulate", "ple", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "grid_mhz" in err

    def test_infinite_tau_max_exit_2(self, capsys, tmp_path):
        # 1e400 parses as inf; it must end in exit 2, with nothing raised
        # out of cli.main
        cfg = tmp_path / "hbt.json"
        cfg.write_text('{"rate": 2e5, "lifetime_ns": 4.4, "purity_rho": 0.9, '
                       '"duration_s": 1.0, "bin_width_ns": 2.0, '
                       '"tau_max_ns": 1e400, "seed": 14}')
        code, _, err = run(capsys, "simulate", "hbt", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "tau_max" in err

    @pytest.mark.parametrize("what, key, message", [
        ("trpl", "t_max_ns", "t_max must be finite"),
        ("trpl", "counts_total", "at 'counts_total': cannot convert float infinity"),
        ("ple", "n_scans", "at 'n_scans': cannot convert float infinity"),
        ("hbt", "seed", "at 'seed': cannot convert float infinity")])
    def test_infinite_value_exit_2(self, capsys, tmp_path, what, key, message):
        # 1e400 parses as inf; it must end in exit 2, not an OverflowError
        paths = _write_configs(tmp_path)
        text = json.dumps(dict(json.loads(paths[what].read_text()), **{key: 1}))
        paths[what].write_text(text.replace(f'"{key}": 1', f'"{key}": 1e400'))
        code, _, err = run(capsys, "simulate", what, "--config",
                           str(paths[what]), "--out", str(tmp_path / "x"))
        assert code == 2
        assert message in err

    def test_tiny_grid_step_exit_2(self, capsys, tmp_path):
        # (stop - start) / step overflows; it must end in exit 2, not an
        # exception raised out of cli.main or a huge grid
        cfg = tmp_path / "ple.json"
        cfg.write_text(json.dumps(
            {"emitter": "PbV", "temperature_k": 6.2, "dwell_s": 0.1,
             "grid_mhz": {"start": -150, "stop": 150, "step": 1e-320},
             "peak_rate": 5000.0, "background_rate": 100.0}))
        code, _, err = run(capsys, "simulate", "ple", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "config error at 'grid_mhz'" in err

    @pytest.mark.parametrize("what, key, value, message", [
        ("ple", "noiseless", "false", "expected true or false"),
        ("ple", "noiseless", 0, "expected true or false"),
        ("series", "n_scans", 2.7, "expected an integer, got 2.7"),
        ("series", "n_scans", "4", "expected an integer"),
        ("trpl", "counts_total", 1000.5, "expected an integer"),
        ("hbt", "seed", True, "expected an integer"),
        ("ple", "grid_mhz", {"start": -120.0, "stop": 120.0, "step": 4.0,
                             "stpe": 1.0}, "unknown key 'stpe'"),
        ("ple", "grid_mhz", [-120.0, 120.0, 4.0], "expected a JSON object"),
        ("trpl", "background", {"a_fast": 6.0, "tau_fast_ns": 0.5,
                                "tau_fast": 0.5}, "unknown key 'tau_fast'")])
    def test_strict_config_values_exit_2(self, capsys, tmp_path, what, key,
                                         value, message):
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths[what].read_text()), **{key: value})
        paths[what].write_text(json.dumps(cfg))
        out_dir = tmp_path / "x"
        code, _, err = run(capsys, "simulate", what, "--config",
                           str(paths[what]), "--out", str(out_dir))
        assert code == 2
        assert f"config error at '{key}': {message}" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("what, key, value", [
        ("ple", "noiseless", True), ("series", "n_scans", 2.0),
        ("trpl", "counts_total", 2e5),
        ("trpl", "background", {"a_fast": 6.0, "tau_fast_ns": 0.5})])
    def test_strict_config_values_accepted(self, capsys, tmp_path, what, key,
                                           value):
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths[what].read_text()), **{key: value})
        paths[what].write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "simulate", what, "--config",
                         str(paths[what]), "--out", str(tmp_path / "x"))
        assert code == 0

    @pytest.mark.parametrize("what, key, text, message", [
        ("ple", "temperature_k", "true", "expected a number, got true"),
        ("series", "dwell_s", '"0.1"', 'expected a number, got "0.1"'),
        ("ple", "peak_rate", "1e400", "peak_rate must be finite, got inf"),
        ("series", "center0_mhz", "-1e400", "center0 must be finite, got -inf"),
        ("trpl", "lifetime_ns", "NaN", "lifetime must be finite, got nan"),
        ("trpl", "background", '{"a_fast": false, "tau_fast_ns": 0.5}',
         "expected a number, got false"),
        ("hbt", "rate", "[2e5]", "expected a number, got [200000.0]"),
        ("hbt", "duration_s", "1e400", "duration must be finite, got inf")])
    def test_strict_float_values_exit_2(self, capsys, tmp_path, what, key,
                                        text, message):
        # float fields take only JSON numbers other than bools, and finite
        # ones; `"temperature_k": true` used to run as 1.0 K. run() fails on
        # anything raised out of cli.main
        paths = _write_configs(tmp_path)
        cfg = json.dumps(dict(json.loads(paths[what].read_text()), **{key: 1}))
        paths[what].write_text(cfg.replace(f'"{key}": 1', f'"{key}": {text}'))
        out_dir = tmp_path / "x"
        code, _, err = run(capsys, "simulate", what, "--config",
                           str(paths[what]), "--out", str(out_dir))
        assert code == 2
        assert f"config error at '{key}': {message}" in err
        assert list(out_dir.iterdir()) == []

    def test_integral_float_values_accepted(self, capsys, tmp_path):
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths["ple"].read_text()), temperature_k=6,
                   grid_mhz={"start": -120, "stop": 120, "step": 4})
        paths["ple"].write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "simulate", "ple", "--config",
                         str(paths["ple"]), "--out", str(tmp_path / "x"))
        assert code == 0

    @pytest.mark.parametrize("what", ["ple", "series", "trpl", "hbt"])
    @pytest.mark.parametrize("root", ["[1, 2]", "5", "null", '"PbV"'])
    def test_config_root_not_object_exit_2(self, capsys, tmp_path, what, root):
        cfg = tmp_path / "root.json"
        cfg.write_text(root)
        code, _, err = run(capsys, "simulate", what, "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "config error at '<root>': expected a JSON object" in err

    @pytest.mark.parametrize("what, key", [
        ("ple", "n_scan"), ("series", "seeds"), ("trpl", "t_max"), ("hbt", "rate_hz")])
    def test_unknown_config_key_exit_2(self, capsys, tmp_path, what, key):
        paths = _write_configs(tmp_path)
        cfg = json.loads(paths[what].read_text())
        cfg[key] = 3
        paths[what].write_text(json.dumps(cfg))
        out_dir = tmp_path / "x"
        code, _, err = run(capsys, "simulate", what, "--config", str(paths[what]),
                           "--out", str(out_dir))
        assert code == 2
        assert f"config error at '{key}': unknown key" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("key, value, message", [
        ("grid_mhz", {"start": -120.0, "stop": 120.0}, "step"),
        ("emitter", "NV", "unknown emitter 'NV'")])
    def test_config_error_text_not_quoted(self, capsys, tmp_path, key, value,
                                          message):
        # a KeyError's text is reported as raised, not wrapped in quotes
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths["ple"].read_text()), **{key: value})
        paths["ple"].write_text(json.dumps(cfg))
        code, _, err = run(capsys, "simulate", "ple", "--config",
                           str(paths["ple"]), "--out", str(tmp_path / "x"))
        assert code == 2
        assert f"config error at '{key}': {message}" in err
        assert '"' not in err and f"'{message}'" not in err

    def test_readme_example_configs_match_loader(self, fixtures_dir):
        # the three example configs in README "Command line", // comments removed
        readme = (fixtures_dir.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Example configs", 1)[1].split("```json", 1)[1]
        block = block.split("```", 1)[0]
        text = re.sub(r"//[^\n]*", "", block)
        examples = [json.loads(part) for part in text.split("\n\n") if part.strip()]
        assert [set(e) for e in examples] == [
            set(cli.CONFIG_KEYS[what][1]) for what in ("ple", "trpl", "hbt")]
        assert cli.CONFIG_KEYS["series"] == cli.CONFIG_KEYS["ple"]

    def test_outdir_from_environment(self, capsys, tmp_path, monkeypatch):
        paths = _write_configs(tmp_path)
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("G4VLINES_OUTDIR", str(env_dir))
        code, _, _ = run(capsys, "simulate", "ple", "--config",
                         str(paths["ple"]))
        assert code == 0
        assert (env_dir / "scan.csv").exists()

    def test_no_outdir_exit_2(self, capsys, tmp_path, monkeypatch):
        paths = _write_configs(tmp_path)
        monkeypatch.delenv("G4VLINES_OUTDIR", raising=False)
        code, _, err = run(capsys, "simulate", "ple", "--config",
                           str(paths["ple"]))
        assert code == 2
        assert "output directory" in err


PBV_FIELDS = {"name": "x", "f_gs": 3870.0, "f_es": 6920.0, "lifetime": 4.4,
              "gamma0": 36.2, "alpha_gs": 7.51e-9, "alpha_es": 7.51e-9,
              "gamma_others": 2.7, "dw_fraction": 0.3}


class TestEmitterObjects:
    """Emitter files and inline emitters go through the simulate loader."""

    BAD_FIELDS = [
        ("alpha_gs", True, "expected a number, got true"),
        ("name", 5, "expected a string, got 5"),
        ("gamma0", "36.2", 'expected a number, got "36.2"'),
        ("f_gs", None, "expected a number, got null")]

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_bad_field_in_file_exit_2(self, capsys, tmp_path, field, value,
                                      message):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(dict(PBV_FIELDS, **{field: value})))
        code, out, err = run(capsys, "predict", "--emitter", str(path),
                             "--temp", "6.2")
        assert code == 2
        assert out == ""
        assert f"{path}: config error at '{field}': {message}" in err

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_bad_field_inline_exit_2(self, capsys, tmp_path, field, value,
                                     message):
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths["ple"].read_text()),
                   emitter=dict(PBV_FIELDS, **{field: value}))
        paths["ple"].write_text(json.dumps(cfg))
        out_dir = tmp_path / "x"
        code, _, err = run(capsys, "simulate", "ple", "--config",
                           str(paths["ple"]), "--out", str(out_dir))
        assert code == 2
        assert f"config error at 'emitter': {message} at '{field}'" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("nulls", [["lifetime"], ["dw_fraction"],
                                       ["lifetime", "dw_fraction"]])
    def test_null_where_default_is_none(self, capsys, tmp_path, nulls):
        fields = dict(PBV_FIELDS, **{key: None for key in nulls})
        path = tmp_path / "e.json"
        path.write_text(json.dumps(fields))
        code, out, _ = run(capsys, "predict", "--emitter", str(path),
                           "--temp", "6.2", "--format", "csv")
        assert code == 0
        assert float(csv_row(out)["total_mhz"]) == pytest.approx(38.9, abs=0.01)
        paths = _write_configs(tmp_path)
        cfg = dict(json.loads(paths["ple"].read_text()), emitter=fields)
        paths["ple"].write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "simulate", "ple", "--config",
                         str(paths["ple"]), "--out", str(tmp_path / "x"))
        assert code == 0

    @pytest.mark.parametrize("option", ["--config", "--emitter"])
    def test_invalid_json_names_path(self, capsys, tmp_path, option):
        path = tmp_path / "bad.json"
        path.write_text('{"emitter": "PbV", x}')
        argv = (["simulate", "ple", "--config", str(path), "--out",
                 str(tmp_path / "x")] if option == "--config"
                else ["predict", "--emitter", str(path), "--temp", "6.2"])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {path}: not valid JSON: Expecting property name" in err

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "predict", "--emitter", str(path),
                             "--temp", "6.2")
        assert code == 2
        assert out == ""
        assert f"error: {path}: not valid JSON: maximum recursion depth" in err


# emitter fields at the edge of the float range: f_gs^3 overflows, n(f, T)
# meets inf * 0, or a derived or summed linewidth overflows
_EXTREME_EMITTERS = [
    ({"f_gs": 1e200}, "gs_phonon_mhz"),
    ({"f_gs": 5e-324}, "gs_phonon_mhz"),
    ({"f_es": 1e200}, "es_phonon_mhz"),
    ({"lifetime": 1e-320, "gamma0": None}, "lifetime"),
    ({"gamma0": 5e-324, "lifetime": None}, "gamma0"),
    ({"gamma0": 1e307, "lifetime": None, "gamma_others": 1.79e308}, "total_mhz"),
]


class TestExtremeEmitters:
    @pytest.mark.parametrize("command", [["predict", "--temp", "6.2"],
                                         ["threshold"]])
    @pytest.mark.parametrize("fields, name", _EXTREME_EMITTERS)
    def test_exit_2_names_term_or_field(self, capsys, tmp_path, command,
                                        fields, name):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(dict(PBV_FIELDS, **fields)))
        code, out, err = run(capsys, command[0], "--emitter", str(path),
                             *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("fields, row, name", [
        *[(fields, None, name) for fields, name in _EXTREME_EMITTERS[:5]],
        ({}, "1e308,40.0", "gs_phonon_mhz"),  # n(f, T) overflows
        # the start value overflows the model, and the fit leaves the float range
        (_EXTREME_EMITTERS[5][0], None, "params.gamma_others"),
    ])
    def test_fit_tempseries_exit_2_names_term(self, capsys, tmp_path,
                                              fixtures_dir, fields, row, name):
        emitter, series = tmp_path / "extreme.json", tmp_path / "series.csv"
        emitter.write_text(json.dumps(dict(PBV_FIELDS, **fields)))
        lines = (fixtures_dir / "tempseries_pbv.csv").read_text().splitlines()
        series.write_text("\n".join(lines + ([row] if row else [])) + "\n")
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "fit", "tempseries", "--in", str(series),
                             "--emitter", str(emitter), "--out", str(report))
        assert code == 2
        assert out == "" and not report.exists()
        assert err.startswith("error: ") and name in err


class TestEmitters:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "emitters", "list")
        assert code == 0
        for name in ("SiV", "GeV", "SnV", "PbV"):
            assert name in out

    def test_show_pbv(self, capsys):
        code, out, _ = run(capsys, "emitters", "show", "PbV")
        assert code == 0
        assert "3870.0" in out and "6920.0" in out and "36.2" in out

    def test_show_siv_excited_coupling(self, capsys):
        code, out, _ = run(capsys, "emitters", "show", "SiV")
        assert code == 0
        assert "1.75e-08" in out

    def test_unknown_exit_2(self, capsys):
        code, _, err = run(capsys, "emitters", "show", "NV5")
        assert code == 2

    def test_show_without_name_exit_2(self, capsys):
        code, _, err = run(capsys, "emitters", "show")
        assert code == 2


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "g4vlines", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert g.__version__ in proc.stdout

    def test_usage_error_exit_2(self):
        proc = subprocess.run([sys.executable, "-m", "g4vlines", "predict"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


# any JSON value: the kinds a hand-written emitter file can hold by mistake
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(-10**20, 10**20) | st.just(10**400)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.0, -1.0])
    | st.sampled_from(sorted({v for name in g.REGISTRY.names()
                              for v in g.REGISTRY.get(name).to_dict().values()
                              if isinstance(v, float)})),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


# A change to a default float of a simulate config: any finite float, or the
# default scaled by 1e-3 ... 1e3, so that many examples run to the end.
_CHANGES = (st.floats(allow_nan=False, allow_infinity=False).map(
                lambda value: lambda default: value)
            | st.floats(-3.0, 3.0).map(
                lambda exponent: lambda default: default * 10.0 ** exponent))


class TestFuzz:
    @given(changed=st.dictionaries(st.sampled_from(sorted(PBV_FIELDS) + ["bogus"]),
                                   _JSON_VALUES, max_size=4),
           dropped=st.sets(st.sampled_from(sorted(PBV_FIELDS)), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_emitter_file_exit_0_or_2(self, tmp_path_factory, changed, dropped):
        # json.dumps writes inf and nan as the Infinity and NaN tokens, which
        # json.loads reads back as 1e400 would be read
        fields = {k: v for k, v in PBV_FIELDS.items() if k not in dropped}
        path = tmp_path_factory.getbasetemp() / "fuzz_emitter.json"
        path.write_text(json.dumps(dict(fields, **changed)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["predict", "--emitter", str(path), "--temp", "6.2"])
        assert code in (0, 2)
        assert (code == 0) == (out.getvalue() != "")
        assert code == 0 or err.getvalue().startswith(f"error: {path}: ")
        if code == 0:  # only values of the field's own JSON kind get through
            for key, value in changed.items():
                if key == "name":
                    assert isinstance(value, str)
                elif value is not None or key not in ("lifetime", "gamma0",
                                                      "dw_fraction"):
                    assert type(value) in (int, float), (key, value)

    @given(changed=st.dictionaries(
               st.sampled_from(sorted(set(PBV_FIELDS) - {"name"})),
               st.floats(allow_nan=False, allow_infinity=False), min_size=1),
           derive=st.sampled_from(["lifetime", "gamma0", None]),
           temp=st.floats(min_value=0.0, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_finite_floats_exit_0_2_or_3(self, tmp_path_factory, changed,
                                         derive, temp):
        # any finite float in any numeric field: an answer with every number
        # finite, an input error or "never violated", and no numpy warning
        fields = dict(PBV_FIELDS, **changed)
        if derive is not None:
            fields[derive] = None  # derived from the other one
        path = tmp_path_factory.getbasetemp() / "fuzz_floats.json"
        path.write_text(json.dumps(fields))
        for argv in (["predict", "--temp", repr(temp)], ["threshold"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], "--emitter", str(path), "--format", "csv",
                             *argv[1:]])
            assert code in (0, 2, 3), err.getvalue()
            if code == 0:
                for value in csv_row(out.getvalue()).values():
                    try:
                        number = float(value)
                    except ValueError:
                        continue  # a name or a flag
                    assert math.isfinite(number), (argv[0], value)

    @given(rows=st.lists(st.tuples(st.floats().map(repr), st.floats().map(repr)),
                         min_size=1, max_size=8),
           token=st.none() | st.sampled_from(["nan", "NaN", "-inf", "Infinity",
                                              "1e400"]),
           what=st.sampled_from([("alpha", ALPHA_HEADER, "--weights", "delta"),
                                 ("alpha", ALPHA_HEADER, "--weights", "equal"),
                                 ("tempseries", TEMPSERIES_HEADER, "--free",
                                  "gamma_others"),
                                 ("tempseries", TEMPSERIES_HEADER, "--free",
                                  "gamma_others,alpha_gs")]))
    @settings(max_examples=150, deadline=None)
    def test_fit_data_exit_0_2_or_4(self, tmp_path_factory, rows, token, what):
        # any float, and maybe a non-finite token, in an alpha or
        # temperature-series file: a report that reads back, an input error
        # or "not converged", and no warning
        kind, header, option, value = what
        if token is not None:
            rows[-1] = (rows[-1][0], token)  # a delta or a linewidth
        base = tmp_path_factory.getbasetemp()
        path, report = base / "fuzz_fit.csv", base / "fuzz_report.json"
        path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        report.unlink(missing_ok=True)
        argv = ["fit", kind, "--in", str(path), "--out", str(report), option, value]
        if kind == "tempseries":
            argv += ["--emitter", "PbV"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 4), err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")
        assert report.exists() == (code != 2)
        if code != 2:
            dataio.load_fit_report(report)

    @given(detunings=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=40, unique=True),
           grid=st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=0.0, exclude_min=True,
                                    allow_infinity=False)),
           counts=st.lists(st.floats(min_value=0.0, allow_infinity=False)
                           | st.integers(0, 10**6).map(float),
                           min_size=40, max_size=40),
           token=st.none() | st.sampled_from(["nan", "-1", "1e400"]),
           what=st.sampled_from([["ple"], ["lifetime", "--model", "exp1"],
                                 ["lifetime", "--model", "exp2"]]),
           max_iter=st.sampled_from([1, 3, g.fitting.MAX_ITERATIONS]))
    @settings(max_examples=150, deadline=None)
    def test_fit_ple_lifetime_exit_0_2_or_4(self, tmp_path_factory, detunings,
                                            grid, counts, token, what,
                                            max_iter):
        # any finite counts on sorted detunings (ple) or on a uniform time
        # grid (lifetime), maybe with one bad count: a report that reads
        # back, an input error or "not converged", and no warning
        if what[0] == "ple":
            header, xs = dataio.SPECTRUM_HEADER, sorted(detunings)
        else:
            header, (start, step) = dataio.DECAY_HEADER, grid
            xs = [start + k * step for k in range(len(detunings))]
        ys = [repr(c) for c in counts[:len(xs)]]
        if token is not None:
            ys[-1] = token
        base = tmp_path_factory.getbasetemp()
        path, report = base / "fuzz_trace.csv", base / "fuzz_trace_report.json"
        path.write_text("\n".join([header, *map(",".join, zip(map(repr, xs), ys))])
                        + "\n")
        report.unlink(missing_ok=True)
        argv = ["fit", what[0], "--in", str(path), "--out", str(report),
                "--max-iter", str(max_iter), *what[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 4), err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")
        assert report.exists() == (code != 2)
        if code != 2:
            dataio.load_fit_report(report)

    @given(changed=st.dictionaries(
               st.sampled_from(["temperature_k", "dwell_s", "peak_rate",
                                "background_rate", "center0_mhz",
                                "diffusion_sigma_mhz", "jump_prob",
                                "jump_sigma_mhz", "ionization_coeff",
                                "repump_rate"]),
               st.floats(allow_nan=False, allow_infinity=False), min_size=1),
           grid=st.none() | st.tuples(
               st.floats(allow_nan=False, allow_infinity=False),
               st.floats(allow_nan=False, allow_infinity=False),
               st.integers(1, 30)),
           what=st.sampled_from(["ple", "series"]), n_scans=st.integers(1, 4),
           repump=st.sampled_from(["none", "between_scans", "resonant"]),
           noiseless=st.booleans(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_simulate_scan_config_exit_0_or_2(self, tmp_path_factory, changed,
                                              grid, what, n_scans, repump,
                                              noiseless, seed):
        # any finite float in any numeric field of a scan config: outputs
        # with every number finite, or an input error, and no numpy warning.
        # A grid (start, step, points) stays small; the cap has its own test
        cfg = {"emitter": "PbV", "temperature_k": 6.2,
               "grid_mhz": {"start": -40.0, "stop": 40.0, "step": 4.0},
               "dwell_s": 0.1, "peak_rate": 5000.0, "background_rate": 100.0,
               "ionization_coeff": 1e-3, "repump_rate": 1e-3,
               "n_scans": n_scans if what == "series" else 1, "repump": repump,
               "noiseless": noiseless, "seed": seed, **changed}
        if grid is not None:
            start, step, points = grid
            cfg["grid_mhz"] = {"start": start, "stop": start + points * step,
                               "step": step}
        base = tmp_path_factory.getbasetemp()
        path, out_dir = base / "fuzz_scan.json", base / "fuzz_scan"
        path.write_text(json.dumps(cfg))
        shutil.rmtree(out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", what, "--config", str(path),
                         "--out", str(out_dir)])
        assert code in (0, 2), err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")
        if code == 0:
            assert_finite_outputs(out_dir)

    @given(changed=st.dictionaries(
               st.sampled_from(["rate", "lifetime_ns", "purity_rho",
                                "duration_s", "bin_width_ns", "tau_max_ns"]),
               _CHANGES, min_size=1),
           bins=st.sampled_from([(2.0, 50.0), (1e5, 1e6)]),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_simulate_hbt_config_exit_0_or_2(self, tmp_path_factory, changed,
                                             bins, seed):
        # any finite float, or a scaled default, in any field of an hbt
        # config, from fine bins (binary-search windows) or wide ones (the
        # cell table's windows): finite outputs or an input error, and no
        # numpy warning. The stream and histogram caps are lowered to 2e4
        # photons and 2001 bins here, so that no example draws or writes
        # more; the real caps are tested without drawing in
        # test_simulate_caps_before_drawing
        bin_width, tau_max = bins
        cfg = {"rate": 2e5, "lifetime_ns": 4.4, "purity_rho": 0.9,
               "duration_s": 0.05, "bin_width_ns": bin_width,
               "tau_max_ns": tau_max, "seed": seed}
        for key, change in changed.items():
            cfg[key] = change(cfg[key])
        code, out_dir = self.run_simulate(tmp_path_factory, "hbt", cfg)
        if code == 0:
            assert_finite_outputs(out_dir)

    @given(changed=st.dictionaries(
               st.sampled_from(["lifetime_ns", "bin_width_ns", "t_max_ns",
                                "a_fast", "tau_fast_ns"]),
               _CHANGES, min_size=1),
           counts_total=st.integers(-10, 30_000) | st.integers(),
           background=st.booleans(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_simulate_trpl_config_exit_0_or_2(self, tmp_path_factory, changed,
                                              counts_total, background, seed):
        # any finite float, or a scaled default, in any float field of a
        # trpl config, any integer count: finite outputs or an input error,
        # and no numpy warning, with the count and bin caps lowered as for
        # hbt above
        cfg = {"lifetime_ns": 4.4, "counts_total": counts_total,
               "bin_width_ns": 0.2, "t_max_ns": 60.0, "seed": seed}
        background_cfg = {"a_fast": 6.0, "tau_fast_ns": 0.5}
        for key, change in changed.items():
            fields = background_cfg if key in background_cfg else cfg
            fields[key] = change(fields[key])
        if background:
            cfg["background"] = background_cfg
        code, out_dir = self.run_simulate(tmp_path_factory, "trpl", cfg)
        if code == 0:
            assert_finite_outputs(out_dir)

    @staticmethod
    def run_simulate(tmp_path_factory, what, cfg):
        """Exit code and output directory of `simulate what` on cfg, run with
        every warning an error except trpl's documented short window, and
        with at most 2e4 photons or counts and 2001 bins."""
        base = tmp_path_factory.getbasetemp()
        path, out_dir = base / f"fuzz_{what}.json", base / f"fuzz_{what}"
        path.write_text(json.dumps(cfg))
        shutil.rmtree(out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            mp.setattr(g.simulate, "_MAX_STREAM_PHOTONS", 20_000)
            mp.setattr(g.simulate, "_MAX_TRPL_COUNTS", 20_000)
            mp.setattr(g.simulate, "MAX_BINS", 2001)
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "t_max = .* below 10 lifetimes",
                                    UserWarning)
            code = main(["simulate", what, "--config", str(path),
                         "--out", str(out_dir)])
        assert code in (0, 2), err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")
        return code, out_dir

    @pytest.mark.parametrize("what, cfg, cap", [
        ("hbt", {"rate": 1e6, "lifetime_ns": 4.4, "purity_rho": 0.9,
                 "bin_width_ns": 2.0, "tau_max_ns": 50.0}, "_MAX_STREAM_PHOTONS"),
        ("trpl", {"lifetime_ns": 4.4, "bin_width_ns": 0.2, "t_max_ns": 60.0,
                  "background": {"a_fast": 6.0, "tau_fast_ns": 0.5}},
         "_MAX_TRPL_COUNTS")])
    def test_simulate_caps_before_drawing(self, tmp_path, monkeypatch, what,
                                          cfg, cap):
        # one photon or count over the real cap exits 2 before any draw; at
        # the cap the config is accepted and reaches the generator
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"random stream drawn: {name}")

        monkeypatch.setattr(g.simulate, "substream", lambda *args: NoDraws())
        limit = getattr(g.simulate, cap)
        path = tmp_path / "cfg.json"
        for size, accepted in ((limit + 1, False), (limit, True)):
            if what == "hbt":
                cfg["duration_s"] = size / cfg["rate"]
            else:
                cfg["counts_total"] = size
            path.write_text(json.dumps(cfg))
            argv = ["simulate", what, "--config", str(path),
                    "--out", str(tmp_path / "out")]
            if accepted:
                with pytest.raises(AssertionError, match="random stream drawn"):
                    main(argv)
            else:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(argv) == 2
                assert "exceeds" in err.getvalue() or "must be in" in err.getvalue()


def assert_finite_outputs(out_dir):
    """Every CSV value, header value and manifest number written is finite."""
    for written in out_dir.iterdir():
        for token in re.split(r"[\s,=:\[\]{}\"]+", written.read_text()):
            try:
                number = float(token)
            except ValueError:
                continue  # a key, a name or a file name
            assert math.isfinite(number), (written.name, token)
