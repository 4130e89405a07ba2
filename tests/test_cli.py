"""Command-line interface: outputs, exit codes, determinism."""

import json
import re
import subprocess
import sys

import pytest

import g4vlines as g
from g4vlines import dataio
from g4vlines import cli
from g4vlines.cli import main


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
        assert "temp_k must be finite and >= 0" in err

    @pytest.mark.parametrize("field, value", [
        ("gamma0", float("nan")), ("alpha_gs", float("inf")),
        ("gamma_others", float("nan"))])
    def test_non_finite_emitter_file_exit_2(self, tmp_path, field, value):
        # json.dumps writes these as the NaN / Infinity tokens json.loads reads
        path = tmp_path / "bad.json"
        fields = {"name": "bad", "f_gs": 3870.0, "f_es": 6920.0, "gamma0": 36.2}
        fields[field] = value
        path.write_text(json.dumps(fields))
        proc = subprocess.run(
            [sys.executable, "-m", "g4vlines", "predict", "--emitter", str(path),
             "--temp", "6.2"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{field} must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_invalid_config_exit_2_names_field(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"emitter": "PbV", "temperature_k": 6.2,
                                   "dwell_s": 0.1, "peak_rate": 100.0,
                                   "background_rate": 1.0}))
        code, _, err = run(capsys, "simulate", "ple", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "grid_mhz" in err

    def test_infinite_tau_max_exit_2(self, tmp_path):
        # 1e400 parses as inf; it must end in exit 2, not a traceback
        cfg = tmp_path / "hbt.json"
        cfg.write_text('{"rate": 2e5, "lifetime_ns": 4.4, "purity_rho": 0.9, '
                       '"duration_s": 1.0, "bin_width_ns": 2.0, '
                       '"tau_max_ns": 1e400, "seed": 14}')
        proc = subprocess.run(
            [sys.executable, "-m", "g4vlines", "simulate", "hbt",
             "--config", str(cfg), "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "tau_max" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_tiny_grid_step_exit_2(self, tmp_path):
        # (stop - start) / step overflows; it must end in exit 2, not a
        # traceback or a huge grid
        cfg = tmp_path / "ple.json"
        cfg.write_text(json.dumps(
            {"emitter": "PbV", "temperature_k": 6.2, "dwell_s": 0.1,
             "grid_mhz": {"start": -150, "stop": 150, "step": 1e-320},
             "peak_rate": 5000.0, "background_rate": 100.0}))
        proc = subprocess.run(
            [sys.executable, "-m", "g4vlines", "simulate", "ple",
             "--config", str(cfg), "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error at 'grid_mhz'" in proc.stderr
        assert "Traceback" not in proc.stderr

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
    def test_strict_float_values_exit_2(self, tmp_path, what, key, text,
                                        message):
        # float fields take only JSON numbers other than bools, and finite
        # ones; `"temperature_k": true` used to run as 1.0 K
        paths = _write_configs(tmp_path)
        cfg = json.dumps(dict(json.loads(paths[what].read_text()), **{key: 1}))
        paths[what].write_text(cfg.replace(f'"{key}": 1', f'"{key}": {text}'))
        out_dir = tmp_path / "x"
        proc = subprocess.run(
            [sys.executable, "-m", "g4vlines", "simulate", what,
             "--config", str(paths[what]), "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert f"config error at '{key}': {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
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
