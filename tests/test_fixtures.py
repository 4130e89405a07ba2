"""The bundled fixtures are exactly what scripts/make_fixtures.py writes;
scripts/digest.py digests every series_fit fit report, then the decay,
temperature-series, alpha and fixture PLE fits, then the hbt_fine HBT
histograms, then the hbt_wide and criterion-7 ones."""

import argparse
import importlib.util
import subprocess
import sys

import pytest


def _script(fixtures_dir, name):
    path = fixtures_dir.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_reproduces_fixtures(fixtures_dir, tmp_path, monkeypatch,
                                           capsys):
    module = _script(fixtures_dir, "make_fixtures")
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    module.main()
    capsys.readouterr()

    names = sorted(p.name for p in fixtures_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (fixtures_dir / name).read_bytes(), name


def test_digest_covers_every_series_fit_report(fixtures_dir):
    module = _script(fixtures_dir, "digest")
    assert module.seed_range("1-12") == range(1, 13)
    assert module.seed_range("7") == range(7, 8)
    # an empty range ended in an IndexError at seeds[0]; now a usage error
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range '5-3'"):
        module.seed_range("5-3")
    script = fixtures_dir.parent / "scripts" / "digest.py"
    run = subprocess.run([sys.executable, str(script), "--seeds", "5-3"],
                         capture_output=True, text=True)
    assert run.returncode == 2 and "empty seed range '5-3'" in run.stderr
    reports = list(module.series_fit_reports(range(3, 4)))
    hexdigest, n_reports = module.digest(map(module.report_bytes, reports))
    assert n_reports == 125  # one report per scan of the series_fit op
    again = module.digest(map(module.report_bytes,
                              module.series_fit_reports(range(3, 4))))
    assert len(hexdigest) == 64 and again[0] == hexdigest


def test_digest_covers_the_other_fits(fixtures_dir):
    module = _script(fixtures_dir, "digest")
    fits = list(module.other_fits(range(3, 5)))
    assert [label for label, _ in fits] == [
        "cli trace seed 3 exp1", "cli trace seed 3 exp2",
        "cli trace seed 4 exp1", "cli trace seed 4 exp2",
        "fixture trace exp1", "fixture trace exp2",
        "fixture tempseries 1 free", "fixture tempseries 2 free",
        "fixture alpha delta", "fixture alpha equal", "fixture ple"]
    models = [fit().model for _, fit in fits]
    assert models == ["exp1", "exp2"] * 3 + ["temp_series"] * 2 \
        + ["cubic_alpha"] * 2 + ["lorentzian"]

    def fits_digest(calls):
        return module.digest(module.labelled(module.called(calls),
                                             module.report_bytes))

    hexdigest, n_reports = fits_digest(fits[:1])
    assert n_reports == 1
    assert len(hexdigest) == 64 and fits_digest(fits[:1])[0] == hexdigest
    assert fits_digest(fits[2:3])[0] != hexdigest


def test_digest_covers_every_benchmark_histogram(fixtures_dir):
    # line 3: the one-segment hbt_fine streams; line 4: the many-segment
    # hbt_wide and criterion-7 streams
    module = _script(fixtures_dir, "digest")
    fine = list(module.runs(range(3, 5), "hbt_fine"))
    assert [label for label, _ in fine] == ["hbt_fine seed 3", "hbt_fine seed 4"]
    long = list(module.long_runs(range(3, 5)))
    assert [label for label, _ in long] == [
        "hbt_wide seed 3", "hbt_wide seed 4", "criterion 7"]

    def hbt_digest(calls):
        return module.digest(module.labelled(module.called(calls),
                                             module.histogram_bytes))

    hexdigest, n_hists = hbt_digest(fine[:1])
    assert n_hists == 1
    assert len(hexdigest) == 64 and hbt_digest(fine[:1])[0] == hexdigest
    assert hbt_digest(fine[1:2])[0] != hexdigest
    assert hbt_digest(long[:1])[0] not in (hexdigest, hbt_digest(long[1:2])[0])
