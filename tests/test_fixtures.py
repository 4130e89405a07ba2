"""The bundled fixtures are exactly what scripts/make_fixtures.py writes."""

import importlib.util


def test_make_fixtures_reproduces_fixtures(fixtures_dir, tmp_path, monkeypatch,
                                           capsys):
    script = fixtures_dir.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    module.main()
    capsys.readouterr()

    names = sorted(p.name for p in fixtures_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (fixtures_dir / name).read_bytes(), name
