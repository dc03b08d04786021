"""The layer benchmarks in benchmarks/ load, run and refuse bad arguments.

Each script is loaded by path and its ``main`` run once on its smallest
grid, so a chwall name or a ``RunConfig`` field that one of them uses and
that no longer exists fails here rather than on the next benchmark run.
"""

import importlib.util
import json
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_script_loads():
    names = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))
    assert names == ["bench_scale", "bench_spectrum", "bench_step"]
    for name in names:
        assert callable(_load(name).main)


@pytest.mark.parametrize("name", ["bench_step", "bench_spectrum", "bench_scale"])
def test_quartile_scripts_refuse_one_repeat(name, tmp_path, capsys):
    # quartiles need two samples, so one is refused before any timing runs
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        _load(name).main(["--repeat", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--repeat must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["bench_step", "bench_spectrum", "bench_scale"])
def test_every_bench_script_runs(name, tmp_path, monkeypatch):
    module = _load(name)
    if hasattr(module, "SIZES"):
        monkeypatch.setattr(module, "SIZES", (min(module.SIZES),))
    out = tmp_path / "bench.json"
    module.main(["--repeat", "2", "--out", str(out)])
    assert json.loads(out.read_text())["cases"]
