import hashlib
import json
import os
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chwall as cw
from chwall.cli import main
from chwall.config import (
    MAX_NODES,
    ConfigError,
    RunConfig,
    config_hash,
    parse_config,
    serialize_config,
)


BASE_CONFIG = """\
[grid]
mode = strip2d
Lx = 1.0
Ly = 1.0
nx = 8
ny = 8

[potential]
kind = double_well

[constants]
b = 1.0
c = 1.0
alpha = 1.0
beta = 1.0

[stepper]
dt = 1e-3
t_end = 0.02

[initial]
kind = cosine
amplitude = 0.1
mean = 0.05

[io]
output_dir = {out}
snapshot_stride = 5

[run]
seed = 7
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_roundtrip(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "o"))
    cfg = parse_config(path)
    path2 = write_config(tmp_path, serialize_config(cfg), "run2.ini")
    cfg2 = parse_config(path2)
    assert cfg == cfg2
    assert config_hash(cfg) == config_hash(cfg2)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# includes what the parser strips or cuts: whitespace, line breaks and the
# inline comment marks "#" and ";"
_PATH = st.text(alphabet="abcxyz0123456789_-./% \t\n\r#;", min_size=1, max_size=16)


@st.composite
def run_config_values(draw):
    """The fields of a random config that passes validation, by name."""
    kind = draw(st.sampled_from(["double_well", "polynomial_custom"]))
    initial = draw(st.sampled_from(["constant", "cosine", "random_fourier", "file"]))
    ny = draw(st.integers(4, MAX_NODES // 4))
    return dict(
        mode=draw(st.sampled_from(["strip2d", "interval1d"])),
        Lx=draw(_POSITIVE), Ly=draw(_POSITIVE),
        nx=draw(st.integers(4, MAX_NODES // ny)), ny=ny,
        potential_kind=kind,
        potential_coeffs=tuple(draw(st.lists(
            _FINITE, min_size=int(kind == "polynomial_custom"), max_size=5))),
        b=draw(_POSITIVE), c=draw(_POSITIVE),
        alpha=draw(_POSITIVE), beta=draw(_POSITIVE),
        scheme=draw(st.sampled_from(["semi_implicit", "newton"])),
        dt=draw(_POSITIVE), t_end=draw(_POSITIVE), dt_min=draw(_POSITIVE),
        stabilization_S=draw(st.none() | st.floats(0.0, allow_infinity=False)),
        initial_kind=initial,
        initial_amplitude=draw(_FINITE), initial_mean=draw(_FINITE),
        initial_modes=draw(st.integers(1, 100)),
        initial_path=draw(_PATH if initial == "file" else st.just("") | _PATH),
        output_dir=draw(_PATH),
        series_stride=draw(st.integers(1, 10 ** 9)),
        snapshot_stride=draw(st.integers(0, 10 ** 9)),
        plots=draw(st.booleans()),
        probe_window=draw(_POSITIVE), kernel_tol=draw(_POSITIVE),
        rate_fit_t_min=draw(st.none() | _FINITE), fit_tol=draw(_FINITE),
        reference_path=draw(st.just("") | _PATH),
        seed=draw(st.integers(0, 2 ** 63)),
    )


run_configs = run_config_values().map(lambda values: RunConfig(**values))


@settings(max_examples=5, deadline=None)
@given(values=run_config_values())
def test_run_configs_draws_every_field(values):
    # a field the strategy leaves out keeps its default and escapes the
    # round trip, so a key added to RunConfig must be drawn here too
    assert set(values) == {f.name for f in fields(RunConfig)}


# each field's "section.key" as a config file writes it, from its declaration
_WHERE = {f.name: f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
          for f in fields(RunConfig)}


def config_entry(name, text):
    """A config file that sets the one field name to text."""
    section, key = _WHERE[name].split(".")
    return f"[{section}]\n{key} = {text}\n"


_NOT_TEXT = sorted(name for name, value in vars(RunConfig()).items()
                   if not isinstance(value, str))

_OUT_OF_RANGE = {
    "Lx": st.floats(max_value=0.0) | st.just("nan"),
    "Ly": st.floats(max_value=0.0) | st.just("inf"),
    "nx": st.integers(max_value=3),
    "ny": st.integers(max_value=3),
    "b": st.floats(max_value=0.0), "c": st.floats(max_value=0.0),
    "alpha": st.floats(max_value=0.0), "beta": st.floats(max_value=0.0),
    "dt": st.floats(max_value=0.0), "t_end": st.floats(max_value=0.0),
    "dt_min": st.floats(max_value=0.0),
    "stabilization_S": st.floats(max_value=0.0, exclude_max=True) | st.just("nan"),
    "initial_modes": st.integers(max_value=0),
    "seed": st.integers(max_value=-1),
    "initial_amplitude": st.sampled_from(["nan", "inf"]),
    "initial_mean": st.sampled_from(["nan", "-inf"]),
    "potential_coeffs": st.sampled_from(["1,nan", "inf,0", "1,0,-inf"]),
    "series_stride": st.integers(max_value=0),
    "snapshot_stride": st.integers(max_value=-1),
    "probe_window": st.floats(max_value=0.0), "kernel_tol": st.floats(max_value=0.0),
    "rate_fit_t_min": st.sampled_from(["nan", "inf"]),
    "fit_tol": st.sampled_from(["nan", "-inf"]),
    "mode": st.sampled_from(["strip3d", "Strip2D", "none"]),
    "scheme": st.sampled_from(["implicit", "euler"]),
    "potential_kind": st.sampled_from(["quartic", "none"]),
    "initial_kind": st.sampled_from(["zeros", "sine"]),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=run_configs)
def test_config_serialize_parse_roundtrip(tmp_path, cfg):
    # a config is either written so that it reads back unchanged, or refused
    try:
        text = serialize_config(cfg)
    except ConfigError as exc:
        assert "config file cannot hold" in str(exc)
        return
    assert parse_config(write_config(tmp_path, text)) == cfg


@pytest.mark.parametrize("path", ["runs/a #1", "a ;b", "#a", ";", " a", "a\t",
                                  "a\nb", "a\rb"])
def test_serialize_refuses_text_the_parser_would_change(path):
    with pytest.raises(ConfigError, match="io.output_dir"):
        serialize_config(RunConfig(output_dir=path))


@pytest.mark.parametrize("path", ["runs/a#1", "a;b#c", "50%", "a b", ""])
def test_serialize_keeps_text_the_parser_reads_back(tmp_path, path):
    cfg = RunConfig(output_dir=path)
    assert parse_config(write_config(tmp_path, serialize_config(cfg))) == cfg


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_NOT_TEXT),
       junk=st.text(alphabet="xzqwk!?", min_size=1, max_size=8))
def test_config_rejects_unparsable_values(tmp_path, name, junk):
    with pytest.raises(ConfigError, match=f"^{_WHERE[name]} = "):
        parse_config(write_config(tmp_path, config_entry(name, junk)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(_OUT_OF_RANGE)))
def test_config_rejects_out_of_range_values(tmp_path, data, name):
    value = data.draw(_OUT_OF_RANGE[name])
    text = repr(value) if isinstance(value, float) else str(value)
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, config_entry(name, text)))


def test_config_defaults_and_types(tmp_path):
    path = write_config(tmp_path, "[grid]\nmode = interval1d\nLy = 2.0\nny = 12\n")
    cfg = parse_config(path)
    assert cfg.mode == "interval1d"
    assert cfg.Ly == 2.0 and cfg.ny == 12
    assert cfg.b == 1.0 and cfg.stabilization_S is None


def test_config_rejects_negative_constant(tmp_path):
    bad = BASE_CONFIG.format(out=tmp_path) + "\n[constants]\nbeta = -1.0\n"
    # configparser forbids duplicate sections; build a clean bad config instead
    bad = bad.replace("beta = 1.0", "beta = -0.5", 1).split("\n[constants]\nbeta")[0]
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError, match="beta.*positive"):
        parse_config(path)


@pytest.mark.parametrize("line, bad", [
    ("dt = 1e-3", "dt = nan"),
    ("t_end = 0.02", "t_end = inf"),
    ("t_end = 0.02", "t_end = 0.02\ndt_min = nan"),
    ("Lx = 1.0", "Lx = nan"),
    ("Ly = 1.0", "Ly = inf"),
    ("b = 1.0", "b = nan"),
    ("c = 1.0", "c = inf"),
    ("alpha = 1.0", "alpha = nan"),
    ("beta = 1.0", "beta = -inf"),
    ("seed = 7", "seed = 7\n[analysis]\nkernel_tol = nan"),
    ("seed = 7", "seed = 7\n[analysis]\nkernel_tol = inf"),
    ("seed = 7", "seed = 7\n[analysis]\nprobe_window = inf"),
    ("seed = 7", "seed = 7\n[analysis]\nfit_tol = nan"),
    ("seed = 7", "seed = 7\n[analysis]\nrate_fit_t_min = inf"),
])
def test_config_rejects_non_finite(tmp_path, line, bad):
    text = BASE_CONFIG.format(out=tmp_path).replace(line, bad, 1)
    with pytest.raises(ConfigError, match=f"{bad.splitlines()[-1]}: must be finite"):
        parse_config(write_config(tmp_path, text))


_FLOAT_KEYS = sorted(name for name, ftype in typing.get_type_hints(RunConfig).items()
                     if float in (ftype, *typing.get_args(ftype)))


@pytest.mark.parametrize("name", _FLOAT_KEYS)
def test_config_refuses_nan_under_every_float_key(tmp_path, name):
    # every float is checked by its type, and named by its key in the file
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, config_entry(name, "nan")))
    assert str(exc.value).startswith(f"{_WHERE[name]} = nan: must be finite")


# the text config_hash hashes for the default config; "\x20" is the space
# before an empty value
DEFAULT_CONFIG_TEXT = """\
[grid]
mode = strip2d
Lx = 1
Ly = 1
nx = 32
ny = 32

[potential]
kind = double_well
coeffs =\x20

[constants]
b = 1
c = 1
alpha = 1
beta = 1

[stepper]
scheme = semi_implicit
dt = 0.001
t_end = 1
stabilization_S = none
dt_min = 1e-08

[initial]
kind = random_fourier
amplitude = 0.10000000000000001
mean = 0
modes = 3
path =\x20

[io]
output_dir = run_out
series_stride = 1
snapshot_stride = 0
plots = true

[analysis]
probe_window = 0.5
kernel_tol = 1e-08
rate_fit_t_min = none
fit_tol = 0.10000000000000001

[reference]
psi_path =\x20

[run]
seed = 0

"""


def test_default_config_text_is_pinned():
    # a changed key, section, order or number format would change the
    # config_hash of every run
    assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT


@pytest.mark.parametrize("text", [
    "[DEFAULT]\ndt = 0.5\n",
    "[DEFAULT]\ndt = 0.5\n\n[stepper]\nt_end = 1.0\n",
    "[DEFAULT]\ndt = 0.5\n\n[grid]\nnx = 8\n",
], ids=["alone", "inherited", "beside_another_section"])
def test_cli_refuses_a_default_section(tmp_path, capsys, monkeypatch, text):
    # configparser would give [DEFAULT]'s keys to every section: dropped when
    # there is none, taken as [stepper] dt, or refused under [grid]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", write_config(tmp_path, text)]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / RunConfig().output_dir).exists()


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_config_rejects_bad_stabilization(tmp_path, value):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "t_end = 0.02", f"t_end = 0.02\nstabilization_S = {value}"
    )
    with pytest.raises(ConfigError, match="stabilization_S"):
        parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize("line, bad, name", [
    # the implicit step stops on its own update size: Newton's iteration cap
    # and residual tolerance are no longer keys, so any value is refused
    ("t_end = 0.02", "t_end = 0.02\nscheme = newton\nnewton_max_iter = 0",
     "unknown key 'newton_max_iter'"),
    ("t_end = 0.02", "t_end = 0.02\nscheme = newton\nnewton_tol = 0",
     "unknown key 'newton_tol'"),
    ("kind = cosine", "kind = random_fourier\nmodes = 0", "initial.modes = 0"),
    ("seed = 7", "seed = -1", "run.seed = -1"),
], ids=["newton_max_iter", "newton_tol", "initial_modes", "seed"])
def test_config_rejects_inadmissible_solver_and_initial_values(tmp_path, line, bad,
                                                               name):
    text = BASE_CONFIG.format(out=tmp_path).replace(line, bad, 1)
    with pytest.raises(ConfigError, match=name):
        parse_config(write_config(tmp_path, text))


def test_cli_refuses_the_deleted_newton_keys(tmp_path, capsys):
    # the implicit step stops on its own update size, so a config that still
    # sets Newton's residual tolerance or iteration cap is refused like any
    # unknown key: by simulate before the run directory exists, and by
    # analyze on a run directory whose config.ini carries it
    run = tmp_path / "run"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=run))]) == 0
    written = (run / "config.ini").read_text()
    for key, value in (("newton_tol", "1e-10"), ("newton_max_iter", "30")):
        line = f"{key} = {value}"
        out = tmp_path / key
        text = BASE_CONFIG.format(out=out).replace("t_end = 0.02", f"t_end = 0.02\n{line}")
        capsys.readouterr()
        assert main(["simulate", write_config(tmp_path, text, f"{key}.ini")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()
        (run / "config.ini").write_text(written.replace("[stepper]\n", f"[stepper]\n{line}\n"))
        assert main(["analyze", str(run), str(tmp_path / "nope")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_cli_rejects_non_finite_dt(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o").replace("dt = 1e-3", "dt = nan")
    assert main(["simulate", write_config(tmp_path, text)]) == 2
    assert "stepper.dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_non_finite_kernel_tol(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o") + "\n[analysis]\nkernel_tol = inf\n"
    assert main(["equilibrium", write_config(tmp_path, text)]) == 2
    assert "analysis.kernel_tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("coeffs", ["1, 0, 0", "5", "1e308, 0, -1e308, 0"],
                         ids=["f_prime_negative", "f_constant", "overflowing"])
def test_cli_refuses_a_potential_the_model_cannot_run(tmp_path, capsys, coeffs):
    # f(s) = s^2 has f' < 0 far out on the negative side, f = 5 is no
    # polynomial of degree >= 1, and 1e308 (s^3 - s) overflows to inf and nan
    # on the sampled band; all parse, and building the potential refuses
    # them with exit 2 before any output directory exists
    out = tmp_path / "o"
    custom = f"kind = polynomial_custom\ncoeffs = {coeffs}"
    path = write_config(tmp_path, BASE_CONFIG.format(out=out).replace("kind = double_well",
                                                                      custom))
    for argv in (["simulate", path], ["equilibrium", path]):
        assert main(argv) == 2
        assert "potential.coeffs" in capsys.readouterr().err
        assert not out.exists()
    run = tmp_path / "run"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=run), "ok.ini")]) == 0
    ini = run / "config.ini"
    ini.write_text(ini.read_text().replace("kind = double_well\ncoeffs = \n", custom + "\n"))
    capsys.readouterr()
    assert main(["analyze", str(run), str(tmp_path / "nope")]) == 2
    assert "potential.coeffs" in capsys.readouterr().err


def test_snapshot_times_are_stored_exactly(tmp_path):
    # six snapshots at multiples of 3e-7: six decimals would read them back
    # as 0, 0, 1e-6, 1e-6, 1e-6, 2e-6, the last one past t_end
    from chwall.cli import _load_run

    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "dt = 1e-3\nt_end = 0.02", "dt = 3e-7\nt_end = 1.5e-6"
    ).replace("snapshot_stride = 5", "snapshot_stride = 1\nplots = false")
    assert main(["simulate", write_config(tmp_path, text)]) == 0
    _, _, _, _, rec = _load_run(str(tmp_path / "o"))
    times = [t for t, _ in rec.snapshots]
    assert len(times) == 6
    # the run's CSV rows hold every time exactly
    rows = np.loadtxt(tmp_path / "o" / "series.csv", delimiter=",", skiprows=1, usecols=0)
    assert times == rows.tolist()
    assert times[1] == 3e-7
    assert times[-1] == pytest.approx(1.5e-6, rel=1e-12)
    assert times[-1] <= 1.5e-6 * (1 + 1e-12)


@pytest.mark.parametrize("cut", [20, None])
def test_cli_refuses_bad_initial_file(tmp_path, capsys, cut):
    # a snapshot cut short, or no file at all, stops the run before its
    # output directory exists
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    init = tmp_path / "init.csv"
    if cut is not None:
        cw.save_field(g, np.full(g.n_nodes, 0.1), init)
        init.write_text("".join(init.read_text().splitlines(keepends=True)[:-cut]))
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "kind = cosine", f"kind = file\npath = {init}"
    )
    assert main(["simulate", write_config(tmp_path, text)]) == 2
    assert "initial.path" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_grid_above_the_node_limit(tmp_path, capsys):
    # refused at parse time, before the output directory or any grid exists
    big = BASE_CONFIG.format(out=tmp_path / "o").replace("nx = 8", "nx = 2048").replace(
        "ny = 8", "ny = 1024")
    assert main(["simulate", write_config(tmp_path, big)]) == 2
    assert f"at most {MAX_NODES} nodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the largest benchmarked grid, and the limit itself, stay valid
    for nx, ny in ((256, 256), (1024, 1024)):
        text = BASE_CONFIG.format(out=tmp_path / "o").replace(
            "nx = 8", f"nx = {nx}").replace("ny = 8", f"ny = {ny}")
        cfg = parse_config(write_config(tmp_path, text))
        assert (cfg.nx, cfg.ny) == (nx, ny)


def test_cli_refuses_a_snapshot_above_the_node_limit(tmp_path, capsys, monkeypatch):
    # the header alone refuses the file: no grid of its size is built
    import chwall.grid

    def refuse(*args, **kwargs):
        raise AssertionError("grid built from an over-large snapshot header")

    init = tmp_path / "init.csv"
    init.write_text("# mode,Lx,Ly,nx,ny\n# strip2d,1,1,4096,4096\ni,j,x,y,u,on_gamma\n")
    monkeypatch.setattr(chwall.grid, "build_grid", refuse)
    with pytest.raises(ValueError, match=f"at most {MAX_NODES} nodes"):
        chwall.grid.load_field(str(init))
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "kind = cosine", f"kind = file\npath = {init}"
    )
    assert main(["simulate", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "initial.path" in err and f"at most {MAX_NODES} nodes" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "equilibrium"])
def test_cli_refuses_a_snapshot_with_a_non_finite_value(tmp_path, capsys, command):
    # one NaN among the values is refused at parse time, before the output
    # directory exists, whichever command reads the snapshot
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    init = tmp_path / "init.csv"
    cw.save_field(g, np.full(g.n_nodes, 0.1), init)
    lines = init.read_text().splitlines(keepends=True)
    row = lines[10].split(",")
    row[4] = "nan"
    lines[10] = ",".join(row)
    init.write_text("".join(lines))
    text = BASE_CONFIG.format(out=tmp_path / "o")
    if command == "simulate":
        text = text.replace("kind = cosine", f"kind = file\npath = {init}")
        argv, name = ["simulate", write_config(tmp_path, text)], "initial.path"
    else:
        argv, name = ["equilibrium", write_config(tmp_path, text), "--init", str(init)], "--init"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert name in err and "1 values of u are not finite" in err
    assert not (tmp_path / "o").exists()


_RUNAWAY = """\
[grid]
mode = strip2d
Lx = 8.0
Ly = 8.0
nx = 12
ny = 12

[stepper]
dt = 0.5
t_end = 5.0
stabilization_S = 0{extra}

[initial]
kind = random_fourier
amplitude = 3.0

[io]
output_dir = {out}
plots = false

[run]
seed = 1
"""


def test_cli_energy_guard_has_no_switch(tmp_path, capsys):
    # unstabilized steps far too long for the data: the guard halves them and
    # the run ends finite; a config that asks to switch the guard off, under
    # which this run ran away to an all-NaN state, is refused
    out = tmp_path / "on"
    assert main(["simulate", write_config(tmp_path, _RUNAWAY.format(out=out, extra=""))]) == 0
    final = cw.load_field(str(out / "final_state.csv"))
    assert np.all(np.isfinite(final.values))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["factorizations"] > 1  # the guard halved a step
    capsys.readouterr()
    text = _RUNAWAY.format(out=tmp_path / "off", extra="\nenergy_guard = false")
    assert main(["simulate", write_config(tmp_path, text, "off.ini")]) == 2
    assert "unknown key 'energy_guard'" in capsys.readouterr().err
    assert not (tmp_path / "off").exists()


def test_config_rejects_unknown_key(tmp_path):
    path = write_config(
        tmp_path, BASE_CONFIG.format(out=tmp_path) + "\n[grid2]\nzz = 1\n"
    )
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(path)


def test_cli_rejects_malformed_config(tmp_path, capsys):
    bad = BASE_CONFIG.format(out=tmp_path / "o").replace("beta = 1.0", "beta = -2.0")
    path = write_config(tmp_path, bad)
    rc = main(["simulate", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "beta" in err and "positive" in err


def test_cli_simulate_constant_zero(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    rc = main(["simulate", write_config(tmp_path, text)])
    assert rc == 0
    rows = (tmp_path / "out" / "series.csv").read_text().strip().split("\n")
    header, data = rows[0], rows[1:]
    assert header.startswith("t,e_bulk,e_surf,e_total")
    etotal = [float(r.split(",")[3]) for r in data]
    assert all(abs(e - 0.25) <= 1e-12 for e in etotal)


def _manifest_hashing_every_file(out, foreign=frozenset()):
    """out/manifest.json, checked to list every other file below out with its
    sha256, but the files in foreign: they are on disk and not listed."""
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = set()
    for root, _, names in os.walk(out):
        for n in names:
            if n not in ("manifest.json", ".lock"):
                on_disk.add(os.path.relpath(os.path.join(root, n), out))
    assert foreign <= on_disk
    assert set(manifest["artifacts"]) == on_disk - foreign
    for rel, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    return manifest


def test_cli_simulate_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))])
    assert rc == 0
    manifest = _manifest_hashing_every_file(out)
    assert manifest["aborted"] is False
    # a cosine run with automatic S stays on one shift rung: one factorization
    assert manifest["factorizations"] == 1
    assert len(manifest["shifts"]) == 1
    assert (manifest["newton_iters"], manifest["krylov_iters"]) == (0, 0)  # no Newton step
    # the BLAS builds behind numpy and scipy, each as "name version"
    assert sorted(manifest["blas"]) == ["numpy", "scipy"]
    assert all(len(build.split()) == 2 for build in manifest["blas"].values())
    assert (out / "energy.svg").exists()
    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert len(snaps) >= 2
    assert (out / "final_state.csv").read_bytes() == snaps[-1].read_bytes()


def test_cli_rerun_keeps_no_file_of_the_earlier_run(tmp_path):
    # a rerun at twice the step writes fewer snapshots under other names and,
    # without plots, no energy.svg; what the first run and its analysis wrote
    # is gone, a file of the user's is not but is no artifact of the run, and
    # the directory holds what a fresh run of the second config holds
    out, fresh, eq = tmp_path / "o", tmp_path / "fresh", tmp_path / "eq"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out), "a.ini")]) == 0
    assert main(["equilibrium", write_config(tmp_path, BASE_CONFIG.format(out=eq), "e.ini")]) == 0
    assert main(["analyze", str(out), str(eq / "equilibrium")]) == 0
    assert len(list((out / "snapshots").iterdir())) == 5
    assert (out / "energy.svg").exists() and (out / "analysis" / "manifest.json").exists()
    (out / "notes.txt").write_text("kept")
    second = BASE_CONFIG.replace("dt = 1e-3", "dt = 2e-3").replace(
        "snapshot_stride = 5", "snapshot_stride = 5\nplots = false")
    for o, name in ((out, "b.ini"), (fresh, "c.ini")):
        assert main(["simulate", write_config(tmp_path, second.format(out=o), name)]) == 0
    assert set(_manifest_hashing_every_file(out, foreign={"notes.txt"})["artifacts"]) == (
        set(_manifest_hashing_every_file(fresh)["artifacts"]))
    assert len(list((out / "snapshots").iterdir())) == 3
    assert (out / "notes.txt").read_text() == "kept"


def test_cli_determinism_bit_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out),
                                            f"{name}.ini")])
        assert rc == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_output_lock(tmp_path, capsys):
    # the lock names a running process (this one): the run is refused
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))])
    assert rc == 2
    assert "locked" in capsys.readouterr().err
    assert (out / ".lock").read_text() == str(os.getpid())


@pytest.mark.parametrize("content", ["", "not a pid", "0", "-1", "9" * 20])
def test_cli_lock_without_valid_pid_is_kept(tmp_path, capsys, content):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text(content)
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))])
    assert rc == 2
    assert "locked" in capsys.readouterr().err


def test_cli_stale_lock_is_replaced(tmp_path, monkeypatch):
    # a lock whose PID names no process was left by a dead run; the
    # existence probe is faked, so no process is signalled
    import chwall.cli as cli

    probed = []

    def no_such_process(pid, sig):
        probed.append((pid, sig))
        raise ProcessLookupError(pid)

    monkeypatch.setattr(cli.os, "kill", no_such_process)
    out = tmp_path / "stale"
    out.mkdir()
    (out / ".lock").write_text("4194303")
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))])
    assert rc == 0
    assert probed == [(4194303, 0)]
    assert not (out / ".lock").exists()
    assert (out / "series.csv").exists()


def test_cli_equilibrium_and_classification(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "eq").replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    rc = main(["equilibrium", write_config(tmp_path, text, "eq.ini")])
    assert rc == 0
    line = (tmp_path / "eq" / "classification.txt").read_text()
    assert "minimum" in line  # unit strip: zero state is a hyperbolic minimum
    assert (tmp_path / "eq" / "equilibrium.csv").exists()
    assert (tmp_path / "eq" / "equilibrium.meta").exists()


def test_cli_equilibrium_from_saved_init_converges_fast(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path / "eq1").replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    assert main(["equilibrium", write_config(tmp_path, text, "eq1.ini")]) == 0
    text2 = text.replace(str(tmp_path / "eq1"), str(tmp_path / "eq2"))
    rc = main([
        "equilibrium", write_config(tmp_path, text2, "eq2.ini"),
        "--init", str(tmp_path / "eq1" / "equilibrium.csv"),
    ])
    assert rc == 0
    meta = dict(
        line.split("=", 1)
        for line in (tmp_path / "eq2" / "equilibrium.meta").read_text().splitlines()
    )
    assert int(meta["newton_iters"]) <= 2


def test_cli_analyze_insufficient_is_warning_not_error(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    text = BASE_CONFIG.format(out=sim_out).replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    assert main(["simulate", write_config(tmp_path, text, "s.ini")]) == 0
    eq_out = tmp_path / "eq"
    assert main(["equilibrium", write_config(
        tmp_path, text.replace(str(sim_out), str(eq_out)), "e.ini")]) == 0
    rc = main(["analyze", str(sim_out), str(eq_out / "equilibrium")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning" in err
    assert (sim_out / "analysis" / "ls_report.txt").exists()
    assert (sim_out / "analysis" / "spectral_report.txt").exists()


def test_cli_analyze_reports_fallback_theta(tmp_path, capsys):
    # a probe window too small to hold any sample leaves theta unfitted; the
    # rate report must say that its bound used the fallback exponent
    eq_out = tmp_path / "eq"
    eq_text = BASE_CONFIG.format(out=eq_out).replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    assert main(["equilibrium", write_config(tmp_path, eq_text, "e.ini")]) == 0
    sim_out = tmp_path / "sim"
    sim_text = BASE_CONFIG.format(out=sim_out).replace(
        "mean = 0.05", "mean = 0.0"
    ).replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 10.0") + (
        f"\n[analysis]\nprobe_window = 1e-12\n"
        f"\n[reference]\npsi_path = {eq_out / 'equilibrium'}\n"
    )
    assert main(["simulate", write_config(tmp_path, sim_text, "s.ini")]) == 0
    capsys.readouterr()
    assert main(["analyze", str(sim_out), str(eq_out / "equilibrium")]) == 0
    assert "fallback theta" in capsys.readouterr().err
    rate = json.loads((sim_out / "analysis" / "rate_report.txt").read_text())
    assert rate["theta_source"] == "fallback"
    assert rate["theta"] == 0.25


def test_cli_equilibrium_escapes_saddle_on_tall_strip(tmp_path):
    # zero start is a saddle on the 8x8 strip; the pipeline must not report it
    text = BASE_CONFIG.format(out=tmp_path / "eq8")
    text = text.replace("Lx = 1.0", "Lx = 8.0").replace("Ly = 1.0", "Ly = 8.0")
    text = text.replace("nx = 8", "nx = 20").replace("ny = 8", "ny = 20")
    text = text.replace("kind = cosine", "kind = constant").replace(
        "mean = 0.05", "mean = 0.0"
    )
    assert main(["equilibrium", write_config(tmp_path, text, "eq8.ini")]) == 0
    meta = dict(
        line.split("=", 1)
        for line in (tmp_path / "eq8" / "equilibrium.meta").read_text().splitlines()
    )
    assert float(meta["bulk_res"]) + float(meta["bdry_res"]) <= 1e-8
    assert float(meta["energy"]) < 0.25 * 64.0  # strictly below the zero state
    from chwall.grid import load_field

    psi = load_field(tmp_path / "eq8" / "equilibrium.csv")
    assert np.std(psi.values) > 1e-3  # nonconstant profile


def test_cli_simulate_with_reference_records_distances(tmp_path):
    eq_out = tmp_path / "eq"
    eq_text = BASE_CONFIG.format(out=eq_out).replace(
        "kind = cosine", "kind = constant"
    ).replace("mean = 0.05", "mean = 0.0")
    assert main(["equilibrium", write_config(tmp_path, eq_text, "e.ini")]) == 0
    sim_out = tmp_path / "sim"
    sim_text = BASE_CONFIG.format(out=sim_out) + (
        f"\n[reference]\npsi_path = {eq_out / 'equilibrium'}\n"
    )
    assert main(["simulate", write_config(tmp_path, sim_text, "s.ini")]) == 0
    rows = (sim_out / "diagnostics.csv").read_text().strip().split("\n")[1:]
    xd = [float(r.split(",")[3]) for r in rows]
    assert all(np.isfinite(x) for x in xd)
    assert xd[-1] < xd[0]
    assert (sim_out / "decay.svg").exists()


@pytest.mark.parametrize("with_reference", [False, True])
def test_cli_series_and_diagnostics_text(tmp_path, monkeypatch, with_reference):
    # the exact text of both ledgers of a 3-step run, against a per-row
    # f-string oracle: nan cells (the first defect, the distances without a
    # reference) included
    import chwall.cli as cli

    sim_text = BASE_CONFIG.format(out=tmp_path / "sim").replace("t_end = 0.02", "t_end = 0.003")
    if with_reference:
        eq_text = BASE_CONFIG.format(out=tmp_path / "eq").replace(
            "kind = cosine", "kind = constant").replace("mean = 0.05", "mean = 0.0")
        assert main(["equilibrium", write_config(tmp_path, eq_text, "e.ini")]) == 0
        sim_text += f"\n[reference]\npsi_path = {tmp_path / 'eq' / 'equilibrium'}\n"
    records, evolve = [], cli.evolve

    def recorded(*args, **kwargs):
        records.append(evolve(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(cli, "evolve", recorded)
    assert main(["simulate", write_config(tmp_path, sim_text, "s.ini")]) == 0
    (rec,) = records
    assert len(rec.times) == 4 and len(rec.ledger_defect) == 3
    series = [cw.EnergyReport.CSV_COLUMNS]
    diagnostics = ["t,ut_xnorm,ledger_defect,x_dist_to_ref,v_dist_to_ref"]
    for i, (t, r) in enumerate(zip(rec.times, rec.reports)):
        series.append(",".join(f"{v:.17g}" for v in (
            t, r.e_bulk, r.e_surf, r.e_total, r.dissipation, r.mass_bulk,
            r.mass_total, r.flux, r.bulk_res, r.bdry_res)))
        defect = rec.ledger_defect[i - 1] if i >= 1 else float("nan")
        xd = rec.x_dist_to_ref[i] if with_reference else float("nan")
        vd = rec.v_dist_to_ref[i] if with_reference else float("nan")
        diagnostics.append(f"{t:.17g},{rec.ut_xnorm[i]:.17g},{defect:.17g},"
                           f"{xd:.17g},{vd:.17g}")
    assert (tmp_path / "sim" / "series.csv").read_text() == "\n".join(series) + "\n"
    text = (tmp_path / "sim" / "diagnostics.csv").read_text()
    assert text == "\n".join(diagnostics) + "\n"
    assert text.count("nan") == (1 if with_reference else 9)


def test_cli_analyze_missing_artifacts(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["analyze", str(empty), str(tmp_path / "nope")])
    assert rc == 2
    assert "missing" in capsys.readouterr().err
    assert not (empty / ".lock").exists()
    assert main(["analyze", str(tmp_path / "no_run"), str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def _stray_snapshot(run):
    (run / "snapshots" / "notes.csv").write_text("notes\n")
    return "notes.csv"


def _truncated_snapshot(run):
    snap = sorted((run / "snapshots").iterdir())[0]
    snap.write_text("".join(snap.read_text().splitlines(keepends=True)[:-20]))
    return snap.name


# "error": the refusal comes without a numpy warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spoil", [_stray_snapshot, _truncated_snapshot],
                         ids=lambda spoil: spoil.__name__.lstrip("_"))
def test_cli_analyze_malformed_run_is_config_error(tmp_path, capsys, spoil):
    run = tmp_path / "sim"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=run))]) == 0
    name = spoil(run)
    capsys.readouterr()
    assert main(["analyze", str(run), str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err


def test_cli_equilibrium_missing_init_file(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "eq"))
    assert main(["equilibrium", cfg, "--init", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: --init" in err and "nope.csv" in err


def test_cli_analyze_missing_equilibrium(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "config error: psi_prefix" in err and "nope" in err


def _run_pipeline(tmp_path, text):
    """simulate, equilibrium from its final state, analyze; the three exit codes."""
    sim, eq = tmp_path / "sim", tmp_path / "eq"
    sim_cfg = write_config(tmp_path, text.format(out=sim), "s.ini")
    eq_cfg = write_config(tmp_path, text.format(out=eq), "e.ini")
    return (main(["simulate", sim_cfg]),
            main(["equilibrium", eq_cfg, "--init", str(sim / "final_state.csv")]),
            main(["analyze", str(sim), str(eq / "equilibrium")]))


@pytest.mark.parametrize("plots", [False, True])
def test_cli_analyze_plots_follow_config(tmp_path, capsys, plots):
    # cosine data near the zero minimum: the probe and the rate fit succeed
    text = BASE_CONFIG.replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 10.0")
    text = text.replace("snapshot_stride = 5",
                        f"snapshot_stride = 10\nplots = {str(plots).lower()}")
    assert _run_pipeline(tmp_path, text) == (0, 0, 0)
    assert "warning" not in capsys.readouterr().err
    analysis = tmp_path / "sim" / "analysis"
    assert (analysis / "rate_report.txt").exists()
    svgs = sorted(p.name for p in analysis.glob("*.svg"))
    assert svgs == (["decay_fit.svg", "ls_scatter.svg"] if plots else [])
    manifest = _manifest_hashing_every_file(analysis)
    assert manifest["theta_source"] == "fitted"
    assert manifest["warnings"] is False


def test_cli_analysis_reports_are_json(tmp_path):
    # each report is one JSON document; the spectral report carries the
    # classification that equilibrium printed for the same psi
    text = BASE_CONFIG.replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 10.0")
    text = text.replace("snapshot_stride = 5", "snapshot_stride = 10")
    assert _run_pipeline(tmp_path, text) == (0, 0, 0)
    analysis = tmp_path / "sim" / "analysis"
    reports = {p.name: json.loads(p.read_text()) for p in analysis.glob("*.txt")}
    assert sorted(reports) == ["ls_report.txt", "rate_report.txt", "spectral_report.txt"]
    line = (tmp_path / "eq" / "classification.txt").read_text()
    assert line.startswith(f"classification: {reports['spectral_report.txt']['classification']} ")


def test_cli_analyze_measures_the_given_psi(tmp_path):
    # a run simulated against psi = A and analyzed against psi = A + 0.5 fits
    # its rate to the distances from its snapshots to A + 0.5
    import shutil

    from chwall.cli import _load_run, _report_text
    from chwall.grid import save_field
    from chwall.stationary import load_equilibrium

    eq_text = BASE_CONFIG.format(out=tmp_path / "eqA").replace(
        "kind = cosine", "kind = constant").replace("mean = 0.05", "mean = 0.0")
    assert main(["equilibrium", write_config(tmp_path, eq_text, "e.ini")]) == 0
    psi_a = tmp_path / "eqA" / "equilibrium"
    sim = tmp_path / "sim"
    sim_text = BASE_CONFIG.format(out=sim).replace(
        "dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 10.0").replace(
        "snapshot_stride = 5", "snapshot_stride = 10\nplots = false") + (
        f"\n[reference]\npsi_path = {psi_a}\n")
    assert main(["simulate", write_config(tmp_path, sim_text, "s.ini")]) == 0
    cfg, grid, pot, op, rec = _load_run(str(sim))
    a, _ = load_equilibrium(psi_a, grid=grid)
    psi, psi_b = a.values + 0.5, tmp_path / "eqB"
    save_field(grid, psi, f"{psi_b}.csv")
    shutil.copyfile(f"{psi_a}.meta", f"{psi_b}.meta")

    report = sim / "analysis" / "rate_report.txt"
    assert main(["analyze", str(sim), str(psi_a)]) == 0
    against_a = report.read_text()
    assert main(["analyze", str(sim), str(psi_b)]) == 0
    against_b = report.read_text()
    assert against_b != against_a

    probe = json.loads((sim / "analysis" / "ls_report.txt").read_text())
    theta, source = ((0.25, "fallback") if probe["insufficient"]
                     else (probe["fitted_theta"], "fitted"))
    times = [t for t, _ in rec.snapshots]
    dists = [cw.x_norm(op, snap - psi) for _, snap in rec.snapshots]
    expected = cw.rate_fit(times, dists, theta, fit_tol=cfg.fit_tol,
                           t_min=cfg.rate_fit_t_min, theta_source=source)
    assert against_b == _report_text(expected) + "\n"


def test_cli_analyze_reports_whether_psi_is_stationary(tmp_path, capsys):
    # psi_A + 0.5 on a 16x16 strip (Lx = Ly = 8) is not stationary and its
    # meta says converged=0: analyze reports the residuals it measures at
    # psi, warns, and still exits 0; psi_A itself passes without that warning
    from chwall.energy import energy_and_gradient, residual_norms
    from chwall.grid import save_field
    from chwall.stationary import load_equilibrium

    text = (BASE_CONFIG.replace("Lx = 1.0", "Lx = 8.0").replace("Ly = 1.0", "Ly = 8.0")
            .replace("nx = 8", "nx = 16").replace("ny = 8", "ny = 16")
            .replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 2.0")
            .replace("snapshot_stride = 5", "snapshot_stride = 20\nplots = false"))
    sim, psi_a, psi_b = tmp_path / "sim", tmp_path / "eqA" / "equilibrium", tmp_path / "psiB"
    assert main(["equilibrium", write_config(tmp_path, text.format(out=psi_a.parent), "e.ini")]) == 0
    assert main(["simulate", write_config(tmp_path, text.format(out=sim), "s.ini")]) == 0
    a, meta = load_equilibrium(str(psi_a))
    b = a.values + 0.5
    save_field(a.grid, b, f"{psi_b}.csv")
    (tmp_path / "psiB.meta").write_text(
        (tmp_path / "eqA" / "equilibrium.meta").read_text().replace("converged=1", "converged=0"))
    report = sim / "analysis" / "spectral_report.txt"

    capsys.readouterr()
    assert main(["analyze", str(sim), str(psi_a)]) == 0
    rep = json.loads(report.read_text())
    assert rep["psi_converged"] is True
    assert rep["psi_bulk_res"] + rep["psi_bdry_res"] <= 1e-8
    assert "converged solve" not in capsys.readouterr().err

    assert main(["analyze", str(sim), str(psi_b)]) == 0
    out = capsys.readouterr()
    rep = json.loads(report.read_text())
    bulk, bdry = residual_norms(a.grid, energy_and_gradient(a.grid, cw.double_well(), b,
                                                            1.0, 1.0)[1])
    assert rep["psi_converged"] is False
    assert (rep["psi_bulk_res"], rep["psi_bdry_res"]) == (bulk, bdry) and bulk > 1e-2
    assert "does not record a converged solve" in out.err
    assert f"bulk={bulk:.3e} bdry={bdry:.3e}" in out.err
    assert out.out.rstrip().endswith("(with warnings)")
    assert _manifest_hashing_every_file(sim / "analysis")["warnings"] is True


def test_cli_analyze_clears_an_earlier_analysis(tmp_path, capsys):
    # a re-analysis that writes fewer files leaves none of the earlier ones,
    # and its manifest lists only files that exist
    from dataclasses import replace

    text = BASE_CONFIG.replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 10.0")
    text = text.replace("snapshot_stride = 5", "snapshot_stride = 10\nplots = true")
    assert _run_pipeline(tmp_path, text) == (0, 0, 0)
    sim, analysis = tmp_path / "sim", tmp_path / "sim" / "analysis"
    argv = ["analyze", str(sim), str(tmp_path / "eq" / "equilibrium")]
    assert sorted(p.name for p in analysis.glob("*.svg")) == ["decay_fit.svg", "ls_scatter.svg"]
    reports = ["ls_report.txt", "ls_samples.csv", "rate_report.txt", "spectral_report.txt"]

    cfg = parse_config(sim / "config.ini")
    (sim / "config.ini").write_text(serialize_config(replace(cfg, plots=False)))
    assert main(argv) == 0
    assert sorted(p.name for p in analysis.iterdir()) == sorted(reports + ["manifest.json"])
    assert sorted(_manifest_hashing_every_file(analysis)["artifacts"]) == reports

    # a rate fit that is skipped leaves no rate report of the run before
    (sim / "config.ini").write_text(
        serialize_config(replace(cfg, plots=False, rate_fit_t_min=1e6)))
    capsys.readouterr()
    assert main(argv) == 0
    assert "rate fit skipped" in capsys.readouterr().err
    reports.remove("rate_report.txt")
    assert sorted(_manifest_hashing_every_file(analysis)["artifacts"]) == reports


def test_cli_analyze_refuses_a_locked_run(tmp_path, capsys):
    # the run directory's lock names a running process (this one)
    sim, eq = tmp_path / "sim", tmp_path / "eq"
    assert main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=sim), "s.ini")]) == 0
    assert main(["equilibrium", write_config(tmp_path, BASE_CONFIG.format(out=eq), "e.ini")]) == 0
    (sim / ".lock").write_text(str(os.getpid()))
    before = {p: p.read_bytes() for p in sim.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["analyze", str(sim), str(eq / "equilibrium")]) == 2
    assert "locked" in capsys.readouterr().err
    assert not (sim / "analysis").exists()
    assert {p: p.read_bytes() for p in sim.rglob("*") if p.is_file()} == before


def test_cli_interval_pipeline(tmp_path):
    # the interval through every command, at constants other than 1
    text = BASE_CONFIG.replace("mode = strip2d\nLx = 1.0\nLy = 1.0\nnx = 8\nny = 8",
                               "mode = interval1d\nLy = 3.0\nny = 40")
    text = text.replace("b = 1.0\nc = 1.0\nalpha = 1.0\nbeta = 1.0",
                        "b = 1.5\nc = 0.7\nalpha = 2.0\nbeta = 0.4")
    text = text.replace("dt = 1e-3\nt_end = 0.02", "dt = 1e-2\nt_end = 2.0")
    assert "interval1d" in text and "alpha = 2.0" in text and "t_end = 2.0" in text
    assert _run_pipeline(tmp_path, text) == (0, 0, 0)
    assert (tmp_path / "sim" / "analysis" / "spectral_report.txt").exists()


@pytest.mark.parametrize("where", ["existing_file", "under_a_file", "dump_operator"])
def test_cli_uncreatable_output_path_is_config_error(tmp_path, capsys, where):
    # main returns exit code 2 and names the path instead of raising OSError
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    if where == "dump_operator":
        path = tmp_path / "missing" / "op.txt"
        argv = ["check", "--dump-operator", str(path)]
    else:
        path = blocker if where == "existing_file" else blocker / "out"
        argv = ["simulate", write_config(tmp_path, BASE_CONFIG.format(out=path))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: cannot" in err and str(path) in err
    assert "Traceback" not in err


def test_cli_check_passes(tmp_path, capsys):
    dump = tmp_path / "A.txt"
    rc = main(["check", "--dump-operator", str(dump)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
    assert "PASS  operator spectrum is positive" in out.splitlines()
    # eight checks, each passed, then the dump notice
    *checks, last = out.splitlines()
    assert len(checks) == 8 and all(line.startswith("PASS") for line in checks)
    assert last == f"operator dumped to {dump}"
    assert dump.exists()


def test_cli_guard_abort_exit_code(tmp_path, capsys, monkeypatch):
    # an aborting run still writes artifacts and returns the guard exit code;
    # two Newton iterations make no update small enough at dt or dt / 2
    import chwall.operators as operators

    monkeypatch.setattr(operators, "NEWTON_MAX_ITER", 2)
    text = BASE_CONFIG.format(out=tmp_path / "ab")
    text = text.replace("dt = 1e-3", "dt = 1e-3\nscheme = newton\ndt_min = 5e-4")
    rc = main(["simulate", write_config(tmp_path, text, "ab.ini")])
    assert rc == 3
    assert (tmp_path / "ab" / "series.csv").exists()
    manifest = json.loads((tmp_path / "ab" / "manifest.json").read_text())
    assert manifest["aborted"] is True
    # the aborted run's Newton work is recorded: two iterations per attempt
    assert manifest["newton_iters"] >= 2 and manifest["krylov_iters"] >= manifest["newton_iters"]
    snaps = sorted((tmp_path / "ab" / "snapshots").glob("*.csv"))
    assert (tmp_path / "ab" / "final_state.csv").read_bytes() == snaps[-1].read_bytes()


def test_make_initial_kinds(tmp_path):
    from chwall.cli import make_initial

    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    cfg = RunConfig(initial_kind="random_fourier", initial_amplitude=0.2,
                    initial_mean=0.1, initial_modes=2, seed=3)
    u = make_initial(g, cfg)
    assert abs(np.max(np.abs(u.values - 0.1)) - 0.2) <= 1e-12
    u2 = make_initial(g, cfg)
    assert np.array_equal(u.values, u2.values)  # seeded determinism
    gi = cw.build_grid("interval1d", Ly=1.0, ny=8)
    ui = make_initial(gi, RunConfig(initial_kind="random_fourier", seed=1))
    assert ui.values.shape == (8,)
