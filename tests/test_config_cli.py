import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chwall as cw
from chwall.cli import main
from chwall.config import (
    _FILE_KEYS,
    _LAYOUT,
    ConfigError,
    RunConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from chwall.grid import PairField


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
def run_configs(draw):
    """Random configs that pass validation."""
    kind = draw(st.sampled_from(["double_well", "polynomial_custom"]))
    initial = draw(st.sampled_from(["constant", "cosine", "random_fourier", "file"]))
    return RunConfig(
        mode=draw(st.sampled_from(["strip2d", "interval1d"])),
        Lx=draw(_POSITIVE), Ly=draw(_POSITIVE),
        nx=draw(st.integers(4, 10 ** 6)), ny=draw(st.integers(4, 10 ** 6)),
        potential_kind=kind,
        potential_coeffs=tuple(draw(st.lists(
            _FINITE, min_size=int(kind == "polynomial_custom"), max_size=5))),
        b=draw(_POSITIVE), c=draw(_POSITIVE),
        alpha=draw(_POSITIVE), beta=draw(_POSITIVE),
        scheme=draw(st.sampled_from(["semi_implicit", "newton"])),
        dt=draw(_POSITIVE), t_end=draw(_POSITIVE), dt_min=draw(_POSITIVE),
        stabilization_S=draw(st.none() | st.floats(0.0, allow_infinity=False)),
        newton_tol=draw(_POSITIVE), newton_max_iter=draw(st.integers(1, 10 ** 6)),
        energy_guard=draw(st.booleans()),
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


_SECTION = {name: section for section, names in _LAYOUT.items() for name in names}


def config_entry(name, text):
    """A config file that sets the one field name to text."""
    return f"[{_SECTION[name]}]\n{_FILE_KEYS.get(name, name)} = {text}\n"


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
    "newton_tol": st.floats(max_value=0.0) | st.sampled_from(["nan", "inf"]),
    "newton_max_iter": st.integers(max_value=0),
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
@given(cfg=run_configs())
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
    with pytest.raises(ConfigError, match=f"field {name}"):
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
    ("t_end = 0.02", "t_end = 0.02\nnewton_tol = nan"),
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


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_config_rejects_bad_stabilization(tmp_path, value):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "t_end = 0.02", f"t_end = 0.02\nstabilization_S = {value}"
    )
    with pytest.raises(ConfigError, match="stabilization_S"):
        parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize("line, bad, name", [
    ("t_end = 0.02", "t_end = 0.02\nscheme = newton\nnewton_max_iter = 0",
     "stepper.newton_max_iter = 0"),
    ("t_end = 0.02", "t_end = 0.02\nscheme = newton\nnewton_tol = 0",
     "stepper.newton_tol = 0.0"),
    ("kind = cosine", "kind = random_fourier\nmodes = 0", "initial.modes = 0"),
    ("seed = 7", "seed = -1", "run.seed = -1"),
], ids=["newton_max_iter", "newton_tol", "initial_modes", "seed"])
def test_config_rejects_inadmissible_solver_and_initial_values(tmp_path, line, bad,
                                                               name):
    text = BASE_CONFIG.format(out=tmp_path).replace(line, bad, 1)
    with pytest.raises(ConfigError, match=name):
        parse_config(write_config(tmp_path, text))


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
    assert times == rec.times  # the run's CSV rows hold every time exactly
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
        cw.save_field(PairField.constant(g, 0.1), init)
        init.write_text("".join(init.read_text().splitlines(keepends=True)[:-cut]))
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "kind = cosine", f"kind = file\npath = {init}"
    )
    assert main(["simulate", write_config(tmp_path, text)]) == 2
    assert "initial.path" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_cli_simulate_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG.format(out=out))])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # every artifact file is listed with its content hash
    on_disk = set()
    for root, _, names in os.walk(out):
        for n in names:
            if n not in ("manifest.json", ".lock"):
                on_disk.add(os.path.relpath(os.path.join(root, n), out))
    assert set(manifest["artifacts"]) == on_disk
    import hashlib

    for rel, digest in manifest["artifacts"].items():
        h = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert h == digest
    assert manifest["aborted"] is False
    # a cosine run with automatic S stays on one shift rung: one factorization
    assert manifest["factorizations"] == 1
    assert len(manifest["shifts"]) == 1
    assert (out / "energy.svg").exists()
    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert len(snaps) >= 2
    assert (out / "final_state.csv").read_bytes() == snaps[-1].read_bytes()


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


def test_cli_analyze_missing_artifacts(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["analyze", str(empty), str(tmp_path / "nope")])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def _stray_snapshot(run):
    (run / "snapshots" / "notes.csv").write_text("notes\n")
    return "notes.csv"


def _truncated_snapshot(run):
    snap = sorted((run / "snapshots").iterdir())[0]
    snap.write_text("".join(snap.read_text().splitlines(keepends=True)[:-20]))
    return snap.name


def _non_numeric_diagnostics(run):
    diag = run / "diagnostics.csv"
    diag.write_text(diag.read_text() + "x,x,x,x,x\n")
    return "diagnostics.csv"


def _header_only_diagnostics(run):
    diag = run / "diagnostics.csv"
    diag.write_text(diag.read_text().splitlines(keepends=True)[0])
    return "diagnostics.csv"


# "error": the refusal comes before numpy could warn about an empty input
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spoil", [_stray_snapshot, _truncated_snapshot,
                                   _non_numeric_diagnostics, _header_only_diagnostics],
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


def test_cli_check_passes(tmp_path, capsys):
    dump = tmp_path / "A.txt"
    rc = main(["check", "--dump-operator", str(dump)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
    assert "PASS  operator spectrum is positive" in out.splitlines()
    assert dump.exists()


def test_cli_guard_abort_exit_code(tmp_path, capsys):
    # an aborting run still writes artifacts and returns the guard exit code
    text = BASE_CONFIG.format(out=tmp_path / "ab")
    text = text.replace("dt = 1e-3", "dt = 1e-3\nscheme = newton\nnewton_tol = 1e-30\nnewton_max_iter = 2\ndt_min = 5e-4")
    rc = main(["simulate", write_config(tmp_path, text, "ab.ini")])
    assert rc == 3
    assert (tmp_path / "ab" / "series.csv").exists()
    manifest = json.loads((tmp_path / "ab" / "manifest.json").read_text())
    assert manifest["aborted"] is True
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
