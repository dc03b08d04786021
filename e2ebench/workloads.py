"""The four workloads: the configs they write, the CLI calls they make and
the checks on what those calls produce.

Each workload is a list of operations, each one ``chwall`` command.  The
``full`` size is what the benchmark measures; ``tiny`` runs the same
pipeline on small grids so the self-tests finish in seconds.
"""

import os

import numpy as np

import checks

WORKLOADS = ("reference", "coarsening", "large_grid", "equilibrium")

# Grid and run parameters per workload and size.  The reference run is the
# 32x32, 10^4-step run of the acceptance suite; large_grid keeps 30 steps at
# dt = 1e-3, whose accumulated time makes the last step a few ulps shorter
# than dt and so factorize again.
SIZES = {
    "reference": {
        "full": dict(Lx=1.0, Ly=1.0, nx=32, ny=32, dt=1e-3, t_end=10.0, snap=100),
        "tiny": dict(Lx=1.0, Ly=1.0, nx=12, ny=12, dt=1e-2, t_end=10.0, snap=10),
    },
    "coarsening": {
        "full": dict(Lx=20.0, Ly=20.0, nx=48, ny=48, dt=1e-2, t_end=3.0, stride=10, snap=300),
        "tiny": dict(Lx=20.0, Ly=20.0, nx=16, ny=16, dt=1e-2, t_end=0.5, stride=10, snap=50),
    },
    "large_grid": {
        "full": dict(Lx=1.0, Ly=1.0, nx=256, ny=256, dt=1e-3, t_end=0.03, snap=29),
        "tiny": dict(Lx=1.0, Ly=1.0, nx=24, ny=24, dt=1e-3, t_end=0.03, snap=29),
    },
    "equilibrium": {
        "full": dict(Lx=8.0, Ly=8.0, nx=48, ny=48),
        "tiny": dict(Lx=8.0, Ly=8.0, nx=16, ny=16),
    },
}

COSINE = dict(amplitude=0.1, mean=0.05)

_CONFIG = """\
[grid]
mode = strip2d
Lx = {Lx!r}
Ly = {Ly!r}
nx = {nx}
ny = {ny}

[potential]
kind = double_well

[stepper]
dt = {dt!r}
t_end = {t_end!r}

[initial]
kind = {kind}
amplitude = {amplitude!r}
mean = {mean!r}

[io]
output_dir = {out}
series_stride = {stride}
snapshot_stride = {snap}
plots = false

[run]
seed = {seed}
"""


def _write_config(path, **values):
    values.setdefault("dt", 1e-3)
    values.setdefault("t_end", 1.0)
    values.setdefault("stride", 1)
    values.setdefault("snap", 0)
    with open(path, "w") as fh:
        fh.write(_CONFIG.format(**values))
    return path


def prepare(name, size, seed, root):
    """Write the workload's configs under root; return its operations.

    An operation is (label, argv for chwall.cli.main).
    """
    p = dict(SIZES[name][size])
    run = os.path.join(root, "run")
    if name == "reference":
        sim = _write_config(os.path.join(root, "simulate.ini"), out=run, kind="cosine",
                            seed=seed, **COSINE, **p)
        eq = _write_config(os.path.join(root, "equilibrium.ini"),
                           out=os.path.join(root, "eq"), kind="cosine", seed=seed,
                           **COSINE, **p)
        return [
            ("simulate", ["simulate", sim]),
            ("equilibrium", ["equilibrium", eq, "--init", os.path.join(run, "final_state.csv")]),
            ("analyze", ["analyze", run, os.path.join(root, "eq", "equilibrium")]),
        ]
    if name == "coarsening":
        cfg = _write_config(os.path.join(root, "simulate.ini"), out=run,
                            kind="random_fourier", amplitude=0.05, mean=0.0,
                            seed=seed, **p)
        return [("simulate", ["simulate", cfg])]
    if name == "large_grid":
        cfg = _write_config(os.path.join(root, "simulate.ini"), out=run, kind="cosine",
                            seed=seed, **COSINE, **p)
        return [("simulate", ["simulate", cfg])]
    cfg = _write_config(os.path.join(root, "equilibrium.ini"), out=run,
                        kind="random_fourier", amplitude=0.5, mean=0.0, seed=seed, **p)
    return [("equilibrium", ["equilibrium", cfg])]


def _snapshots(run):
    snapdir = os.path.join(run, "snapshots")
    return [os.path.join(snapdir, n) for n in sorted(os.listdir(snapdir))]


def _simulate_checks(run, p, cosine):
    series = checks.read_columns(os.path.join(run, "series.csv"))
    diag = checks.read_columns(os.path.join(run, "diagnostics.csv"))
    out = [checks.energy_decreases(series["e_total"]),
           checks.ledger_bound(diag["t"], diag["ut_xnorm"], diag["ledger_defect"])]
    if cosine:
        out.append(checks.initial_energy(series["e_total"][0], p["Lx"], p["Ly"],
                                         p["nx"], p["ny"], **COSINE))
    return series, out


def verify(name, size, seed, root, stdout):
    """Checks per operation label; stdout maps labels to captured output."""
    p = SIZES[name][size]
    run = os.path.join(root, "run")
    if name == "reference":
        series, sim = _simulate_checks(run, p, cosine=True)
        n_steps = int(round(p["t_end"] / p["dt"]))
        sim.insert(0, checks.row_count(series["t"].size, n_steps + 1))
        (Lx, Ly, nx, ny), psi = checks.read_field(os.path.join(root, "eq", "equilibrium.csv"))
        forms = checks.strip_forms(Lx, Ly, nx, ny)
        eq = [checks.zero_equilibrium(psi, checks.energy(forms, psi), Lx * Ly)]
        ls = checks.read_report(os.path.join(run, "analysis", "ls_report.txt"))
        rate = checks.read_report(os.path.join(run, "analysis", "rate_report.txt"))
        lam = checks.linearized_decay_rate(forms)
        an = [checks.theta_at_minimum(float(ls["fitted_theta"])),
              checks.rate_matches_spectrum(rate["model"], float(rate["gamma"]), lam)]
        return {"simulate": sim, "equilibrium": eq, "analyze": an}
    if name == "coarsening":
        _, sim = _simulate_checks(run, p, cosine=False)
        snaps = _snapshots(run)
        _, u_first = checks.read_field(snaps[0])
        _, u_last = checks.read_field(os.path.join(run, "final_state.csv"))
        sim.append(checks.spread_grows(u_first, u_last))
        return {"simulate": sim}
    if name == "large_grid":
        _, sim = _simulate_checks(run, p, cosine=True)
        snaps = _snapshots(run)
        (Lx, Ly, nx, ny), u_old = checks.read_field(snaps[-2])
        _, u_new = checks.read_field(snaps[-1])
        forms = checks.strip_forms(Lx, Ly, nx, ny)
        sim.append(checks.step_residual(forms, u_old, u_new, p["dt"]))
        return {"simulate": sim}
    return {"equilibrium": _equilibrium_checks(root, seed, stdout["equilibrium"])}


def _equilibrium_checks(root, seed, stdout):
    from chwall.cli import build_problem, make_initial
    from chwall.config import parse_config

    run = os.path.join(root, "run")
    (Lx, Ly, nx, ny), psi = checks.read_field(os.path.join(run, "equilibrium.csv"))
    forms = checks.strip_forms(Lx, Ly, nx, ny)
    cfg = parse_config(os.path.join(root, "equilibrium.ini"))
    grid, _, _ = build_problem(cfg)
    u0 = np.asarray(make_initial(grid, cfg).values)
    out = [
        checks.stationary_directions(forms, psi, seed),
        checks.energy_not_above_start(checks.energy(forms, psi), checks.energy(forms, u0)),
    ]
    line = next((ln for ln in stdout.splitlines() if ln.startswith("classification: ")), None)
    if line is None:
        return out + [checks.Check("classification_printed", False, "no classification line")]
    lam_min, lam_max = checks.lowest_eigenvalue(forms, psi)
    return out + checks.classification(line, lam_min, lam_max)
