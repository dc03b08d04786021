"""Command-line front end: simulate, equilibrium, analyze, check.

Every run owns an output directory guarded by a lockfile; all artifacts are
content-hashed into a manifest written last.  Exit codes: 0 success,
2 config/usage error, 3 energy-guard abort, 4 unconverged.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .analysis import ls_probe, lowest_eigenpairs, rate_fit, spectrum, weighted_symmetric
from .config import ConfigError, RunConfig, config_hash, parse_config, serialize_config
from .energy import EnergyReport, energy_hessian, make_potential
from .evolution import EvolutionAbort, TrajectoryRecord, evolve
from .grid import GridMode, PairField, build_grid, load_field, save_field
from .operators import assemble_wentzell, x_norm
from .stationary import (
    find_equilibrium,
    load_equilibrium,
    save_equilibrium,
)
from . import svgplot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_UNCONVERGED = 4


class OutputLock:
    """Exclusive lockfile: one writer per output directory.

    The lock holds the writer's PID.  A lock whose PID names no running
    process was left by a run that died; it is replaced.  Any other lock,
    including one whose PID cannot be read, refuses the run.
    """

    def __init__(self, directory):
        self.path = os.path.join(directory, ".lock")
        self.fd = None

    def __enter__(self):
        for retry in (False, True):
            try:
                self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if retry or not self._stale():
                    raise ConfigError(
                        f"output directory is locked ({self.path} exists); "
                        "another run may be writing here"
                    )
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.path)
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def _stale(self):
        """True when the lock names a PID that no process has."""
        try:
            with open(self.path) as fh:
                pid = int(fh.read())
            if pid > 0:
                os.kill(pid, 0)  # signal 0: an existence check, nothing is sent
        except ProcessLookupError:
            return True
        except (OSError, ValueError, OverflowError):
            pass  # unreadable, or the process exists under another user
        return False

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)
        return False


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, cfg, extra, t0):
    import scipy

    artifacts = {}
    for root, _, names in os.walk(out_dir):
        for name in sorted(names):
            if name in ("manifest.json", ".lock"):
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            artifacts[rel] = _sha256(full)
    manifest = {
        "config_hash": config_hash(cfg),
        "chwall_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": time.time() - t0,
        "artifacts": artifacts,
    }
    manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def build_problem(cfg):
    grid = build_grid(cfg.mode, Lx=cfg.Lx or None, Ly=cfg.Ly, nx=cfg.nx, ny=cfg.ny)
    pot = make_potential(cfg.potential_kind, cfg.potential_coeffs or None)
    op = assemble_wentzell(grid, b=cfg.b, c=cfg.c, alpha=cfg.alpha, beta=cfg.beta)
    return grid, pot, op


def _load_input(name, load, path, grid):
    """load(path, grid=grid) for a file the user named; a bad file is a config error."""
    try:
        return load(path, grid=grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}")


def make_initial(grid, cfg):
    """Seeded initial data; the random kind superposes low-wavenumber modes."""
    rng = np.random.default_rng(cfg.seed)
    x, y = grid.x, grid.y
    if cfg.initial_kind == "constant":
        return PairField.constant(grid, cfg.initial_mean)
    if cfg.initial_kind == "cosine":
        if grid.mode is GridMode.STRIP2D:
            prof = np.cos(2.0 * np.pi * x / grid.Lx)
        else:
            prof = np.cos(np.pi * y / grid.Ly)
        return PairField(grid, cfg.initial_mean + cfg.initial_amplitude * prof)
    if cfg.initial_kind == "file":
        return _load_input("initial.path", load_field, cfg.initial_path, grid)
    m = cfg.initial_modes
    u = np.zeros(grid.n_nodes)
    for l in range(0, m + 1):
        ymode = np.cos(np.pi * l * y / grid.Ly)
        if grid.mode is GridMode.STRIP2D:
            for k in range(0, m + 1):
                if k == 0 and l == 0:
                    continue
                a, bb = rng.standard_normal(2)
                decay = 1.0 / (1.0 + k * k + l * l)
                xarg = 2.0 * np.pi * k * x / grid.Lx
                u += decay * (a * np.cos(xarg) + bb * np.sin(xarg)) * ymode
        elif l > 0:
            u += rng.standard_normal() / (1.0 + l * l) * ymode
    peak = np.max(np.abs(u))
    if peak > 0:
        u *= cfg.initial_amplitude / peak
    return PairField(grid, cfg.initial_mean + u)


def _write_series(path, times, reports):
    with open(path, "w") as fh:
        fh.write(EnergyReport.CSV_COLUMNS + "\n")
        for t, rep in zip(times, reports):
            fh.write(rep.csv_row(t) + "\n")


def _write_diagnostics(path, rec):
    with open(path, "w") as fh:
        fh.write("t,ut_xnorm,ledger_defect,x_dist_to_ref,v_dist_to_ref\n")
        n = len(rec.times)
        for i in range(n):
            defect = rec.ledger_defect[i - 1] if i >= 1 and i - 1 < len(rec.ledger_defect) else math.nan
            xd = rec.x_dist_to_ref[i] if rec.x_dist_to_ref else math.nan
            vd = rec.v_dist_to_ref[i] if rec.v_dist_to_ref else math.nan
            fh.write(
                f"{rec.times[i]:.17g},{rec.ut_xnorm[i]:.17g},{defect:.17g},"
                f"{xd:.17g},{vd:.17g}\n"
            )


def cmd_simulate(config_path):
    cfg = parse_config(config_path)
    grid, pot, op = build_problem(cfg)
    u0 = make_initial(grid, cfg)
    ref = None
    if cfg.reference_path:
        ref, _ = _load_input("reference.psi_path", load_equilibrium,
                             cfg.reference_path, grid)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.time()
    with OutputLock(out):
        with open(os.path.join(out, "config.ini"), "w") as fh:
            fh.write(serialize_config(cfg))
        aborted = False
        reason = ""
        try:
            rec = evolve(grid, op, pot, u0, cfg, ref=ref)
        except EvolutionAbort as exc:
            rec = exc.record
            aborted = True
            reason = str(exc)
        _write_series(os.path.join(out, "series.csv"), rec.times, rec.reports)
        _write_diagnostics(os.path.join(out, "diagnostics.csv"), rec)
        snapdir = os.path.join(out, "snapshots")
        os.makedirs(snapdir, exist_ok=True)
        for i, (t, snap) in enumerate(rec.snapshots):
            snap_path = os.path.join(snapdir, f"snap_{i:06d}_t{t!r}.csv")
            save_field(snap, snap_path)
        # evolve ends every record, aborted or not, with its final state
        shutil.copyfile(snap_path, os.path.join(out, "final_state.csv"))
        if cfg.plots:
            e = [r.e_total for r in rec.reports]
            d = [r.dissipation for r in rec.reports]
            svgplot.line_plot(
                os.path.join(out, "energy.svg"), rec.times,
                {"E(t)": e, "dissipation": d},
                title="energy and dissipation", xlabel="t", ylabel="value",
            )
            if ref is not None:
                svgplot.line_plot(
                    os.path.join(out, "decay.svg"), rec.times,
                    {"|U - psi|_X": rec.x_dist_to_ref},
                    title="distance to reference equilibrium",
                    xlabel="t", ylabel="log10 |U-psi|_X", ylog=True,
                )
        write_manifest(out, cfg, {
            "aborted": aborted, "abort_reason": reason,
            "factorizations": rec.factorizations, "shifts": rec.shifts,
        }, t0)
    if aborted:
        print(f"guard abort: {reason}", file=sys.stderr)
        return EXIT_GUARD
    print(f"simulate: {len(rec.times)} rows -> {out}")
    return EXIT_OK


def classify_equilibrium(rep):
    """Minimum / saddle / degenerate from the spectrum at the equilibrium."""
    if rep.kernel_dim > 0:
        return "degenerate"
    if rep.n_negative > 0:
        return "saddle"
    return "minimum"


def cmd_equilibrium(config_path, init_path=None):
    cfg = parse_config(config_path)
    grid, pot, op = build_problem(cfg)
    if init_path:
        u0 = _load_input("--init", load_field, init_path, grid)
    else:
        u0 = make_initial(grid, cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.time()
    with OutputLock(out):
        with open(os.path.join(out, "config.ini"), "w") as fh:
            fh.write(serialize_config(cfg))
        sol = find_equilibrium(grid, pot, u0, alpha=cfg.alpha, beta=cfg.beta)
        save_equilibrium(sol, os.path.join(out, "equilibrium"))
        H = energy_hessian(grid, pot, sol.psi, cfg.alpha, cfg.beta)
        rep = spectrum(grid, H, k=min(6, grid.n_nodes), kernel_tol=cfg.kernel_tol)
        kind = classify_equilibrium(rep)
        lam0 = rep.eigenvalues[0] if rep.eigenvalues.size else float("nan")
        line = (
            f"classification: {kind} (lambda_min={lam0:.6g}, "
            f"kernel_dim={rep.kernel_dim}, n_negative={rep.n_negative})"
        )
        print(line)
        with open(os.path.join(out, "classification.txt"), "w") as fh:
            fh.write(line + "\n")
        write_manifest(out, cfg, {"converged": sol.converged}, t0)
    if not sol.converged:
        print(
            f"unconverged: residuals bulk={sol.bulk_res:.3e} "
            f"bdry={sol.bdry_res:.3e} after {sol.newton_iters} Newton iters",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    print(f"equilibrium: E={sol.energy:.12g} residuals=({sol.bulk_res:.3e}, "
          f"{sol.bdry_res:.3e}) -> {out}")
    return EXIT_OK


def _load_run(run_dir):
    """The config, problem and trajectory of a finished run, as analyze reads it.

    The trajectory holds the row times and reference distances (both from
    diagnostics.csv) and the snapshots; the ledger columns of series.csv
    are not read.  A malformed file is a config error that names it.
    """
    cfg_path = os.path.join(run_dir, "config.ini")
    series_path = os.path.join(run_dir, "series.csv")
    diag_path = os.path.join(run_dir, "diagnostics.csv")
    snapdir = os.path.join(run_dir, "snapshots")
    missing = [p for p in (cfg_path, series_path, diag_path) if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"run directory {run_dir} is missing: {missing}")
    cfg = parse_config(cfg_path)
    grid, pot, op = build_problem(cfg)
    with open(series_path) as fh:
        header = fh.readline().strip()
    if header != EnergyReport.CSV_COLUMNS:
        raise ConfigError(f"unexpected series.csv header: {header}")
    with open(diag_path) as fh:
        rows = [row for row in fh.readlines()[1:] if row.strip()]
    if not rows:
        raise ConfigError(f"{diag_path}: no rows below the header")
    try:
        times, xs = np.loadtxt(rows, delimiter=",", usecols=(0, 3), ndmin=2).T
    except ValueError as exc:
        raise ConfigError(f"{diag_path}: {exc}")
    snapshots = []
    if os.path.isdir(snapdir):
        for name in sorted(os.listdir(snapdir)):
            if not name.endswith(".csv"):
                continue
            path = os.path.join(snapdir, name)
            try:
                t = float(name.rsplit("_t", 1)[1][:-4])
            except (IndexError, ValueError):
                raise ConfigError(f"{path}: not a snapshot name snap_<i>_t<time>.csv")
            snapshots.append((t, _load_input("snapshot", load_field, path, grid)))
    rec = TrajectoryRecord(times=times.tolist(), snapshots=snapshots)
    if not np.all(np.isnan(xs)):
        rec.x_dist_to_ref = xs.tolist()
    return cfg, grid, pot, op, rec


def _report_text(obj):
    def default(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, float) and not math.isfinite(v):
            return repr(v)
        return str(v)

    data = {k: v for k, v in vars(obj).items() if k not in ("samples", "kernel_basis")}
    return json.dumps(data, indent=2, sort_keys=True, default=default)


def cmd_analyze(run_dir, psi_prefix):
    cfg, grid, pot, op, rec = _load_run(run_dir)
    psi, _ = _load_input("psi_prefix", load_equilibrium, psi_prefix, grid)
    out = os.path.join(run_dir, "analysis")
    os.makedirs(out, exist_ok=True)

    H = energy_hessian(grid, pot, psi, cfg.alpha, cfg.beta)
    srep = spectrum(grid, H, k=min(6, grid.n_nodes), kernel_tol=cfg.kernel_tol)
    with open(os.path.join(out, "spectral_report.txt"), "w") as fh:
        fh.write(_report_text(srep) + "\n")
        fh.write(f'"classification": "{classify_equilibrium(srep)}"\n')

    probe = ls_probe(grid, op, pot, rec, psi, window=cfg.probe_window)
    with open(os.path.join(out, "ls_report.txt"), "w") as fh:
        fh.write(_report_text(probe) + "\n")
    with open(os.path.join(out, "ls_samples.csv"), "w") as fh:
        fh.write("t,gap,lhs\n")
        for t, gap, lhs in probe.samples:
            fh.write(f"{t:.17g},{gap:.17g},{lhs:.17g}\n")
    warn = False
    if probe.insufficient:
        # the bound check still needs some exponent; the fallback only
        # affects the reported required q, never the fitted rates
        theta, theta_source = 0.25, "fallback"
        print(f"warning: exponent probe inconclusive: {probe.note}; the rate "
              f"bound uses the fallback theta = {theta}", file=sys.stderr)
        warn = True
    else:
        theta, theta_source = probe.fitted_theta, "fitted"
        gaps = [s[1] for s in probe.samples]
        lhss = [s[2] for s in probe.samples]
        svgplot.scatter_plot(
            os.path.join(out, "ls_scatter.svg"), gaps, lhss,
            title=f"residual vs energy gap (theta={probe.fitted_theta:.3f})",
            xlabel="log10 gap", ylabel="log10 residual", xlog=True, ylog=True,
            fit=(1.0 - probe.fitted_theta,
                 math.log10(probe.calibration_c) if probe.calibration_c > 0 else 0.0),
        )

    if rec.x_dist_to_ref is None:
        # recompute distances from the stored snapshots
        if rec.snapshots:
            rec_times, dists = [], []
            for t, snap in rec.snapshots:
                rec_times.append(t)
                dists.append(x_norm(op, snap - psi))
            rate_rec = TrajectoryRecord(times=rec_times)
            rate_rec.x_dist_to_ref = dists
        else:
            rate_rec = None
    else:
        rate_rec = rec
    try:
        rrep = rate_fit(rate_rec, theta, fit_tol=cfg.fit_tol,
                        t_min=cfg.rate_fit_t_min,
                        theta_source=theta_source) if rate_rec else None
    except ValueError as exc:
        print(f"warning: rate fit skipped: {exc}", file=sys.stderr)
        rrep = None
        warn = True
    if rrep is not None:
        with open(os.path.join(out, "rate_report.txt"), "w") as fh:
            fh.write(_report_text(rrep) + "\n")
        svgplot.line_plot(
            os.path.join(out, "decay_fit.svg"), rate_rec.times,
            {"|U-psi|_X": rate_rec.x_dist_to_ref},
            title=f"decay ({rrep.model}: q={rrep.q:.3f}, gamma={rrep.gamma:.3f})",
            xlabel="t", ylabel="log10 distance", ylog=True,
        )
    print(f"analyze: reports -> {out}" + (" (with warnings)" if warn else ""))
    return EXIT_OK


def cmd_check(dump_operator=None):
    """Fast invariant battery on a tiny grid; prints one line per check."""
    from .energy import chemical_potential, dissipation, energy_value, make_potential
    from .grid import h_inner
    from .operators import solve_Ainv, x_norm_via_form

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    grid = build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    pot = make_potential("double_well")
    op = assemble_wentzell(grid)
    check("bulk quadrature sums to the area",
          abs(np.sum(grid.bulk_weights) - grid.area) < 1e-12)
    check("wall quadrature sums to the wall length",
          abs(np.sum(grid.bdry_weights) - grid.surface) < 1e-12)
    rng = np.random.default_rng(7)
    u = PairField(grid, rng.standard_normal(grid.n_nodes))
    v = PairField(grid, rng.standard_normal(grid.n_nodes))
    from .operators import apply_A

    lhs = h_inner(grid, apply_A(op, u), v)
    rhs = op.a_form(u, v)
    check("weighted self-adjointness of the wall operator",
          abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs)))
    w = solve_Ainv(op, u)
    res = op.h_norm(apply_A(op, w) - u)
    check("direct solve inverts the operator", res <= 1e-10 * op.h_norm(u))
    check("weak-norm two-route identity",
          abs(x_norm(op, u) - x_norm_via_form(op, u)) <= 1e-10 * (1 + x_norm(op, u)))
    mu = chemical_potential(grid, pot, u)
    eps = 1e-5
    fd = (energy_value(grid, pot, u.values + eps * v.values)
          - energy_value(grid, pot, u.values - eps * v.values)) / (2 * eps)
    pair = h_inner(grid, mu, v)
    check("chemical potential is the exact energy gradient",
          abs(pair - fd) <= 1e-6 * (1 + abs(fd)))
    check("dissipation equals the operator form at unit constants",
          abs(dissipation(grid, mu) - op.a_form(mu, mu))
          <= 1e-12 * (1 + abs(op.a_form(mu, mu))))
    lam, _ = lowest_eigenpairs(weighted_symmetric(op.K_A, op.mass_weights)[0], 1)
    check("operator spectrum is positive", lam[0] > 0)
    rec = evolve(grid, op, pot, 0.2 * u, RunConfig(dt=1e-3, t_end=0.02))
    e = [r.e_total for r in rec.reports]
    check("discrete energy law over 20 steps",
          all(e[i + 1] <= e[i] + 1e-12 * (1 + abs(e[i])) for i in range(len(e) - 1)))
    if dump_operator:
        op.dump_matrix(dump_operator)
        print(f"operator dumped to {dump_operator}")
    return EXIT_OK if failures == 0 else EXIT_UNCONVERGED


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chwall",
        description="Cahn-Hilliard flow with permeable-wall boundary dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a time evolution from a config")
    p_sim.add_argument("config")
    p_eq = sub.add_parser("equilibrium", help="find and classify a stationary state")
    p_eq.add_argument("config")
    p_eq.add_argument("--init", default=None, help="initial field snapshot CSV")
    p_an = sub.add_parser("analyze", help="probe exponent/rates of a finished run")
    p_an.add_argument("run_dir")
    p_an.add_argument("psi_prefix", help="prefix of the saved equilibrium files")
    p_ck = sub.add_parser("check", help="run the invariant battery on a tiny grid")
    p_ck.add_argument("--dump-operator", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "equilibrium":
            return cmd_equilibrium(args.config, args.init)
        if args.command == "analyze":
            return cmd_analyze(args.run_dir, args.psi_prefix)
        return cmd_check(args.dump_operator)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED


if __name__ == "__main__":
    sys.exit(main())
