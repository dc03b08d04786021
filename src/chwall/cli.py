"""Command-line front end: simulate, equilibrium, analyze, check.

Every run owns an output directory guarded by a lockfile; the files it
writes are content-hashed into a manifest written last.  Exit codes:
0 success, 2 config/usage error, 3 energy-guard abort, 4 unconverged.
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
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ModeSpectrum, classify, ls_probe, rate_fit
from .config import ConfigError, RunConfig, config_hash, parse_config, serialize_config
from .energy import EnergyReport, energy_and_gradient, make_potential, residual_norms
from .evolution import ENERGY_RISE_TOL, EvolutionAbort, TrajectoryRecord, evolve
from .grid import GridMode, PairField, build_grid, load_field, save_field
from .operators import WentzellOperator, level_rows, x_norm
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

# the rows of a CSV block that _write_rows formats at once
ROWS_PER_WRITE = 1000
# the files ``analyze`` writes into <run>/analysis; it and ``simulate`` clear them first
ANALYSIS_FILES = ("spectral_report.txt", "ls_report.txt", "ls_samples.csv",
                  "rate_report.txt", "ls_scatter.svg", "decay_fit.svg", "manifest.json")


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


class _Written(list):
    """Paths written below out_dir; a call joins its parts onto out_dir and records them."""

    def __init__(self, out_dir):
        super().__init__()
        self.out_dir = out_dir

    def __call__(self, *parts):
        self.append(os.path.join(self.out_dir, *parts))
        return self[-1]


def write_manifest(written, cfg, extra, t0):
    """<out_dir>/manifest.json: extra, the versions, and the sha256 of each file written."""
    import scipy

    artifacts = {os.path.relpath(path, written.out_dir): _sha256(path) for path in written}
    # numpy and scipy may each ship their own BLAS build: np.dot runs on
    # numpy's, the band LAPACK on scipy's
    blas = {}
    for lib in (np, scipy):
        build = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = f"{build['name']} {build['version']}"
    manifest = {
        "config_hash": config_hash(cfg),
        "chwall_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas": blas,
        "wall_time_s": time.time() - t0,
        "artifacts": artifacts,
    }
    manifest.update(extra)
    with open(os.path.join(written.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def build_problem(cfg):
    """Grid, potential and operator of a config; a potential that
    ``make_potential`` refuses (not dissipative, say) is a config error."""
    grid = build_grid(cfg.mode, Lx=cfg.Lx or None, Ly=cfg.Ly, nx=cfg.nx, ny=cfg.ny)
    try:
        pot = make_potential(cfg.potential_kind, cfg.potential_coeffs or None)
    except ValueError as exc:
        raise ConfigError(f"potential.coeffs = {cfg.potential_coeffs!r}: {exc}")
    op = WentzellOperator(grid, b=cfg.b, c=cfg.c, alpha=cfg.alpha, beta=cfg.beta)
    return grid, pot, op


def _remove(paths):
    """Delete each of paths that exists."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def _make_dir(path):
    """Create a directory the run writes to; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}")


def _load_input(name, load, path, grid):
    """load(path, grid=grid) for a file the user named; a bad file is a config error."""
    try:
        return load(path, grid=grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}")


def make_initial(grid, cfg):
    """Seeded initial data as a ``grid.PairField``; the random kind
    superposes low-wavenumber modes."""
    rng = np.random.default_rng(cfg.seed)
    x, y = grid.x, grid.y
    if cfg.initial_kind == "constant":
        return PairField(grid, np.full(grid.n_nodes, float(cfg.initial_mean)))
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


def _write_rows(path, header, rows):
    """Write a CSV below its column line, every cell as %.17g.

    Each block of ROWS_PER_WRITE rows is formatted by one %-operation on
    the row template repeated once per row, as ``save_field`` formats a
    whole snapshot; the blocks bound the text held at once.
    """
    rows = iter(rows)
    template = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, ROWS_PER_WRITE)):
            fh.write(template * len(block) % tuple(chain.from_iterable(block)))


# the attributes of an EnergyReport in the order of its series.csv columns
_REPORT_CELLS = attrgetter(*EnergyReport.CSV_COLUMNS.split(",")[1:])


def _write_series(path, times, reports):
    _write_rows(path, EnergyReport.CSV_COLUMNS,
                ((t, *_REPORT_CELLS(rep)) for t, rep in zip(times, reports, strict=True)))


def _write_diagnostics(path, rec):
    """One row per ledger row; the defect of interval i - 1 sits on row i.

    A cell with no value (the defect of row 0, the distances of a run
    without a reference) is nan.
    """
    missing = [math.nan] * len(rec.times)
    _write_rows(path, "t,ut_xnorm,ledger_defect,x_dist_to_ref,v_dist_to_ref", zip(
        rec.times, rec.ut_xnorm, [math.nan, *rec.ledger_defect],
        rec.x_dist_to_ref or missing, rec.v_dist_to_ref or missing, strict=True,
    ))


def cmd_simulate(config_path):
    cfg = parse_config(config_path)
    grid, pot, op = build_problem(cfg)
    u0 = make_initial(grid, cfg).values
    ref = None
    if cfg.reference_path:
        ref = _load_input("reference.psi_path", load_equilibrium,
                          cfg.reference_path, grid)[0].values
    out = cfg.output_dir
    _make_dir(out)
    t0 = time.time()
    at = _Written(out)
    with OutputLock(out):
        # what an earlier simulate or analyze here wrote and this run may not
        # write again; nothing else in the directory is touched
        _remove(chain(
            sorted(Path(out, "snapshots").glob("snap_*_t*.csv")),
            (os.path.join(out, name) for name in ("energy.svg", "decay.svg")),
            (os.path.join(out, "analysis", name) for name in ANALYSIS_FILES)))
        with open(at("config.ini"), "w") as fh:
            fh.write(serialize_config(cfg))
        aborted = False
        reason = ""
        try:
            rec = evolve(op, pot, u0, cfg, ref=ref)
        except EvolutionAbort as exc:
            rec = exc.record
            aborted = True
            reason = str(exc)
        _write_series(at("series.csv"), rec.times, rec.reports)
        _write_diagnostics(at("diagnostics.csv"), rec)
        _make_dir(os.path.join(out, "snapshots"))
        for i, (t, snap) in enumerate(rec.snapshots):
            snap_path = at("snapshots", f"snap_{i:06d}_t{t!r}.csv")
            save_field(grid, snap, snap_path)
        # evolve ends every record, aborted or not, with its final state
        shutil.copyfile(snap_path, at("final_state.csv"))
        if cfg.plots:
            e = [r.e_total for r in rec.reports]
            d = [r.dissipation for r in rec.reports]
            svgplot.line_plot(
                at("energy.svg"), rec.times,
                {"E(t)": e, "dissipation": d},
                title="energy and dissipation", xlabel="t", ylabel="value",
            )
            if ref is not None:
                svgplot.line_plot(
                    at("decay.svg"), rec.times,
                    {"|U - psi|_X": rec.x_dist_to_ref},
                    title="distance to reference equilibrium",
                    xlabel="t", ylabel="log10 |U-psi|_X", ylog=True,
                )
        write_manifest(at, cfg, {
            "aborted": aborted, "abort_reason": reason,
            "factorizations": rec.factorizations, "shifts": rec.shifts,
            "newton_iters": rec.newton_iters, "krylov_iters": rec.krylov_iters,
        }, t0)
    if aborted:
        print(f"guard abort: {reason}", file=sys.stderr)
        return EXIT_GUARD
    print(f"simulate: {len(rec.times)} rows -> {out}")
    return EXIT_OK


def cmd_equilibrium(config_path, init_path=None):
    cfg = parse_config(config_path)
    grid, pot, op = build_problem(cfg)
    if init_path:
        u0 = _load_input("--init", load_field, init_path, grid).values
    else:
        u0 = make_initial(grid, cfg).values
    out = cfg.output_dir
    _make_dir(out)
    t0 = time.time()
    at = _Written(out)
    with OutputLock(out):
        with open(at("config.ini"), "w") as fh:
            fh.write(serialize_config(cfg))
        sol = find_equilibrium(op, pot, u0, kernel_tol=cfg.kernel_tol)
        prefix = os.path.join(out, "equilibrium")
        save_equilibrium(grid, sol, prefix)
        at.extend((f"{prefix}.csv", f"{prefix}.meta"))
        rep = sol.report
        lam0 = rep.eigenvalues[0] if rep.eigenvalues.size else float("nan")
        line = (
            f"classification: {sol.kind} (lambda_min={lam0:.6g}, "
            f"kernel_dim={rep.kernel_dim}, n_negative={rep.n_negative})"
        )
        print(line)
        with open(at("classification.txt"), "w") as fh:
            fh.write(line + "\n")
        write_manifest(at, cfg, {"converged": sol.converged}, t0)
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

    The trajectory holds the snapshots alone: analyze measures every
    distance from them to the equilibrium it is given, so no column of
    series.csv or diagnostics.csv is read (series.csv only has its header
    checked).  A malformed file is a config error that names it.
    """
    cfg_path = os.path.join(run_dir, "config.ini")
    series_path = os.path.join(run_dir, "series.csv")
    snapdir = os.path.join(run_dir, "snapshots")
    missing = [p for p in (cfg_path, series_path) if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"run directory {run_dir} is missing: {missing}")
    cfg = parse_config(cfg_path)
    grid, pot, op = build_problem(cfg)
    with open(series_path) as fh:
        header = fh.readline().strip()
    if header != EnergyReport.CSV_COLUMNS:
        raise ConfigError(f"unexpected series.csv header: {header}")
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
            snapshots.append((t, _load_input("snapshot", load_field, path, grid).values))
    return cfg, grid, pot, op, TrajectoryRecord(snapshots=snapshots)


def _report_text(obj, **extra):
    """The fields of a report (but samples, kernel basis and lowest vector) and
    extra, as one JSON object."""
    data = {k: v for k, v in vars(obj).items()
            if k not in ("samples", "kernel_basis", "lowest_vector")}
    data.update(extra)
    return json.dumps(data, indent=2, sort_keys=True,
                      default=lambda v: v.tolist() if isinstance(v, np.ndarray) else str(v))


def cmd_analyze(run_dir, psi_prefix):
    """The analysis reports of a finished run, under the run directory's lock.

    The lock is held from reading the run to writing ``analysis/`` and, last,
    its manifest hashing every report written, so the analysis is refused
    while another command writes into the directory.  The files of an
    earlier analysis (``ANALYSIS_FILES``) are deleted first, so a report or
    plot that this run does not write cannot survive beside its reports.
    """
    t0 = time.time()
    if not os.path.isdir(run_dir):
        raise ConfigError(f"run directory {run_dir} does not exist")
    with OutputLock(run_dir):
        cfg, grid, pot, op, rec = _load_run(run_dir)
        psi_rec, meta = _load_input("psi_prefix", load_equilibrium, psi_prefix, grid)
        psi = psi_rec.values
        out = os.path.join(run_dir, "analysis")
        at = _Written(out)
        _make_dir(out)
        _remove(os.path.join(out, name) for name in ANALYSIS_FILES)

        bulk_res, bdry_res = residual_norms(
            grid, energy_and_gradient(grid, pot, psi, op.alpha, op.beta)[1])
        converged = meta.get("converged") == "1"
        warn = False
        if not converged:
            # a slowly converging degenerate psi stays analyzable: no exit code
            print(f"warning: {psi_prefix}.meta does not record a converged solve; "
                  f"psi has residuals bulk={bulk_res:.3e} bdry={bdry_res:.3e}",
                  file=sys.stderr)
            warn = True
        srep, kind = classify(op, pot, psi, cfg.kernel_tol)
        with open(at("spectral_report.txt"), "w") as fh:
            fh.write(_report_text(srep, classification=kind, psi_bulk_res=bulk_res,
                                  psi_bdry_res=bdry_res, psi_converged=converged) + "\n")

        probe = ls_probe(op, pot, rec, psi, window=cfg.probe_window)
        with open(at("ls_report.txt"), "w") as fh:
            fh.write(_report_text(probe) + "\n")
        _write_rows(at("ls_samples.csv"), "t,gap,lhs", probe.samples)
        if probe.insufficient:
            # the bound check still needs some exponent; the fallback only
            # affects the reported required q, never the fitted rates
            theta, theta_source = 0.25, "fallback"
            print(f"warning: exponent probe inconclusive: {probe.note}; the rate "
                  f"bound uses the fallback theta = {theta}", file=sys.stderr)
            warn = True
        else:
            theta, theta_source = probe.fitted_theta, "fitted"
            if cfg.plots:
                gaps = [s[1] for s in probe.samples]
                lhss = [s[2] for s in probe.samples]
                svgplot.scatter_plot(
                    at("ls_scatter.svg"), gaps, lhss,
                    title=f"residual vs energy gap (theta={probe.fitted_theta:.3f})",
                    xlabel="log10 gap", ylabel="log10 residual", xlog=True, ylog=True,
                    fit=(1.0 - probe.fitted_theta,
                         math.log10(probe.calibration_c) if probe.calibration_c > 0 else 0.0),
                )

        times = [t for t, _ in rec.snapshots]
        dists = [x_norm(op, snap - psi) for _, snap in rec.snapshots]
        try:
            rrep = rate_fit(times, dists, theta, fit_tol=cfg.fit_tol,
                            t_min=cfg.rate_fit_t_min,
                            theta_source=theta_source) if times else None
        except ValueError as exc:
            print(f"warning: rate fit skipped: {exc}", file=sys.stderr)
            rrep = None
            warn = True
        if rrep is not None:
            with open(at("rate_report.txt"), "w") as fh:
                fh.write(_report_text(rrep) + "\n")
            if cfg.plots:
                svgplot.line_plot(
                    at("decay_fit.svg"), times, {"|U-psi|_X": dists},
                    title=f"decay ({rrep.model}: q={rrep.q:.3f}, gamma={rrep.gamma:.3f})",
                    xlabel="t", ylabel="log10 distance", ylog=True,
                )
        write_manifest(at, cfg, {"theta_source": theta_source, "warnings": warn}, t0)
    print(f"analyze: reports -> {out}" + (" (with warnings)" if warn else ""))
    return EXIT_OK


def cmd_check(dump_operator=None):
    """Fast invariant battery on a tiny grid; prints one line per check.

    The operator has non-unit constants b = 2, c = 0.5, alpha = 0.7,
    beta = 1.5, so a constant that some path drops or takes as 1 fails.
    """
    from .energy import chemical_potential, energy_value, make_potential
    from .grid import h_inner, h_norm
    from .operators import apply_A, solve_Ainv, x_norm_via_form

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    grid = build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    pot = make_potential("double_well")
    op = WentzellOperator(grid, b=2.0, c=0.5, alpha=0.7, beta=1.5)
    check("bulk quadrature sums to the area",
          abs(np.sum(grid.bulk_weights) - grid.area) < 1e-12)
    check("wall quadrature sums to the wall length",
          abs(np.sum(grid.bdry_weights) - grid.surface) < 1e-12)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.n_nodes)
    v = rng.standard_normal(grid.n_nodes)
    lhs = h_inner(grid, apply_A(op, u), v, b=op.b)
    rhs = op.a_form(u, v)
    check("weighted self-adjointness of the wall operator",
          abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs)))
    w = solve_Ainv(op, u)
    res = h_norm(grid, apply_A(op, w) - u, b=op.b)
    check("direct solve inverts the operator", res <= 1e-10 * h_norm(grid, u, b=op.b))
    check("weak-norm two-route identity",
          abs(x_norm(op, u) - x_norm_via_form(op, u)) <= 1e-10 * (1 + x_norm(op, u)))
    mu = chemical_potential(op, pot, u)
    eps = 1e-5
    u_up, u_down = u + eps * v, u - eps * v
    fd = (energy_value(grid, pot, u_up, op.alpha, op.beta)
          - energy_value(grid, pot, u_down, op.alpha, op.beta)) / (2 * eps)
    pair = h_inner(grid, mu, v, b=op.b)
    check("chemical potential is the exact energy gradient",
          abs(pair - fd) <= 1e-6 * (1 + abs(fd)))
    # K_A commutes with x-shifts: its spectrum is read one Fourier mode at a time
    rows = level_rows(grid)
    lam = ModeSpectrum(grid, op.K_A[rows], op.mass_weights[rows]).values
    check("operator spectrum is positive", lam.min() > 0)
    rec = evolve(op, pot, 0.2 * u, RunConfig(dt=1e-3, t_end=0.02))
    e = [r.e_total for r in rec.reports]
    check("discrete energy law over 20 steps",
          all(e[i + 1] <= e[i] + ENERGY_RISE_TOL * (1 + abs(e[i])) for i in range(len(e) - 1)))
    if dump_operator:
        try:
            op.dump_matrix(dump_operator)
        except OSError as exc:
            raise ConfigError(f"cannot write {dump_operator}: {exc.strerror}")
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
