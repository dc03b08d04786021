"""Time the per-step layers of the stabilized semi-implicit loop.

On the unit square strip at 32x32, 48x48 and 256x256, with the double-well
potential, unit constants, dt = 1e-3 and the cosine data of the e2ebench
``reference`` run (amplitude 0.1, mean 0.05), it times one call of each
thing a step of ``evolve`` does:

- ``shift_s``: ``evolution.auto_stabilization`` over an unchanged state
  range, which the remembered rung answers (every step of ``reference``);
- ``shift_widened_s``: the same call when the range has widened, i.e. the
  257-point sampled max |f'| and the rung search;
- ``band_solve_s``: one solve with the step system's band factor;
- ``evaluation_s``: ``energy.energy_and_gradient`` of the state;
- ``ledger_row_s``: ``energy.state_report`` of the state;
- ``series_row_s``: one row of ``series.csv`` and one of
  ``diagnostics.csv``, from a write of ``--rows`` rows divided by that count;
- ``evolve_step_s``: a whole ``evolve`` run of ``--steps`` steps (one ledger
  row per step, no snapshots), divided by the step count; 256x256 runs a
  tenth of them.

``shift_s`` is timed in a group of its own, since the widened call replaces
the remembered rung.  It writes the figures to ``BENCH_step.json`` at the
repo root; ``timing.py`` states the timing rule.

    PYTHONPATH=src python3 benchmarks/bench_step.py [--repeat 15] [--out PATH] [--rows 2000] [--steps 500]
"""

import itertools
import os
import tempfile
from dataclasses import replace

from chwall import cli, evolution
from chwall.cli import build_problem, make_initial
from chwall.config import RunConfig
from chwall.energy import energy_and_gradient, state_report
from timing import run, timed

SIZES = (32, 48, 256)
CONFIG = RunConfig(dt=1e-3, initial_kind="cosine", initial_amplitude=0.1, initial_mean=0.05)


def _case(n, args, path):
    cfg = replace(CONFIG, nx=n, ny=n)
    grid, pot, op = build_problem(cfg)
    u = make_initial(grid, cfg).values
    lo, hi = float(u.min()), float(u.max())
    S = evolution.auto_stabilization(pot, lo, hi)
    lu = evolution._semi_system(op, cfg.dt, S, evolution._StepFactors())
    ev = energy_and_gradient(grid, pot, u, op.alpha, op.beta)
    report, kmu = state_report(op, u, ev)
    rows = args.rows
    rec = evolution.TrajectoryRecord(
        times=[0.001 * i for i in range(rows)], reports=[report] * rows,
        ut_xnorm=[0.5] * rows, ledger_defect=[1e-17] * (rows - 1))
    widths = itertools.count(1)

    def widened():
        evolution.auto_stabilization(pot, lo, hi + 1e-9 * next(widths))

    def series_rows():
        cli._write_series(path, rec.times, rec.reports)
        cli._write_diagnostics(path, rec)

    steps = args.steps if n < 256 else max(1, args.steps // 10)
    step_run = replace(cfg, t_end=steps * cfg.dt)
    case = {
        "n_nodes": grid.n_nodes,
        **timed(args.repeat, {"shift_s": lambda: evolution.auto_stabilization(pot, lo, hi)}),
        **timed(args.repeat, {
            "shift_widened_s": widened,
            "band_solve_s": lambda: lu.solve(kmu),
            "evaluation_s": lambda: energy_and_gradient(grid, pot, u, op.alpha, op.beta),
            "ledger_row_s": lambda: state_report(op, u, ev),
            "series_row_s": series_rows,
            "evolve_step_s": lambda: evolution.evolve(op, pot, u, step_run),
        }),
        "evolve_steps": steps,
    }
    for name, count in (("series_row_s", rows), ("evolve_step_s", steps)):
        case[name] = {k: v / count for k, v in case[name].items()}
    return case


def _cases(args):
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            yield f"{n}x{n}", _case(n, args, os.path.join(tmp, "rows.csv"))


def _add_arguments(parser):
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=500)


def main(argv=None):
    run(argv, __doc__, "BENCH_step.json", _cases, _add_arguments)


if __name__ == "__main__":
    main()
