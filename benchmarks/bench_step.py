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

Each figure is the median and quartiles of ``--repeat`` samples (at least
2), a sample being the mean over a loop of calls long enough to take about
a millisecond, after one warm-up loop.  It writes them with the platform to
``BENCH_step.json`` at the repo root.

    PYTHONPATH=src python3 benchmarks/bench_step.py [--repeat 15] [--out PATH]
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import tempfile
import time
from dataclasses import replace

import numpy as np
import scipy

from chwall import cli, evolution
from chwall.cli import build_problem, make_initial
from chwall.config import RunConfig
from chwall.energy import energy_and_gradient, state_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (32, 48, 256)
CONFIG = RunConfig(dt=1e-3, initial_kind="cosine", initial_amplitude=0.1, initial_mean=0.05)


def _quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _per_call(repeat, call, number=None):
    """Median and quartiles over repeat samples of the mean time of one call."""
    if number is None:
        t0 = time.perf_counter()
        call()
        number = max(1, int(1e-3 / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(repeat + 1):  # the first loop warms up
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - t0) / number)
    return _quartiles(samples[1:])


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
    run = replace(cfg, t_end=steps * cfg.dt)
    step_repeat = max(3, args.repeat // 3)
    return {
        "n_nodes": grid.n_nodes,
        "shift_s": _per_call(args.repeat, lambda: evolution.auto_stabilization(pot, lo, hi)),
        "shift_widened_s": _per_call(args.repeat, widened),
        "band_solve_s": _per_call(args.repeat, lambda: lu.solve(kmu)),
        "evaluation_s": _per_call(args.repeat, lambda: energy_and_gradient(
            grid, pot, u, op.alpha, op.beta)),
        "ledger_row_s": _per_call(args.repeat, lambda: state_report(op, u, ev)),
        "series_row_s": {k: v / rows for k, v in _per_call(args.repeat, series_rows).items()},
        "evolve_step_s": {k: v / steps for k, v in _per_call(
            step_repeat, lambda: evolution.evolve(op, pot, u, run), number=1).items()},
        "evolve_steps": steps,
        "evolve_repeat": step_repeat,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_step.json"))
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2: the quartiles need two samples")
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            cases[f"{n}x{n}"] = _case(n, args, os.path.join(tmp, "rows.csv"))
            print(f"{n}x{n}", json.dumps(cases[f"{n}x{n}"]))
    result = {
        "timing": (f"median and quartiles of {args.repeat} samples (evolve_step_s: "
                   "evolve_repeat samples), each the mean of a loop of calls after "
                   "one warm-up loop, seconds per call"),
        "platform": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "machine": platform.machine(),
                     "cpus": os.cpu_count()},
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
