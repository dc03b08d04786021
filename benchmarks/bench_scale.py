"""Time the per-grid layers of a run across the grid sweep.

On the unit square strip at 32x32, 64x64, 128x128 and 256x256, with the
double-well potential, unit constants, dt = 1e-3 and S = 2 (the settings
of the e2ebench ``large_grid`` run), it times:

- ``assembly_factor_s``: one step-system factorization, assembly included
  (``evolution._semi_system`` with an empty cache of step factors);
- ``band_solve_s``: one solve with that factor;
- ``template_s``: building the snapshot template (``grid._snapshot_template``);
- ``save_field_s``: one ``save_field`` of a random field, template cached;
- ``newton_step_s``: one implicit step, ``evolve`` with ``scheme = newton``
  and ``t_end = dt`` from the cosine state 0.1 cos(2 pi x) + 0.05, through
  public names only (so the script also times older checkouts), beside
  its work from the run's record: ``newton_step_solves`` Jacobian solves
  (``newton_iters``) and ``newton_step_krylov_iters`` MINRES iterations
  (``krylov_iters``).

Each figure but ``newton_step_s`` is the best of ``--repeat`` calls after
one warm-up call.  ``newton_step_s`` is the median and quartiles of
``--repeat`` samples (at least 2), as in ``bench_step.py``: after one
warm-up round, the grid sizes take their steps in turn, one sample each
per round, so a slow spell of a shared machine falls on every size
rather than on one.  It records
``assembly_factor_peak_kb`` and ``save_field_peak_kb``, the tracemalloc
peaks of one factorization call and of one ``save_field`` above what was
allocated before it.  The grid's forms are assembled before any timing.
It writes the numbers and the platform to ``BENCH_scale.json`` at the
repo root.

    PYTHONPATH=src python3 benchmarks/bench_scale.py [--repeat 15] [--out PATH]
"""

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc

import numpy as np
import scipy

import chwall as cw
from chwall import evolution
from chwall.config import RunConfig
from chwall.grid import _snapshot_template, save_field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (32, 64, 128, 256)
DT, S = 1e-3, 2.0


def _best_of(repeat, call):
    call()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def _alternating_quartiles(repeat, calls):
    """Median and quartiles of each of calls' times, the calls taken in turn
    for repeat rounds after one warm-up round."""
    samples = {name: [] for name in calls}
    for round_ in range(repeat + 1):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            if round_:
                samples[name].append(time.perf_counter() - t0)
    out = {}
    for name, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def _factor(op):
    return evolution._semi_system(op, DT, S, evolution._StepFactors())


def _peak_kb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_scale.json"))
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2: the quartiles need two samples")
    cases, steps = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.csv")
        for n in SIZES:
            grid = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=n, ny=n)
            op, pot = cw.WentzellOperator(grid), cw.double_well()
            grid.forms.k_lin(op.alpha, op.beta)
            lu = _factor(op)
            rhs = np.random.default_rng(0).standard_normal(grid.n_nodes)
            u0 = 0.1 * np.cos(2 * np.pi * grid.x) + 0.05
            step = RunConfig(scheme="newton", dt=DT, t_end=DT, stabilization_S=S)
            rec = evolution.evolve(op, pot, u0, step)
            name = f"{n}x{n}"
            cases[name] = {
                "n_nodes": grid.n_nodes,
                "assembly_factor_s": _best_of(args.repeat, lambda: _factor(op)),
                "assembly_factor_peak_kb": _peak_kb(lambda: _factor(op)),
                "band_solve_s": _best_of(args.repeat, lambda: lu.solve(rhs)),
                "template_s": _best_of(args.repeat, lambda: _snapshot_template(grid)),
                "save_field_s": _best_of(args.repeat, lambda: save_field(grid, rhs, path)),
                "save_field_peak_kb": _peak_kb(lambda: save_field(grid, rhs, path)),
                "newton_step_solves": rec.newton_iters,
                "newton_step_krylov_iters": rec.krylov_iters,
            }
            steps[name] = (lambda op=op, pot=pot, u0=u0, step=step:
                           evolution.evolve(op, pot, u0, step))
            print(name, json.dumps(cases[name]))
    for name, quartiles in _alternating_quartiles(args.repeat, steps).items():
        cases[name]["newton_step_s"] = quartiles
        print(name, "newton_step_s", json.dumps(quartiles))
    result = {
        "timing": (f"best of {args.repeat} calls after one warm-up, seconds; newton_step_s: "
                   f"median and quartiles of {args.repeat} alternating rounds after one "
                   "warm-up round"),
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
