"""Time the spectral layer: the lowest eigenpairs and the classification spectrum.

Three states, each paired with the metric W = h_weights(1) of the Hessian:

- ``equilibrium48``: the equilibrium that ``chwall equilibrium`` finds for
  the e2ebench ``equilibrium`` workload (48x48 strip, Lx = Ly = 8,
  random_fourier data of amplitude 0.5, seed 1501);
- ``constant32`` and ``constant128``: the constant state 0.05 on the unit
  square strip at 32x32 and 128x128 (the reference run's equilibrium).

For each state it times ``lowest_eigenpairs`` at k = 1 and k = 6 and
``spectrum`` at k = 6, each the best of ``--repeat`` calls after one
warm-up call, and writes the times with lambda_min and the platform to
``BENCH_spectrum.json`` at the repo root.

    PYTHONPATH=src python3 benchmarks/bench_spectrum.py [--repeat 5] [--out PATH]
"""

import argparse
import json
import os
import platform
import time

import numpy as np
import scipy

from chwall.analysis import lowest_eigenpairs, spectrum, weighted_symmetric
from chwall.cli import build_problem, make_initial
from chwall.config import RunConfig
from chwall.energy import energy_hessian
from chwall.grid import PairField
from chwall.stationary import find_equilibrium

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _states():
    """(name, grid, Hessian) of each benchmarked state."""
    cfg = RunConfig(Lx=8.0, Ly=8.0, nx=48, ny=48, initial_kind="random_fourier",
                    initial_amplitude=0.5, initial_mean=0.0, seed=1501)
    grid, pot, op = build_problem(cfg)
    psi = find_equilibrium(op, pot, make_initial(grid, cfg)).psi
    yield "equilibrium48", grid, energy_hessian(grid, pot, psi, op.alpha, op.beta)
    for n in (32, 128):
        grid, pot, op = build_problem(RunConfig(nx=n, ny=n))
        u = PairField.constant(grid, 0.05)
        yield f"constant{n}", grid, energy_hessian(grid, pot, u, op.alpha, op.beta)


def _best_of(repeat, call):
    call()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_spectrum.json"))
    args = parser.parse_args(argv)
    cases = {}
    for name, grid, H in _states():
        At, rw = weighted_symmetric(H, grid.h_weights(1.0))
        lam, _ = lowest_eigenpairs(At, rw, 1)
        cases[name] = {
            "n_nodes": grid.n_nodes,
            "lambda_min": float(lam[0]),
            "lowest_eigenpairs_k1_s": _best_of(args.repeat, lambda: lowest_eigenpairs(At, rw, 1)),
            "lowest_eigenpairs_k6_s": _best_of(args.repeat, lambda: lowest_eigenpairs(At, rw, 6)),
            "spectrum_k6_s": _best_of(args.repeat, lambda: spectrum(grid, H, k=6)),
        }
        print(name, json.dumps(cases[name]))
    result = {
        "timing": f"best of {args.repeat} calls after one warm-up, seconds",
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
