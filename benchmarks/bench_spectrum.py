"""Time the spectral layer and the Newton solve of the stationary states.

Five states, each paired with the metric W = h_weights(1) of the Hessian:

- ``equilibrium48``: the equilibrium that ``chwall equilibrium`` finds for
  the e2ebench ``equilibrium`` workload (48x48 strip, Lx = Ly = 8,
  random_fourier data of amplitude 0.5, seed 1501), an x-invariant minimum;
- ``constant32`` and ``constant128``: the constant state 0.05 on the unit
  square strip at 32x32 and 128x128 (the reference run's equilibrium);
- ``saddle24``: the zero state on the 24x24 strip with Lx = Ly = 8, a
  saddle, where ``spectrum`` cannot stop at the inertia count of a clear
  minimum and takes its full path;
- ``cosine32``: 0.05 + 0.3 cos(2 pi x) cos(pi y) on the unit square strip
  at 32x32, a minimum whose f'(u) varies along x, so that ``classify``
  takes the sparse path of ``spectrum`` there and the mode-by-mode path at
  the other four.

For each state it times ``lowest_eigenpairs`` at k = 1 and k = 6,
``spectrum`` at k = 6 and ``analysis.classify`` at kernel_tol 1e-8, each
as the median and quartiles of ``--repeat`` calls after one warm-up call
(``--repeat`` at least 2), and counts the LDL^T factorizations and Lanczos
runs (plain and shift-invert) of one ``spectrum`` call and of one
``classify`` call.  For ``equilibrium48`` it also times the
``find_equilibrium`` call that finds the state and counts its sparse LU
(``splu``) calls; the solve includes the classification of the state.
``saddle_start24`` times ``find_equilibrium`` from the zero saddle of
``saddle24``, the start that must kick, with its kicks, the energy it ends
at, and its LDL^T factorizations and Lanczos runs.  ``newton128`` times
``newton_refine`` on the same data at 128x128, from the minimizer's result
at tol 1e-3, with its Newton and MINRES iterations.  It writes the figures
with lambda_min and the platform to ``BENCH_spectrum.json`` at the repo
root.  Only public names and ``analysis._shifted_ldl`` are used, so the
script also runs against an older checkout's ``src`` for a before/after
pair.

    PYTHONPATH=src python3 benchmarks/bench_spectrum.py [--repeat 15] [--out PATH]
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np
import scipy
import scipy.sparse.linalg as spla

import chwall.analysis as analysis
from chwall.analysis import classify, lowest_eigenpairs, spectrum, weighted_symmetric
from chwall.cli import build_problem, make_initial
from chwall.config import RunConfig
from chwall.energy import energy_hessian
from chwall.stationary import find_equilibrium, minimize_energy, newton_refine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _states(repeat):
    """(name, operator, potential, state, extra figures) of each benchmarked state."""
    grid, pot, op, u0 = _random_data(48)
    counts = _CallCounter(spla, "splu")
    psi = find_equilibrium(op, pot, u0).psi
    extra = {"find_equilibrium_splu_calls": counts.pop(),
             "find_equilibrium_s": _quartiles(repeat, lambda: find_equilibrium(op, pot, u0))}
    yield "equilibrium48", op, pot, psi, extra
    for n in (32, 128):
        grid, pot, op = build_problem(RunConfig(nx=n, ny=n))
        yield f"constant{n}", op, pot, np.full(grid.n_nodes, 0.05), {}
    grid, pot, op = build_problem(RunConfig(Lx=8.0, Ly=8.0, nx=24, ny=24))
    yield "saddle24", op, pot, np.zeros(grid.n_nodes), {}
    grid, pot, op = build_problem(RunConfig(nx=32, ny=32))
    yield "cosine32", op, pot, 0.05 + 0.3 * np.cos(2 * np.pi * grid.x) * np.cos(np.pi * grid.y), {}


def _random_data(n):
    """(grid, potential, operator, data) of the e2ebench equilibrium inputs at n x n."""
    cfg = RunConfig(Lx=8.0, Ly=8.0, nx=n, ny=n, initial_kind="random_fourier",
                    initial_amplitude=0.5, initial_mean=0.0, seed=1501)
    grid, pot, op = build_problem(cfg)
    return grid, pot, op, make_initial(grid, cfg).values


class _CallCounter:
    """Count the calls of module.name until ``pop``, which restores it."""

    def __init__(self, module, name):
        self.module, self.name, self.calls = module, name, 0
        self.fn = getattr(module, name)

        def call(*args, **kwargs):
            self.calls += 1
            return self.fn(*args, **kwargs)

        setattr(module, name, call)

    def pop(self):
        setattr(self.module, self.name, self.fn)
        return self.calls


def _newton(repeat, n=128):
    """``newton_refine`` at n x n from the minimizer's result at tol 1e-3."""
    grid, pot, op, u0 = _random_data(n)
    start = minimize_energy(op, pot, u0, tol=1e-3).field
    sol = newton_refine(op, pot, start)
    return {"n_nodes": grid.n_nodes, "converged": sol.converged,
            "newton_iters": sol.newton_iters,
            "krylov_iters": getattr(sol, "krylov_iters", None),
            "newton_refine_s": _quartiles(repeat, lambda: newton_refine(op, pot, start))}


def _saddle_start(repeat):
    """``find_equilibrium`` from the zero saddle of the 24x24 strip, Lx = Ly = 8."""
    grid, pot, op = build_problem(RunConfig(Lx=8.0, Ly=8.0, nx=24, ny=24))
    u0 = np.zeros(grid.n_nodes)
    sol, counts = _spectral_calls(lambda: find_equilibrium(op, pot, u0))
    return {"n_nodes": grid.n_nodes, "converged": sol.converged,
            "kicks": getattr(sol, "kicks", None), "energy": sol.energy, **counts,
            "find_equilibrium_s": _quartiles(repeat, lambda: find_equilibrium(op, pot, u0))}


def _spectral_calls(call):
    """(call(), its LDL^T factorizations and Lanczos runs)."""
    ldl, lanczos = _CallCounter(analysis, "_shifted_ldl"), _CallCounter(spla, "eigsh")
    try:
        result = call()
    finally:
        counts = {"ldl_factorizations": ldl.pop(), "lanczos_runs": lanczos.pop()}
    return result, counts


def _quartiles(repeat, call):
    """Median and quartiles of the times of repeat calls, after one warm-up call."""
    call()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_spectrum.json"))
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2: the quartiles need two samples")
    cases = {}
    for name, op, pot, psi, extra in _states(args.repeat):
        grid = op.grid
        H = energy_hessian(grid, pot, psi, op.alpha, op.beta)
        At, rw = weighted_symmetric(H, grid.h_weights(1.0))
        lam, _ = lowest_eigenpairs(At, rw, 1)
        _, spectrum_calls = _spectral_calls(lambda: spectrum(grid, H, k=6))
        (_, kind), classify_calls = _spectral_calls(lambda: classify(op, pot, psi, 1e-8))
        cases[name] = {
            "n_nodes": grid.n_nodes,
            "lambda_min": float(lam[0]),
            "lowest_eigenpairs_k1_s": _quartiles(args.repeat, lambda: lowest_eigenpairs(At, rw, 1)),
            "lowest_eigenpairs_k6_s": _quartiles(args.repeat, lambda: lowest_eigenpairs(At, rw, 6)),
            "spectrum_k6_s": _quartiles(args.repeat, lambda: spectrum(grid, H, k=6)),
            **spectrum_calls,
            "classify_s": _quartiles(args.repeat, lambda: classify(op, pot, psi, 1e-8)),
            "classify_kind": kind,
            **{f"classify_{key}": count for key, count in classify_calls.items()},
            **extra,
        }
        print(name, json.dumps(cases[name]))
    for name, case in (("saddle_start24", _saddle_start), ("newton128", _newton)):
        cases[name] = case(args.repeat)
        print(name, json.dumps(cases[name]))
    result = {
        "timing": f"median and quartiles of {args.repeat} calls after one warm-up, seconds",
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
