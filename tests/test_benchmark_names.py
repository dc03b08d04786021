"""The chwall names that the end-to-end benchmark in e2ebench/ relies on.

The benchmark drives ``cli.main`` in a fresh process, hooks ``cli.evolve``
and ``cli.find_equilibrium`` to mark the end of set-up, rebuilds a run's
problem to check its outputs, and with ``--trace 1`` wraps the public
functions of every module below.  Deleting or renaming one of these names,
or changing the shape of a call the benchmark makes, breaks those runs;
these tests make that a failure of the unit suite.

The benchmark also counts the time steps of a run as the calls to
``evolution.auto_stabilization`` made inside ``evolve``, so ``evolve`` must
call it exactly once per step of either scheme.  The shift is remembered
inside the function, so a step whose state range has not widened still
makes its call; a cache in ``evolve`` in front of the call would silently
break that count.
"""

import importlib
import inspect

import numpy as np
import pytest

import chwall as cw
from chwall import evolution
from chwall.config import RunConfig

USED_BY_BENCHMARK = {
    "chwall": ("build_grid", "double_well"),
    "chwall.cli": ("build_problem", "make_initial", "main", "evolve",
                   "find_equilibrium"),
    "chwall.config": ("parse_config",),
    "chwall.energy": ("energy_value", "state_report"),
    "chwall.evolution": ("evolve", "auto_stabilization"),
    "chwall.stationary": ("minimize_energy", "newton_refine"),
    "chwall.analysis": ("spectrum", "ls_probe", "rate_fit"),
    "chwall.operators": ("x_norm",),
    "chwall.grid": (),
    "chwall.kernels": (),
    "chwall.svgplot": (),
}


@pytest.mark.parametrize("module", sorted(USED_BY_BENCHMARK))
def test_benchmark_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in USED_BY_BENCHMARK[module]
               if not callable(getattr(mod, name, None))]
    assert missing == []


@pytest.mark.parametrize("scheme", ["semi_implicit", "newton"])
def test_evolve_calls_auto_stabilization_once_per_step(monkeypatch, scheme):
    g = cw.build_grid("strip2d", Lx=4.0, Ly=4.0, nx=12, ny=12)
    op, pot = cw.WentzellOperator(g), cw.double_well()
    # spinodal data of both signs, so the shift is recomputed on a moving range
    u0 = 0.9 * np.cos(2 * np.pi * g.x / g.Lx) * np.cos(np.pi * g.y / g.Ly)
    calls = []
    real = evolution.auto_stabilization

    def counted(*args):
        calls.append(args)
        return real(*args)

    # the tracer wraps plain functions only, so the remembered shift's cache
    # must stay inside one
    assert inspect.isfunction(real)
    monkeypatch.setattr(evolution, "auto_stabilization", counted)
    # 40 full steps and one remainder step
    cfg = RunConfig(scheme=scheme, dt=1e-2, t_end=0.405, series_stride=7)
    rec = evolution.evolve(op, pot, u0, cfg)
    assert len(calls) == 41
    assert rec.times[-1] == pytest.approx(0.405)


def test_benchmark_call_shapes():
    # the calls the benchmark makes, in the shapes it makes them: its checks
    # rebuild a run's problem and initial data, evaluate the energy with
    # positional constants, and its tracer reads the solvers' counters
    from chwall.cli import build_problem, make_initial
    from chwall.energy import energy_value
    from chwall.stationary import minimize_energy, newton_refine

    cfg = RunConfig(Lx=4.0, Ly=4.0, nx=8, ny=8, initial_kind="random_fourier",
                    initial_amplitude=0.5, seed=3)
    problem = build_problem(cfg)
    assert isinstance(problem, tuple) and len(problem) == 3
    grid, pot, op = problem
    assert isinstance(grid, cw.StripGrid)
    u = make_initial(grid, cfg).values
    assert isinstance(u, np.ndarray) and u.dtype == np.float64 and u.shape == (grid.n_nodes,)
    assert np.isfinite(energy_value(grid, pot, u, 1.3, 0.7))
    mr = minimize_energy(op, pot, u)
    assert isinstance(mr.iterations, int) and mr.iterations > 0
    sol = newton_refine(op, pot, mr.field)
    assert isinstance(sol.newton_iters, int)
