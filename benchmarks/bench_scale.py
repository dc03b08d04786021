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

The Newton steps of all grid sizes are one timing group, the other figures
one group per size.  It records ``assembly_factor_peak_kb`` and
``save_field_peak_kb``, the tracemalloc peaks of one factorization call and
of one ``save_field`` above what was allocated before it.  The grid's forms
are assembled before any timing.  It writes the figures to
``BENCH_scale.json`` at the repo root; ``timing.py`` states the timing rule.

    PYTHONPATH=src python3 benchmarks/bench_scale.py [--repeat 15] [--out PATH]
"""

import os
import tempfile
import tracemalloc

import numpy as np

import chwall as cw
from chwall import evolution
from chwall.config import RunConfig
from chwall.grid import _snapshot_template, save_field
from timing import run, timed

SIZES = (32, 64, 128, 256)
DT, S = 1e-3, 2.0


def _factor(op):
    return evolution._semi_system(op, DT, S, evolution._StepFactors())


def _peak_kb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _cases(args):
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
                **timed(args.repeat, {
                    "assembly_factor_s": lambda: _factor(op),
                    "band_solve_s": lambda: lu.solve(rhs),
                    "template_s": lambda: _snapshot_template(grid),
                    "save_field_s": lambda: save_field(grid, rhs, path),
                }),
                "assembly_factor_peak_kb": _peak_kb(lambda: _factor(op)),
                "save_field_peak_kb": _peak_kb(lambda: save_field(grid, rhs, path)),
                "newton_step_solves": rec.newton_iters,
                "newton_step_krylov_iters": rec.krylov_iters,
            }
            steps[name] = (lambda op=op, pot=pot, u0=u0, step=step:
                           evolution.evolve(op, pot, u0, step))
    for name, quartiles in timed(args.repeat, steps).items():
        cases[name]["newton_step_s"] = quartiles
    return cases.items()


def main(argv=None):
    run(argv, __doc__, "BENCH_scale.json", _cases)


if __name__ == "__main__":
    main()
