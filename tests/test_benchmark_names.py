"""The chwall names that the end-to-end benchmark in e2ebench/ relies on.

The benchmark drives ``cli.main`` in a fresh process, hooks ``cli.evolve``
and ``cli.find_equilibrium`` to mark the end of set-up, rebuilds a run's
problem to check its outputs, and with ``--trace 1`` wraps the public
functions of every module below.  Deleting or renaming one of these names
breaks those runs; this test makes that a failure of the unit suite.
"""

import importlib

import pytest

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
