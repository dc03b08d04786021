import numpy as np
import pytest

import chwall as cw
from chwall.energy import energy_and_gradient, energy_hessian, energy_value, residual_norms
from chwall.cli import make_initial
from chwall.config import RunConfig
from chwall.evolution import evolve
from chwall.grid import PairField, h_norm
from chwall.operators import v_norm, x_norm
from chwall.stationary import (
    SolveMethod,
    find_equilibrium,
    load_equilibrium,
    minimize_energy,
    newton_refine,
    save_equilibrium,
)


@pytest.fixture(scope="module")
def small_strip(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    return g, cw.assemble_wentzell(g)


@pytest.fixture(scope="module")
def tall_strip(pot):
    # the zero state is a saddle here (checked spectrally in test_analysis)
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=24, ny=24)
    return g, cw.assemble_wentzell(g)


def test_minimize_from_zero_small_strip(small_strip, pot):
    g, _ = small_strip
    res = minimize_energy(g, pot, PairField.zeros(g), tol=1e-8)
    assert res.converged
    assert res.escapes == 0  # zero is a genuine local minimum here
    assert abs(energy_value(g, pot, res.field.values) - 0.25) <= 1e-10


def test_minimize_escapes_saddle_on_tall_strip(small_strip, tall_strip, pot):
    g, _ = tall_strip
    res = minimize_energy(g, pot, PairField.zeros(g), tol=1e-6)
    assert res.converged
    assert res.escapes >= 1
    e = energy_value(g, pot, res.field.values)
    assert e < 0.25 * g.area - 1e-3  # strictly below the zero-state energy
    assert np.std(res.field.values) > 1e-3  # nonconstant profile


def test_minimize_one_evaluation_per_lbfgs_point(tall_strip, pot, monkeypatch):
    # the loop keeps (E, g) of the point it stands on: the line search, the
    # accepted steps and the saddle kick never evaluate a point twice
    import chwall.stationary as stationary

    g, _ = tall_strip
    points = []
    evaluate = stationary.energy_and_gradient

    def recorded(grid, pot, u, *args):
        points.append(np.array(u, dtype=float).tobytes())
        return evaluate(grid, pot, u, *args)

    monkeypatch.setattr(stationary, "energy_and_gradient", recorded)
    res = minimize_energy(g, pot, PairField.zeros(g), tol=1e-6)
    assert res.converged and res.escapes >= 1
    assert len(set(points)) == len(points)
    assert 0 < res.iterations <= len(points)


def test_minimize_iterations_do_not_grow_with_the_mesh(pot):
    # the band-factorized preconditioner makes the count mesh-independent:
    # 44 / 33 / 31 iterations here, where Euclidean L-BFGS-B took
    # 133 / 379 / 1184
    cfg = RunConfig(initial_kind="random_fourier", initial_amplitude=0.5, seed=7)
    for n in (24, 48, 96):
        g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=n, ny=n)
        res = minimize_energy(g, pot, make_initial(g, cfg), tol=1e-3)
        assert res.converged and res.iterations <= 50, (n, res.iterations)
    # a wide strip near the uniform state, to a tight tolerance, which
    # L-BFGS-B left unconverged at |g| = 1.1e-6
    g = cw.build_grid("strip2d", Lx=20.0, Ly=20.0, nx=96, ny=96)
    cfg = RunConfig(initial_kind="random_fourier", initial_amplitude=0.05, seed=11)
    res = minimize_energy(g, pot, make_initial(g, cfg), tol=1e-6)
    assert res.converged, res.grad_norm


def test_minimize_stops_at_its_tolerance(tall_strip, pot, rng):
    # L-BFGS stops on the first accepted iterate that meets tol, so a looser
    # tol takes fewer iterations
    g, _ = tall_strip
    u0 = PairField(g, 0.8 * rng.standard_normal(g.n_nodes))
    runs = [minimize_energy(g, pot, u0, tol=tol) for tol in (1e-2, 1e-4, 1e-6)]
    assert all(r.converged for r in runs)
    assert runs[0].iterations < runs[1].iterations < runs[2].iterations


def test_minimize_descent_property(small_strip, pot, rng):
    g, _ = small_strip
    for _ in range(3):
        u0 = PairField(g, 0.8 * rng.standard_normal(g.n_nodes))
        e0 = energy_value(g, pot, u0.values)
        res = minimize_energy(g, pot, u0, tol=1e-7)
        assert energy_value(g, pot, res.field.values) <= e0 + 1e-12 * (1 + abs(e0))


def test_newton_refine_zero_is_immediate(small_strip, pot):
    g, _ = small_strip
    sol = newton_refine(g, pot, PairField.zeros(g), tol=1e-10)
    assert sol.converged and sol.newton_iters <= 1
    assert sol.bulk_res == 0.0 and sol.bdry_res == 0.0
    assert np.max(np.abs(sol.psi.values)) == 0.0


def test_newton_refine_guard_rejects_far_start(small_strip, pot, rng):
    g, _ = small_strip
    far = PairField(g, 2.0 * rng.standard_normal(g.n_nodes))
    with pytest.raises(ValueError, match="basin"):
        newton_refine(g, pot, far, tol=1e-8)


def test_newton_refine_quadratic_history(tall_strip, pot, rng):
    g, _ = tall_strip
    rough = minimize_energy(g, pot, PairField.zeros(g), tol=1e-6)
    psi = newton_refine(g, pot, rough.field, tol=1e-12).psi
    # displace by a calibrated amount so Newton needs several contractions
    d = PairField(g, rng.standard_normal(g.n_nodes))
    probe = 1e-3
    r_probe = h_norm(g, cw.chemical_potential(g, pot, psi + probe * d).values)
    amp = 8e-3 * probe / r_probe
    start = psi + amp * d
    sol = newton_refine(g, pot, start, tol=1e-9, basin_threshold=5e-2)
    assert sol.converged
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    r = [x for x in sol.residual_history if x > 0]
    assert len(r) >= 3
    ratios = [np.log(r[i + 1] / r[i]) for i in range(len(r) - 1)]
    # quadratic convergence: contraction exponents accelerate
    assert ratios[-1] / ratios[-2] >= 1.5 or r[-1] <= 1e-12


def test_find_equilibrium_pipeline(small_strip, pot, rng):
    g, _ = small_strip
    u0 = PairField(g, 0.05 * rng.standard_normal(g.n_nodes))
    sol = find_equilibrium(g, pot, u0, tol=1e-9)
    assert sol.converged
    assert sol.method in (SolveMethod.MINIMIZE_THEN_NEWTON, SolveMethod.NEWTON_ONLY)
    assert h_norm(g, cw.chemical_potential(g, pot, sol.psi).values) <= 1e-9


def test_critical_point_equivalence(tall_strip, pot):
    # strong residuals and the gradient norm vanish together
    g, _ = tall_strip
    rough = minimize_energy(g, pot, PairField.zeros(g), tol=1e-4)
    sol = newton_refine(g, pot, rough.field, tol=1e-10)
    bulk, bdry = residual_norms(g, energy_and_gradient(g, pot, sol.psi)[1])
    assert bulk + bdry <= 1e-9
    assert h_norm(g, cw.chemical_potential(g, pot, sol.psi).values) <= 1e-9


def _trajectory_limit(g, op, pot, final, tol):
    """Newton from a run's final state, which must already lie near its limit."""
    sol = newton_refine(g, pot, final, tol=tol, basin_threshold=1e-1)
    assert sol.converged
    assert x_norm(op, final - sol.psi) <= 0.5
    return sol


def test_omega_limit_identifies_equilibrium(small_strip, pot):
    g, op = small_strip
    u0 = PairField(g, 0.1 * np.cos(2 * np.pi * g.x) + 0.05)
    rec = evolve(g, op, pot, u0, RunConfig(dt=2e-3, t_end=12.0, series_stride=20))
    sol = _trajectory_limit(g, op, pot, rec.final_state(), tol=1e-9)
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    # the limit's energy is below every recorded trajectory energy
    assert all(sol.energy <= r.e_total + 1e-12 for r in rec.reports)


def test_omega_limit_twin_runs_agree(small_strip, pot):
    g, op = small_strip
    cfg = RunConfig(dt=2e-3, t_end=12.0, series_stride=50)
    sols = []
    for amp, mean in ((0.1, 0.05), (0.07, -0.03)):
        u0 = PairField(g, amp * np.cos(2 * np.pi * g.x) + mean)
        rec = evolve(g, op, pot, u0, cfg)
        sols.append(_trajectory_limit(g, op, pot, rec.final_state(), tol=1e-10))
    diff = v_norm(g, sols[0].psi - sols[1].psi)
    assert diff <= 1e-6


def test_interval_saddle_escape_and_classification(pot):
    # long interval: the zero state is a saddle; the pipeline escapes it
    # even with the surface operators degenerated to endpoint masses
    g = cw.build_grid("interval1d", Ly=8.0, ny=34)
    rep0 = cw.spectrum(g, energy_hessian(g, pot, cw.PairField.zeros(g)), k=3)
    assert rep0.eigenvalues[0] < 0
    sol = find_equilibrium(g, pot, cw.PairField.zeros(g), tol=1e-10)
    assert sol.converged
    assert sol.energy < 0.25 * g.area - 1e-3
    assert np.std(sol.psi.values) > 1e-3
    rep = cw.spectrum(g, energy_hessian(g, pot, sol.psi), k=3)
    assert rep.eigenvalues[0] > 0  # the escaped state is a minimum


def test_equilibrium_files_roundtrip(tmp_path, small_strip, pot):
    g, _ = small_strip
    sol = newton_refine(g, pot, PairField.zeros(g), tol=1e-10)
    prefix = str(tmp_path / "eq")
    save_equilibrium(sol, prefix)
    psi, meta = load_equilibrium(prefix, grid=g)
    assert np.array_equal(psi.values, sol.psi.values)
    assert meta["method"] == "newton_only"
    assert float(meta["energy"]) == pytest.approx(sol.energy)
    assert meta["converged"] == "1"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # nothing in chwall needs scipy.optimize, which is slow to import: not the
    # CLI, and not the stationary solve from a saddle start
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, chwall, chwall.cli\n"
        "g = chwall.build_grid('strip2d', Lx=8.0, Ly=8.0, nx=12, ny=12)\n"
        "sol = chwall.find_equilibrium(g, chwall.double_well(), chwall.PairField.zeros(g))\n"
        "print(sol.converged, sol.method.value, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "minimize_then_newton", "False"]
