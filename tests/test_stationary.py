import numpy as np
import pytest

import chwall as cw
from chwall.energy import energy_and_gradient, energy_hessian, energy_value, residual_norms
from chwall.cli import make_initial
from chwall.config import RunConfig
from chwall.evolution import evolve
from chwall.grid import h_norm
from chwall import operators
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
    return g, cw.WentzellOperator(g)


@pytest.fixture(scope="module")
def tall_strip(pot):
    # the zero state is a saddle here (checked spectrally in test_analysis)
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=24, ny=24)
    return g, cw.WentzellOperator(g)


def _off_saddle(g):
    """Data beside the zero saddle of the tall strip, along the unstable
    constant mode: descent from it reaches the strip's nontrivial minimum."""
    return np.full(g.n_nodes, -1e-2)


def _below_saddle(g, pot, u):
    """Whether u lies clearly below the zero saddle's energy 0.25 |Omega|."""
    return energy_value(g, pot, u, 1.0, 1.0) < 0.25 * g.area - 1e-3


def test_minimize_from_zero_small_strip(small_strip, pot):
    g, op = small_strip
    res = minimize_energy(op, pot, np.zeros(g.n_nodes), tol=1e-8)
    assert res.converged
    assert abs(energy_value(g, pot, res.field, 1.0, 1.0) - 0.25) <= 1e-10
    # zero is a genuine local minimum here: the classification never kicks
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes))
    assert sol.kicks == 0 and sol.kind == "minimum"


def test_minimize_escapes_saddle_on_tall_strip(small_strip, tall_strip, pot):
    g, op = tall_strip
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes), tol=1e-6)
    assert sol.converged
    assert sol.kicks >= 1
    assert _below_saddle(g, pot, sol.psi)
    assert np.std(sol.psi) > 1e-3  # nonconstant profile
    assert sol.kind == "minimum"


def test_minimize_one_evaluation_per_lbfgs_point(tall_strip, pot, monkeypatch):
    # the solve keeps (E, g) of the point it stands on: the line search, the
    # accepted steps, the saddle kick, the restarted descent and Newton's
    # start never evaluate a point twice
    import chwall.stationary as stationary

    g, op = tall_strip
    points, iterations = [], []
    evaluate, minimize = stationary.energy_and_gradient, stationary.minimize_energy

    def recorded(grid, pot, u, *args):
        points.append(np.array(u, dtype=float).tobytes())
        return evaluate(grid, pot, u, *args)

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(stationary, "energy_and_gradient", recorded)
    monkeypatch.setattr(stationary, "minimize_energy", counted)
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes), tol=1e-6)
    assert sol.converged and sol.kicks >= 1
    assert len(set(points)) == len(points)
    assert 0 < sum(iterations) <= len(points)


def test_find_equilibrium_kicks_within_the_step_budget(small_strip, pot, monkeypatch):
    # kicks share MAX_STEPS with the L-BFGS steps, so a classification that
    # reports a saddle every time cannot keep the loop running
    import chwall.stationary as stationary
    from dataclasses import replace

    g, op = small_strip
    classify = stationary.classify

    def always_saddle(*args):
        rep, _ = classify(*args)
        return replace(rep, eigenvalues=np.array([-1.0]),
                       lowest_vector=np.ones(g.n_nodes)), "saddle"

    def kick_in_place(evaluate, x, e0, phi):
        return x, evaluate(x)

    monkeypatch.setattr(stationary, "MAX_STEPS", 4)
    monkeypatch.setattr(stationary, "classify", always_saddle)
    monkeypatch.setattr(stationary, "_kick_off_saddle", kick_in_place)
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes))
    assert sol.converged and sol.kind == "saddle"
    assert sol.kicks == 4


def test_minimize_iterations_do_not_grow_with_the_mesh(pot):
    # the band-factorized preconditioner makes the count mesh-independent:
    # 44 / 33 / 31 iterations here, where Euclidean L-BFGS-B took
    # 133 / 379 / 1184
    cfg = RunConfig(initial_kind="random_fourier", initial_amplitude=0.5, seed=7)
    for n in (24, 48, 96):
        g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=n, ny=n)
        op = cw.WentzellOperator(g)
        res = minimize_energy(op, pot, make_initial(g, cfg).values, tol=1e-3)
        assert res.converged and res.iterations <= 50, (n, res.iterations)
    # a wide strip near the uniform state, to a tight tolerance, which
    # L-BFGS-B left unconverged at |g| = 1.1e-6
    g = cw.build_grid("strip2d", Lx=20.0, Ly=20.0, nx=96, ny=96)
    cfg = RunConfig(initial_kind="random_fourier", initial_amplitude=0.05, seed=11)
    res = minimize_energy(cw.WentzellOperator(g), pot, make_initial(g, cfg).values, tol=1e-6)
    assert res.converged, res.grad_norm


def test_minimize_stops_at_its_tolerance(tall_strip, pot, rng):
    # L-BFGS stops on the first accepted iterate that meets tol, so a looser
    # tol takes fewer iterations
    g, op = tall_strip
    u0 = 0.8 * rng.standard_normal(g.n_nodes)
    runs = [minimize_energy(op, pot, u0, tol=tol) for tol in (1e-2, 1e-4, 1e-6)]
    assert all(r.converged for r in runs)
    assert runs[0].iterations < runs[1].iterations < runs[2].iterations


def test_minimize_descent_property(small_strip, pot, rng):
    g, op = small_strip
    for _ in range(3):
        u0 = 0.8 * rng.standard_normal(g.n_nodes)
        e0 = energy_value(g, pot, u0, 1.0, 1.0)
        res = minimize_energy(op, pot, u0, tol=1e-7)
        assert energy_value(g, pot, res.field, 1.0, 1.0) <= e0 + 1e-12 * (1 + abs(e0))


def test_newton_refine_zero_is_immediate(small_strip, pot):
    g, op = small_strip
    sol = newton_refine(op, pot, np.zeros(g.n_nodes), tol=1e-10)
    assert sol.converged and sol.newton_iters <= 1
    assert sol.bulk_res == 0.0 and sol.bdry_res == 0.0
    assert np.max(np.abs(sol.psi)) == 0.0


def test_newton_refine_guard_rejects_far_start(small_strip, pot, rng):
    g, op = small_strip
    far = 2.0 * rng.standard_normal(g.n_nodes)
    with pytest.raises(ValueError, match="basin"):
        newton_refine(op, pot, far, tol=1e-8)


def test_newton_refine_quadratic_history(tall_strip, pot, rng):
    g, op = tall_strip
    rough = minimize_energy(op, pot, _off_saddle(g), tol=1e-6)
    psi = newton_refine(op, pot, rough.field, tol=1e-12).psi
    assert _below_saddle(g, pot, psi)
    # displace by a calibrated amount so Newton needs several contractions
    d = rng.standard_normal(g.n_nodes)
    probe = 1e-3
    r_probe = h_norm(g, cw.chemical_potential(op, pot, psi + probe * d))
    amp = 8e-3 * probe / r_probe
    start = psi + amp * d
    sol = newton_refine(op, pot, start, tol=1e-9, basin_threshold=5e-2)
    assert sol.converged
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    r = [x for x in sol.residual_history if x > 0]
    assert len(r) >= 3
    ratios = [np.log(r[i + 1] / r[i]) for i in range(len(r) - 1)]
    # quadratic convergence: contraction exponents accelerate
    assert ratios[-1] / ratios[-2] >= 1.5 or r[-1] <= 1e-12


def test_find_equilibrium_pipeline(small_strip, pot, rng):
    g, op = small_strip
    u0 = 0.05 * rng.standard_normal(g.n_nodes)
    sol = find_equilibrium(op, pot, u0, tol=1e-9)
    assert sol.converged
    assert sol.method in (SolveMethod.MINIMIZE_THEN_NEWTON, SolveMethod.NEWTON_ONLY)
    assert h_norm(g, cw.chemical_potential(op, pot, sol.psi)) <= 1e-9


def test_critical_point_equivalence(tall_strip, pot):
    # strong residuals and the gradient norm vanish together
    g, op = tall_strip
    rough = minimize_energy(op, pot, _off_saddle(g), tol=1e-4)
    sol = newton_refine(op, pot, rough.field, tol=1e-10)
    assert _below_saddle(g, pot, sol.psi)
    bulk, bdry = residual_norms(g, energy_and_gradient(g, pot, sol.psi, 1.0, 1.0)[1])
    assert bulk + bdry <= 1e-9
    assert h_norm(g, cw.chemical_potential(op, pot, sol.psi)) <= 1e-9


def _trajectory_limit(op, pot, final, tol):
    """Newton from a run's final state, which must already lie near its limit."""
    sol = newton_refine(op, pot, final, tol=tol, basin_threshold=1e-1)
    assert sol.converged
    assert x_norm(op, final - sol.psi) <= 0.5
    return sol


def test_omega_limit_identifies_equilibrium(small_strip, pot):
    g, op = small_strip
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    rec = evolve(op, pot, u0, RunConfig(dt=2e-3, t_end=12.0, series_stride=20))
    sol = _trajectory_limit(op, pot, rec.final_state(), tol=1e-9)
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    # the limit's energy is below every recorded trajectory energy
    assert all(sol.energy <= r.e_total + 1e-12 for r in rec.reports)


def test_omega_limit_twin_runs_agree(small_strip, pot):
    g, op = small_strip
    cfg = RunConfig(dt=2e-3, t_end=12.0, series_stride=50)
    sols = []
    for amp, mean in ((0.1, 0.05), (0.07, -0.03)):
        u0 = amp * np.cos(2 * np.pi * g.x) + mean
        rec = evolve(op, pot, u0, cfg)
        sols.append(_trajectory_limit(op, pot, rec.final_state(), tol=1e-10))
    diff = v_norm(g, sols[0].psi - sols[1].psi)
    assert diff <= 1e-6


def test_interval_saddle_escape_and_classification(pot):
    # long interval: the zero state is a saddle; the pipeline escapes it
    # even with the surface operators degenerated to endpoint masses
    g = cw.build_grid("interval1d", Ly=8.0, ny=34)
    op = cw.WentzellOperator(g)
    rep0 = cw.spectrum(g, energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0), k=3)
    assert rep0.eigenvalues[0] < 0
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes), tol=1e-10)
    assert sol.converged
    assert sol.energy < 0.25 * g.area - 1e-3
    assert np.std(sol.psi) > 1e-3
    rep = cw.spectrum(g, energy_hessian(g, pot, sol.psi, 1.0, 1.0), k=3)
    assert rep.eigenvalues[0] > 0  # the escaped state is a minimum


def test_equilibrium_files_roundtrip(tmp_path, small_strip, pot):
    g, op = small_strip
    sol = newton_refine(op, pot, np.zeros(g.n_nodes), tol=1e-10)
    prefix = str(tmp_path / "eq")
    save_equilibrium(g, sol, prefix)
    psi, meta = load_equilibrium(prefix, grid=g)
    assert np.array_equal(psi.values, sol.psi)
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
        "import sys, numpy, chwall, chwall.cli\n"
        "g = chwall.build_grid('strip2d', Lx=8.0, Ly=8.0, nx=12, ny=12)\n"
        "op = chwall.WentzellOperator(g)\n"
        "sol = chwall.find_equilibrium(op, chwall.double_well(), numpy.zeros(g.n_nodes))\n"
        "print(sol.converged, sol.method.value, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "minimize_then_newton", "False"]


def _singular_jacobians(monkeypatch):
    """Make every Newton step's MINRES fail, as on an exactly singular Jacobian."""
    def minres(apply_H, solve_P, b, rtol):
        return None, operators.MINRES_MAX_ITER

    monkeypatch.setattr(operators, "minres", minres)


def _dense_kernel_dim(g, H, kernel_tol):
    rw = 1.0 / np.sqrt(g.h_weights())
    lam = np.linalg.eigvalsh(rw[:, None] * H.toarray() * rw[None, :])
    return int(np.sum(np.abs(lam) <= kernel_tol * np.max(np.abs(lam))))


def _cli_equilibrium(tmp_path, sections, *argv):
    """``chwall equilibrium`` on the config sections plus an [io] section
    naming the output directory; the exit code and that directory."""
    from chwall.cli import main

    out = tmp_path / "eq"
    cfg = tmp_path / "eq.ini"
    cfg.write_text(f"{sections}[io]\noutput_dir = {out}\n")
    return main(["equilibrium", str(cfg), *argv]), out


def _five_node_equilibrium(tmp_path, kernel_tol):
    """Run ``chwall equilibrium`` on the 5-node interval; its output directory."""
    rc, out = _cli_equilibrium(
        tmp_path,
        "[grid]\nmode = interval1d\nLy = 1.0\nny = 5\n"
        "[initial]\nkind = cosine\namplitude = 0.3\nmean = 0.0\n"
        f"[analysis]\nkernel_tol = {kernel_tol!r}\n",
    )
    assert rc == 4  # unconverged: the Jacobian is singular
    return out


@pytest.mark.parametrize("kernel_tol", [1e-8, 0.3, 0.6])
def test_singular_jacobian_kernel_count_on_five_nodes(pot, tmp_path, monkeypatch, kernel_tol):
    # a singular Jacobian stops Newton unconverged; the classification counts
    # the kernel at the run's kernel_tol, with fewer nodes than the six
    # eigenpairs it asks for
    g = cw.build_grid("interval1d", Ly=1.0, ny=5)
    _singular_jacobians(monkeypatch)
    start = 0.3 * np.cos(np.pi * g.y)
    sol = newton_refine(cw.WentzellOperator(g), pot, start, basin_threshold=10.0)
    assert not sol.converged and sol.newton_iters == 0
    out = _five_node_equilibrium(tmp_path, kernel_tol)
    psi, meta = load_equilibrium(str(out / "equilibrium"))
    assert (meta["converged"], meta["newton_iters"]) == ("0", "0")
    H = energy_hessian(g, pot, psi.values, 1.0, 1.0)
    line = (out / "classification.txt").read_text()
    assert f"kernel_dim={_dense_kernel_dim(g, H, kernel_tol)}," in line


def test_cli_equilibrium_meta_and_classification_agree_on_kernel(tmp_path, monkeypatch):
    # the kernel is counted once, by the classification spectrum at the run's
    # [analysis] kernel_tol; the meta file carries no second count
    import chwall.analysis as an

    _singular_jacobians(monkeypatch)
    top_pairs, top_pair = [], an._top_pair
    monkeypatch.setattr(an, "_top_pair", lambda At: top_pairs.append(1) or top_pair(At))
    out = _five_node_equilibrium(tmp_path, 0.3)
    _, meta = load_equilibrium(str(out / "equilibrium"))
    line = (out / "classification.txt").read_text()
    assert "kernel_dim" not in meta
    assert "kernel_dim=2," in line
    # the interval's Hessian is x-invariant: it is classified mode by mode,
    # with no lambda_max Lanczos run
    assert len(top_pairs) == 0


@pytest.fixture(scope="module")
def workload48(pot):
    """The 48x48 strip (Lx = Ly = 8) from random_fourier data, amplitude 0.5,
    seed 5, and the minimizer's state at tol 1e-3 that Newton starts from."""
    cfg = RunConfig(Lx=8.0, Ly=8.0, nx=48, ny=48, initial_kind="random_fourier",
                    initial_amplitude=0.5, initial_mean=0.0, seed=5)
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=48, ny=48)
    op = cw.WentzellOperator(g)
    return op, minimize_energy(op, pot, make_initial(g, cfg).values, tol=1e-3).field


def test_newton_refine_makes_no_sparse_lu(workload48, tall_strip, pot, monkeypatch):
    # Newton solves by preconditioned MINRES, at a minimum and at the
    # indefinite Hessian of the zero saddle, and never calls splu
    import scipy.sparse.linalg as spla

    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    op, start = workload48
    sol = newton_refine(op, pot, start, tol=1e-8)
    assert sol.converged and sol.newton_iters >= 1
    g, op = tall_strip
    assert newton_refine(op, pot, np.zeros(g.n_nodes)).converged
    near_saddle = 1e-3 * np.cos(2 * np.pi * g.x / g.Lx) * np.cos(np.pi * g.y / g.Ly)
    sol = newton_refine(op, pot, near_saddle, tol=1e-10)
    assert sol.converged and sol.newton_iters >= 1
    assert np.max(np.abs(sol.psi)) <= 1e-8  # back at the saddle
    assert calls == []


def test_clear_minimum_equilibrium_factorizes_once(workload48, tmp_path, monkeypatch):
    # the band preconditioner, made once for the descent and Newton, is the
    # one factorization: the x-invariant minimum is classified mode by mode,
    # with no sparse factorization
    import scipy.sparse.linalg as spla

    import chwall.stationary as stationary

    op, start = workload48
    init = tmp_path / "init.csv"
    cw.save_field(op.grid, start, str(init))
    calls = {"splu": 0, "band": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    band = counted("band", operators.factor_x_invariant)
    monkeypatch.setattr(operators, "factor_x_invariant", band)
    monkeypatch.setattr(stationary, "factor_x_invariant", band)
    rc, out = _cli_equilibrium(tmp_path, "[grid]\nLx = 8.0\nLy = 8.0\nnx = 48\nny = 48\n",
                               "--init", str(init))
    assert rc == 0
    assert (out / "classification.txt").read_text().startswith("classification: minimum")
    assert calls == {"splu": 0, "band": 1}


def test_classification_error_exits_before_the_equilibrium_is_written(tmp_path, monkeypatch,
                                                                     capsys):
    # a classification that raises ends the solve: exit 4 with an error line,
    # and no equilibrium files or manifest.  The run ends at an x-invariant
    # minimum, classified mode by mode; mode eigenvalues shifted below zero
    # disagree with the Ritz values of the Hessian itself
    import chwall.analysis as an

    true_values = an.eigvalsh_tridiagonal
    monkeypatch.setattr(an, "eigvalsh_tridiagonal", lambda d, e: true_values(d, e) - 10.0)
    rc, out = _cli_equilibrium(tmp_path, "[grid]\nnx = 12\nny = 12\n")
    assert rc == 4
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["config.ini"]


def test_minres_solves_an_indefinite_hessian(tall_strip, pot):
    import scipy.sparse.linalg as spla

    from chwall.stationary import _preconditioner

    g, op = tall_strip
    u = 0.3 * np.random.default_rng(4).standard_normal(g.n_nodes)
    H = energy_hessian(g, pot, u, 1.0, 1.0)
    b = np.random.default_rng(5).standard_normal(g.n_nodes)
    x, its = operators.minres(lambda v: H @ v, _preconditioner(op).solve, b, 1e-12)
    ref = spla.spsolve(H.tocsc(), b)
    assert 0 < its < operators.MINRES_MAX_ITER
    assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_failed_minres_stops_newton_at_the_last_iterate(tall_strip, pot, monkeypatch):
    g, op = tall_strip
    start = minimize_energy(op, pot, _off_saddle(g), tol=1e-3).field
    full = newton_refine(op, pot, start, tol=1e-12)
    assert full.newton_iters >= 2 and _below_saddle(g, pot, full.psi)
    minres, calls = operators.minres, []

    def second_fails(apply_H, solve_P, b, rtol):
        calls.append(1)
        return (minres(apply_H, solve_P, b, rtol) if len(calls) == 1
                else (None, operators.MINRES_MAX_ITER))

    monkeypatch.setattr(operators, "minres", second_fails)
    sol = newton_refine(op, pot, start, tol=1e-12)
    assert not sol.converged and sol.newton_iters == 1
    assert sol.krylov_iters == full.krylov_iters[:1]
    assert sol.residual_history == full.residual_history[:2]
    assert (sol.bulk_res, sol.bdry_res) == residual_norms(
        g, energy_and_gradient(g, pot, sol.psi, 1.0, 1.0)[1])
    # a MINRES that cannot reach its tolerance in its iteration cap misses
    monkeypatch.setattr(operators, "minres", minres)
    monkeypatch.setattr(operators, "MINRES_MAX_ITER", 1)
    sol = newton_refine(op, pot, start, tol=1e-12)
    assert not sol.converged and sol.newton_iters == 0 and sol.krylov_iters == []
    assert np.array_equal(sol.psi, start)


def test_newton_refine_stops_at_its_rounding_floor(tall_strip, pot):
    # no iterate reaches a residual of 1e-16: the stop on a small update ends
    # the iteration in a few steps, not NEWTON_MAX_ITER, and the solve
    # reports itself unconverged
    g, op = tall_strip
    start = minimize_energy(op, pot, _off_saddle(g), tol=1e-3).field
    sol = newton_refine(op, pot, start, tol=1e-16)
    assert not sol.converged and sol.newton_iters <= 5
    assert sol.residual_history[-1] <= 1e-12


def test_step_and_refinement_solve_through_one_minres(tall_strip, pot, monkeypatch):
    # the implicit step and the stationary refinement both iterate in
    # operators.newton, so one patch of operators.minres reaches both
    g, op = tall_strip
    minres, calls = operators.minres, []

    def counted(*args):
        calls.append(1)
        return minres(*args)

    monkeypatch.setattr(operators, "minres", counted)
    start = minimize_energy(op, pot, _off_saddle(g), tol=1e-3).field
    sol = newton_refine(op, pot, start)
    assert len(calls) == len(sol.krylov_iters) >= 1
    calls.clear()
    rec = evolve(op, pot, start, RunConfig(scheme="newton", dt=1e-3, t_end=1e-3))
    assert len(calls) == rec.newton_iters >= 1


def test_equilibrium_records_krylov_iterations(workload48, tmp_path, pot):
    op, start = workload48
    sol = find_equilibrium(op, pot, start)
    assert sol.converged and sol.newton_iters >= 1
    assert len(sol.krylov_iters) == sol.newton_iters
    assert all(its > 0 for its in sol.krylov_iters)
    save_equilibrium(op.grid, sol, str(tmp_path / "eq"))
    _, meta = load_equilibrium(str(tmp_path / "eq"), grid=op.grid)
    assert [int(its) for its in meta["krylov_iters"].split(",")] == sol.krylov_iters
