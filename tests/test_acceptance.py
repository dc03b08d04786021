"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion is the FAIL line.  The reference run (unit strip, 32x32,
dt=1e-3, 10^4 steps) is produced once through the CLI so the determinism
criterion can reuse its artifacts byte-for-byte.
"""

import time

import numpy as np
import pytest

import chwall as cw
from chwall.analysis import fit_gap_exponent, ls_probe, rate_fit
from chwall.cli import main
from chwall.config import RunConfig, parse_config
from chwall.energy import chemical_potential, energy_hessian, energy_value
from chwall.evolution import evolve
from chwall.grid import h_inner, h_norm
from chwall.operators import apply_A, solve_Ainv, x_norm, x_norm_via_form
from chwall.stationary import minimize_energy, newton_refine

from conftest import one_step

REFERENCE_CONFIG = """\
[grid]
mode = strip2d
Lx = 1.0
Ly = 1.0
nx = 32
ny = 32

[potential]
kind = double_well

[stepper]
dt = 1e-3
t_end = 10.0

[initial]
kind = cosine
amplitude = 0.1
mean = 0.05

[io]
output_dir = {out}
series_stride = 1
snapshot_stride = 0
plots = false

[run]
seed = 2024
"""


def read_columns(path):
    """The named columns of a run's CSV file, as arrays."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    return dict(zip(names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T))


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The reference run, produced via the CLI; returns (run_dir, wall_time)."""
    out = tmp_path_factory.mktemp("acc") / "ref_run"
    cfg_path = out.parent / "ref.ini"
    cfg_path.write_text(REFERENCE_CONFIG.format(out=out))
    t0 = time.monotonic()
    rc = main(["simulate", str(cfg_path)])
    wall = time.monotonic() - t0
    assert rc == 0
    return out, wall


@pytest.fixture(scope="module")
def convergence_run(pot):
    """Long run on the unit strip converging to the zero equilibrium."""
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=32, ny=32)
    op = cw.WentzellOperator(g)
    psi = newton_refine(op, pot, np.zeros(g.n_nodes), tol=1e-13).psi
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    cfg = RunConfig(dt=2e-3, t_end=70.0, series_stride=5, snapshot_stride=100)
    rec = evolve(op, pot, u0, cfg, ref=psi)
    return g, op, rec, psi


def test_criterion_1_discrete_energy_law(reference_run):
    run_dir, wall = reference_run
    e = read_columns(run_dir / "series.csv")["e_total"].tolist()
    assert len(e) == 10_001  # initial row + one per step
    violations = sum(
        1 for i in range(len(e) - 1)
        if e[i + 1] > e[i] + 1e-12 * (1 + abs(e[i]))
    )
    assert violations == 0
    assert wall <= 60.0
    print(f"\n[criterion 1] PASS: energy nonincreasing over 10^4 steps "
          f"(wall time {wall:.1f}s)")


def test_criterion_2_dissipation_consistency(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    op = cw.WentzellOperator(g)
    u_raw = 0.3 * np.cos(2 * np.pi * g.x) + 0.1 * np.cos(np.pi * g.y) + 0.1
    rec = evolve(op, pot, u_raw, RunConfig(dt=5e-4, t_end=0.5, series_stride=100))
    u0 = rec.final_state()
    mu0 = chemical_potential(op, pot, u0)
    d0 = op.a_form(mu0, mu0)
    dts = [4e-3, 2e-3, 1e-3]
    defects = []
    for dt in dts:
        u1 = one_step(op, pot, u0, RunConfig(dt=dt))
        de = (energy_value(g, pot, u1, 1.0, 1.0)
              - energy_value(g, pot, u0, 1.0, 1.0)) / dt
        defects.append(abs(de + d0))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert slope >= 0.9
    print(f"[criterion 2] PASS: dissipation defect slope {slope:.3f} >= 0.9")


def test_criterion_3_gradient_correctness(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    op = cw.WentzellOperator(g)
    rng = np.random.default_rng(42)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        u = 0.7 * rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        mu = chemical_potential(op, pot, u)
        fd = (
            energy_value(g, pot, u + eps * w, 1.0, 1.0)
            - energy_value(g, pot, u - eps * w, 1.0, 1.0)
        ) / (2 * eps)
        pair = h_inner(g, mu, w)
        worst = max(worst, abs(pair - fd) / (1 + abs(fd)))
    assert worst <= 1e-6
    print(f"[criterion 3] PASS: gradient check max rel err {worst:.2e} <= 1e-6")


def test_criterion_4_operator_structure(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    op = cw.WentzellOperator(g)
    rng = np.random.default_rng(11)
    worst_sym = 0.0
    for _ in range(20):
        u = rng.standard_normal(g.n_nodes)
        v = rng.standard_normal(g.n_nodes)
        form = op.a_form(u, v)
        lhs = h_inner(g, apply_A(op, u), v)
        rhs = h_inner(g, u, apply_A(op, v))
        worst_sym = max(
            worst_sym,
            abs(lhs - form) / (1 + abs(form)),
            abs(rhs - form) / (1 + abs(form)),
        )
    assert worst_sym <= 1e-12
    psi = 0.5 * rng.standard_normal(g.n_nodes)
    vv = 0.2 * rng.standard_normal(g.n_nodes)
    H = energy_hessian(g, pot, psi + vv, 1.0, 1.0)
    assert abs(H - H.T).max() / abs(H).max() <= 1e-12
    K = op.K_A.toarray()
    worst_inv = 0.0
    worst_xn = 0.0
    for _ in range(5):
        rhs_f = rng.standard_normal(g.n_nodes)
        dense = np.linalg.solve(K, op.mass_weights * rhs_f)
        got = solve_Ainv(op, rhs_f)
        worst_inv = max(worst_inv,
                        np.max(np.abs(got - dense)) / (1 + np.max(np.abs(dense))))
        worst_xn = max(worst_xn,
                       abs(x_norm(op, rhs_f) - x_norm_via_form(op, rhs_f)))
    assert worst_inv <= 1e-10
    assert worst_xn <= 1e-10
    print(f"[criterion 4] PASS: self-adjointness {worst_sym:.2e}, dense-oracle "
          f"inverse {worst_inv:.2e}, two-route weak norm {worst_xn:.2e}")


def test_criterion_5_stationary_solver(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    sol0 = newton_refine(cw.WentzellOperator(g), pot, np.zeros(g.n_nodes), tol=1e-10)
    assert np.max(np.abs(sol0.psi)) == 0.0  # recovered exactly
    assert sol0.bulk_res == 0.0 and sol0.bdry_res == 0.0

    G = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=24, ny=24)
    op = cw.WentzellOperator(G)
    # zero is a saddle here: start beside it, along the unstable constant
    # mode, so the probe runs around the nontrivial minimum
    mr = minimize_energy(op, pot, np.full(G.n_nodes, -1e-2), tol=1e-6)
    assert mr.converged
    psi = newton_refine(op, pot, mr.field, tol=1e-12).psi
    assert energy_value(G, pot, psi, 1.0, 1.0) < 0.25 * G.area - 1e-3  # below the saddle
    assert np.std(psi) > 1e-3
    rng = np.random.default_rng(5)
    d = rng.standard_normal(G.n_nodes)
    probe = 1e-3
    r_probe = h_norm(G, chemical_potential(op, pot, psi + probe * d))
    start = psi + (8e-3 * probe / r_probe) * d
    sol = newton_refine(op, pot, start, tol=1e-9, basin_threshold=5e-2)
    assert sol.converged
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    r = [x for x in sol.residual_history if x > 0]
    assert len(r) >= 3
    ratios = [np.log(r[i + 1] / r[i]) for i in range(len(r) - 1)]
    quad = ratios[-1] / ratios[-2] >= 1.5 or r[-1] <= 1e-12
    assert quad
    print(f"[criterion 5] PASS: zero state exact; wide-strip residuals "
          f"{sol.bulk_res + sol.bdry_res:.2e} <= 1e-8 with quadratic history "
          f"{['%.1e' % x for x in r]}")


def test_criterion_6_convergence_to_equilibrium(convergence_run, pot):
    g, op, rec, psi = convergence_run
    res = rec.reports[-1].bulk_res + rec.reports[-1].bdry_res
    assert res < 1e-6
    times = np.asarray(rec.times)
    xd = np.asarray(rec.x_dist_to_ref)
    last = times >= times[-1] / 10.0
    assert np.all(np.diff(xd[last]) <= 1e-14)
    final = rec.final_state()
    sol = newton_refine(op, pot, final, tol=1e-9, basin_threshold=1e-1)
    assert sol.converged and x_norm(op, final - sol.psi) <= 0.5
    assert sol.bulk_res + sol.bdry_res <= 1e-8
    from chwall.operators import v_norm

    assert v_norm(g, sol.psi - psi) <= 1e-8
    print(f"[criterion 6] PASS: final residual {res:.2e} < 1e-6, weak-norm "
          f"distance monotone over the last decade, omega-limit identified")


def test_criterion_7_exponent_probe(convergence_run, pot):
    r = np.logspace(-6, -1, 50)
    theta_syn, _, _ = fit_gap_exponent(r ** 2, r)
    assert abs(theta_syn - 0.5) <= 1e-3
    g, op, rec, psi = convergence_run
    rep = ls_probe(op, pot, rec, psi)
    assert not rep.insufficient
    assert rep.inequality_violations == 0
    assert 0.0 < rep.fitted_theta <= 0.6
    print(f"[criterion 7] PASS: synthetic exponent {theta_syn:.5f}; probe "
          f"theta {rep.fitted_theta:.4f} in (0, 0.6], 0 violations over "
          f"{len(rep.samples)} samples")


def test_criterion_8_rate_bound(convergence_run, pot):
    t = np.linspace(0.0, 99.0, 200)
    fit_a = rate_fit(list(t), list((1 + t) ** -1.0), theta=0.25)
    assert fit_a.model == "algebraic" and abs(fit_a.q - 1.0) <= 1e-3
    t_e = np.linspace(0.0, 30.0, 200)
    fit_e = rate_fit(list(t_e), list(np.exp(-t_e)), theta=0.25)
    assert fit_e.model == "exponential" and abs(fit_e.gamma - 1.0) <= 1e-3

    g, op, rec, psi = convergence_run
    probe = ls_probe(op, pot, rec, psi)
    fit = rate_fit(rec.times, rec.x_dist_to_ref, theta=probe.fitted_theta, t_min=2.0)
    assert fit.bound_ok
    print(f"[criterion 8] PASS: synthetic fits q={fit_a.q:.4f}, "
          f"gamma={fit_e.gamma:.4f}; measured decay dominated by the rate "
          f"bound via the {fit.model} branch")


def test_criterion_9_mass_flux_ledger(reference_run, pot):
    run_dir, _ = reference_run
    cfg = parse_config(run_dir / "config.ini")
    diag = read_columns(run_dir / "diagnostics.csv")
    defect = np.abs(diag["ledger_defect"][1:])  # row k closes interval k - 1
    scale = np.maximum(1.0, diag["ut_xnorm"][:-1])
    bound = 10.0 * cfg.dt * scale
    assert defect.shape == scale.shape
    assert np.all(defect <= bound)

    g16 = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    op16 = cw.WentzellOperator(g16)
    rec1 = evolve(op16, pot, np.full(g16.n_nodes, 1.0),
                  RunConfig(dt=1e-3, t_end=0.3))
    mass = [r.mass_total for r in rec1.reports]
    assert all(f < 0 for f in [r.flux for r in rec1.reports][:-1])
    assert all(m2 < m1 for m1, m2 in zip(mass, mass[1:]))
    print(f"[criterion 9] PASS: per-step ledger defect max "
          f"{np.max(defect / bound):.3f} of bound; mass strictly decreasing "
          f"from the unit state while wall potential positive")


def test_criterion_10_determinism(reference_run, tmp_path):
    run_dir, _ = reference_run
    cfg_path = tmp_path / "ref2.ini"
    cfg_path.write_text(REFERENCE_CONFIG.format(out=tmp_path / "ref_run2"))
    assert main(["simulate", str(cfg_path)]) == 0
    first = (run_dir / "series.csv").read_bytes()
    second = (tmp_path / "ref_run2" / "series.csv").read_bytes()
    assert first == second
    d1 = (run_dir / "diagnostics.csv").read_bytes()
    d2 = (tmp_path / "ref_run2" / "diagnostics.csv").read_bytes()
    assert d1 == d2
    print("[criterion 10] PASS: repeated reference runs are bit-identical")
