import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chwall as cw
from chwall.config import RunConfig
from chwall.energy import chemical_potential, energy_hessian, energy_value
from chwall.evolution import EvolutionAbort, auto_stabilization, evolve
from chwall.grid import h_norm
from chwall.operators import MINRES_MAX_ITER, apply_A, x_norm

from conftest import dense_form_matrices, one_step


def relaxed_state(grid, op, pot, t_relax=0.5):
    """Pre-relaxed smooth state: fast modes gone, dynamics resolvable."""
    u0 = (0.3 * np.cos(2 * np.pi * grid.x / grid.Lx)
          + 0.1 * np.cos(np.pi * grid.y / grid.Ly)
          + 0.1)
    rec = evolve(op, pot, u0, RunConfig(dt=5e-4, t_end=t_relax, series_stride=100))
    return rec.final_state()


@pytest.fixture(scope="module")
def problem():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    return g, cw.WentzellOperator(g), cw.double_well()


def test_zero_is_fixed_point_of_both_steppers(problem):
    g, op, pot = problem
    z = np.zeros(g.n_nodes)
    for scheme in ("semi_implicit", "newton"):
        out = one_step(op, pot, z, RunConfig(scheme=scheme, dt=0.01))
        assert np.max(np.abs(out)) == 0.0


def test_unit_field_single_step_dense_oracle(pot):
    # one semi-implicit step on a 6x6 grid against a dense-matrix replica
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=6, ny=6)
    op = cw.WentzellOperator(g)
    one = np.full(g.n_nodes, 1.0)
    dt = 0.01
    S = auto_stabilization(pot, 1.0, 1.0)
    out = one_step(op, pot, one, RunConfig(dt=dt, stabilization_S=S))

    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    W = bulk_o + bdry_o  # unit constants
    K_A = K_o + np.diag(bdry_o)
    K_lin = K_o + P_o + np.diag(bdry_o)
    B = K_lin + S * np.diag(bulk_o)
    M = np.diag(W) + dt * (K_A @ (B / W[:, None]))
    u = np.ones(g.n_nodes)
    rhs = W * u + dt * (K_A @ ((S * bulk_o * u - bulk_o * pot.f(u)) / W))
    expected = np.linalg.solve(M, rhs)
    assert np.max(np.abs(out - expected)) <= 1e-12

    # wall values decrease (mass leaves through the wall), energy decreases
    assert np.all(out[g.bdry_idx] < 1.0)
    assert energy_value(g, pot, out, 1.0, 1.0) < energy_value(g, pot, u, 1.0, 1.0)


def test_dissipation_consistency_dt_slope(problem):
    g, op, pot = problem
    u0 = relaxed_state(g, op, pot)
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


def test_schemes_agree_to_first_order(problem):
    g, op, pot = problem
    u0 = relaxed_state(g, op, pot)
    dts = [4e-4, 2e-4, 1e-4]
    diffs = []
    for dt in dts:
        cfg = RunConfig(dt=dt)
        us = one_step(op, pot, u0, cfg)
        un = one_step(op, pot, u0, replace(cfg, scheme="newton"))
        diffs.append(h_norm(g, us - un))
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope >= 1.0


def test_newton_step_zero_converges_immediately(problem):
    g, op, pot = problem
    out = one_step(op, pot, np.zeros(g.n_nodes), RunConfig(scheme="newton", dt=0.5))
    assert np.max(np.abs(out)) == 0.0


def test_newton_large_dt_monotone_energy(problem, rng):
    g, op, pot = problem
    u = 0.5 * rng.standard_normal(g.n_nodes)
    cfg = RunConfig(dt=1.0, scheme="newton")
    e0 = energy_value(g, pot, u, 1.0, 1.0)
    u1 = one_step(op, pot, u, cfg)
    e1 = energy_value(g, pot, u1, 1.0, 1.0)
    assert e1 <= e0 + 1e-12 * (1 + abs(e0))


def test_evolve_constant_zero_trajectory(problem):
    g, op, pot = problem
    rec = evolve(op, pot, np.zeros(g.n_nodes), RunConfig(dt=1e-3, t_end=0.05))
    for rep in rec.reports:
        assert abs(rep.e_total - 0.25) <= 1e-12
    assert all(t2 > t1 for t1, t2 in zip(rec.times, rec.times[1:]))


def test_evolve_energy_monotone_and_residual_decay(problem):
    g, op, pot = problem
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    cfg = RunConfig(dt=2e-3, t_end=8.0, series_stride=5)
    rec = evolve(op, pot, u0, cfg)
    e = [r.e_total for r in rec.reports]
    assert all(
        e[i + 1] <= e[i] + 1e-12 * (1 + abs(e[i])) for i in range(len(e) - 1)
    )
    res = [r.bulk_res + r.bdry_res for r in rec.reports]
    assert res[-1] < 2e-3 * res[0]
    # mass-flux ledger stays within the first-order window on smooth data
    scale = np.maximum(1.0, np.asarray(rec.ut_xnorm[:-1]))
    defect = np.abs(np.asarray(rec.ledger_defect))
    window = cfg.dt * cfg.series_stride
    assert np.all(defect <= 10.0 * window * scale)


def test_evolve_mass_ledger_from_unit_field(problem):
    g, op, pot = problem
    cfg = RunConfig(dt=1e-3, t_end=0.3)
    rec = evolve(op, pot, np.full(g.n_nodes, 1.0), cfg)
    mass = [r.mass_total for r in rec.reports]
    fluxes = [r.flux for r in rec.reports]
    # wall potential stays positive for this run and mass strictly leaves
    assert all(f < 0 for f in fluxes[:-1])
    assert all(m2 < m1 for m1, m2 in zip(mass, mass[1:]))


def test_ut_xnorm_identity_two_routes(problem, rng):
    # |u_t|_X = sqrt(a(mu, mu)), the dissipation, when u_t = -A mu exactly
    g, op, pot = problem
    u = 0.3 * rng.standard_normal(g.n_nodes)
    mu = chemical_potential(op, pot, u)
    ut = apply_A(op, mu)  # flow speed is -A mu; norms are sign-blind
    via_solve = x_norm(op, ut)
    via_norm = np.sqrt(op.a_form(mu, mu))
    assert abs(via_solve - via_norm) <= 1e-8 * (1 + via_norm)


def test_evolve_records_reference_distances(problem):
    g, op, pot = problem
    u0 = 0.05 * np.cos(2 * np.pi * g.x)
    psi = np.zeros(g.n_nodes)
    rec = evolve(op, pot, u0, RunConfig(dt=1e-3, t_end=0.1, snapshot_stride=20), ref=psi)
    assert rec.x_dist_to_ref is not None and len(rec.x_dist_to_ref) == len(rec.times)
    assert rec.v_dist_to_ref[0] > rec.v_dist_to_ref[-1]
    assert rec.snapshots[-1][0] == pytest.approx(0.1)


@pytest.fixture(scope="module")
def saddle_start(pot):
    """A state just below a saddle: huge-dt implicit steps raise the energy.

    The flipped unstable mode lands on the saddle's other side with smaller
    amplitude, i.e. higher energy, which is exactly what the guard must
    catch.
    """
    import scipy.linalg as la
    import scipy.sparse as sp

    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=12, ny=12)
    op = cw.WentzellOperator(g)
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    w = g.h_weights()
    rw = 1.0 / np.sqrt(w)
    lam, vec = la.eigh((sp.diags(rw) @ H @ sp.diags(rw)).toarray())
    assert lam[0] < 0
    phi = rw * vec[:, 0]
    phi /= np.sqrt(np.sum(w * phi * phi))
    return g, op, 1e-3 * phi


def test_energy_guard_rejects_and_halves(saddle_start, pot):
    from chwall.energy import energy_and_gradient
    from chwall.evolution import _newton_step_once, _StepFactors

    g, op, u0 = saddle_start
    e0 = energy_value(g, pot, u0, 1.0, 1.0)
    cfg = RunConfig(scheme="newton", dt=50.0, dt_min=1e-6)
    S = auto_stabilization(pot, float(u0.min()), float(u0.max()))  # the run's shift
    ev0 = energy_and_gradient(g, pot, u0, 1.0, 1.0)
    raw, (e_raw, _) = _newton_step_once(op, pot, u0, ev0, cfg.dt, S, _StepFactors())
    assert e_raw == energy_value(g, pot, raw, 1.0, 1.0) > e0  # unguarded step misbehaves
    guarded = one_step(op, pot, u0, cfg)
    assert energy_value(g, pot, guarded, 1.0, 1.0) <= e0 + 1e-12 * (1 + abs(e0))


def test_energy_guard_exhaustion_aborts_with_state(saddle_start, pot):
    g, op, u0 = saddle_start
    cfg = RunConfig(scheme="newton", dt=50.0, t_end=100.0, dt_min=30.0)
    with pytest.raises(EvolutionAbort) as exc_info:
        evolve(op, pot, u0, cfg)
    assert "dt_min" in str(exc_info.value)
    assert exc_info.value.record.final_state() is not None


def test_newton_divergence_falls_back_to_halved_dt(problem, rng, monkeypatch):
    import chwall.operators as operators

    g, op, pot = problem
    u0 = 2.0 * rng.standard_normal(g.n_nodes)
    # eight iterations cannot converge at dt=8; halving makes the budget enough
    monkeypatch.setattr(operators, "NEWTON_MAX_ITER", 8)
    cfg = RunConfig(scheme="newton", dt=8.0, dt_min=1e-4)
    out = one_step(op, pot, u0, cfg)
    e0 = energy_value(g, pot, u0, 1.0, 1.0)
    assert energy_value(g, pot, out, 1.0, 1.0) <= e0 + 1e-12 * (1 + abs(e0))


def test_equilibrium_fixed_under_evolve(problem):
    g, op, pot = problem
    rec = evolve(op, pot, np.zeros(g.n_nodes), RunConfig(dt=0.1, t_end=1.0))
    assert np.max(np.abs(rec.final_state())) == 0.0


def test_general_constants_energy_law(pot):
    # the decay structure holds in the 1/b-weighted metric for any b, c > 0
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)
    op = cw.WentzellOperator(g, b=2.0, c=0.5, alpha=0.7, beta=1.5)
    u0 = 0.2 * np.cos(2 * np.pi * g.x) + 0.1
    rec = evolve(op, pot, u0, RunConfig(dt=1e-3, t_end=0.5))
    e = [r.e_total for r in rec.reports]
    assert all(e[i + 1] <= e[i] + 1e-12 * (1 + abs(e[i])) for i in range(len(e) - 1))
    # dissipation column carries the (c/b)-weighted wall term
    mu = chemical_potential(op, pot, rec.final_state())
    assert rec.reports[-1].dissipation == pytest.approx(op.a_form(mu, mu), rel=1e-12)


def test_interval_mode_energy_law(pot):
    g = cw.build_grid("interval1d", Ly=1.0, ny=24)
    op = cw.WentzellOperator(g)
    u0 = 0.1 * np.cos(np.pi * g.y) + 0.02
    rec = evolve(op, pot, u0, RunConfig(dt=1e-3, t_end=1.0))
    e = [r.e_total for r in rec.reports]
    assert all(e[i + 1] <= e[i] + 1e-12 * (1 + abs(e[i])) for i in range(len(e) - 1))


def test_auto_stabilization_covers_range(pot):
    S = auto_stabilization(pot, -1.5, 2.0)
    s = np.linspace(-1.5, 2.0, 1001)
    assert S >= np.max(np.abs(pot.f_prime(s))) - 1e-9


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.0, 10.0),
    wider=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)
def test_auto_stabilization_ladder(pot, lo, width, wider):
    hi = lo + width
    S = auto_stabilization(pot, lo, hi)
    bound = float(np.max(np.abs(pot.f_prime(np.linspace(lo - 1e-12, hi + 1e-12, 257)))))
    assert bound * (1 - 1e-12) <= S <= 2.0 ** 0.25 * bound * (1 + 1e-12)
    k = round(4 * math.log2(S))
    assert S == 2.0 ** (k / 4)
    # widening the state range never lowers the shift
    assert auto_stabilization(pot, lo - wider[0], hi + wider[1]) >= S


_POTENTIALS = cw.double_well(), cw.make_potential("polynomial_custom", [1.0, 0.3, -2.0, 0.1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(("random", "repeat", "widen")), st.integers(0, 1),
    st.floats(-5.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=12))
def test_remembered_shift_equals_an_uncached_evaluation(moves):
    # a run's calls: mostly the same range, now and then a wider one; the
    # remembered rung must be the rung an uncached evaluation gives, also
    # when the potential changes between calls
    from chwall.evolution import _sampled_rung

    lo = hi = 0.0
    for kind, which, a, b in moves:
        if kind == "random":
            lo, hi = a, a + b
        elif kind == "widen":
            lo, hi = lo - abs(a), hi + b
        pot = _POTENTIALS[which]
        assert auto_stabilization(pot, lo, hi) == _sampled_rung.__wrapped__(pot, lo, hi)


@given(k=st.integers(-400, 400), rel=st.floats(0.0, 1.0))
def test_rung_above_rounds_up_within_one_rung(k, rel):
    from chwall.evolution import _rung_above

    rung = 2.0 ** (k / 4)
    assert _rung_above(rung) == rung  # a bound on a rung stays there
    bound = rung * 2.0 ** (rel / 4)
    S = _rung_above(bound)
    assert bound <= S <= 2.0 ** 0.25 * bound * (1 + 1e-15)
    assert _rung_above(0.0) == 0.0


@pytest.fixture()
def factorization_calls(monkeypatch):
    """Count the band factorizations of step systems and every splu call."""
    import scipy.sparse.linalg as spla

    import chwall.evolution as evo

    calls = {"band": [], "splu": []}
    band, splu = evo.factor_x_invariant, spla.splu
    monkeypatch.setattr(evo, "factor_x_invariant",
                        lambda *a: calls["band"].append(1) or band(*a))
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: calls["splu"].append(1) or splu(*a, **k))
    return calls


def test_automatic_shift_stays_on_few_rungs(pot, factorization_calls):
    # phase separation widens the state range every step; the shift ladder
    # keeps the factorizations to one per rung instead of one per step
    from chwall.cli import make_initial

    calls = factorization_calls["band"]
    g = cw.build_grid("strip2d", Lx=20.0, Ly=20.0, nx=16, ny=16)
    op = cw.WentzellOperator(g)
    u0 = make_initial(g, RunConfig(initial_kind="random_fourier",
                                   initial_amplitude=0.05, seed=3)).values
    cfg = RunConfig(dt=1e-2, t_end=3000 * 1e-2, series_stride=10 ** 6)
    rec = evolve(op, pot, u0, cfg)
    assert np.ptp(rec.final_state()) > 10 * np.ptp(u0)
    assert len(calls) <= 6
    assert rec.factorizations == len(calls)
    assert rec.shifts == sorted(set(rec.shifts))
    assert len(rec.shifts) <= len(calls)
    assert factorization_calls["splu"] == []  # the semi-implicit run uses no sparse LU


def test_evolve_leaves_no_step_cache_on_operator(problem):
    g, op, pot = problem
    before = dict(vars(op))
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    evolve(op, pot, u0, RunConfig(dt=1e-3, t_end=0.01))
    one_step(op, pot, u0, RunConfig(dt=1e-3))
    assert not hasattr(op, "_step_cache")
    assert vars(op).keys() == before.keys()
    assert all(vars(op)[k] is v for k, v in before.items())


def test_guard_halving_records_its_factorizations(pot, factorization_calls):
    # an unstabilized step far too long for its state is rejected and redone
    # in halves; each new dt costs one factorization, and the record says so
    from chwall.energy import energy_and_gradient
    from chwall.evolution import _semi_step_once, _StepFactors

    calls = factorization_calls["band"]
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=12, ny=12)
    op = cw.WentzellOperator(g)
    u0 = 2.0 * np.random.default_rng(1).standard_normal(g.n_nodes)
    cfg = RunConfig(dt=0.1, t_end=0.1, stabilization_S=0.0, series_stride=10 ** 6)
    # the step the guard rejects: one factorization, and the energy rises
    factors = _StepFactors()
    e0, g0 = energy_and_gradient(g, pot, u0, 1.0, 1.0)
    raw = _semi_step_once(op, u0, g0, None, cfg.dt, 0.0, factors)
    assert factors.made == len(calls) == 1
    assert energy_value(g, pot, raw, 1.0, 1.0) > e0
    calls.clear()
    rec = evolve(op, pot, u0, cfg)
    assert rec.factorizations == len(calls) > 1
    assert rec.shifts == [0.0]
    assert rec.reports[-1].e_total < rec.reports[0].e_total


def test_singular_jacobian_halves_the_step(problem, monkeypatch):
    # a MINRES that fails, as on a singular Jacobian, rejects the step as an
    # energy rise does: the step is redone as two half steps, and the run
    # does not abort
    import chwall.operators as operators

    g, op, pot = problem
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1
    cfg = RunConfig(scheme="newton", dt=1e-3, t_end=1e-3, series_stride=10 ** 6)
    halves = evolve(op, pot, u0, replace(cfg, dt=cfg.dt / 2)).final_state()
    minres, calls = operators.minres, []

    def fails_once(*args):
        calls.append(1)
        return (None, MINRES_MAX_ITER) if len(calls) == 1 else minres(*args)

    monkeypatch.setattr(operators, "minres", fails_once)
    rec = evolve(op, pot, u0, cfg)
    # the failed solve is counted with the half steps' solves
    assert rec.newton_iters == len(calls) >= 3
    assert rec.times == [0.0, cfg.dt]
    assert np.array_equal(rec.final_state(), halves)


def test_last_step_reuses_factorization(pot, factorization_calls):
    # the last step of n steps of dt is a full dt, whatever rounding the
    # accumulated time carries, so one (dt, S) factorization serves the run
    calls = factorization_calls["band"]
    g = cw.build_grid("interval1d", Ly=1.0, ny=6)
    cfg = RunConfig(dt=1e-3, stabilization_S=2.0, series_stride=10 ** 6)
    u0 = 0.1 * np.cos(np.pi * g.y)
    for n in range(1, 401):
        calls.clear()
        rec = evolve(cw.WentzellOperator(g), pot, u0, replace(cfg, t_end=n * cfg.dt))
        assert len(calls) == 1, f"{len(calls)} factorizations for {n} steps"
        assert len(rec.times) == 2


def test_newton_makes_no_sparse_lu(problem, factorization_calls):
    # Newton's Jacobian varies in x through f'(u): MINRES solves it,
    # preconditioned with the band factor of the run's step matrix, so the
    # run factorizes once per (dt, S) as the semi-implicit run does
    g, op, pot = problem
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1
    cfg = RunConfig(scheme="newton", dt=1e-3, t_end=3 * 1e-3, series_stride=10 ** 6)
    rec = evolve(op, pot, u0, cfg)
    assert factorization_calls["splu"] == []
    assert rec.factorizations == len(factorization_calls["band"]) == 1
    assert rec.shifts != []


def test_semi_implicit_steps_solve_the_assembled_step_equation(pot):
    # every accepted step at non-unit constants satisfies the lagged step
    # equation, assembled densely apart from the package
    alpha, beta, b, c = 0.7, 1.5, 2.0, 0.5
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.3, nx=12, ny=11)
    op = cw.WentzellOperator(g, b=b, c=c, alpha=alpha, beta=beta)
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1 * g.y + 0.1
    dt = 1e-3
    rec = evolve(op, pot, u0, RunConfig(dt=dt, t_end=10 * dt, snapshot_stride=1))
    assert rec.factorizations == 1 and len(rec.shifts) == 1  # no halved step
    S = rec.shifts[0]
    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    W = bulk_o + bdry_o / b
    K_A = K_o + (c / b) * np.diag(bdry_o)
    B = K_o + alpha * P_o + beta * np.diag(bdry_o) + S * np.diag(bulk_o)
    M = np.diag(W) + dt * (K_A @ (B / W[:, None]))
    assert len(rec.snapshots) == 11
    for (_, old), (_, new) in zip(rec.snapshots, rec.snapshots[1:]):
        u, v = old, new
        rhs = W * u + dt * (K_A @ ((S * bulk_o * u - bulk_o * pot.f(u)) / W))
        assert np.linalg.norm(M @ v - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("dt", [1e-2, 1.0])
def test_newton_steps_solve_the_assembled_backward_euler_equation(pot, dt):
    # every accepted Newton step at non-unit constants satisfies the
    # backward-Euler equation W (v - u) + dt K_A W^-1 g(v) = 0, assembled
    # densely apart from the package; a W or K_A slip in the solver's
    # z-form would show only at b != 1
    alpha, beta, b, c = 0.7, 1.5, 2.0, 0.5
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.3, nx=12, ny=11)
    op = cw.WentzellOperator(g, b=b, c=c, alpha=alpha, beta=beta)
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1 * g.y + 0.1
    cfg = RunConfig(scheme="newton", dt=dt, t_end=5 * dt, snapshot_stride=1)
    rec = evolve(op, pot, u0, cfg)
    assert rec.factorizations == 1 and len(rec.shifts) == 1  # no halved step
    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    W = bulk_o + bdry_o / b
    K_A = K_o + (c / b) * np.diag(bdry_o)
    K_lin = K_o + alpha * P_o + beta * np.diag(bdry_o)
    assert len(rec.snapshots) == 6
    for (_, u), (_, v) in zip(rec.snapshots, rec.snapshots[1:]):
        flow = dt * (K_A @ ((K_lin @ v + bulk_o * pot.f(v)) / W))
        R = W * (v - u) + flow
        # the dense and the sparse assembly round apart by a few ulps of
        # the two terms that cancel in R
        allowance = 1e-14 * np.sqrt(np.sum((np.abs(W * (v - u)) + np.abs(flow)) ** 2 / W))
        assert np.sqrt(np.sum(R * R / W)) <= 1e-10 + allowance


def test_newton_ladder_takes_few_iterations_at_every_dt():
    # the quintic f(s) = s^5 - nu1 s on the 12x12 strip, nu1 tuned so that 0
    # is a degenerate equilibrium, stepped 20 times per rung of dt = 0.05 2^k
    # up to 102.4, each rung from where the last one ended.  From dt = 25.6
    # on, rounding keeps the residual above 1e-10; the stop on the update
    # must still come in a few iterations, with no step halved.  At dt = 0.1,
    # 0.2 and 3.2 the residual reaches 1e-10 one solve before the update is
    # small, and the stop on the residual saves that solve
    import scipy.linalg as la
    import scipy.sparse as sp

    from chwall.energy import polynomial_potential

    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)
    forms = g.forms
    K0 = (forms.k_grad + forms.k_par + sp.diags(forms.bdry_mass)).toarray()
    lam, vecs = la.eigh(np.diag(forms.bulk_mass), K0)
    phi = vecs[:, -1] * np.sign(vecs[:, -1].sum())
    with pytest.warns(RuntimeWarning, match="supercritical"):
        pot = polynomial_potential((1.0, 0.0, 0.0, 0.0, -1.0 / lam[-1], 0.0))
    op = cw.WentzellOperator(g)
    u = 0.3 * phi / np.max(np.abs(phi))
    per_step = {1: 2, 2: 2, 6: 3}  # rung k: solves per step, on average
    for k in range(12):
        dt = 0.05 * 2 ** k
        cfg = RunConfig(scheme="newton", dt=dt, t_end=20 * dt, series_stride=10 ** 6)
        rec = evolve(op, pot, u, cfg)
        assert rec.newton_iters <= 4 * 20, f"dt = {dt}: {rec.newton_iters / 20} per step"
        if k in per_step:
            assert rec.newton_iters <= per_step[k] * 20, f"dt = {dt}"
        assert rec.factorizations == 1, f"dt = {dt}: a step was halved"
        u = rec.final_state()


def test_newton_step_on_a_fine_grid_stops_at_its_rounding_floor():
    # at 256x256 the residual of this step stalls near 4e-10, above 1e-10;
    # the stop on the update must still come in a few iterations, with the
    # step not halved
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=256, ny=256)
    op, pot = cw.WentzellOperator(g), cw.double_well()
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    cfg = RunConfig(scheme="newton", dt=1e-3, t_end=1e-3, stabilization_S=2.0)
    rec = evolve(op, pot, u0, cfg)
    assert rec.newton_iters <= 8
    assert rec.factorizations == 1


def test_newton_step_stops_on_its_residual():
    # at 32x32 the residual of this step falls below 1e-10 after the fourth
    # Jacobian solve: the step accepts there, without a fifth solve to find
    # the update small
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=32, ny=32)
    op, pot = cw.WentzellOperator(g), cw.double_well()
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    cfg = RunConfig(scheme="newton", dt=1e-3, t_end=1e-3, stabilization_S=2.0)
    rec = evolve(op, pot, u0, cfg)
    assert rec.newton_iters <= 4
    assert rec.factorizations == 1


def test_run_counts_its_newton_and_krylov_iterations(problem):
    # totals over the run: at least one Jacobian solve per Newton step and
    # one MINRES iteration per solve; a semi-implicit run makes none
    g, op, pot = problem
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1
    cfg = RunConfig(dt=1e-2, t_end=5 * 1e-2, series_stride=10 ** 6)
    rec = evolve(op, pot, u0, replace(cfg, scheme="newton"))
    assert rec.newton_iters >= 5
    assert rec.krylov_iters >= rec.newton_iters
    rec = evolve(op, pot, u0, cfg)
    assert (rec.newton_iters, rec.krylov_iters) == (0, 0)


def test_energy_evaluated_once_per_step(problem, monkeypatch):
    # the guard, the ledger row and the next step of each accepted state
    # share one evaluation, so f is evaluated once per state
    import dataclasses

    import chwall.evolution as evo

    g, op, pot = problem
    calls, f_calls = [], []
    evaluate = evo.energy_and_gradient
    monkeypatch.setattr(
        evo, "energy_and_gradient", lambda *a: calls.append(1) or evaluate(*a)
    )
    counted = dataclasses.replace(pot, f=lambda s: f_calls.append(1) or pot.f(s))
    n = 40
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    rec = evolve(op, counted, u0, RunConfig(dt=1e-3, t_end=n * 1e-3))
    assert len(rec.times) == n + 1
    assert len(calls) == n + 1
    assert len(f_calls) == n + 1


def test_rows_match_independent_recomputation(pot):
    # at non-unit constants every row built from the shared evaluation
    # matches the forms and the chemical potential taken one by one
    alpha, beta, b, c = 0.7, 1.5, 2.0, 0.5
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)
    op = cw.WentzellOperator(g, b=b, c=c, alpha=alpha, beta=beta)
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1 * g.y + 0.1
    cfg = RunConfig(dt=1e-3, t_end=0.01, snapshot_stride=1)
    rec = evolve(op, pot, u0, cfg)
    forms = g.forms

    def close(x):
        return pytest.approx(x, rel=1e-12)

    assert len(rec.snapshots) == len(rec.reports) == 11
    for (t, snap), t_row, rep in zip(rec.snapshots, rec.times, rec.reports):
        assert t == t_row
        u = snap
        e_bulk = 0.5 * (u @ (forms.k_grad @ u)) + np.dot(g.bulk_weights, pot.F(u))
        e_surf = 0.5 * alpha * (u @ (forms.k_par @ u))
        e_surf += 0.5 * beta * np.dot(forms.bdry_mass, u * u)
        mu = chemical_potential(op, pot, u)
        trace_law = mu[g.bdry_idx] / b
        bulk = math.sqrt(np.dot(g.bulk_weights, mu ** 2))
        bdry = math.sqrt(np.dot(g.bdry_weights, trace_law ** 2))
        mu_unit = chemical_potential(cw.WentzellOperator(g, alpha=alpha, beta=beta), pot, u)
        assert rep.e_bulk == close(e_bulk)
        assert rep.e_surf == close(e_surf)
        assert rep.e_total == close(e_bulk + e_surf)
        assert rep.dissipation == close(op.a_form(mu, mu))
        assert rep.flux == close(-np.dot(g.bdry_weights, mu[g.bdry_idx]))
        assert rep.bulk_res == close(bulk)
        assert rep.bdry_res == close(bdry)
        assert rep.bulk_res ** 2 + rep.bdry_res ** 2 == close(h_norm(g, mu_unit) ** 2)


def test_row_stride_leaves_states_unchanged(pot):
    # a step takes K_A mu from its state's row when the state has one and
    # forms it otherwise; at non-unit constants both must give the same bits
    b, c = 2.0, 0.5
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)
    op = cw.WentzellOperator(g, b=b, c=c, alpha=0.7, beta=1.5)
    u0 = 0.3 * np.cos(2 * np.pi * g.x) + 0.1 * g.y + 0.1
    every, some = (evolve(op, pot, u0, RunConfig(dt=1e-3, t_end=0.012, series_stride=s,
                                                    snapshot_stride=1))
                   for s in (1, 5))
    assert len(every.snapshots) == len(some.snapshots) == 13
    for (t_a, u_a), (t_b, u_b) in zip(every.snapshots, some.snapshots):
        assert t_a == t_b and np.array_equal(u_a, u_b)
    assert some.reports == [every.reports[k] for k in (0, 5, 10, 12)]
