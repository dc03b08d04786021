import math

import numpy as np
import pytest

import chwall as cw
from chwall.energy import (
    chemical_potential,
    double_well,
    energy_and_gradient,
    energy_value,
    polynomial_potential,
    residual_norms,
    state_report,
)
from chwall.grid import h_inner
from chwall.operators import apply_A


# -- potential bundle ---------------------------------------------------------

def test_double_well_closed_forms(pot):
    assert pot.F(0.0) == 0.25
    assert pot.f(1.0) == 0.0 and pot.f(-1.0) == 0.0
    assert pot.f_prime(0.0) == -1.0
    assert pot.dissipativity_margin > 0


def test_potential_derivative_consistency(pot, rng):
    s = rng.uniform(-3, 3, size=200)
    eps = 1e-6
    fd_F = (pot.F(s + eps) - pot.F(s - eps)) / (2 * eps)
    assert np.max(np.abs(fd_F - pot.f(s)) / (1 + np.abs(pot.f(s)))) <= 1e-6
    fd_f = (pot.f(s + eps) - pot.f(s - eps)) / (2 * eps)
    assert np.max(np.abs(fd_f - pot.f_prime(s)) / (1 + np.abs(pot.f_prime(s)))) <= 1e-6


def _cubic_samples(rng):
    """Positive, negative, mixed-sign, large and signed-zero inputs."""
    big = 10.0 ** rng.uniform(3.0, 90.0, 100)
    return {
        "positive": rng.uniform(0.0, 3.0, 200),
        "negative": -rng.uniform(0.0, 3.0, 200),
        "mixed": rng.uniform(-3.0, 3.0, 200),
        "large": np.concatenate([big, -big]),
        "zeros": np.array([0.0, -0.0]),
    }


def test_double_well_cubic_is_exactly_odd(pot, rng):
    for s in _cubic_samples(rng).values():
        assert np.array_equal(pot.f(-s), -pot.f(s))


def test_double_well_cubic_matches_power_form(pot, rng):
    eps = np.finfo(float).eps
    for kind, s in _cubic_samples(rng).items():
        err = np.abs(pot.f(s) - (s ** 3 - s))
        assert np.all(err <= 4.0 * eps * (np.abs(s) ** 3 + np.abs(s))), kind


def test_polynomial_potential_is_polyval(rng):
    # the custom potential evaluates its coefficients with np.polyval
    cf = [1.0, 0.5, -1.0, 0.25]
    p = polynomial_potential(cf)
    s = rng.uniform(-3.0, 3.0, 200)
    assert np.array_equal(p.f(s), np.polyval(cf, s))
    assert np.array_equal(p.f_prime(s), np.polyval(np.polyder(cf), s))
    assert np.array_equal(p.F(s), np.polyval(np.polyint(cf), s))


def test_polynomial_potential_antiderivative_zero_at_origin():
    p = polynomial_potential([1.0, 0.0, -1.0, 0.0])  # same f as the double well
    assert p.F(0.0) == 0.0
    assert abs(p.f(2.0) - 6.0) == 0.0


def test_non_dissipative_potential_rejected():
    with pytest.raises(ValueError, match="dissipativity"):
        polynomial_potential([-1.0, 0.0])  # f = -s, f' = -1 everywhere


def test_supercritical_growth_warns():
    with pytest.warns(RuntimeWarning, match="supercritical"):
        polynomial_potential([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])  # f = s^5 + s


# -- energy and gradient ------------------------------------------------------

def test_energy_of_zero_field(unit_grid, unit_op, pot):
    u = np.zeros(unit_grid.n_nodes)
    rep = state_report(unit_op, u, energy_and_gradient(unit_grid, pot, u, 1.0, 1.0))[0]
    assert abs(rep.e_bulk - 0.25) <= 1e-12
    assert rep.e_surf == 0.0
    assert abs(rep.e_total - 0.25) <= 1e-12
    assert rep.e_total == rep.e_bulk + rep.e_surf


def test_energy_of_unit_field(unit_grid, unit_op, pot):
    u = np.full(unit_grid.n_nodes, 1.0)
    rep = state_report(unit_op, u, energy_and_gradient(unit_grid, pot, u, 1.0, 1.0))[0]
    assert abs(rep.e_bulk) <= 1e-12
    assert abs(rep.e_surf - 1.0) <= 1e-12
    assert abs(rep.mass_total - 3.0) <= 1e-12
    assert abs(rep.flux + 2.0) <= 1e-12  # outflow through both walls


def test_energy_matches_fsum_oracle(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=2.0, nx=12, ny=14)
    u = np.tanh((g.y - 1.0) / 0.35)
    rep = state_report(cw.WentzellOperator(g), u, energy_and_gradient(g, pot, u, 1.0, 1.0))[0]
    # independent evaluation of the same discrete sums
    from conftest import dense_form_matrices

    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    e_oracle = 0.5 * (u @ (K_o @ u))
    e_oracle += math.fsum(bulk_o[k] * pot.F(u[k]) for k in range(g.n_nodes))
    e_oracle += 0.5 * (u @ (P_o @ u)) + 0.5 * math.fsum(
        bdry_o[k] * u[k] ** 2 for k in range(g.n_nodes)
    )
    assert abs(rep.e_total - e_oracle) <= 1e-10 * (1 + abs(e_oracle))


def test_chemical_potential_constants(unit_grid, unit_op, pot):
    g = unit_grid
    mu0 = chemical_potential(unit_op, pot, np.zeros(g.n_nodes))
    assert np.max(np.abs(mu0)) == 0.0
    mu1 = chemical_potential(unit_op, pot, np.full(g.n_nodes, 1.0))
    assert np.max(np.abs(mu1[g.interior_idx])) <= 1e-13
    assert np.max(np.abs(mu1[g.bdry_idx] - 1.0)) <= 1e-13


def test_gradient_consistency_random_fields(rng, unit_grid, unit_op, pot):
    g = unit_grid
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        u = 0.7 * rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        mu = chemical_potential(unit_op, pot, u)
        fd = (energy_value(g, pot, u + eps * w, 1.0, 1.0)
              - energy_value(g, pot, u - eps * w, 1.0, 1.0)) / (2 * eps)
        pair = h_inner(g, mu, w)
        worst = max(worst, abs(pair - fd) / (1 + abs(fd)))
    assert worst <= 1e-6


def test_gradient_consistency_general_constants(rng):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    pot = double_well()
    alpha, beta, b = 0.7, 2.0, 3.0
    op = cw.WentzellOperator(g, b=b, alpha=alpha, beta=beta)
    eps = 1e-5
    for _ in range(10):
        u = 0.5 * rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        mu = chemical_potential(op, pot, u)
        fd = (
            energy_value(g, pot, u + eps * w, alpha, beta)
            - energy_value(g, pot, u - eps * w, alpha, beta)
        ) / (2 * eps)
        pair = h_inner(g, mu, w, b=b)
        assert abs(pair - fd) <= 1e-6 * (1 + abs(fd))


def test_stationary_residual_examples(unit_grid, pot):
    g = unit_grid
    zero = energy_and_gradient(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)[1]
    assert residual_norms(g, zero) == (0.0, 0.0)
    one = energy_and_gradient(g, pot, np.full(g.n_nodes, 1.0), 1.0, 1.0)[1]
    bulk, bdry = residual_norms(g, one)
    assert bulk <= 1e-13
    assert abs(bdry - np.sqrt(2.0)) <= 1e-12


def test_dissipation_examples(rng, unit_grid, unit_op, pot):
    g = unit_grid
    assert unit_op.a_form(np.zeros(g.n_nodes), np.zeros(g.n_nodes)) == 0.0
    one = np.full(g.n_nodes, 1.0)
    assert abs(unit_op.a_form(one, one) - 2.0) <= 1e-12
    for _ in range(10):
        mu = rng.standard_normal(g.n_nodes)
        a = unit_op.a_form(mu, mu)
        assert abs(h_inner(g, apply_A(unit_op, mu), mu) - a) <= 1e-12 * (1 + abs(a))


def test_mu_of_constant_field_structure(unit_grid, unit_op, pot):
    # interior part vanishes iff f(const) = 0; wall rows carry the trace law
    g = unit_grid
    for c, f_zero in ((1.0, True), (0.5, False)):
        mu = chemical_potential(unit_op, pot, np.full(g.n_nodes, c))
        interior_zero = np.max(np.abs(mu[g.interior_idx])) <= 1e-13
        assert interior_zero == f_zero
        wall = mu[g.bdry_idx]
        assert np.max(np.abs(wall - wall[0])) <= 1e-13


def test_chemical_potential_matches_stencils(pot):
    # uniform interior rows are -Lap(u) + f(u) to rounding; wall rows carry
    # b times the trace law, to first order in h (the half-cell flux)
    alpha, beta, b = 2.0, 3.0, 2.0
    wall_errs, hs = [], []
    for n in (16, 32, 64, 128):
        g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=n, ny=n)
        u = np.cos(2 * np.pi * g.x) * np.cos(np.pi * g.y) + g.y
        op = cw.WentzellOperator(g, b=b, alpha=alpha, beta=beta)
        mu = chemical_potential(op, pot, u)
        rows = slice(2 * g.nx, (g.ny - 2) * g.nx)
        expected = -cw.laplacian(g, u)[rows] + pot.f(u[rows])
        assert np.max(np.abs(mu[rows] - expected)) <= 1e-11 * np.max(np.abs(expected))
        tr = u[g.bdry_idx]
        law = -alpha * cw.laplace_beltrami(g, tr) + cw.normal_derivative(g, u) + beta * tr
        wall_errs.append(np.max(np.abs(mu[g.bdry_idx] / b - law)))
        hs.append(g.hy)
    slope = np.polyfit(np.log(hs), np.log(wall_errs), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_residuals_at_configured_constants(pot):
    # an equilibrium of the alpha=2, beta=3 energy is not one at unit
    # constants, so a residual taken at unit constants reads O(1) there
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=24, ny=24)
    alpha, beta = 2.0, 3.0
    u0 = 0.8 * np.cos(2 * np.pi * g.x / g.Lx)
    sol = cw.find_equilibrium(cw.WentzellOperator(g, alpha=alpha, beta=beta), pot, u0,
                              tol=1e-10)
    assert sol.converged
    assert sol.bulk_res <= 1e-10 and sol.bdry_res <= 1e-10
    bulk, bdry = residual_norms(g, energy_and_gradient(g, pot, sol.psi, alpha, beta)[1])
    assert bulk <= 1e-10 and bdry <= 1e-10
    assert residual_norms(g, energy_and_gradient(g, pot, sol.psi, 1.0, 1.0)[1])[1] > 1.0
    for b in (1.0, 2.0):
        ev = energy_and_gradient(g, pot, sol.psi, alpha, beta)
        op = cw.WentzellOperator(g, b=b, alpha=alpha, beta=beta)
        rep = state_report(op, sol.psi, ev)[0]
        assert rep.bulk_res <= 1e-10 and rep.bdry_res <= 1e-10
