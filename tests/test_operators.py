import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import chwall as cw
from chwall import h_inner, h_norm, laplace_beltrami, laplacian, normal_derivative
from chwall import evolution
from chwall.analysis import lowest_eigenpairs, weighted_symmetric
from chwall.config import RunConfig
from chwall.energy import energy_value
from chwall.evolution import _implicit_matrix, evolve
from chwall.operators import (
    apply_A,
    factor_x_invariant,
    level_rows,
    solve_Ainv,
    v_norm,
    x_norm,
    x_norm_via_form,
)

from conftest import dense_form_matrices


# -- stencil diagnostics -----------------------------------------------------

def test_laplacian_of_constant_is_zero(unit_grid):
    lap = laplacian(unit_grid, np.full(unit_grid.n_nodes, 3.7))
    assert np.max(np.abs(lap)) <= 1e-12


def test_laplacian_periodic_eigenfunction_second_order():
    errs, hs = [], []
    for n in (16, 32, 64):
        g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=n, ny=n)
        u = np.sin(2 * np.pi * g.x)
        lap = laplacian(g, u)
        ii = g.interior_idx
        errs.append(np.max(np.abs(lap[ii] + (2 * np.pi) ** 2 * u[ii])))
        hs.append(g.hx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_laplacian_interval_quadratic_exact():
    g = cw.build_grid("interval1d", Ly=1.0, ny=16)
    lap = laplacian(g, g.y ** 2)
    assert np.max(np.abs(lap[g.interior_idx] - 2.0)) <= 1e-10
    # one-sided wall values, used only where a formula needs them
    assert abs(lap[0] - 2.0) <= 1e-10 and abs(lap[-1] - 2.0) <= 1e-10


def test_beltrami_constant_and_eigenfunction():
    g = cw.build_grid("strip2d", Lx=2.0, Ly=1.0, nx=32, ny=8)
    assert np.max(np.abs(laplace_beltrami(g, np.full(2 * g.nx, 4.2)))) == 0.0
    errs, hs = [], []
    for n in (16, 32, 64):
        gg = cw.build_grid("strip2d", Lx=2.0, Ly=1.0, nx=n, ny=8)
        tr = np.cos(2 * np.pi * gg.x[gg.bdry_idx] / gg.Lx)
        lb = laplace_beltrami(gg, tr)
        errs.append(np.max(np.abs(lb + (2 * np.pi / gg.Lx) ** 2 * tr)))
        hs.append(gg.hx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_beltrami_interval_is_zero(rng):
    g = cw.build_grid("interval1d", Ly=1.0, ny=8)
    assert np.all(laplace_beltrami(g, rng.standard_normal(2)) == 0.0)


def test_normal_derivative_exactness():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=12)
    assert np.max(np.abs(normal_derivative(g, np.full(g.n_nodes, 2.5)))) == 0.0
    nd = normal_derivative(g, g.y)
    assert np.max(np.abs(nd[: g.nx] + 1.0)) <= 1e-13   # bottom wall, outward -y
    assert np.max(np.abs(nd[g.nx:] - 1.0)) <= 1e-13    # top wall
    nd2 = normal_derivative(g, g.y ** 2)
    assert np.max(np.abs(nd2[g.nx:] - 2.0 * g.Ly)) <= 1e-10
    assert np.max(np.abs(nd2[: g.nx])) <= 1e-10


# -- the coupled elliptic operator -------------------------------------------

def test_apply_A_constants(unit_grid, unit_op):
    g = unit_grid
    z = apply_A(unit_op, np.zeros(g.n_nodes))
    assert np.max(np.abs(z)) == 0.0
    a1 = apply_A(unit_op, np.full(g.n_nodes, 1.0))
    assert np.max(np.abs(a1[g.interior_idx])) <= 1e-13
    assert np.max(np.abs(a1[g.bdry_idx] - 1.0)) <= 1e-13


def test_weighted_self_adjointness(rng, unit_grid, unit_op):
    g = unit_grid
    for _ in range(20):
        u = rng.standard_normal(g.n_nodes)
        v = rng.standard_normal(g.n_nodes)
        lhs = h_inner(g, apply_A(unit_op, u), v)
        form = unit_op.a_form(u, v)
        rhs = h_inner(g, u, apply_A(unit_op, v))
        assert abs(lhs - form) <= 1e-12 * (1 + abs(form))
        assert abs(rhs - form) <= 1e-12 * (1 + abs(form))


@st.composite
def _grids(draw):
    """A strip (Lx, Ly in [0.1, 30], nx, ny in [4, 16]) or an interval."""
    Ly, ny = draw(st.floats(0.1, 30.0)), draw(st.integers(4, 16))
    if draw(st.booleans()):
        return cw.build_grid("strip2d", Lx=draw(st.floats(0.1, 30.0)), Ly=Ly,
                             nx=draw(st.integers(4, 16)), ny=ny)
    return cw.build_grid("interval1d", Ly=Ly, ny=ny)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=_grids())
def test_operator_matches_dense_assembly_oracle(g):
    # every entry of the Kronecker-assembled forms against the per-edge loops;
    # no entry is a cancelling sum, so the bound is relative per entry
    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    forms = g.forms
    for K, oracle in ((forms.k_grad, K_o), (forms.k_par, P_o),
                      (cw.WentzellOperator(g).K_A, K_o + np.diag(bdry_o))):
        assert K.has_canonical_format
        assert np.all(np.abs(K.toarray() - oracle) <= 1e-14 * np.abs(oracle))
    assert np.array_equal(forms.bulk_mass, bulk_o)
    assert np.array_equal(forms.bdry_mass, bdry_o)
    assert abs(np.sum(forms.bulk_mass) - g.area) <= 1e-12 * g.area
    assert abs(np.sum(forms.bdry_mass) - g.surface) <= 1e-12 * g.surface


_constant = st.floats(0.2, 5.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=_grids(), b=_constant, c=_constant, alpha=_constant, beta=_constant,
       seed=st.integers(0, 2 ** 32 - 1))
def test_structure_holds_at_random_constants(g, b, c, alpha, beta, seed):
    # every object is built from the one operator, so a layer that drops a
    # constant or takes it as 1 breaks one of these identities
    op = cw.WentzellOperator(g, b=b, c=c, alpha=alpha, beta=beta)
    pot = cw.double_well()
    rng = np.random.default_rng(seed)
    u, v = (0.5 * rng.standard_normal(g.n_nodes) for _ in range(2))

    # <A u, v>_H = a(u, v) = <u, A v>_H in the b-weighted pairing
    form = op.a_form(u, v)
    scale = 1.0 + float(np.abs(op.K_A @ u) @ np.abs(v))
    assert abs(h_inner(g, apply_A(op, u), v, b=op.b) - form) <= 1e-12 * scale
    assert abs(h_inner(g, u, apply_A(op, v), b=op.b) - form) <= 1e-12 * scale

    # mu is the gradient of E in that pairing, along a random and a wall-only
    # direction (the wall rows carry b, alpha and beta)
    mu = cw.chemical_potential(op, pot, u)
    wall = np.zeros(g.n_nodes)
    wall[g.bdry_idx] = v[g.bdry_idx]
    eps = 1e-5
    e0 = energy_value(g, pot, u, op.alpha, op.beta)
    for w in (v, wall):
        fd = (energy_value(g, pot, u + eps * w, op.alpha, op.beta)
              - energy_value(g, pot, u - eps * w, op.alpha, op.beta)) / (2 * eps)
        pair = h_inner(g, mu, w, b=op.b)
        assert abs(pair - fd) <= 1e-6 * (1.0 + abs(fd)) + 1e-9 * abs(e0)

    # one guarded semi-implicit step lowers the energy, and the ledger rows
    # report the energy of the operator's constants
    rec = evolve(op, pot, u, RunConfig(dt=1e-3, t_end=1e-3))
    e1 = energy_value(g, pot, rec.final_state(), op.alpha, op.beta)
    assert [r.e_total for r in rec.reports] == [e0, e1]
    assert e1 <= e0 + 1e-12 * (1.0 + abs(e0))


def test_solve_Ainv_trivial_and_constants(unit_grid, unit_op):
    g = unit_grid
    assert np.max(np.abs(solve_Ainv(unit_op, np.zeros(g.n_nodes)))) == 0.0
    rhs = np.zeros(g.n_nodes)
    rhs[g.bdry_idx] = 1.0
    sol = solve_Ainv(unit_op, rhs)
    assert np.max(np.abs(sol - 1.0)) <= 1e-12


def test_solve_Ainv_matches_dense_lu(rng, unit_grid, unit_op):
    g = unit_grid
    K = unit_op.K_A.toarray()
    for _ in range(5):
        rhs = rng.standard_normal(g.n_nodes)
        expected = np.linalg.solve(K, unit_op.mass_weights * rhs)
        got = solve_Ainv(unit_op, rhs)
        assert np.max(np.abs(got - expected)) <= 1e-10 * (1 + np.max(np.abs(expected)))
        back = apply_A(unit_op, got)
        res = h_norm(g, back - rhs, b=unit_op.b)
        assert res <= 1e-10 * h_norm(g, rhs, b=unit_op.b)


_positive = st.floats(0.1, 10.0)


@st.composite
def _x_invariant_problems(draw):
    """A grid (strip with odd or even nx, or interval), constants, dt and S."""
    ny = draw(st.integers(4, 24))
    Ly = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        grid = cw.build_grid("strip2d", Lx=draw(st.floats(0.5, 4.0)), Ly=Ly,
                             nx=draw(st.integers(4, 24)), ny=ny)
    else:
        grid = cw.build_grid("interval1d", Ly=Ly, ny=ny)
    b, c, alpha, beta = (draw(_positive) for _ in range(4))
    dt = 10.0 ** draw(st.floats(-5.0, -1.0))
    S = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    return grid, cw.WentzellOperator(grid, b=b, c=c, alpha=alpha, beta=beta), dt, S


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_x_invariant_problems(), seed=st.integers(0, 2 ** 32 - 1))
def test_x_invariant_factor_matches_sparse_lu(problem, seed):
    # the FFT-in-x band path against splu on K_A and on the step matrix
    grid, op, dt, S = problem
    forms, W = grid.forms, op.mass_weights
    B = forms.k_lin(op.alpha, op.beta) + S * sp.diags(forms.bulk_mass)
    step = sp.diags(W) + dt * (op.K_A @ sp.diags(1.0 / W) @ B)
    rhs = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    for M in (op.K_A, step.tocsr()):
        band = factor_x_invariant(grid, M[level_rows(grid)]).solve(rhs)
        lu = spla.splu(M.tocsc()).solve(rhs)
        res_band = np.linalg.norm(M @ band - rhs) / np.linalg.norm(rhs)
        res_lu = np.linalg.norm(M @ lu - rhs) / np.linalg.norm(rhs)
        assert res_band <= 1e-10
        # LU can land exactly on rhs on tiny systems: floor its residual at eps
        assert res_band <= 10.0 * max(res_lu, np.finfo(float).eps)
        assert np.linalg.norm(band - lu) <= 1e-10 * np.linalg.norm(lu)


@pytest.mark.parametrize("mode,nx", [("strip2d", 7), ("strip2d", 8), ("interval1d", None)])
def test_x_invariant_solve_returns_a_fresh_real_vector(mode, nx):
    g = cw.build_grid(mode, Lx=1.0, Ly=1.0, nx=nx, ny=9)
    op = cw.WentzellOperator(g)
    rhs = np.random.default_rng(5).standard_normal(g.n_nodes)
    kept = rhs.copy()
    x = factor_x_invariant(g, op.K_A[level_rows(g)]).solve(rhs)
    assert np.array_equal(rhs, kept)
    assert x.dtype == np.float64 and x.shape == (g.n_nodes,)
    assert x.flags.c_contiguous
    assert np.linalg.norm(op.K_A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_x_invariant_factor_rejects_singular_and_wide_matrices():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=6, ny=5)
    wall_rows_zero = sp.diags(np.where(g.on_gamma, 0.0, 1.0), format="csr")
    with pytest.raises(RuntimeError, match="singular"):
        factor_x_invariant(g, wall_rows_zero[level_rows(g)])
    far = sp.eye(g.n_nodes, k=3 * g.nx, format="csr") + sp.eye(g.n_nodes, format="csr")
    with pytest.raises(ValueError, match="more than two apart"):
        factor_x_invariant(g, far[level_rows(g)])


def test_x_invariant_factor_rejects_a_stencil_not_symmetric_in_x():
    # identity plus a periodic shift by one node in +x: its symbol
    # 1 + exp(2 pi i k / nx) is complex, so no real band system solves it
    # (with nx odd the real part 1 + cos(2 pi k / nx) never vanishes, so a
    # solver that dropped the imaginary part would answer, wrongly)
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=7, ny=5)
    k = np.arange(g.n_nodes)
    shift = sp.csr_matrix((np.ones(g.n_nodes), (k, k - k % g.nx + (k + 1) % g.nx)))
    M = (sp.identity(g.n_nodes) + shift).tocsr()
    with pytest.raises(ValueError, match="not symmetric in x"):
        factor_x_invariant(g, M[level_rows(g)])


def test_x_invariant_factor_takes_only_the_level_rows():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=6, ny=5)
    with pytest.raises(ValueError, match="level rows"):
        factor_x_invariant(g, cw.WentzellOperator(g).K_A)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_x_invariant_problems())
def test_step_level_rows_are_the_rows_of_the_whole_matrix(problem):
    # the semi-implicit step factor reads only the level rows; assembled on
    # their own they must equal those rows of the whole matrix bit for bit
    grid, op, dt, S = problem
    forms, rows = grid.forms, level_rows(grid)
    B = (forms.k_lin(op.alpha, op.beta) + S * sp.diags(forms.bulk_mass)).tocsr()
    W = op.mass_weights
    whole = sp.diags(W) + dt * (op.K_A @ sp.diags(1.0 / W) @ B)
    cols = np.unique(op.K_A[rows].indices)
    level = _implicit_matrix(op, dt, B[cols], rows, cols)
    assert level.shape == (grid.ny, grid.n_nodes)
    assert np.array_equal(level.toarray(), whole.tocsr()[rows].toarray())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nx=st.sampled_from([4, 5, 33, None]), ny=st.integers(4, 12),
       consts=st.tuples(_positive, _positive, _positive, _positive),
       dt=st.floats(-5.0, -1.0), S=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_step_assembles_only_the_rows_of_B_it_reads(nx, ny, consts, dt, S):
    # _semi_system builds B = K_lin + S M_bulk only in the rows that the
    # level rows of K_A reach; what it factorizes must equal the level rows
    # formed from the whole B, bit for bit
    from unittest import mock

    if nx is None:
        grid = cw.build_grid("interval1d", Ly=1.3, ny=ny)
    else:
        grid = cw.build_grid("strip2d", Lx=2.1, Ly=1.3, nx=nx, ny=ny)
    b, c, alpha, beta = consts
    op = cw.WentzellOperator(grid, b=b, c=c, alpha=alpha, beta=beta)
    dt = 10.0 ** dt
    forms, rows = grid.forms, level_rows(grid)
    B = forms.k_lin(alpha, beta) + S * sp.diags(forms.bulk_mass)
    whole = sp.diags(op.mass_weights) + dt * (op.K_A @ sp.diags(1.0 / op.mass_weights) @ B)
    seen = []
    with mock.patch.object(evolution, "factor_x_invariant",
                           side_effect=lambda g, level: seen.append(level)):
        evolution._semi_system(op, dt, S, evolution._StepFactors())
    (level,) = seen
    assert level.shape == (grid.ny, grid.n_nodes)
    assert np.array_equal(level.toarray(), whole.tocsr()[rows].toarray())


def test_step_factorization_holds_no_full_size_temporary():
    # with the whole B, the (ny, 5, nx) stencil and its symbol alive, the
    # peak was 4.4x the complex factor's bytes; without them it is the band
    # factor and its complex copy, about 1.6x
    import tracemalloc

    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=128, ny=128)
    op = cw.WentzellOperator(g)
    evolution._semi_system(op, 1e-3, 2.0, evolution._StepFactors())
    tracemalloc.start()
    try:
        lu = evolution._semi_system(op, 1e-3, 2.0, evolution._StepFactors())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * lu._lu.nbytes


def test_x_norm_examples_and_two_routes(rng, unit_grid, unit_op):
    g = unit_grid
    assert x_norm(unit_op, np.zeros(g.n_nodes)) == 0.0
    rhs = np.zeros(g.n_nodes)
    rhs[g.bdry_idx] = 1.0
    assert abs(x_norm(unit_op, rhs) - np.sqrt(2.0)) <= 1e-10
    for _ in range(5):
        v = rng.standard_normal(g.n_nodes)
        r1, r2 = x_norm(unit_op, v), x_norm_via_form(unit_op, v)
        assert abs(r1 - r2) <= 1e-10 * (1 + r1)


def test_v_norm_examples(unit_grid):
    g = unit_grid
    assert v_norm(g, np.zeros(g.n_nodes)) == 0.0
    assert abs(v_norm(g, np.full(g.n_nodes, 1.0)) - np.sqrt(2.0)) <= 1e-12
    gg = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=24, ny=12)
    u = np.sin(2 * np.pi * gg.x)
    # independent dense evaluation of the same discrete sums
    K_o, P_o, bdry_o, _ = dense_form_matrices(gg)
    oracle = np.sqrt(u @ (K_o @ u) + u @ (P_o @ u) + np.sum(bdry_o * u * u))
    assert abs(v_norm(gg, u) - oracle) <= 1e-10 * (1 + oracle)


# grids on which the operator's smallest eigenvalue is checked
LAMBDA_MIN_GRIDS = (
    ("strip2d", dict(Lx=1.0, Ly=1.0, nx=8, ny=8)),
    ("strip2d", dict(Lx=4.0, Ly=2.0, nx=12, ny=6)),
    ("interval1d", dict(Ly=1.0, ny=12)),
)


def _lambda_min(op):
    lam, _ = lowest_eigenpairs(*weighted_symmetric(op.K_A, op.mass_weights), 1)
    return float(lam[0])


def test_norm_report_weak_norm_bound(rng):
    for mode, kw in LAMBDA_MIN_GRIDS:
        op = cw.WentzellOperator(cw.build_grid(mode, **kw))
        c_grid = 1.0 / np.sqrt(_lambda_min(op))
        for _ in range(10):
            u = rng.standard_normal(op.grid.n_nodes)
            assert x_norm(op, u) <= c_grid * h_norm(op.grid, u, b=op.b) * (1 + 1e-10)


def test_lambda_min_positive_all_grids():
    for mode, kw in LAMBDA_MIN_GRIDS:
        op = cw.WentzellOperator(cw.build_grid(mode, **kw))
        lam = _lambda_min(op)
        # dense oracle: the smallest eigenvalue of the pencil (K_A, W)
        dense = scipy.linalg.eigh(op.K_A.toarray(), np.diag(op.mass_weights),
                                  eigvals_only=True)[0]
        assert lam > 0
        assert abs(lam - dense) <= 1e-10 * (1 + dense)


def test_apply_A_refinement_second_order_interior():
    # wall-adjacent rows are flux-form (pointwise first order there);
    # uniform-stencil interior rows converge at second order
    errs, hs = [], []
    for n in (16, 32, 64):
        g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=n, ny=n)
        op = cw.WentzellOperator(g)
        u = np.sin(2 * np.pi * g.x) * np.cos(np.pi * g.y)
        target = ((2 * np.pi) ** 2 + np.pi ** 2) * u
        away = (g.y > 1.5 * g.hy) & (g.y < g.Ly - 1.5 * g.hy)
        errs.append(np.max(np.abs(apply_A(op, u)[away] - target[away])))
        hs.append(g.hy)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_general_constants_scale_boundary_rows(rng):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    op = cw.WentzellOperator(g, b=2.0, c=3.0)
    one = np.full(g.n_nodes, 1.0)
    # A(1) wall rows: (c/b) * surface mass divided by (1/b)-weighted mass
    a1 = apply_A(op, one)
    assert np.max(np.abs(a1[g.interior_idx])) <= 1e-13
    assert np.max(np.abs(a1[g.bdry_idx] - 3.0)) <= 1e-12
    with pytest.raises(ValueError, match="positive"):
        cw.WentzellOperator(g, b=-1.0)


def test_matrix_dump_coordinate_format(tmp_path, unit_op, unit_grid):
    path = tmp_path / "A.txt"
    unit_op.dump_matrix(path)
    rows = []
    with open(path) as fh:
        for line in fh:
            r, c, v = line.split()
            rows.append((int(r), int(c), float(v)))
    n = unit_grid.n_nodes
    dense = np.zeros((n, n))
    for r, c, v in rows:
        dense[r, c] += v
    e0 = np.zeros(n)
    e0[n // 2] = 1.0
    assert np.allclose(dense @ e0, apply_A(unit_op, e0), atol=1e-12)
