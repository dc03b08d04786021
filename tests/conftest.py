from dataclasses import replace

import numpy as np
import pytest

import chwall as cw
from chwall.evolution import evolve


@pytest.fixture(scope="session")
def pot():
    return cw.double_well()


@pytest.fixture(scope="session")
def unit_grid():
    return cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)


@pytest.fixture(scope="session")
def unit_op(unit_grid):
    return cw.WentzellOperator(unit_grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def one_step(op, pot, u, cfg):
    """One energy-guarded step of length cfg.dt: a run with t_end = dt."""
    return evolve(op, pot, u, replace(cfg, t_end=cfg.dt)).final_state()


def dense_form_matrices(grid):
    """Independent dense assembly of the discrete forms (test oracle).

    Naive per-edge loops, written separately from the package assembler.
    Returns (K_grad, K_par, bdry_mass_diag, bulk_mass_diag) as dense arrays.
    """
    n = grid.n_nodes
    nx, ny = grid.nx, grid.ny
    K = np.zeros((n, n))
    P = np.zeros((n, n))

    def edge(mat, a, b, c):
        mat[a, a] += c
        mat[b, b] += c
        mat[a, b] -= c
        mat[b, a] -= c

    if grid.mode is cw.GridMode.STRIP2D:
        cx = grid.hy / grid.hx
        cy = grid.hx / grid.hy
        for j in range(1, ny - 1):
            for i in range(nx):
                edge(K, j * nx + i, j * nx + (i + 1) % nx, cx)
        for i in range(nx):
            edge(K, i, nx + i, 2.0 * cy)
            edge(K, (ny - 2) * nx + i, (ny - 1) * nx + i, 2.0 * cy)
            for j in range(1, ny - 2):
                edge(K, j * nx + i, (j + 1) * nx + i, cy)
        for base in (0, (ny - 1) * nx):
            for i in range(nx):
                edge(P, base + i, base + (i + 1) % nx, 1.0 / grid.hx)
    else:
        cy = 1.0 / grid.hy
        edge(K, 0, 1, 2.0 * cy)
        edge(K, ny - 2, ny - 1, 2.0 * cy)
        for j in range(1, ny - 2):
            edge(K, j, j + 1, cy)

    bdry = np.zeros(n)
    bdry[grid.bdry_idx] = grid.bdry_weights
    return K, P, bdry, grid.bulk_weights.copy()
