"""Pointwise finite-difference stencils on the grid's node layout.

Fields are read as ``(ny, nx)`` arrays with row 0 the wall at y=0 and row
ny-1 the wall at y=Ly; interior rows sit at cell centers, so the
wall-to-first-row gap is hy/2.  The x direction is periodic.  The interval
is the single column nx=1 of unit width, whose periodic second difference
is exactly 0, so the same stencils serve both geometries.

These are diagnostics and test oracles.  Everything energetic (energy,
chemical potential, dissipation, norms) goes through the assembled
quadratic forms in ``grid.forms`` instead; on uniform interior rows the
chemical potential agrees with ``-laplacian(u) + f(u)`` to rounding.
"""

import numpy as np


def _periodic_second_difference(rows, hx):
    """Second difference along x of each row of a (k, nx) array."""
    return (np.roll(rows, -1, axis=1) - 2.0 * rows + np.roll(rows, 1, axis=1)) / (hx * hx)


def laplacian(grid, u):
    """Pointwise finite-difference Laplacian at every node.

    Interior rows use centered stencils that are exact on quadratics
    (including the wall-adjacent rows, where the spacing is non-uniform);
    wall rows carry the one-sided value (the parabola through the wall node
    and the two nearest interior rows), used only where a formula
    explicitly needs the bulk Laplacian on the boundary.
    """
    v = u.reshape(grid.ny, grid.nx)
    out = _periodic_second_difference(v, grid.hx)
    ihy2 = 1.0 / (grid.hy * grid.hy)
    # uniform interior rows
    out[2:-2] += (v[3:-1] - 2.0 * v[2:-2] + v[1:-3]) * ihy2
    # first/last interior rows: neighbors at distances hy/2 (wall) and hy;
    # the wall rows take the same parabola's constant curvature
    c_lo = (8.0 * v[0] - 12.0 * v[1] + 4.0 * v[2]) * (ihy2 / 3.0)
    c_hi = (8.0 * v[-1] - 12.0 * v[-2] + 4.0 * v[-3]) * (ihy2 / 3.0)
    out[0] += c_lo
    out[1] += c_lo
    out[-2] += c_hi
    out[-1] += c_hi
    return out.reshape(-1)


def laplace_beltrami(grid, trace):
    """Surface Laplacian along each wall; identically zero for the interval."""
    tr = np.asarray(trace, dtype=float).reshape(2, grid.nx)
    return _periodic_second_difference(tr, grid.hx).reshape(-1)


def normal_derivative(grid, u):
    """Outward normal derivative on the walls, 3-point one-sided stencil.

    Second order; exact for fields quadratic in y.  Returned in trace
    layout (bottom wall first).
    """
    v = u.reshape(grid.ny, grid.nx)
    c = 1.0 / (3.0 * grid.hy)
    bottom = (8.0 * v[0] - 9.0 * v[1] + v[2]) * c
    top = (8.0 * v[-1] - 9.0 * v[-2] + v[-3]) * c
    return np.concatenate((bottom, top))
