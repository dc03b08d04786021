"""The coupled bulk/surface elliptic operator and the norms built on it.

The operator maps a field U to (-Laplacian u in the bulk; b*normal_flux + c*u
on the walls), realized weakly: its matrix is W^-1 K where K is the symmetric
form  a(u,v) = integral grad(u).grad(v) dx + (c/b) integral u v dS  and W is
the diagonal of the product-space inner product (surface part scaled by 1/b).
Discrete self-adjointness  <A u, v>_H = a(u,v) = <u, A v>_H  therefore holds
to rounding, which is what makes the discrete energy law exact downstream.

Every quadratic form here is a matrix from ``grid.forms``.  The energy of a
state and its gradient are evaluated together, from one product with
K_lin, by ``energy.energy_and_gradient``; the pointwise stencils in
``chwall.kernels`` serve the tests only.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PairField, _as_values, h_inner


@dataclass(frozen=True)
class NormReport:
    """The four norms used throughout the diagnostics."""

    h_norm: float
    v_norm: float
    x_norm: float
    h1_equiv_norm: float


class WentzellOperator:
    """Assembled elliptic operator A with factorization and inner product.

    Parameters b, c enter the operator (wall row scaling); alpha, beta ride
    along as the surface-energy constants so that downstream consumers
    (steppers, solvers) get the full constant set from one object.  All
    four default to 1, the normalization used everywhere in practice.

    Immutable after assembly: it caches only its own factorization of K_A
    and lambda_min, and concurrent read-only solves against that
    factorization are permitted (contract -- callers must not mutate the
    operator).  The time steppers' factorizations of their step matrices
    belong to each run, not to the operator.
    """

    def __init__(self, grid, b=1.0, c=1.0, alpha=1.0, beta=1.0):
        for name, val in (("b", b), ("c", c), ("alpha", alpha), ("beta", beta)):
            if val <= 0:
                raise ValueError(f"constant {name} must be positive, got {val}")
        self.grid = grid
        self.b = float(b)
        self.c = float(c)
        self.alpha = float(alpha)
        self.beta = float(beta)
        # a(u, v) is the energy's quadratic form with alpha = 0, beta = c/b
        self.K_A = grid.forms.k_lin(0.0, c / b)
        self.mass_weights = grid.h_weights(b)
        self._lu = None
        self._lambda_min = None
        if os.environ.get("CHWALL_DEBUG"):
            lam = self.lambda_min()
            if lam <= 0:
                raise RuntimeError(f"operator not positive: lambda_min={lam}")

    # -- structure ---------------------------------------------------------

    def a_form(self, u, v):
        """The symmetric bilinear form defining the operator."""
        return float(_as_values(u) @ (self.K_A @ _as_values(v)))

    def h_inner(self, u, v):
        return h_inner(self.grid, u, v, b=self.b)

    def h_norm(self, u):
        return np.sqrt(max(self.h_inner(u, u), 0.0))

    def factorization(self):
        if self._lu is None:
            # direct sparse LU, deterministic and reused across solves
            self._lu = spla.splu(self.K_A.tocsc())
        return self._lu

    def lambda_min(self, tol=1e-12, max_iter=500):
        """Smallest eigenvalue of A in the weighted inner product.

        Inverse power iteration on K x = lambda W x through the cached
        factorization; deterministic start vector.
        """
        if self._lambda_min is None:
            lu = self.factorization()
            w = self.mass_weights
            v = np.ones(self.grid.n_nodes)
            v /= np.sqrt(v @ (w * v))
            lam = None
            for _ in range(max_iter):
                y = lu.solve(w * v)
                y /= np.sqrt(y @ (w * y))
                lam_new = float(y @ (self.K_A @ y))
                if lam is not None and abs(lam_new - lam) <= tol * abs(lam_new):
                    lam = lam_new
                    break
                lam = lam_new
                v = y
            self._lambda_min = lam
        return self._lambda_min

    def dump_matrix(self, path):
        """Export the operator (as applied, W^-1 K) in 'row col value' text."""
        mat = sp.diags(1.0 / self.mass_weights) @ self.K_A
        coo = mat.tocoo()
        with open(path, "w") as fh:
            for r, col, val in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {col} {val:.17g}\n")


def assemble_wentzell(grid, b=1.0, c=1.0, alpha=1.0, beta=1.0):
    return WentzellOperator(grid, b=b, c=c, alpha=alpha, beta=beta)


def apply_A(op, u):
    """Apply the operator: bulk rows give -Laplacian, wall rows the flux law."""
    vals = _as_values(u)
    return PairField(op.grid, (op.K_A @ vals) / op.mass_weights)


def solve_Ainv(op, g):
    """Unique solution U of A U = g, via the cached direct factorization."""
    gv = _as_values(g)
    sol = op.factorization().solve(op.mass_weights * gv)
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("factorization produced non-finite solution")
    return PairField(op.grid, sol)


def x_norm(op, v):
    """Negative-order norm: sqrt(<A^-1 v, v>_H)."""
    w = solve_Ainv(op, v)
    return np.sqrt(max(op.h_inner(w, v), 0.0))


def x_norm_via_form(op, v):
    """Second route for the same norm: sqrt(a(w, w)) with w = A^-1 v."""
    w = solve_Ainv(op, v)
    return np.sqrt(max(op.a_form(w, w), 0.0))


def _quadratic_norm(K, u):
    vals = _as_values(u)
    return np.sqrt(max(float(vals @ (K @ vals)), 0.0))


def v_norm(grid, u):
    """Energy-space norm: bulk gradient plus surface gradient and mass."""
    return _quadratic_norm(grid.forms.k_lin(1.0, 1.0), u)


def h1_equiv_norm(grid, u):
    """Equivalent H1 norm: bulk gradient plus surface mass only."""
    return _quadratic_norm(grid.forms.k_lin(0.0, 1.0), u)


def norm_report(op, u):
    g = op.grid
    return NormReport(
        h_norm=op.h_norm(u),
        v_norm=v_norm(g, u),
        x_norm=x_norm(op, u),
        h1_equiv_norm=h1_equiv_norm(g, u),
    )
