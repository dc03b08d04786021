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

Matrices that commute with x-shifts of the periodic strip (K_A and the
semi-implicit step matrix) are solved by ``factor_x_invariant``: a real FFT
in x splits them into one pentadiagonal system in y per Fourier mode.  It
reads only their ny level rows (``level_rows``), which is all a caller
assembles, through ``level_symbols``, which ``analysis.ModeSpectrum``
also uses to read such a matrix's spectrum mode by mode; the
classification's correction of its Ritz vectors solves the shifted
x-invariant Hessian through ``factor_x_invariant`` as well.  A Newton
Jacobian varies in x through f'(u); ``newton``, the one Newton loop of the
package, solves it by ``minres``, preconditioned with such band factors.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, zgbtrs

from .energy import energy_and_gradient, energy_hessian
from .grid import dot, h_inner

# the largest imaginary part, relative to the largest real part, that the
# Fourier symbol of an x-symmetric stencil may carry from rounding
SYMBOL_IMAG_TOL = 1e-12
# minres: iteration cap per solve; newton: the cap on its forcing term (the
# relative MINRES tolerance of an iteration), its iteration cap, and its stop
# on a small update, max|delta| <= NEWTON_STEP_TOL * max(1, max|x|)
MINRES_MAX_ITER = 200
FORCING_MAX = 0.1
NEWTON_MAX_ITER = 50
NEWTON_STEP_TOL = 1e-10


class XInvariantFactor:
    """Band LU factors of an x-invariant matrix, one block per Fourier mode.

    Block k of the band matrix is the ny x ny system of the x-Fourier mode
    k = 0 .. nx//2.  ``solve`` transforms a right-hand side along x, solves
    every mode in one LAPACK zgbtrs call and transforms back.  The factor
    from dgbtrf is real; it is kept as a complex Fortran copy so that the
    complex mode vector is one right-hand side, with no split into real and
    imaginary columns and no copies to rebuild it.
    """

    def __init__(self, nx, ny, lu, piv):
        self.nx, self.ny = nx, ny
        self._lu = np.asfortranarray(lu, dtype=complex)
        self._piv = piv

    def solve(self, rhs):
        nx, ny = self.nx, self.ny
        # mode-major: entry k*ny + j is mode k of level j.  Both transforms
        # write into C-ordered out= arrays, so neither ravel copies.
        modes = np.empty((nx // 2 + 1, ny), dtype=complex)
        np.fft.rfft(np.reshape(rhs, (ny, nx)).T, axis=0, out=modes)
        x, info = zgbtrs(self._lu, 2, 2, modes.ravel(), self._piv, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"band solve failed: LAPACK zgbtrs info={info}")
        out = np.empty((ny, nx))
        np.fft.irfft(x.reshape(-1, ny).T, n=nx, axis=1, out=out)
        return out.ravel()


def level_rows(grid):
    """Flat indices j*nx of the first node of each level j: the rows that
    ``factor_x_invariant`` reads."""
    return np.arange(grid.ny) * grid.nx


def diag_rows(d, rows):
    """Rows ``rows`` of the diagonal matrix diag(d), as a sparse CSR block."""
    return sp.csr_matrix((d[rows], (np.arange(rows.size), rows)), shape=(rows.size, d.size))


def level_symbols(grid, rows):
    """The real Fourier symbols of a sparse matrix on the grid that commutes
    with x-shifts: an array of shape (ny, 5, nx//2 + 1).

    rows is the (ny x n_nodes) sparse block of the matrix's level rows,
    M[level_rows(grid)]: row j holds the stencil of level j, an x-stencil
    for each of the levels j - 2 .. j + 2 it couples to, and by x-invariance
    determines every other row of level j.  Entry [j, dj + 2, k] is the
    symbol of the stencil from level j to level j + dj at the x-mode k, so
    mode k of the matrix is the ny x ny pentadiagonal matrix with these
    entries.  The stencils must be symmetric in x, so their symbols are
    real; a symbol whose imaginary part exceeds rounding raises ValueError,
    and so does a matrix that couples levels more than two apart.
    """
    nx, ny = grid.nx, grid.ny
    if rows.shape != (ny, grid.n_nodes):
        raise ValueError(f"expected the {ny} x {grid.n_nodes} level rows, got {rows.shape}")
    rows = sp.coo_matrix(rows)
    level = rows.col // nx
    dj = level - rows.row
    if np.any(np.abs(dj) > 2):
        raise ValueError("matrix couples levels more than two apart in y")
    stencil = np.zeros((ny, 5, nx))
    np.add.at(stencil, (rows.row, dj + 2, rows.col - level * nx), rows.data)
    symbol = np.fft.rfft(stencil, axis=2)
    del stencil
    if np.max(np.abs(symbol.imag)) > SYMBOL_IMAG_TOL * np.max(np.abs(symbol.real)):
        raise ValueError("matrix is not symmetric in x: its Fourier symbol is not real")
    return symbol.real


def factor_x_invariant(grid, rows):
    """Factorize a sparse matrix on the grid that commutes with x-shifts.

    rows = M[level_rows(grid)] are the level rows that ``level_symbols``
    reads; only these are read, so callers assemble only them.  Each x-mode
    is one real pentadiagonal system in y.  All nx//2 + 1 systems are
    stacked into one band matrix (kl = ku = 2) and factorized with one
    LAPACK dgbtrf call; the interval (nx = 1) is the single mode.  Raises
    ValueError as ``level_symbols`` does, and RuntimeError when a mode
    system is singular.
    """
    ny = grid.ny
    symbol = level_symbols(grid, rows)
    n = symbol.shape[2] * ny
    ab = np.zeros((7, n), order="F")  # LAPACK band storage, kl rows kept free
    for d in range(-2, 3):
        # entry (p, p + d) of the stacked matrix, p = k*ny + j
        diag = symbol[:, d + 2, :].T.ravel()
        if d >= 0:
            ab[4 - d, d:] = diag[: n - d]
        else:
            ab[4 - d, : n + d] = diag[-d:]
    del symbol, diag  # the temporaries go before the band factor and its copy
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info != 0:
        raise RuntimeError(f"singular x-invariant system: LAPACK dgbtrf info={info}")
    return XInvariantFactor(grid.nx, ny, lu, piv)


def minres(apply_H, solve_P, b, rtol):
    """Solve H x = b by preconditioned MINRES: (x, iterations).

    apply_H(v) is H v for a symmetric, possibly indefinite H, and
    solve_P(r) is P^-1 r for a symmetric positive definite P.  The
    Paige-Saunders recurrence (SIAM J. Numer. Anal. 12 (1975)), as in
    scipy's ``minres``, but every inner product goes through ``grid.dot``,
    so the result has the same bits on any BLAS thread count.  It stops when
    the P^-1-norm of the residual, which the recurrence tracks, is at most
    rtol times that of b.  x is None when MINRES_MAX_ITER iterations do not
    reach rtol, or when the recurrence breaks down on a singular H.
    """
    x = np.zeros_like(b)
    w = w2 = np.zeros_like(b)
    r1 = r2 = b
    y = solve_P(b)
    beta1 = beta = math.sqrt(dot(b, y))
    if beta1 == 0.0:
        return x, 0
    oldb = dbar = epsln = sn = 0.0
    cs, phibar = -1.0, beta1
    for it in range(1, MINRES_MAX_ITER + 1):
        v = y / beta
        y = apply_H(v)
        if it > 1:
            y -= (beta / oldb) * r1
        alfa = dot(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = solve_P(r2)
        oldb, beta = beta, math.sqrt(max(dot(r2, y), 0.0))
        # the previous plane rotation, then the one that annihilates beta
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            return None, it
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar *= sn
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w
        if phibar <= rtol * beta1:
            return x, it
    return None, MINRES_MAX_ITER


def newton(op, pot, x, evaluation, residual, jacobian, rtol):
    """Inexact Newton from the state x and its (E, g) evaluation:
    (x, evaluation, converged, krylov), krylov the MINRES iterations of
    every solve.  residual(x, evaluation), called once per iterate, gives
    (-R, |R|); jacobian(H), at the energy Hessian H of x, gives (apply_J,
    solve_P, lift), lift mapping the solution z of J z = -R to the update.
    Each solve is ``minres`` to min(FORCING_MAX, |R|), which keeps the
    convergence quadratic (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
    Anal. 19 (1982)).  It accepts when |R| <= rtol or, as at the rounding
    floor of R, when max|delta| <= NEWTON_STEP_TOL * max(1, max|x|); a
    start with |R| <= rtol makes no solve.  A MINRES miss, a non-finite
    update, |R| > 1e3 (|R_0| + 1) or NEWTON_MAX_ITER updates end it
    unconverged at the last iterate.
    """
    neg_r, rnorm = residual(x, evaluation)
    guard = 1e3 * (rnorm + 1.0)
    krylov = []
    for _ in range(NEWTON_MAX_ITER):
        if rnorm <= rtol:
            return x, evaluation, True, krylov
        apply_J, solve_P, lift = jacobian(energy_hessian(op.grid, pot, x, op.alpha, op.beta))
        z, its = minres(apply_J, solve_P, neg_r, min(FORCING_MAX, rnorm))
        krylov.append(its)
        delta = None if z is None else lift(z)
        if delta is None or not np.all(np.isfinite(delta)):
            return x, evaluation, False, krylov
        x = x + delta
        evaluation = energy_and_gradient(op.grid, pot, x, op.alpha, op.beta)
        neg_r, rnorm = residual(x, evaluation)
        if not rnorm <= guard:
            return x, evaluation, False, krylov
        if np.max(np.abs(delta)) <= NEWTON_STEP_TOL * max(1.0, np.max(np.abs(x))):
            return x, evaluation, True, krylov
    return x, evaluation, rnorm <= rtol, krylov


class WentzellOperator:
    """Assembled elliptic operator A, its factorization and the wall constants.

    The one carrier of the model's constants: b, c enter the operator (the
    flux law's wall row scaling), and alpha, beta ride along as the
    surface-energy constants.  K_A = k_lin(0, c/b) and the product-space
    weights W = h_weights(b) are built here and nowhere else; steppers,
    solvers, the ledger row and the probes take the operator and read the
    full constant set from it.

    K_A commutes with x-shifts, so its factorization is the FFT-in-x band
    LU of ``factor_x_invariant``, made on first use.  Immutable after
    assembly: it caches only that factorization, and concurrent read-only
    solves against it are permitted (contract -- callers must not mutate
    the operator).  The time steppers' factorizations of their step
    matrices belong to each run, not to the operator.
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

    # -- structure ---------------------------------------------------------

    def a_form(self, u, v):
        """The symmetric bilinear form defining the operator."""
        return dot(u, self.K_A @ v)

    def factorization(self):
        """K_A factorized by ``factor_x_invariant``, made once and reused."""
        if self._lu is None:
            self._lu = factor_x_invariant(self.grid, self.K_A[level_rows(self.grid)])
        return self._lu

    def dump_matrix(self, path):
        """Export the operator (as applied, W^-1 K) in 'row col value' text."""
        mat = sp.diags(1.0 / self.mass_weights) @ self.K_A
        coo = mat.tocoo()
        with open(path, "w") as fh:
            for r, col, val in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {col} {val:.17g}\n")


def apply_A(op, u):
    """A u, an array: bulk rows give -Laplacian, wall rows the flux law."""
    return (op.K_A @ u) / op.mass_weights


def solve_Ainv(op, g):
    """The unique array U with A U = g, via the cached direct factorization."""
    sol = op.factorization().solve(op.mass_weights * g)
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("factorization produced non-finite solution")
    return sol


def x_norm(op, v):
    """Negative-order norm: sqrt(<A^-1 v, v>_H)."""
    w = solve_Ainv(op, v)
    return np.sqrt(max(h_inner(op.grid, w, v, b=op.b), 0.0))


def x_norm_via_form(op, v):
    """Second route for the same norm: sqrt(a(w, w)) with w = A^-1 v."""
    w = solve_Ainv(op, v)
    return np.sqrt(max(op.a_form(w, w), 0.0))


def v_norm(grid, u):
    """Energy-space norm: bulk gradient plus surface gradient and mass."""
    return np.sqrt(max(dot(u, grid.forms.k_lin(1.0, 1.0) @ u), 0.0))
