"""Stationary states: energy minimization, Newton refinement.

A stationary state makes the chemical potential vanish identically, which
is the discrete critical-point condition for the free energy.  The robust
path is minimize-then-refine: L-BFGS descent on E preconditioned by the
band-factorized Hessian with frozen curvature (with a spectral kick off
saddles, since an exactly critical start has zero gradient and plain
descent would sit still), followed by a full Newton iteration on
mu(U) = 0 with the energy Hessian as Jacobian.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .analysis import lowest_eigenpairs, spectrum, weighted_symmetric
from .energy import energy_and_gradient, energy_hessian, residual_norms
from .grid import PairField, _as_values, load_field, save_field
from .operators import factor_x_invariant


# minimize_energy: cap on steps plus saddle kicks, L-BFGS memory, the f'(u)
# frozen in the preconditioner, Armijo constant and smallest step fraction
MAX_STEPS = 12000
LBFGS_MEMORY = 10
PRECOND_S = 2.0
ARMIJO_C1 = 1e-4
ARMIJO_T_MIN = 1e-12
# newton_refine: iteration cap
NEWTON_MAX_ITER = 50
# the gradient norm below which a start counts as inside a Newton basin
BASIN_THRESHOLD = 1e-2


class SolveMethod(Enum):
    MINIMIZE_THEN_NEWTON = "minimize_then_newton"
    NEWTON_ONLY = "newton_only"


@dataclass
class MinimizeResult:
    field: PairField
    converged: bool
    iterations: int
    grad_norm: float
    escapes: int


@dataclass
class EquilibriumSolution:
    psi: PairField
    energy: float
    bulk_res: float
    bdry_res: float
    method: SolveMethod
    newton_iters: int
    converged: bool = True
    residual_history: list = field(default_factory=list)
    kernel_dim: int | None = None


def _most_negative_direction(grid, pot, vals, alpha, beta):
    """Smallest eigenpair of the energy Hessian in the weighted metric."""
    w = grid.h_weights(1.0)
    A_t, rw = weighted_symmetric(energy_hessian(grid, pot, vals, alpha, beta), w)
    lam, vec = lowest_eigenpairs(A_t, 1)
    phi = rw * vec[:, 0]
    phi /= np.sqrt(float(np.sum(w * phi * phi)))
    return float(lam[0]), phi


def minimize_energy(grid, pot, u_init, tol=1e-8, alpha=1.0, beta=1.0):
    """Descend the free energy until the gradient norm drops below tol.

    L-BFGS (Nocedal & Wright, Alg. 7.4) on H0 = P^-1, where P = K_lin +
    PRECOND_S M_bulk is the Hessian with f'(u) frozen, band-factorized once
    per call; the iteration count then does not grow with the mesh.  Armijo
    backtracking accepts only steps that lower E, so E(result) <= E(u_init).
    Returns a MinimizeResult; .converged is False when a line search cannot
    descend or MAX_STEPS steps and kicks are used up first.
    """
    forms = grid.forms
    P = factor_x_invariant(grid, forms.k_lin(alpha, beta) + PRECOND_S * sp.diags(forms.bulk_mass))

    def evaluate(v):
        return energy_and_gradient(grid, pot, v, alpha, beta)

    x = _as_values(u_init).copy()
    e, g = evaluate(x)
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y) of the latest steps
    iterations = escapes = 0
    while iterations + escapes < MAX_STEPS:
        if math.hypot(*residual_norms(grid, g)) <= tol:
            lam0, phi = _most_negative_direction(grid, pot, x, alpha, beta)
            if lam0 >= -1e-10 * (1.0 + abs(lam0)):
                break  # genuine (local) minimum
            kicked = _kick_off_saddle(evaluate, x, e, phi)
            if kicked is None:
                break
            x, (e, g) = kicked
            escapes += 1
            pairs.clear()
            continue
        # two-loop recursion: d = H g, H the L-BFGS inverse Hessian
        q, coeffs = g.copy(), []
        for s, y, rho in reversed(pairs):
            coeffs.append(rho * (s @ q))
            q -= coeffs[-1] * y
        d = P.solve(q)
        for (s, y, rho), a in zip(pairs, reversed(coeffs)):
            d += (a - rho * (y @ d)) * s
        slope, t = float(g @ d), 1.0
        while slope > 0.0 and t > ARMIJO_T_MIN:
            x_new = x - t * d
            e_new, g_new = evaluate(x_new)
            if e_new <= e - ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:
            break  # no descent along -d; report unconverged
        s, y = x_new - x, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, e, g = x_new, e_new, g_new
        iterations += 1
    gn = math.hypot(*residual_norms(grid, g))
    return MinimizeResult(field=PairField(grid, x), converged=bool(gn <= tol),
                          iterations=iterations, grad_norm=gn, escapes=escapes)


def _kick_off_saddle(evaluate, x, e0, phi):
    """Line search along phi from x (energy e0): (state, (E, g)), or None if no gain."""
    best = None
    best_e = e0 - 1e-14 * (1.0 + abs(e0))
    for amp in (0.5, 0.2, 0.05, 0.01, 1e-3):
        for sgn in (1.0, -1.0):
            trial = x + sgn * amp * phi
            evaluation = evaluate(trial)
            if evaluation[0] < best_e:
                best, best_e = (trial, evaluation), evaluation[0]
    return best


def newton_refine(grid, pot, u_init, tol=1e-8, basin_threshold=BASIN_THRESHOLD,
                  alpha=1.0, beta=1.0):
    """Newton iteration on the critical-point system mu(U) = 0.

    Requires the start to be inside a Newton basin (gradient norm below
    basin_threshold).  The Jacobian is the energy Hessian: bulk rows
    -Lap + f'(u), wall rows the discrete trace operator.  The residual
    history is recorded so quadratic convergence can be checked.
    """
    x = _as_values(u_init).copy()
    e, g = energy_and_gradient(grid, pot, x, alpha, beta)
    bulk_res, bdry_res = residual_norms(grid, g)
    res = math.hypot(bulk_res, bdry_res)
    if res > basin_threshold:
        raise ValueError(
            f"newton_refine start residual {res:.3e} above basin threshold "
            f"{basin_threshold:.1e}; minimize first"
        )
    hist = [res]
    iters = 0
    converged = res <= tol
    kernel_dim = None
    while not converged and iters < NEWTON_MAX_ITER:
        K = energy_hessian(grid, pot, x, alpha, beta)
        try:
            delta = spla.splu(K.tocsc()).solve(-g)
        except RuntimeError:
            kernel_dim = _numerical_kernel_dim(grid, pot, x, alpha, beta)
            break
        if not np.all(np.isfinite(delta)):
            kernel_dim = _numerical_kernel_dim(grid, pot, x, alpha, beta)
            break
        x = x + delta
        e, g = energy_and_gradient(grid, pot, x, alpha, beta)
        bulk_res, bdry_res = residual_norms(grid, g)
        res = math.hypot(bulk_res, bdry_res)
        hist.append(res)
        iters += 1
        converged = res <= tol
        if res > 1e3 * (hist[0] + 1.0):
            break  # diverging; caller should descend first
    return EquilibriumSolution(
        psi=PairField(grid, x),
        energy=e,
        bulk_res=bulk_res,
        bdry_res=bdry_res,
        method=SolveMethod.NEWTON_ONLY,
        newton_iters=iters,
        converged=converged,
        residual_history=hist,
        kernel_dim=kernel_dim,
    )


def _numerical_kernel_dim(grid, pot, vals, alpha, beta):
    return spectrum(grid, energy_hessian(grid, pot, vals, alpha, beta), k=6).kernel_dim


def find_equilibrium(grid, pot, u_init, tol=1e-8, alpha=1.0, beta=1.0):
    """Minimize-then-refine pipeline; the robust path from generic data.

    The descent phase always runs: for a start already inside a Newton
    basin it costs one gradient and one spectral check, but it is what
    lets an exactly-critical saddle start (zero gradient, negative
    curvature) escape to a lower state instead of being reported as the
    equilibrium.
    """
    mr = minimize_energy(grid, pot, u_init, tol=max(tol, BASIN_THRESHOLD / 10),
                         alpha=alpha, beta=beta)
    sol = newton_refine(grid, pot, mr.field, tol=tol, alpha=alpha, beta=beta,
                        basin_threshold=max(BASIN_THRESHOLD, 10 * tol))
    if mr.iterations > 0 or mr.escapes > 0:
        sol.method = SolveMethod.MINIMIZE_THEN_NEWTON
    return sol


def save_equilibrium(sol, prefix):
    """Write <prefix>.csv (field) and <prefix>.meta (solution metadata)."""
    save_field(sol.psi, f"{prefix}.csv")
    with open(f"{prefix}.meta", "w") as fh:
        fh.write(f"energy={sol.energy:.17g}\n")
        fh.write(f"bulk_res={sol.bulk_res:.17g}\n")
        fh.write(f"bdry_res={sol.bdry_res:.17g}\n")
        fh.write(f"method={sol.method.value}\n")
        fh.write(f"newton_iters={sol.newton_iters}\n")
        fh.write(f"converged={int(sol.converged)}\n")
        if sol.kernel_dim is not None:
            fh.write(f"kernel_dim={sol.kernel_dim}\n")


def load_equilibrium(prefix, grid=None):
    """Read a saved equilibrium; returns (PairField, metadata dict)."""
    psi = load_field(f"{prefix}.csv", grid=grid)
    meta = {}
    with open(f"{prefix}.meta") as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            meta[key] = val
    return psi, meta
