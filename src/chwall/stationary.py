"""Stationary states: energy minimization, Newton refinement, classification.

A stationary state makes the chemical potential vanish identically, which
is the discrete critical-point condition for the free energy.  The robust
path, ``find_equilibrium``, is minimize-refine-classify: L-BFGS descent on
E preconditioned by the band-factorized Hessian with frozen curvature, a
full Newton iteration on mu(U) = 0 with the energy Hessian as Jacobian,
and the classification ``analysis.classify`` of the Newton limit.  That
classification alone tells a minimum from a saddle.  Only at a saddle does
the loop kick along the lowest eigenvector that the classification already
computed and descend again, since an exactly critical start has zero
gradient and plain descent would sit still.  Newton solves each step by
MINRES preconditioned with the same band factor, made once per solve, and
makes no sparse factorization.  The classification of an x-invariant psi,
the wall profiles that the strip's solves end at, makes none either: it is
read one Fourier mode at a time.  Only a psi that varies along x is
classified through a sparse LDL^T inertia count, one at a clear minimum.
Every solver takes the ``operators.WentzellOperator`` of the problem and
reads the surface constants alpha, beta from it.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import SpectralReport, classify
from .energy import energy_and_gradient, residual_norms
from .grid import dot, load_field, save_field
from .operators import diag_rows, factor_x_invariant, level_rows, newton


# find_equilibrium: cap on L-BFGS steps plus saddle kicks; minimize_energy:
# L-BFGS memory, the f'(u) frozen in the preconditioner, Armijo constant and
# smallest step fraction
MAX_STEPS = 12000
LBFGS_MEMORY = 10
PRECOND_S = 2.0
ARMIJO_C1 = 1e-4
ARMIJO_T_MIN = 1e-12
# find_equilibrium: a stationary point is a saddle when the weighted Hessian
# has an eigenvalue below -SADDLE_TOL
SADDLE_TOL = 1e-10
# the gradient norm below which a start counts as inside a Newton basin
BASIN_THRESHOLD = 1e-2


class SolveMethod(Enum):
    MINIMIZE_THEN_NEWTON = "minimize_then_newton"
    NEWTON_ONLY = "newton_only"


@dataclass
class MinimizeResult:
    field: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    energy: float
    gradient: np.ndarray  # the energy gradient at .field


@dataclass
class EquilibriumSolution:
    psi: np.ndarray
    energy: float
    bulk_res: float
    bdry_res: float
    method: SolveMethod
    newton_iters: int
    converged: bool = True
    residual_history: list = field(default_factory=list)
    krylov_iters: list = field(default_factory=list)  # MINRES iterations per Newton step
    # find_equilibrium: the classification of psi, its kind, and the saddle kicks made
    report: SpectralReport | None = None
    kind: str = ""
    kicks: int = 0


def _preconditioner(op):
    """Band factor of P = K_lin + PRECOND_S M_bulk, the energy Hessian with
    f'(u) frozen at PRECOND_S: symmetric positive definite, and x-invariant."""
    grid = op.grid
    rows = level_rows(grid)
    return factor_x_invariant(grid, grid.forms.k_lin(op.alpha, op.beta)[rows]
                              + PRECOND_S * diag_rows(grid.forms.bulk_mass, rows))


def minimize_energy(op, pot, u_init, tol=1e-8, *, precond=None, evaluation=None,
                    max_steps=None):
    """Descend the free energy until the gradient norm drops below tol.

    L-BFGS (Nocedal & Wright, Alg. 7.4) on H0 = P^-1, where P = K_lin +
    PRECOND_S M_bulk is the Hessian with f'(u) frozen, band-factorized by
    ``_preconditioner``; the iteration count then does not grow with the
    mesh.  Armijo backtracking accepts only steps that lower E, so
    E(result) <= E(u_init).  A start below tol, a saddle included, is
    returned as it is: ``find_equilibrium`` tells a saddle from a minimum.
    precond (that band factor) and evaluation (the (E, g) of u_init) are
    made here unless the caller holds them; max_steps caps the steps, at
    MAX_STEPS by default.  Returns a MinimizeResult whose .field is the last
    iterate, an array, with its (E, g) as .energy and .gradient; .converged
    is False when a line search cannot descend or the steps run out first.
    """
    grid, alpha, beta = op.grid, op.alpha, op.beta
    P = _preconditioner(op) if precond is None else precond
    max_steps = MAX_STEPS if max_steps is None else max_steps

    def evaluate(v):
        return energy_and_gradient(grid, pot, v, alpha, beta)

    x = np.array(u_init, dtype=float)
    e, g = evaluate(x) if evaluation is None else evaluation
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y) of the latest steps
    iterations = 0
    while iterations < max_steps and math.hypot(*residual_norms(grid, g)) > tol:
        # two-loop recursion: d = H g, H the L-BFGS inverse Hessian
        q, coeffs = g.copy(), []
        for s, y, rho in reversed(pairs):
            coeffs.append(rho * dot(s, q))
            q -= coeffs[-1] * y
        d = P.solve(q)
        for (s, y, rho), a in zip(pairs, reversed(coeffs)):
            d += (a - rho * dot(y, d)) * s
        slope, t = dot(g, d), 1.0
        while slope > 0.0 and t > ARMIJO_T_MIN:
            x_new = x - t * d
            e_new, g_new = evaluate(x_new)
            if e_new <= e - ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:
            break  # no descent along -d; report unconverged
        s, y = x_new - x, g_new - g
        sy = dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        x, e, g = x_new, e_new, g_new
        iterations += 1
    gn = math.hypot(*residual_norms(grid, g))
    return MinimizeResult(field=x, converged=bool(gn <= tol), iterations=iterations,
                          grad_norm=gn, energy=e, gradient=g)


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


def newton_refine(op, pot, u_init, tol=1e-8, basin_threshold=BASIN_THRESHOLD, *,
                  precond=None, evaluation=None):
    """Newton iteration on the critical-point system mu(U) = 0.

    Requires the start to be inside a Newton basin (gradient norm below
    basin_threshold).  The Jacobian is the energy Hessian H: bulk rows
    -Lap + f'(u), wall rows the discrete trace operator.  ``operators.newton``
    solves each step H delta = -g by MINRES preconditioned with the band
    factor of ``_preconditioner``, which precond holds when the caller made
    it and is otherwise made once per call; MINRES takes the indefinite H
    of a saddle as well.  It stops when the residual is at most tol, which
    alone is .converged, or when an update is small (at the residual's
    rounding floor).  A MINRES miss (a singular or near-singular H), a
    non-finite update or a diverging residual stops it unconverged at the
    last iterate; the caller's ``analysis.classify`` counts the kernel.
    The residual history and the MINRES iterations of each update are
    recorded.  evaluation is the (E, g) of u_init when the caller holds it.
    Returns an EquilibriumSolution whose .psi is the last iterate, an array.
    """
    grid = op.grid
    x = np.array(u_init, dtype=float)
    if evaluation is None:
        evaluation = energy_and_gradient(grid, pot, x, op.alpha, op.beta)
    res = math.hypot(*residual_norms(grid, evaluation[1]))
    if res > basin_threshold:
        raise ValueError(
            f"newton_refine start residual {res:.3e} above basin threshold "
            f"{basin_threshold:.1e}; minimize first"
        )
    P = precond if precond is not None or res <= tol else _preconditioner(op)
    hist = []

    def residual(v, ev):
        hist.append(math.hypot(*residual_norms(grid, ev[1])))
        return -ev[1], hist[-1]

    x, (e, g), _, krylov = newton(op, pot, x, evaluation, residual,
                                  lambda H: ((lambda v: H @ v), P.solve, lambda z: z), tol)
    bulk_res, bdry_res = residual_norms(grid, g)
    iters = len(hist) - 1
    return EquilibriumSolution(
        psi=x,
        energy=e,
        bulk_res=bulk_res,
        bdry_res=bdry_res,
        method=SolveMethod.NEWTON_ONLY,
        newton_iters=iters,
        converged=hist[-1] <= tol,
        residual_history=hist,
        krylov_iters=krylov[:iters],
    )


def find_equilibrium(op, pot, u_init, tol=1e-8, kernel_tol=1e-8):
    """Minimize, refine, classify, and kick off a saddle: the robust path
    from generic data.

    Each pass descends with ``minimize_energy``, refines with
    ``newton_refine`` and classifies the Newton limit psi with
    ``analysis.classify`` at kernel_tol.  That classification alone tells a
    minimum from a saddle: only when its lowest eigenvalue lies below
    -SADDLE_TOL does a line search along its lowest eigenvector
    (``SpectralReport.lowest_vector``) kick psi to a lower state, from which
    the next pass descends with the kick's (E, g), so an exactly critical
    saddle start (zero gradient, negative curvature) escapes instead of
    being reported as the equilibrium.  A clear minimum never kicks.  The
    classification of an x-invariant psi is read mode by mode and makes no
    sparse factorization; that of an x-dependent clear minimum makes the
    one LDL^T factorization of the solve.  L-BFGS
    steps and kicks share the MAX_STEPS budget; a kick that finds no lower
    state ends the loop at the saddle.  The band preconditioner is made once
    and serves every descent and Newton solve.  Returns the last pass's
    EquilibriumSolution, with its classification as .report and .kind and
    the kicks made as .kicks.  A classification that raises propagates.
    """
    grid, alpha, beta = op.grid, op.alpha, op.beta
    P = _preconditioner(op)
    x, evaluation = u_init, None
    used = kicks = 0  # L-BFGS steps plus kicks, and kicks alone
    while True:
        mr = minimize_energy(op, pot, x, tol=max(tol, BASIN_THRESHOLD / 10), precond=P,
                             evaluation=evaluation, max_steps=MAX_STEPS - used)
        used += mr.iterations
        sol = newton_refine(op, pot, mr.field, tol=tol,
                            basin_threshold=max(BASIN_THRESHOLD, 10 * tol),
                            precond=P, evaluation=(mr.energy, mr.gradient))
        sol.report, sol.kind = classify(op, pot, sol.psi, kernel_tol)
        phi = sol.report.lowest_vector
        if used >= MAX_STEPS or phi is None or not sol.report.eigenvalues[0] < -SADDLE_TOL:
            break
        kicked = _kick_off_saddle(lambda v: energy_and_gradient(grid, pot, v, alpha, beta),
                                  sol.psi, sol.energy, phi)
        if kicked is None:
            break
        x, evaluation = kicked
        used += 1
        kicks += 1
    sol.kicks = kicks
    if used > 0:
        sol.method = SolveMethod.MINIMIZE_THEN_NEWTON
    return sol


def save_equilibrium(grid, sol, prefix):
    """Write <prefix>.csv (sol.psi on grid) and <prefix>.meta (solution metadata)."""
    save_field(grid, sol.psi, f"{prefix}.csv")
    with open(f"{prefix}.meta", "w") as fh:
        fh.write(f"energy={sol.energy:.17g}\n")
        fh.write(f"bulk_res={sol.bulk_res:.17g}\n")
        fh.write(f"bdry_res={sol.bdry_res:.17g}\n")
        fh.write(f"method={sol.method.value}\n")
        fh.write(f"newton_iters={sol.newton_iters}\n")
        fh.write(f"krylov_iters={','.join(map(str, sol.krylov_iters))}\n")
        fh.write(f"converged={int(sol.converged)}\n")


def load_equilibrium(prefix, grid=None):
    """Read a saved equilibrium: (``load_field``'s PairField, metadata dict)."""
    psi = load_field(f"{prefix}.csv", grid=grid)
    meta = {}
    with open(f"{prefix}.meta") as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            meta[key] = val
    return psi, meta
