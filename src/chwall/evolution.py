"""Time stepping for the permeable-wall flow U_t = -A mu(U).

Two schemes: a stabilized semi-implicit step (one reusable linear solve per
step; the nonlinearity is lagged with a convex-stabilization shift S) and a
fully implicit backward-Euler step solved by Newton.  Both honor the energy
guard: a step that raises the discrete energy beyond rounding is redone as
two half steps, recursively, down to dt_min; the Lyapunov structure is never
silently violated.

The stabilized step is

    (W + dt K_A W^-1 (K_lin + S M_bulk)) u_new
        = W u_old + dt K_A W^-1 (S M_bulk u_old - M_bulk f(u_old))

with W the product-space mass, K_A the wall-coupled stiffness, K_lin the
linear part of the energy Hessian and M_bulk the lumped bulk mass.  It is
solved in its delta form

    (W + dt K_A W^-1 (K_lin + S M_bulk)) (u_new - u_old) = -dt K_A W^-1 g_old,

where g_old = K_lin u_old + M_bulk f(u_old) is the energy gradient that the
evaluation of u_old (made for the energy guard) already holds, so a step
evaluates f once; when u_old has a ledger row, the row's dissipation has
already formed K_A W^-1 g_old = K_A mu, and the step reuses it.  Any shift
S >= max |f'| over the states met keeps the scheme energy-stable, so the
automatic shift is that sampled bound rounded up onto the fixed ladder
2^(k/4): it changes only when the state range pushes the bound past a
rung.  The step matrix commutes with x-shifts; its ny level rows are
assembled and factorized by ``operators.factor_x_invariant`` once per
(dt, S) and kept in a cache that belongs to the run (one ``evolve``
call), never to the operator; a run therefore factorizes again only when
the energy guard halves dt or S climbs a rung.  Newton's Jacobian
J = W + dt K_A W^-1 H has the full energy Hessian H in place of
K_lin + S M_bulk and varies in x through f'(u).  With delta = W^-1 K_A z,
J delta = -R is the symmetric (K_A + dt K_A W^-1 H W^-1 K_A) z = -R, which
``operators.newton`` solves by MINRES preconditioned by P = M W^-1 K_A, M
the step matrix of (dt, S): P is symmetric positive definite for any
S >= 0, and P^-1 is one band solve with M's cached factor and one with
K_A's.  Under Newton the shift S sets only the preconditioner.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .energy import energy_and_gradient, state_report
from .operators import diag_rows, factor_x_invariant, level_rows, newton, v_norm, x_norm


class GuardAbort(RuntimeError):
    """Energy guard exhausted: dt fell below dt_min without a decaying step."""


class _RetryHalved(Exception):
    """Internal: the step wants to be retried at half the time step."""


class EvolutionAbort(RuntimeError):
    """Carries the partial trajectory of an aborted run.

    The message is the abort reason; the record ends with the last valid
    state (``record.final_state()``).
    """

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


@dataclass
class TrajectoryRecord:
    """Scalar time series plus sparse field checkpoints of one run.

    snapshots holds (t, u) pairs, u the state as an array of shape
    (n_nodes,); ``final_state()`` is the last u.

    ledger_defect[k] is the mass-flux ledger residual over the interval
    (times[k], times[k+1]): d(mass_total)/dt plus the wall outflow
    (c/b) * integral of mu over the wall, evaluated at the interval start.
    """

    times: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    ut_xnorm: list = field(default_factory=list)
    ledger_defect: list = field(default_factory=list)
    x_dist_to_ref: list | None = None
    v_dist_to_ref: list | None = None
    snapshots: list = field(default_factory=list)
    factorizations: int = 0  # band factorizations of the step matrix made by the run
    newton_iters: int = 0  # Jacobian solves of the run's Newton steps
    krylov_iters: int = 0  # MINRES iterations of those solves
    shifts: list = field(default_factory=list)  # distinct S rungs, in order

    def final_state(self):
        return self.snapshots[-1][1] if self.snapshots else None


# the energy guard accepts a step when E_new <= E_old + ENERGY_RISE_TOL * (1 + |E_old|)
ENERGY_RISE_TOL = 1e-12
# the implicit step accepts when its residual |R|_{W^-1} <= STEP_RESIDUAL_TOL
STEP_RESIDUAL_TOL = 1e-10
# the automatic shift is rounded up onto the rungs 2^(k / RUNGS_PER_OCTAVE)
RUNGS_PER_OCTAVE = 4
# sample nodes on [0, 1] for the sampled max |f'|
_SAMPLE_NODES = np.linspace(0.0, 1.0, 257)


def _rung_above(bound):
    """The lowest rung 2^(k/4) that is >= bound; 0 and non-finite pass through."""
    if not 0.0 < bound < np.inf:
        return bound
    n = RUNGS_PER_OCTAVE
    k = math.ceil(n * math.log2(bound))
    # log2 rounds: step to the lowest rung that is not below the bound
    while 2.0 ** (k / n) < bound:
        k += 1
    while 2.0 ** ((k - 1) / n) >= bound:
        k -= 1
    return 2.0 ** (k / n)


def auto_stabilization(pot, lo, hi):
    """Sampled max |f'| over [lo, hi], rounded up onto the ladder 2^(k/4).

    The sampled bound is the sufficient shift for decay; the returned rung is
    at least that bound and at most 2^(1/4) times it (0 stays 0), so the
    shift of a run changes only when its state range crosses a rung.

    The last (pot, lo, hi) and its rung are remembered: a run calls this
    once per step with its running state range, which widens only now and
    then, so the sampling and the rung search run only when it does.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("state range is not finite")
    return _sampled_rung(pot, lo, hi)


@functools.lru_cache(maxsize=1)
def _sampled_rung(pot, lo, hi):
    lo, hi = lo - 1e-12, hi + 1e-12
    s = lo + (hi - lo) * _SAMPLE_NODES
    return _rung_above(float(np.max(np.abs(pot.f_prime(s)))))


class _StepFactors(dict):
    """One run's ``operators.factor_x_invariant`` factors of the step matrix,
    keyed by (dt, S), which both schemes solve with; ``made`` counts them,
    and ``newton_iters`` and ``krylov_iters`` count the Newton solves'
    work."""

    made = newton_iters = krylov_iters = 0


def _implicit_matrix(op, dt, B, rows, cols):
    """Rows ``rows`` of W + dt K_A W^-1 B, the linear system of one implicit step.

    B holds only the rows ``cols`` of the whole matrix: those that the rows
    ``rows`` of K_A reach, ``np.unique(K_A[rows].indices)``, the only rows
    of B that enter them.
    """
    W = op.mass_weights
    K = op.K_A[rows][:, cols]
    return diag_rows(W, rows) + dt * (K @ sp.diags(1.0 / W[cols]) @ B)


def _semi_system(op, dt, S, factors):
    lu = factors.get((dt, S))
    if lu is None:
        # S only climbs the ladder during a run: lower rungs are not used again
        for key in [key for key in factors if key[1] != S]:
            del factors[key]
        forms, rows = op.grid.forms, level_rows(op.grid)
        # B = K_lin + S M_bulk, assembled in the rows the level rows reach
        cols = np.unique(op.K_A[rows].indices)
        B = forms.k_lin(op.alpha, op.beta)[cols] + S * diag_rows(forms.bulk_mass, cols)
        factors.made += 1
        level = _implicit_matrix(op, dt, B, rows, cols)
        lu = factors[(dt, S)] = factor_x_invariant(op.grid, level)
    return lu


def _semi_step_once(op, u_vals, g_old, kmu_old, dt, S, factors):
    """The delta form: u_new = u_old - dt M^-1 K_A W^-1 g_old.

    kmu_old is K_A W^-1 g_old when the row of u_old has formed it, else None.
    """
    lu = _semi_system(op, dt, S, factors)
    if kmu_old is None:
        kmu_old = op.K_A @ (g_old / op.mass_weights)
    return u_vals - lu.solve(dt * kmu_old)


def _newton_step_once(op, pot, u_old, ev_old, dt, S, factors):
    """The implicit step's state and its evaluation (E, g), from the
    evaluation ev_old of u_old: ``operators.newton`` on R = W (u - u_old)
    + dt K_A W^-1 g(u) to |R|_{W^-1} <= STEP_RESIDUAL_TOL or a small update,
    counting every Jacobian solve.  Raises _RetryHalved when it fails."""
    W, K_A = op.mass_weights, op.K_A

    def residual(u, evaluation):
        R = W * (u - u_old) + dt * (K_A @ (evaluation[1] / W))
        return -R, math.sqrt(float(np.sum(R * R / W)))

    def jacobian(H):
        M, K = _semi_system(op, dt, S, factors), op.factorization()

        def apply_J(z):
            kz = K_A @ z
            return kz + dt * (K_A @ ((H @ (kz / W)) / W))

        return apply_J, lambda r: K.solve(W * M.solve(r)), lambda z: (K_A @ z) / W

    u, evaluation, converged, krylov = newton(op, pot, u_old, ev_old, residual, jacobian,
                                              STEP_RESIDUAL_TOL)
    factors.newton_iters += len(krylov)
    factors.krylov_iters += sum(krylov)
    if not converged:
        raise _RetryHalved
    return u, evaluation


def _advance(op, pot, u_vals, dt, cfg, S, ev_old, kmu_old, factors):
    """Advance exactly dt, honoring the energy guard by recursive halving.

    ev_old is the evaluation (E, g) of u_vals and kmu_old its K_A mu, or
    None when u_vals has no row that formed it.  Returns the new state with
    its evaluation, shared by guard, row and the next step.
    """
    e_old = ev_old[0]
    try:
        if cfg.scheme == "semi_implicit":
            u_new = _semi_step_once(op, u_vals, ev_old[1], kmu_old, dt, S, factors)
            evaluation = energy_and_gradient(op.grid, pot, u_new, op.alpha, op.beta)
        elif cfg.scheme == "newton":
            u_new, evaluation = _newton_step_once(op, pot, u_vals, ev_old, dt, S, factors)
        else:
            raise ValueError(f"unknown scheme {cfg.scheme!r}")
    except _RetryHalved:
        evaluation = None
    if evaluation is not None and evaluation[0] <= e_old + ENERGY_RISE_TOL * (1.0 + abs(e_old)):
        return u_new, evaluation
    # reject: redo as two guarded half steps
    if dt / 2.0 < cfg.dt_min:
        raise GuardAbort(
            f"energy guard exhausted: retry step {dt / 2.0:.3e} fell below "
            f"dt_min={cfg.dt_min:.3e}"
        )
    u_half, ev_half = _advance(op, pot, u_vals, dt / 2.0, cfg, S, ev_old, kmu_old, factors)
    return _advance(op, pot, u_half, dt / 2.0, cfg, S, ev_half, None, factors)


def evolve(op, pot, u0, cfg, ref=None):
    """March to cfg.t_end recording the diagnostics ledger each stride.

    op is the ``operators.WentzellOperator`` of the problem: its grid and
    its constants b, c, alpha, beta are the run's.  cfg is a
    ``config.RunConfig``; the run reads its stepper fields (scheme, dt,
    t_end, stabilization_S, dt_min) and its strides (series_stride,
    snapshot_stride).  One step is the run with t_end = dt:
    ``evolve(op, pot, u, replace(cfg, t_end=cfg.dt)).final_state()``.
    Each row also records the flow speed |u_t|_X, taken from the exact
    identity u_t = -A mu as sqrt(a(mu, mu)), which is the row's dissipation.
    u0 is copied.  When a reference equilibrium ref (an array, as u0) is
    supplied, the distances |U - psi| in the weak and energy norms are
    recorded too.
    The energy guard is always on: a step that raises the discrete energy
    beyond rounding, or whose Newton solve fails, is redone as two half
    steps.  The run aborts only when a half step would fall below dt_min;
    the partial record, ending with the last valid state, is then attached
    to the raised EvolutionAbort.
    """
    grid = op.grid
    t_end = cfg.t_end
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    rec = TrajectoryRecord()
    if ref is not None:
        rec.x_dist_to_ref = []
        rec.v_dist_to_ref = []
    u = np.array(u0, dtype=float)
    t = 0.0
    lo, hi = float(u.min()), float(u.max())

    def record_row(t_now, u_vals, evaluation):
        """Append the row of a state; returns its K_A mu for the next step."""
        report, kmu = state_report(op, u_vals, evaluation)
        rec.times.append(t_now)
        rec.reports.append(report)
        rec.ut_xnorm.append(math.sqrt(max(report.dissipation, 0.0)))
        if ref is not None:
            diff = u_vals - ref
            rec.x_dist_to_ref.append(x_norm(op, diff))
            rec.v_dist_to_ref.append(v_norm(grid, diff))
        return kmu

    evaluation = energy_and_gradient(grid, pot, u, op.alpha, op.beta)
    kmu = record_row(0.0, u, evaluation)
    if cfg.snapshot_stride:
        rec.snapshots.append((0.0, u.copy()))

    step_idx = 0
    eps_t = 1e-6 * cfg.dt  # sub-resolution remainders are time-grid residue
    factors = _StepFactors()
    try:
        while t < t_end - eps_t:
            # a remainder that differs from dt only by the rounding of the
            # accumulated t is a full step (and reuses its factorization)
            remainder = t_end - t
            dt = cfg.dt if remainder > cfg.dt - eps_t else remainder
            lo = min(lo, float(u.min()))
            hi = max(hi, float(u.max()))
            S = cfg.stabilization_S
            if S is None:
                S = auto_stabilization(pot, lo, hi)
            if rec.shifts[-1:] != [S]:
                rec.shifts.append(S)
            u, evaluation = _advance(op, pot, u, dt, cfg, S, evaluation, kmu, factors)
            kmu = None
            t += dt
            step_idx += 1
            if step_idx % cfg.series_stride == 0 or t >= t_end - eps_t:
                prev_report = rec.reports[-1]
                prev_t = rec.times[-1]
                kmu = record_row(t, u, evaluation)
                new_report = rec.reports[-1]
                dmass = (new_report.mass_total - prev_report.mass_total) / (t - prev_t)
                outflow = -(op.c / op.b) * prev_report.flux
                rec.ledger_defect.append(dmass + outflow)
            if cfg.snapshot_stride and step_idx % cfg.snapshot_stride == 0:
                rec.snapshots.append((t, u.copy()))
    except GuardAbort as exc:
        rec.snapshots.append((t, u.copy()))
        raise EvolutionAbort(str(exc), rec)
    finally:
        rec.factorizations = factors.made
        rec.newton_iters, rec.krylov_iters = factors.newton_iters, factors.krylov_iters
    if not rec.snapshots or rec.snapshots[-1][0] < t - 1e-15:
        rec.snapshots.append((t, u.copy()))
    return rec
