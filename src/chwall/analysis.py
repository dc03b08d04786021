"""Spectra of the linearization, and the energy-gap exponent probe.

The linearization at a stationary state psi is the energy Hessian of
``energy.energy_hessian``: it acts as -Lap(h) + f'(psi) h on bulk rows while
the wall rows impose the discrete trace condition
-Lap_par(h) + normal_flux(h) + h.  Like the elliptic operator it is a
symmetric matrix paired with the diagonal product-space weights W, so
weighted self-adjointness holds to rounding and spectra are computed from
the symmetric pencil (Hessian, W).

``classify`` reads that spectrum in one of two ways.  When f'(psi) is
constant along each level up to a variation delta below the counts'
tolerance, as at the x-invariant wall profiles that the strip's solves end
at, the Hessian is its x-invariant part plus a perturbation of norm delta:
``ModeSpectrum`` splits that part into one tridiagonal problem per x-mode,
Weyl's inequality carries its counts over to the Hessian, and Rayleigh-
Ritz on the mode fields gives the Hessian's own eigenpairs, corrected by
one ``operators.factor_x_invariant`` solve each, with no sparse
factorization.  Otherwise, or when an eigenvalue lies within the gate
around the tolerance, ``spectrum`` counts by the Sylvester inertia of a
sparse LDL^T and computes eigenpairs by shift-invert Lanczos.  Both paths
turn their window into the report by one rule, ``_window_report``.

The probe fits the exponent theta in  residual >= |E(u) - E(psi)|^(1-theta)
from trajectory samples by regressing log(residual) on log(gap); near a
nondegenerate minimum the slope is 1/2, i.e. theta = 1/2.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh_tridiagonal

from .energy import energy_and_gradient, energy_hessian, energy_value, residual_norms
from .grid import dot
from .operators import diag_rows, factor_x_invariant, level_rows, level_symbols, v_norm


# ls_probe: the fewest samples it fits, and the energy gap (relative to
# 1 + |E(psi)|) at or below which a sample is rounding, not signal
MIN_SAMPLES = 5
GAP_FLOOR_REL = 1e-13
# rate_fit: the relative growth of the distance that breaks monotonicity
MONOTONE_TOL = 1e-6
# lowest_eigenpairs: the shift's distance below the disc floor, relative to
# the disc spread top - floor
SHIFT_MARGIN = 1e-6
# classify: the distance from +-tol, relative to max|lambda|, within which a
# mode eigenvalue counts as at the gate even for an x-invariant Hessian
GATE_ROUNDING = 1e-12


@dataclass
class SpectralReport:
    """Smallest part of the spectrum in the weighted inner product.

    eigenvalues (ascending) is the union of the k smallest-algebraic and
    the k smallest-magnitude eigenvalues.  n_negative and kernel_dim count
    the full spectrum at every size: eigenvalues below -tol, and those
    within tol of zero, where tol = kernel_tol * max(lambda_max,
    -lambda_min) is relative to max|lambda|.  kernel_basis rows are
    W-orthonormal fields spanning the numerical kernel.  lowest_vector is
    the W-normalized eigenvector of the lowest eigenvalue.  Both are read
    from the window's vectors (Lanczos, or the corrected Ritz vectors of
    the mode path) and orthonormalized with ``grid.dot`` inner products;
    lowest_vector is None at a clear minimum, which computes no vectors.
    """

    eigenvalues: np.ndarray
    kernel_dim: int
    kernel_basis: np.ndarray
    lowest_vector: np.ndarray | None
    n_negative: int
    kernel_tol: float


def weighted_symmetric(K, w):
    """(W^-1/2 K W^-1/2, W^-1/2): the H-symmetric form of the pencil (K, W)."""
    rw = 1.0 / np.sqrt(w)
    return (sp.diags(rw) @ K @ sp.diags(rw)).tocsr(), rw


def _start_vector(n):
    """Fixed generic Lanczos start vector, so reruns are bit-identical.

    Not ones: at an x-invariant state ones is orthogonal to every mode
    with x-dependence (both copies of each double +-k Fourier eigenvalue,
    the checkerboard modes at the top), which Lanczos then reaches only
    through rounding, if at all.
    """
    return np.random.default_rng(0).standard_normal(n)


def disc_bounds(At, rw):
    """Gershgorin bounds (floor, top) on the spectrum of At = W^-1/2 H W^-1/2.

    rw = W^-1/2 as returned by ``weighted_symmetric``.  The discs are those
    of the similar matrix W^-1 H = R At R^-1, R = diag(rw), which has At's
    eigenvalues: row i has centre H_ii / w_i and radius
    sum_{j != i} |H_ij| / w_i, i.e. rw_i sum_{j != i} |At_ij| / rw_j.  The
    bound holds for any symmetric H and positive W.  Unlike At's own discs,
    these do not grow where wall and bulk weights differ by 1/hy: for the
    energy Hessian, whose off-diagonals are <= 0 and whose K_lin rows sum to
    zero off the wall term, the floor is min(min over bulk nodes of f'(psi),
    beta); for K_A it is 0.
    """
    d = At.diagonal()
    radius = rw * (abs(At) @ (1.0 / rw)) - np.abs(d)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _shifted_ldl(At, s):
    """At - s I factorized as LDL^T: SuperLU in symmetric mode, no pivoting.

    P (At - s I) P^T = L U with U = D L^T, P the minimum-degree ordering of
    At + At^T.  A factorization that left the diagonal (perm_r != perm_c)
    has no such reading and raises RuntimeError.
    """
    lu = spla.splu((At - s * sp.identity(At.shape[0])).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError(f"LDL^T of At - {s:.3e} I: the factorization pivoted")
    return lu


def lowest_eigenpairs(At, rw, k, vectors=True, shifted=None):
    """The k lowest eigenpairs of At = W^-1/2 H W^-1/2, ascending.

    Shift-invert Lanczos (ARPACK) about a shift sigma below the spectrum:
    At - sigma I is positive definite and the lowest eigenvalues are the
    largest of its inverse.  The closer sigma sits to them, the faster
    Lanczos converges.  shifted = (sigma, factor) gives the shift and an
    LDL^T factor of At - sigma I from ``_shifted_ldl`` that the caller
    already holds and knows to be positive definite; by default sigma lies
    SHIFT_MARGIN of the disc spread below the floor of
    ``disc_bounds(At, rw)`` and is factorized by ``_shifted_ldl``, which a
    positive definite matrix needs no pivoting for.  With vectors=False
    ARPACK skips its Ritz-vector pass and the vectors are None; the
    eigenvalues are the same.
    """
    if shifted is None:
        floor, top = disc_bounds(At, rw)
        sigma = floor - SHIFT_MARGIN * (top - floor)
        lu = _shifted_ldl(At, sigma)
    else:
        sigma, lu = shifted
    OPinv = spla.LinearOperator(At.shape, matvec=lu.solve, dtype=float)
    result = spla.eigsh(At, k=k, sigma=sigma, which="LM", OPinv=OPinv,
                        v0=_start_vector(At.shape[0]), return_eigenvectors=vectors)
    if not vectors:
        return np.sort(result), None
    lam, vec = result
    order = np.argsort(lam, kind="stable")
    return lam[order], vec[:, order]


def count_below(At, s):
    """(number of eigenvalues of the sparse symmetric At below s, the factor).

    Sylvester's law of inertia: the signs of the pivots D of the LDL^T
    factorization of At - s I by ``_shifted_ldl``, which is returned with
    the count.  When the count is 0, At - s I is positive definite and the
    factor can serve as the shift-invert operator of ``lowest_eigenpairs``.
    """
    lu = _shifted_ldl(At, s)
    return int(np.count_nonzero(lu.U.diagonal() < 0.0)), lu


def _reported(lam, k):
    """Union, by index, of the k smallest-algebraic and k smallest-magnitude."""
    keep = np.union1d(np.arange(k), np.argsort(np.abs(lam), kind="stable")[:k])
    return np.sort(lam[keep])


def _w_orthonormal(fields, w):
    """Gram-Schmidt in the W inner product, twice over."""
    out = []
    for v in fields:
        for _ in range(2):
            for q in out:
                v = v - dot(w * q, v) * q
        out.append(v / math.sqrt(dot(w * v, v)))
    return np.array(out).reshape(-1, w.size)


def _window_report(lam, field, w, k, counts, window_negative, tol, kernel_tol, counted_by):
    """The SpectralReport of a window of eigenvalues lam, ascending.

    counts = (n_negative, kernel_dim) of the whole spectrum at tol.  A
    window without window_negative eigenvalues below -tol and kernel_dim
    within tol raises RuntimeError naming counted_by, the counts' source.
    field(i) is the field of lam[i]; field is None at a clear minimum,
    whose report holds no vectors.  The lowest vector and the kernel basis
    are W-orthonormalized by ``_w_orthonormal``, through ``grid.dot``.
    """
    n_negative, kernel_dim = counts
    ker = np.flatnonzero(np.abs(lam) <= tol)
    found = (int(np.count_nonzero(lam < -tol)), ker.size)
    if found != (window_negative, kernel_dim):
        raise RuntimeError(f"eigenvalue window ({found[0]} negative, {found[1]} kernel) "
                           f"disagrees with the {counted_by} ({window_negative} negative, "
                           f"{kernel_dim} kernel)")
    basis, lowest = np.empty((0, w.size)), None
    if field is not None:
        fields = {i: field(i) for i in {0, *ker}}
        lowest = _w_orthonormal([fields[0]], w)[0]
        basis = _w_orthonormal([fields[i] for i in ker], w)
    return SpectralReport(
        eigenvalues=_reported(lam, k),
        kernel_dim=kernel_dim,
        kernel_basis=basis,
        lowest_vector=lowest,
        n_negative=n_negative,
        kernel_tol=kernel_tol,
    )


def _top_pair(At):
    """The largest eigenpair of At: plain Lanczos, no shift."""
    return spla.eigsh(At, k=1, which="LA", v0=_start_vector(At.shape[0]))


def spectrum(grid, H, k=6, kernel_tol=1e-8):
    """Lowest part of the spectrum of the pencil (H, W), at any size.

    H is the energy Hessian (``energy.energy_hessian``) and W the metric
    ``grid.h_weights(1.0)``.  n_negative and kernel_dim are counts at
    tol = kernel_tol * max(lambda_max, -lambda_min), from the inertia of
    At + tol I and At - tol I, never from a window.  The Gershgorin bounds
    floor <= lambda_min and top >= lambda_max of the similar matrix W^-1 H
    (``disc_bounds``; here floor = min(min over bulk nodes of f'(psi),
    beta)) make kernel_tol * max(top, -floor) >= tol, so the inertia of At
    minus that bound counts below >= n_negative + kernel_dim eigenvalues,
    and the one shift-invert run asks for below + k eigenpairs: a window
    that holds n_negative + max(k, kernel_dim).  When below is 0 the state
    is a clear minimum: both counts are 0, lambda_max is never computed,
    and At minus the bound is positive definite, so the LDL^T factor that
    counted is the shift-invert operator of the run, about that bound, and
    the run computes eigenvalues only, since no kernel basis reads a
    vector: one factorization in all.  Otherwise the run takes its shift
    just below the floor, a plain Lanczos run gives lambda_max and the two
    counts are made at tol: four factorizations.  The reported eigenvalues,
    the kernel basis and, off a clear minimum, the lowest eigenvector (the
    direction of ``stationary.find_equilibrium``'s saddle kick) come from
    the window by ``_window_report``, and a window whose counts disagree
    with the inertia raises RuntimeError.
    """
    n = grid.n_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    w = grid.h_weights(1.0)
    At, rw = weighted_symmetric(H, w)
    floor, top = disc_bounds(At, rw)
    tol = kernel_tol * max(top, -floor)  # an upper bound on the tol of the counts
    below, lu = count_below(At, tol)
    window = below + k
    top_pair = None
    if below == 0:
        # At - tol I is positive definite: its factor serves the shift-invert run
        lam, vec = lowest_eigenpairs(At, rw, min(window, n - 1), vectors=False,
                                     shifted=(tol, lu))
        n_negative = kernel_dim = 0
    else:
        lu = None  # not positive definite; freed before the runs that follow
        lam, vec = lowest_eigenpairs(At, rw, min(window, n - 1))
        top_pair = _top_pair(At)
        tol = kernel_tol * max(float(top_pair[0][0]), -float(lam[0]))
        n_negative = count_below(At, -tol)[0]
        kernel_dim = count_below(At, tol)[0] - n_negative
    if window >= n:  # ARPACK stops one short of the whole spectrum
        lam_top, vec_top = top_pair or _top_pair(At)
        lam = np.append(lam, lam_top)
        if vec is not None:
            vec = np.hstack([vec, vec_top])
    field = None if vec is None else (lambda i: rw * vec[:, i])
    return _window_report(lam, field, w, k, (n_negative, kernel_dim), n_negative, tol,
                          kernel_tol, "inertia")


class ModeSpectrum:
    """The spectrum of the pencil (M, W) of an x-invariant symmetric M, mode by mode.

    M commutes with x-shifts and couples only neighbouring levels, as the
    energy Hessian of an x-invariant state and K_A do; W is diagonal and
    constant along each level.  A real FFT in x then splits the pencil into
    nx//2 + 1 symmetric tridiagonal problems, one per x-mode k, in the
    W^-1/2 M W^-1/2 form: d[k] its diagonal and e[k] its off-diagonal.
    values[k] holds the ny eigenvalues of mode k, ascending, each with
    multiplicity[k] in the whole spectrum: 1 for k = 0 and k = nx/2, whose
    fields are a cosine in x, and 2 otherwise, a cosine and a sine field.
    The values are computed on first use (``scipy.linalg.
    eigvalsh_tridiagonal``, one call per mode), so ``disc_bound`` can
    decide before them.
    """

    def __init__(self, grid, rows, w):
        """rows = M[operators.level_rows(grid)], w = W's diagonal on those rows."""
        symbol = level_symbols(grid, rows)
        scale = np.max(np.abs(symbol))
        if np.any(symbol[:, [0, 4], :]) or (np.max(np.abs(symbol[:-1, 3] - symbol[1:, 1]))
                                            > 1e-12 * scale):
            raise ValueError("matrix is not symmetric tridiagonal in the levels")
        self.grid = grid
        self.rw = 1.0 / np.sqrt(w)
        self.d = (symbol[:, 2, :] * self.rw[:, None] ** 2).T
        self.e = (symbol[:-1, 3, :] * (self.rw[:-1] * self.rw[1:])[:, None]).T
        self.multiplicity = np.full(len(self.d), 2)
        self.multiplicity[0] = 1
        if grid.nx % 2 == 0:
            self.multiplicity[-1] = 1

    @cached_property
    def values(self):
        return np.array([eigvalsh_tridiagonal(d, e) for d, e in zip(self.d, self.e)])

    def disc_bound(self):
        """A Gershgorin bound on max|lambda|, read before any eigenvalue."""
        radius = np.abs(self.d)
        radius[:, :-1] += np.abs(self.e)
        radius[:, 1:] += np.abs(self.e)
        return float(radius.max())

    def vectors(self, k, lo, hi):
        """The W-orthonormal fields of mode k's eigenvalues lo..hi (by index):
        for each, its cosine field and, in a double mode, its sine field."""
        nx = self.grid.nx
        _, phi = eigh_tridiagonal(self.d[k], self.e[k], select="i", select_range=(lo, hi))
        x = 2.0 * np.pi * k * np.arange(nx) / nx
        waves = [np.cos(x), np.sin(x)][:self.multiplicity[k]]
        waves = np.sqrt(self.multiplicity[k] / nx) * np.array(waves)
        levels = self.rw[:, None] * phi
        return np.array([np.outer(p, wave).ravel() for p in levels.T for wave in waves])


def _ritz(K, curvature, w, basis):
    """Rayleigh-Ritz pairs of the pencil (K + diag(curvature), W) on the span
    of basis's rows: (values ascending, W-orthonormal fields as rows)."""
    Hb = (K @ basis.T).T + curvature * basis
    m = len(basis)
    A, G = np.empty((m, m)), np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = dot(basis[i], Hb[j])
            G[i, j] = G[j, i] = dot(w * basis[i], basis[j])
    theta, C = eigh(A, G)
    return theta, C.T @ basis


def _corrected(grid, Hb, K, curvature, w, theta, X, nudge, i):
    """Ritz vector X[i] plus its first-order correction -(Hb - theta_i W)^-1 r,
    r its residual outside the window, with the window's part of the
    solution taken out.  Hb is the x-invariant Hessian's level rows, and the
    solve is ``factor_x_invariant``'s at theta_i - nudge: a Ritz value can
    equal a window eigenvalue of Hb to rounding (a k = 0 mode moves only at
    second order), where Hb - theta_i W is singular.  X[i] itself when the
    solve fails."""
    x = X[i]
    r = K @ x + (curvature - theta[i] * w) * x
    r -= w * (X.T @ np.array([dot(q, r) for q in X]))
    rows = level_rows(grid)
    try:
        t = factor_x_invariant(grid, Hb - (theta[i] - nudge) * diag_rows(w, rows)).solve(r)
    except RuntimeError:
        return x
    if not np.all(np.isfinite(t)):
        return x
    return x - (t - X.T @ np.array([dot(w * q, t) for q in X]))


def _mode_report(op, pot, psi, k, kernel_tol):
    """The SpectralReport of psi from the x-invariant part of its Hessian, or
    None when that part cannot stand in for the Hessian.

    H = K_lin + diag(M_bulk f'(psi)) differs from Hb = K_lin + diag(M_bulk
    c), c the per-level mean of f'(psi), by a diagonal whose weighted norm
    is delta = max over bulk nodes of |f'(psi) - c|, so by Weyl no
    eigenvalue moves by more than delta, and tol = kernel_tol *
    max(lambda_max, -lambda_min) by at most kernel_tol * delta.  Hb commutes
    with x-shifts, and ``ModeSpectrum`` gives its whole spectrum.  When
    delta <= tol and no eigenvalue of Hb lies within (1 + kernel_tol) delta
    (plus GATE_ROUNDING of max|lambda|) of +-tol, Hb's counts below -tol
    and within tol are H's.  The window is the union of the k lowest and
    the k smallest-magnitude eigenvalues and the kernel, completed by every
    mode eigenvalue within sqrt(delta * max|lambda|) of one of them; its
    fields span an invariant subspace of Hb, and the Rayleigh-Ritz values
    of H on it are off H's by at most delta^2 / sqrt(delta max|lambda|)
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 11).  Off a
    clear minimum, each returned Ritz vector x gets its first-order
    correction -(Hb - theta W)^-1 r from its residual r outside the window,
    one ``factor_x_invariant`` solve at a shift within 2 delta (plus
    rounding) of theta, which leaves a residual of order delta^2.  The
    report is ``_window_report``'s, as in ``spectrum``.
    """
    grid = op.grid
    nx, ny = grid.nx, grid.ny
    w = grid.h_weights(1.0)
    rows = level_rows(grid)
    fp = pot.f_prime(psi)
    levels = fp.reshape(ny, nx)
    c = levels.mean(axis=1)
    delta = float(np.max(np.abs(levels - c[:, None])[grid.bulk_weights[rows] > 0]))
    K = grid.forms.k_lin(op.alpha, op.beta)
    Hb = K[rows] + diag_rows(grid.forms.bulk_mass * np.repeat(c, nx), rows)
    modes = ModeSpectrum(grid, Hb, w[rows])
    if delta > kernel_tol * modes.disc_bound():  # delta > tol, before any eigenvalue
        return None
    mu, mult = modes.values, modes.multiplicity[:, None]
    scale = max(float(mu.max()), -float(mu.min()))
    tol = kernel_tol * scale
    margin = (1.0 + kernel_tol) * delta + GATE_ROUNDING * scale
    if delta > tol or np.any(np.abs(np.abs(mu) - tol) <= margin):
        return None
    n_negative = int(np.sum(mult * (mu < -tol)))
    kernel_dim = int(np.sum(mult * (np.abs(mu) <= tol)))
    # the window: the k lowest, the k smallest in magnitude (counted with
    # multiplicity) and the kernel, then every eigenvalue near one of them
    flat = mu.ravel()
    copies = np.repeat(np.arange(flat.size), np.broadcast_to(mult, mu.shape).ravel())
    chosen = np.abs(flat) <= tol
    chosen[copies[np.argsort(flat[copies], kind="stable")[:k]]] = True
    chosen[copies[np.argsort(np.abs(flat[copies]), kind="stable")[:k]]] = True
    picked = np.sort(flat[chosen])
    after = np.minimum(np.searchsorted(picked, flat), picked.size - 1)
    near = np.minimum(np.abs(flat - picked[after]), np.abs(flat - picked[np.maximum(after - 1, 0)]))
    chosen = (near <= math.sqrt(delta * scale)).reshape(mu.shape)
    fields = []
    for m in np.flatnonzero(chosen.any(axis=1)):
        index = np.flatnonzero(chosen[m])
        chosen[m, index[0]:index[-1] + 1] = True
        fields.append(modes.vectors(m, index[0], index[-1]))
    curvature = grid.forms.bulk_mass * fp
    theta, X = _ritz(K, curvature, w, np.vstack(fields))
    window_negative = int(np.sum(mult * (chosen & (mu < -tol))))
    nudge = 2.0 * delta + GATE_ROUNDING * scale
    field = partial(_corrected, grid, Hb, K, curvature, w, theta, X, nudge)
    return _window_report(theta, field if n_negative or kernel_dim else None, w, k,
                          (n_negative, kernel_dim), window_negative, tol, kernel_tol, "mode counts")


def classify(op, pot, psi, kernel_tol):
    """Spectrum of the energy Hessian at psi, and its kind: minimum, saddle or degenerate.

    An x-invariant state, up to a variation of f'(psi) below the counts'
    tolerance, is classified mode by mode (``_mode_report``), with no sparse
    factorization or Lanczos run; any other, or one with an eigenvalue at
    the gate, by ``spectrum``.
    """
    k = min(6, op.grid.n_nodes)
    rep = _mode_report(op, pot, psi, k, kernel_tol)
    if rep is None:
        H = energy_hessian(op.grid, pot, psi, op.alpha, op.beta)
        rep = spectrum(op.grid, H, k=k, kernel_tol=kernel_tol)
    if rep.kernel_dim > 0:
        return rep, "degenerate"
    return rep, "saddle" if rep.n_negative > 0 else "minimum"


# ---------------------------------------------------------------------------
# energy-gap exponent probe and convergence-rate fitting
# ---------------------------------------------------------------------------

@dataclass
class LSProbeReport:
    samples: list  # (t, gap, lhs)
    fitted_theta: float
    calibration_c: float
    residual_rms: float
    valid_window: tuple
    inequality_violations: int
    insufficient: bool
    note: str = ""


def fit_gap_exponent(gaps, lhss):
    """Regress log(lhs) on log(gap); the slope is 1 - theta.

    Returns (theta, logC, rms of log residuals).
    """
    lg = np.log(np.asarray(gaps, dtype=float))
    ll = np.log(np.asarray(lhss, dtype=float))
    slope, intercept = np.polyfit(lg, ll, 1)
    resid = ll - (intercept + slope * lg)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    theta = 1.0 - float(slope)
    return theta, float(intercept), rms


def ls_probe(op, pot, traj, psi, window=0.5):
    """Probe the energy-gap inequality along a converging trajectory.

    Snapshots inside the energy-norm window around psi contribute a sample
    (t, gap, lhs) with gap = E(u)-E(psi) and lhs the summed stationary
    residuals.  theta is fitted from the log-log slope; violations count
    samples falling below the calibrated power law by more than three
    regression RMS widths.
    """
    grid = op.grid
    e_psi = energy_value(grid, pot, psi, op.alpha, op.beta)
    gap_floor = GAP_FLOOR_REL * (1.0 + abs(e_psi))
    samples = []
    for t, snap in traj.snapshots:
        diff = snap - psi
        if v_norm(grid, diff) > window:
            continue
        e, g = energy_and_gradient(grid, pot, snap, op.alpha, op.beta)
        gap = e - e_psi
        if gap <= gap_floor:
            continue
        bulk, bdry = residual_norms(grid, g)
        lhs = bulk + bdry
        if lhs <= 0.0:
            continue
        samples.append((t, gap, lhs))
    if len(samples) < MIN_SAMPLES:
        return LSProbeReport(
            samples=samples,
            fitted_theta=float("nan"),
            calibration_c=float("nan"),
            residual_rms=float("nan"),
            valid_window=(float("nan"), float("nan")),
            inequality_violations=0,
            insufficient=True,
            note=f"only {len(samples)} usable samples (need {MIN_SAMPLES})",
        )
    gaps = np.array([s[1] for s in samples])
    lhss = np.array([s[2] for s in samples])
    theta, logc, rms = fit_gap_exponent(gaps, lhss)
    note = ""
    if not 0.0 < theta <= 1.0:
        note = f"raw fitted exponent {theta:.3g} clipped into (0, 1]"
        theta = min(max(theta, 1e-6), 1.0)
    margin = 3.0 * max(rms, 1e-12)
    lower = logc + (1.0 - theta) * np.log(gaps) - margin - 1e-12
    violations = int(np.sum(np.log(lhss) < lower))
    return LSProbeReport(
        samples=samples,
        fitted_theta=float(theta),
        calibration_c=float(np.exp(logc)),
        residual_rms=rms,
        valid_window=(float(np.min(gaps)), float(np.max(gaps))),
        inequality_violations=violations,
        insufficient=False,
        note=note,
    )


@dataclass
class RateReport:
    model: str  # "algebraic" or "exponential"
    q: float
    c_alg: float
    gamma: float
    c_exp: float
    resid_alg: float
    resid_exp: float
    theta: float
    bound_required_q: float
    bound_ok: bool
    monotone_ok: bool
    theta_source: str  # "fitted" (probe), "fallback" (probe inconclusive) or "given"


def rate_fit(times, dist, theta, fit_tol=0.1, t_min=None, theta_source="given"):
    """Fit algebraic C(1+t)^-q and exponential C e^(-gamma t) decay models.

    dist[k] is the distance to the equilibrium at times[k].  The selected
    model is the one with smaller RMS residual in log space
    (scale-invariant: rescaling the series shifts only C).  The rate-bound
    check passes when the measured decay is dominated by
    (1+t)^(-theta/(1-2 theta)): immediately for the exponential branch,
    via q >= theta/(1-2 theta) - fit_tol for the algebraic one.
    """
    times = np.asarray(times, dtype=float)
    dist = np.asarray(dist, dtype=float)
    mask = np.isfinite(dist) & (dist > 0)
    if t_min is not None:
        mask &= times >= t_min
    times, dist = times[mask], dist[mask]
    if times.size < 5:
        raise ValueError(f"need at least 5 positive samples, got {times.size}")
    if (1.0 + times.max()) / (1.0 + times.min()) < 10.0:
        raise ValueError("distance series does not span a decade of time")
    growth = np.diff(dist) > MONOTONE_TOL * dist[:-1]
    monotone_ok = not bool(np.any(growth))

    ld = np.log(dist)
    qa, ca = np.polyfit(np.log1p(times), ld, 1)
    resid_alg = float(np.sqrt(np.mean((ld - (ca + qa * np.log1p(times))) ** 2)))
    ge, ce = np.polyfit(times, ld, 1)
    resid_exp = float(np.sqrt(np.mean((ld - (ce + ge * times)) ** 2)))
    q = -float(qa)
    gamma = -float(ge)
    model = "exponential" if resid_exp < resid_alg else "algebraic"
    if theta < 0.5 - 1e-9:
        required = theta / (1.0 - 2.0 * theta)
    else:
        required = float("inf")
    bound_ok = model == "exponential" or q >= required - fit_tol
    return RateReport(
        model=model,
        q=q,
        c_alg=float(np.exp(ca)),
        gamma=gamma,
        c_exp=float(np.exp(ce)),
        resid_alg=resid_alg,
        resid_exp=resid_exp,
        theta=float(theta),
        bound_required_q=required,
        bound_ok=bool(bound_ok),
        monotone_ok=monotone_ok,
        theta_source=theta_source,
    )
