"""Correctness checks on the files a chwall run writes.

Every check compares against a computation made here, apart from the
program (an independent assembly of the discrete forms, closed-form
continuum energies, dense or shift-invert eigenvalues), or against a
property the method must have (energy decay, the mass-flux ledger).
None compares against stored output.  Each check returns a ``Check``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_columns(path):
    """CSV with a header row -> dict of float columns."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(names)}


def read_field(path):
    """Field snapshot -> ((Lx, Ly, nx, ny), values in flat j*nx+i order)."""
    with open(path) as fh:
        fh.readline()
        meta = fh.readline().strip().lstrip("# ").split(",")
    if meta[0] != "strip2d":
        raise ValueError(f"{path}: only strip2d fields are checked, got {meta[0]}")
    Lx, Ly, nx, ny = float(meta[1]), float(meta[2]), int(meta[3]), int(meta[4])
    rows = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
    vals = np.full(nx * ny, np.nan)
    vals[rows[:, 1].astype(int) * nx + rows[:, 0].astype(int)] = rows[:, 4]
    if np.isnan(vals).any():
        raise ValueError(f"{path}: snapshot does not cover every node")
    return (Lx, Ly, nx, ny), vals


def read_report(path):
    """The JSON object at the head of an analysis report file."""
    with open(path) as fh:
        text = fh.read()
    obj, _ = json.JSONDecoder().raw_decode(text)
    return obj


# ---------------------------------------------------------------------------
# independent discretization of the strip
# ---------------------------------------------------------------------------

@dataclass
class StripForms:
    """Finite-difference forms of the periodic strip, built edge by edge.

    Node k = j*nx + i; rows j = 0 and ny-1 are the walls, interior rows sit
    at cell centres, so the wall-to-first-row gap is hy/2.
    """

    nx: int
    ny: int
    hx: float
    hy: float
    k_grad: sp.csr_matrix
    k_par: sp.csr_matrix
    bulk_mass: np.ndarray
    bdry_mass: np.ndarray

    @property
    def n(self):
        return self.nx * self.ny

    def weights(self, b=1.0):
        return self.bulk_mass + self.bdry_mass / b

    def k_a(self, b=1.0, c=1.0):
        return (self.k_grad + (c / b) * sp.diags(self.bdry_mass)).tocsr()

    def k_lin(self, alpha=1.0, beta=1.0):
        return (self.k_grad + alpha * self.k_par
                + beta * sp.diags(self.bdry_mass)).tocsr()


def _edge_matrix(n, a, b, w):
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def strip_forms(Lx, Ly, nx, ny):
    hx, hy = Lx / nx, Ly / (ny - 2)
    n = nx * ny
    i = np.arange(nx)
    right = (i + 1) % nx
    a, b, w = [], [], []
    for j in range(1, ny - 1):  # x edges of interior rows
        a.append(j * nx + i)
        b.append(j * nx + right)
        w.append(np.full(nx, hy / hx))
    for j in range(0, ny - 1):  # y edges; the wall gaps are half cells
        a.append(j * nx + i)
        b.append((j + 1) * nx + i)
        scale = 2.0 if j in (0, ny - 2) else 1.0
        w.append(np.full(nx, scale * hx / hy))
    k_grad = _edge_matrix(n, np.concatenate(a), np.concatenate(b), np.concatenate(w))
    wall_a = np.concatenate([i, (ny - 1) * nx + i])
    wall_b = np.concatenate([right, (ny - 1) * nx + right])
    k_par = _edge_matrix(n, wall_a, wall_b, np.full(2 * nx, 1.0 / hx))
    on_wall = np.zeros(n, dtype=bool)
    on_wall[wall_a] = True
    bulk_mass = np.where(on_wall, 0.0, hx * hy)
    bdry_mass = np.where(on_wall, hx, 0.0)
    return StripForms(nx, ny, hx, hy, k_grad, k_par, bulk_mass, bdry_mass)


def double_well_F(s):
    return 0.25 * (s * s - 1.0) ** 2


def double_well_f(s):
    return s ** 3 - s


def double_well_fp(s):
    return 3.0 * s * s - 1.0


def energy(forms, u, alpha=1.0, beta=1.0):
    """Discrete free energy with the double-well potential."""
    return float(
        0.5 * u @ (forms.k_grad @ u)
        + forms.bulk_mass @ double_well_F(u)
        + 0.5 * alpha * u @ (forms.k_par @ u)
        + 0.5 * beta * forms.bdry_mass @ (u * u)
    )


def energy_hessian(forms, u, alpha=1.0, beta=1.0):
    return (forms.k_lin(alpha, beta)
            + sp.diags(forms.bulk_mass * double_well_fp(u))).tocsr()


def cosine_energy(Lx, Ly, amplitude, mean, alpha=1.0, beta=1.0):
    """Continuum energy of u = mean + amplitude cos(2 pi x / Lx) on the strip.

    Averages over a period: <cos^2> = 1/2, <cos^4> = 3/8, <sin^2> = 1/2.
    """
    k = 2.0 * math.pi / Lx
    m, a = mean, amplitude
    s2 = m * m + a * a / 2.0
    s4 = m ** 4 + 3.0 * m * m * a * a + 3.0 * a ** 4 / 8.0
    grad2 = (a * k) ** 2 / 2.0  # <|u_x|^2>
    bulk = Lx * Ly * (grad2 / 2.0 + (s4 - 2.0 * s2 + 1.0) / 4.0)
    walls = 2.0 * Lx * (alpha * grad2 / 2.0 + beta * s2 / 2.0)
    return bulk + walls


def linearized_decay_rate(forms, b=1.0, c=1.0, alpha=1.0, beta=1.0):
    """Slowest decay rate of the linearized flow u_t = -W^-1 K_A W^-1 H u at 0.

    The eigenvalues of W^-1 K_A W^-1 H are those of the symmetric pencil
    (H, W K_A^-1 W); computed densely.
    """
    w = forms.weights(b)
    ka_inv = la.inv(forms.k_a(b, c).toarray())
    B = w[:, None] * ka_inv * w[None, :]
    H = energy_hessian(forms, np.zeros(forms.n), alpha, beta).toarray()
    lam = la.eigh(H, 0.5 * (B + B.T), eigvals_only=True, subset_by_index=[0, 0])
    return float(lam[0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def row_count(n_rows, expected):
    return Check("series_rows", n_rows == expected, f"{n_rows} rows, expected {expected}")


def energy_decreases(e_total, rel=1e-12):
    e = np.asarray(e_total)
    rise = np.diff(e) - rel * (1.0 + np.abs(e[:-1]))
    worst = int(np.argmax(rise)) if rise.size else 0
    ok = bool(rise.size == 0 or rise[worst] <= 0.0)
    return Check("energy_nonincreasing", ok,
                 f"largest step change minus tolerance {rise.max() if rise.size else 0.0:.3e} "
                 f"at row {worst + 1}")


def ledger_bound(times, ut_xnorm, defect):
    """|ledger defect| <= 10 dt max(1, |u_t|_X) over every recorded interval."""
    t = np.asarray(times)
    dt = np.diff(t)
    d = np.abs(np.asarray(defect)[1:])
    bound = 10.0 * dt * np.maximum(1.0, np.asarray(ut_xnorm)[:-1])
    ratio = d / bound
    ok = bool(np.all(np.isfinite(ratio)) and np.all(ratio <= 1.0))
    return Check("ledger_bound", ok, f"max defect/bound {np.max(ratio):.3f} over {d.size} intervals")


def initial_energy(e0, Lx, Ly, nx, ny, amplitude, mean, alpha=1.0, beta=1.0):
    """E(u0) against the continuum value; the O(h^2) error must stay below 3 h^2."""
    exact = cosine_energy(Lx, Ly, amplitude, mean, alpha, beta)
    h = max(Lx / nx, Ly / (ny - 2))
    rel = (e0 - exact) / exact
    return Check("initial_energy_closed_form", abs(rel) <= 3.0 * h * h,
                 f"relative error {rel:.3e}, allowed 3h^2 = {3.0 * h * h:.3e}")


def zero_equilibrium(psi, e_psi, area):
    sup = float(np.max(np.abs(psi)))
    exact = 0.25 * area  # F(0) = 1/4 over the whole domain
    ok = sup <= 1e-8 and abs(e_psi - exact) <= 1e-12 * exact
    return Check("zero_equilibrium", ok, f"|psi|_inf = {sup:.3e}, E = {e_psi:.15g}")


def theta_at_minimum(theta):
    return Check("theta_half", 0.45 <= theta <= 0.55,
                 f"fitted theta {theta:.5f}, expected in [0.45, 0.55]")


def rate_matches_spectrum(model, gamma, lam):
    rel = (gamma - lam) / lam
    return Check("rate_vs_linearized_spectrum",
                 model == "exponential" and abs(rel) <= 0.02,
                 f"model {model}, gamma {gamma:.6g} vs eigenvalue {lam:.6g} "
                 f"(relative {rel:.2e})")


def spread_grows(u_first, u_last):
    s0 = float(np.ptp(u_first))
    s1 = float(np.ptp(u_last))
    return Check("spinodal_spread_grows", s1 > s0, f"max-min {s0:.4g} -> {s1:.4g}")


def step_residual(forms, u_old, u_new, dt, b=1.0, c=1.0, alpha=1.0, beta=1.0,
                  tol=1e-7):
    """The stabilized step matrix applied to u_new reproduces its right side.

    (W + dt P (K_lin + S M)) u_new = W u_old + dt P (S M u_old - M f(u_old)),
    P = K_A W^-1.  The residual is affine in the shift S, so S is fitted by
    least squares: the check holds for any linear solver and any shift policy.
    """
    w = forms.weights(b)
    m = forms.bulk_mass
    P = forms.k_a(b, c) @ sp.diags(1.0 / w)
    k_lin = forms.k_lin(alpha, beta)
    a = w * (u_new - u_old) + dt * (P @ (k_lin @ u_new + m * double_well_f(u_old)))
    g = dt * (P @ (m * (u_new - u_old)))
    S = -float(a @ g) / float(g @ g) if float(g @ g) > 0.0 else 0.0
    r = a + S * g
    rhs = w * u_old + dt * (P @ (S * m * u_old - m * double_well_f(u_old)))
    rel = float(np.linalg.norm(r) / np.linalg.norm(rhs))
    return Check("step_residual", rel <= tol,
                 f"relative residual {rel:.3e} (tolerance {tol:.0e}) at fitted S = {S:.6g}")


def stationary_directions(forms, psi, seed, n_dirs=4, eps=1e-4, tol=1e-6,
                          alpha=1.0, beta=1.0):
    """Central differences of E at psi along seeded H-unit directions vanish."""
    rng = np.random.default_rng(seed)
    w = forms.weights()
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(forms.n)
        d /= math.sqrt(float(w @ (d * d)))
        fd = (energy(forms, psi + eps * d, alpha, beta)
              - energy(forms, psi - eps * d, alpha, beta)) / (2.0 * eps)
        worst = max(worst, abs(fd))
    return Check("stationary_fd_gradient", worst <= tol,
                 f"largest directional derivative {worst:.3e} (tolerance {tol:.0e})")


def energy_not_above_start(e_psi, e_u0):
    return Check("energy_below_start", e_psi <= e_u0 + 1e-12 * abs(e_u0),
                 f"E(psi) {e_psi:.12g} vs E(u0) {e_u0:.12g}")


def lowest_eigenvalue(forms, psi, alpha=1.0, beta=1.0):
    """(lowest, largest) eigenvalue of the energy Hessian in the H metric.

    Shift-invert Lanczos with the shift below min f'(psi) - 1, which lies
    under the whole spectrum, so the nearest eigenvalue is the lowest.
    """
    rw = 1.0 / np.sqrt(forms.weights())
    A = (sp.diags(rw) @ energy_hessian(forms, psi, alpha, beta) @ sp.diags(rw)).tocsc()
    sigma = float(np.min(double_well_fp(psi))) - 1.0
    v0 = np.ones(forms.n)
    lo = spla.eigsh(A, k=1, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
    hi = spla.eigsh(A, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(lo[0]), float(hi[0])


def classification(line, lam_min, lam_max, kernel_tol=1e-8):
    """Printed lambda_min against the independent one, and the label's sign."""
    kind = line.split("classification: ", 1)[1].split(" ", 1)[0]
    printed = float(line.split("lambda_min=", 1)[1].split(",", 1)[0])
    kernel_dim = int(line.split("kernel_dim=", 1)[1].split(",", 1)[0])
    tol = kernel_tol * lam_max
    match = abs(printed - lam_min) <= 1e-5 * abs(lam_min) + 1e-3 * tol
    if kind == "minimum":
        sign_ok = lam_min > tol
    elif kind == "saddle":
        sign_ok = lam_min < -tol
    else:
        sign_ok = kernel_dim > 0 and lam_min <= tol
    return [
        Check("lowest_eigenvalue", match,
              f"printed {printed:.6g}, shift-invert {lam_min:.9g}"),
        Check("classification_sign", sign_ok,
              f"{kind} with lambda_min {lam_min:.6g} (kernel tolerance {tol:.2e})"),
    ]
