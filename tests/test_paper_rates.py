"""The paper's convergence rates, end to end through ``chwall simulate`` and
``chwall analyze``.

On the 12x12 unit strip at unit constants, f(s) = s^m - nu1 s, with nu1
the smallest eigenvalue of K0 phi = nu M_bulk phi, makes psi = 0 a
degenerate equilibrium with the 1-D kernel phi.  The reduced energy along
phi then has order 2m, so the Lojasiewicz exponent is theta = 1/(2m) and
the distance decays like (1 + t)^(-theta/(1 - 2 theta)): q = 1/2 for the
cubic, 1/4 for the quintic.  A quadratic term a s^2 (the transcritical
case) makes the order 3: theta = 1/3 and q = 1; that run converges only
from the side s > 0, where the cubic reduced energy rises.  Shifting nu1 by
-0.5 makes psi = 0 a strict minimum: theta = 1/2 and exponential decay, at
the rate of the semi-implicit step linearized at psi.

Every run starts from u0 = 0.3 phi/|phi|_inf, written with ``save_field``
and read back through ``initial.kind = file``; psi = 0 is written with a
meta that records a converged solve.
"""

import contextlib
import json

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import chwall as cw
from chwall.cli import main
from chwall.grid import save_field

CONFIG = """\
[grid]
mode = strip2d
Lx = 1.0
Ly = 1.0
nx = 12
ny = 12

[potential]
kind = polynomial_custom
coeffs = {coeffs}

[stepper]
dt = 0.1
t_end = 2000.0

[initial]
kind = file
path = {u0}

[io]
output_dir = {out}
series_stride = 200
snapshot_stride = 200
plots = false

[analysis]
rate_fit_t_min = 100
"""


@pytest.fixture(scope="module")
def kernel():
    """(grid, nu1, phi): the tuned coefficient and its kernel vector, phi > 0."""
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)
    forms = g.forms
    K0 = (forms.k_grad + forms.k_par + sp.diags(forms.bdry_mass)).toarray()
    mu, vecs = la.eigh(np.diag(forms.bulk_mass), K0)
    phi = vecs[:, -1] * np.sign(vecs[:, -1].sum())
    return g, 1.0 / mu[-1], phi


def _run(tmp_path, kernel, coeffs):
    """simulate and analyze the case f = polyval(coeffs(nu1)): its spectral,
    probe and rate reports and its manifest."""
    g, nu1, phi = kernel
    u0, psi = tmp_path / "u0.csv", tmp_path / "psi"
    save_field(g, 0.3 * phi / np.max(np.abs(phi)), u0)
    save_field(g, np.zeros(g.n_nodes), f"{psi}.csv")
    (tmp_path / "psi.meta").write_text("converged=1\n")
    run = tmp_path / "run"
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(coeffs=",".join(f"{c:.17g}" for c in coeffs(nu1)),
                                    u0=u0, out=run))
    assert main(["simulate", str(config)]) == 0
    assert main(["analyze", str(run), str(psi)]) == 0
    return [json.loads(path.read_text()) for path in (
        run / "analysis" / "spectral_report.txt", run / "analysis" / "ls_report.txt",
        run / "analysis" / "rate_report.txt", run / "manifest.json")]


DEGENERATE = {
    # name: (coefficients of f from nu1, theta, q band (lo, hi))
    "cubic": (lambda nu: [1.0, 0.0, -nu, 0.0], 1 / 4, (0.45, 0.55)),
    "transcritical": (lambda nu: [1.0, 2.0, -nu, 0.0], 1 / 3, (0.95, 1.05)),
    "quintic": (lambda nu: [1.0, 0.0, 0.0, 0.0, -nu, 0.0], 1 / 6, (0.15, np.inf)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_equilibrium_decays_at_the_algebraic_rate(name, tmp_path, kernel):
    coeffs, theta, (q_lo, q_hi) = DEGENERATE[name]
    # a quintic f grows faster than the 3-D theory allows; chwall says so
    growth = (pytest.warns(RuntimeWarning, match="supercritical") if name == "quintic"
              else contextlib.nullcontext())
    with growth:
        spectral, probe, rate, _ = _run(tmp_path, kernel, coeffs)
    assert spectral["classification"] == "degenerate" and spectral["kernel_dim"] == 1
    assert abs(probe["fitted_theta"] - theta) <= 0.02
    assert probe["inequality_violations"] == 0
    assert rate["model"] == "algebraic"
    assert q_lo <= rate["q"] <= q_hi
    assert rate["bound_ok"] and rate["monotone_ok"]


def _step_rate(g, a, S, dt=0.1):
    """-log(rho)/dt, rho the spectral radius of the semi-implicit step with
    shift S, linearized at 0 for f'(0) = -a (dense oracle)."""
    forms, w = g.forms, g.h_weights(1.0)
    K, M = forms.k_lin(1.0, 1.0).toarray(), np.diag(forms.bulk_mass)
    KW = forms.k_lin(0.0, 1.0).toarray() / w  # K_A W^-1
    J = np.diag(w) + dt * KW @ (K + S * M)
    G = np.eye(g.n_nodes) - dt * np.linalg.solve(J, KW @ (K - a * M))
    return -np.log(np.max(np.abs(np.linalg.eigvals(G)))) / dt


def test_strict_minimum_decays_exponentially(tmp_path, kernel):
    g, nu1, _ = kernel
    spectral, probe, rate, manifest = _run(tmp_path, kernel,
                                           lambda nu: [1.0, 0.0, -(nu - 0.5), 0.0])
    assert spectral["classification"] == "minimum" and spectral["kernel_dim"] == 0
    assert abs(probe["fitted_theta"] - 0.5) <= 0.02
    assert probe["inequality_violations"] == 0
    assert rate["model"] == "exponential"
    # gamma = 0.1224, the rate of the step on the last shift rung, which
    # lags the flow's own rate by about 7 % at dt = 0.1
    assert rate["gamma"] == pytest.approx(_step_rate(g, nu1 - 0.5, manifest["shifts"][-1]),
                                          rel=1e-4)
    assert rate["bound_ok"] and rate["monotone_ok"]
