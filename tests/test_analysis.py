import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chwall as cw
from chwall.analysis import (
    SHIFT_MARGIN,
    disc_bounds,
    fit_gap_exponent,
    ls_probe,
    rate_fit,
    spectrum,
    weighted_symmetric,
)
from chwall.config import RunConfig
from chwall.energy import energy_hessian
from chwall.evolution import evolve
from chwall.stationary import find_equilibrium, minimize_energy, newton_refine

from conftest import dense_form_matrices


@pytest.fixture(scope="module")
def grid12():
    return cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=12, ny=12)


@pytest.fixture(scope="module")
def kernel_problem(grid12):
    """A potential tuned so the linearization at zero has a 1-D kernel.

    The f'(0) shift acts through the lumped bulk mass only, so the tuned
    value is the smallest eigenvalue nu of  K0 phi = nu M_bulk phi.
    """
    g = grid12
    forms = g.forms
    K0 = (forms.k_grad + forms.k_par + sp.diags(forms.bdry_mass)).toarray()
    mu_eigs = la.eigh(np.diag(forms.bulk_mass), K0, eigvals_only=True)
    nu1 = 1.0 / mu_eigs[-1]
    pot = cw.polynomial_potential([1.0, 0.0, -nu1, 0.0])
    return g, pot, energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)


def test_linearized_at_zero_matches_shifted_operator(grid12, pot):
    g = grid12
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    # interior rows: -Lap - 1 (f'(0) = -1); wall rows: the trace condition
    out = H @ np.ones(g.n_nodes) / g.h_weights()
    assert np.max(np.abs(out[g.interior_idx] + 1.0)) <= 1e-12
    assert abs(H - H.T).max() / abs(H).max() <= 1e-12


def test_linearized_matches_dense_oracle(grid12, pot, rng):
    g = grid12
    psi = 0.4 * rng.standard_normal(g.n_nodes)
    v = 0.1 * rng.standard_normal(g.n_nodes)
    H = energy_hessian(g, pot, psi + v, 1.0, 1.0)
    K_o, P_o, bdry_o, bulk_o = dense_form_matrices(g)
    dense = K_o + P_o + np.diag(bdry_o) + np.diag(bulk_o * pot.f_prime(psi + v))
    assert np.max(np.abs(H.toarray() - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_spectrum_matches_dense_oracle(grid12, pot):
    g = grid12
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    rep = spectrum(g, H, k=5)
    w = g.h_weights()
    rw = 1.0 / np.sqrt(w)
    lam = la.eigvalsh((sp.diags(rw) @ H @ sp.diags(rw)).toarray())
    assert np.max(np.abs(rep.eigenvalues[:5] - lam[:5])) <= 1e-10 * (1 + abs(lam[0]))
    # unit strip: the zero state is a hyperbolic minimum
    assert rep.eigenvalues[0] > 0
    assert rep.n_negative == 0 and rep.kernel_dim == 0


def test_spectrum_shifted_convex_case(grid12):
    g = grid12
    # f' replaced by +1: strictly positive spectrum
    pot_convex = cw.polynomial_potential([1.0, 0.0, 1.0, 0.0])
    rep = spectrum(g, energy_hessian(g, pot_convex, np.zeros(g.n_nodes), 1.0, 1.0), k=4)
    assert np.all(rep.eigenvalues > 0)


def test_saddle_detected_on_tall_strip(pot):
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=16, ny=16)
    rep = spectrum(g, energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0), k=4)
    assert rep.eigenvalues[0] < 0 and rep.n_negative >= 1


def _dense_report(g, H, k, kernel_tol=1e-8):
    """Full dense spectrum of (H, W): the oracle for the sparse path."""
    rw = sp.diags(1.0 / np.sqrt(g.h_weights()))
    lam = la.eigvalsh((rw @ H @ rw).toarray())
    max_abs = float(np.max(np.abs(lam)))
    tol = kernel_tol * max_abs
    keep = np.union1d(np.arange(k), np.argsort(np.abs(lam), kind="stable")[:k])
    return (np.sort(lam[keep]), int(np.sum(lam < -tol)),
            int(np.sum(np.abs(lam) <= tol)), max_abs)


def _assert_matches_dense(rep, g, H, k):
    eigs, n_negative, kernel_dim, max_abs = _dense_report(g, H, k)
    assert rep.n_negative == n_negative
    assert rep.kernel_dim == kernel_dim
    assert rep.eigenvalues.shape == eigs.shape
    assert np.max(np.abs(rep.eigenvalues - eigs)) <= 1e-8 * max_abs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    nx=st.integers(6, 24),
    ny=st.integers(6, 24),
    L=st.sampled_from([1.0, 8.0, 20.0]),
    alpha=st.floats(0.0, 3.0),
    beta=st.floats(0.0, 3.0),
    amplitude=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 6),
)
# x-invariant state with a double eigenvalue at the edge of the window
@example(nx=10, ny=17, L=1.0, alpha=1.25, beta=2.0, amplitude=0.0, seed=0, k=6)
def test_spectrum_matches_dense_oracle_on_random_strips(nx, ny, L, alpha, beta,
                                                        amplitude, seed, k):
    g = cw.build_grid("strip2d", Lx=L, Ly=L, nx=nx, ny=ny)
    u = amplitude * np.random.default_rng(seed).standard_normal(g.n_nodes)
    H = energy_hessian(g, cw.double_well(), u, alpha, beta)
    _assert_matches_dense(spectrum(g, H, k=k), g, H, k)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    ny=st.integers(6, 48),
    L=st.sampled_from([1.0, 8.0, 20.0]),
    alpha=st.floats(0.0, 3.0),
    beta=st.floats(0.0, 3.0),
    amplitude=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 6),
)
def test_spectrum_matches_dense_oracle_on_random_intervals(ny, L, alpha, beta,
                                                           amplitude, seed, k):
    g = cw.build_grid("interval1d", Ly=L, ny=ny)
    u = amplitude * np.random.default_rng(seed).standard_normal(g.n_nodes)
    H = energy_hessian(g, cw.double_well(), u, alpha, beta)
    _assert_matches_dense(spectrum(g, H, k=k), g, H, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    interval=st.booleans(),
    nx=st.integers(4, 20),
    ny=st.integers(4, 20),
    L=st.floats(1.0, 20.0),
    alpha=st.floats(0.0, 3.0),
    beta=st.floats(0.0, 3.0),
    amplitude=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    b=st.floats(0.2, 5.0),
    c=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**16),
)
def test_lanczos_shift_lies_below_the_spectrum(interval, nx, ny, L, alpha, beta,
                                               amplitude, b, c, seed):
    if interval:
        g = cw.build_grid("interval1d", Ly=L, ny=ny)
    else:
        g = cw.build_grid("strip2d", Lx=L, Ly=L, nx=nx, ny=ny)
    pot = cw.double_well()
    u = amplitude * np.random.default_rng(seed).standard_normal(g.n_nodes)
    At, rw = weighted_symmetric(energy_hessian(g, pot, u, alpha, beta), g.h_weights(1.0))
    floor, top = disc_bounds(At, rw)
    sigma = floor - SHIFT_MARGIN * (top - floor)
    assert sigma < la.eigvalsh(At.toarray())[0]
    # off-diagonals <= 0 and zero row sums of the stencils: the floor is
    # f'(psi) on a bulk row and beta on a wall row
    expected = min(float(np.min(pot.f_prime(u)[g.bulk_weights > 0])), beta)
    assert abs(floor - expected) <= 1e-13 * top
    op = cw.WentzellOperator(g, b=b, c=c)
    floor_A, top_A = disc_bounds(*weighted_symmetric(op.K_A, op.mass_weights))
    assert abs(floor_A) <= 1e-13 * top_A


def test_spectrum_counts_saddle_beyond_k(pot):
    # 33 negative eigenvalues, far more than k; the +-k Fourier modes are
    # genuinely double, and both copies must be reported
    g = cw.build_grid("strip2d", Lx=20.0, Ly=20.0, nx=24, ny=24)
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    rep = spectrum(g, H, k=6)
    assert rep.n_negative == 33
    _assert_matches_dense(rep, g, H, 6)
    gaps = np.diff(rep.eigenvalues)
    assert np.any(gaps <= 1e-10 * _dense_report(g, H, 6)[3])


def test_spectrum_on_tiny_interval_covers_whole_spectrum(pot):
    # k equals the dimension, one more than a Lanczos run can deliver
    g = cw.build_grid("interval1d", Ly=1.0, ny=4)
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    rep = spectrum(g, H, k=4)
    assert rep.eigenvalues.size == 4
    _assert_matches_dense(rep, g, H, 4)


def test_kernel_detected_beyond_old_dense_size(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=72, ny=72)
    assert g.n_nodes > 4096
    forms = g.forms
    K0 = (forms.k_grad + forms.k_par + sp.diags(forms.bdry_mass)).tocsc()
    # largest mu of M_bulk phi = mu K0 phi is 1/nu1, K0 positive definite
    mu, _ = spla.eigsh(sp.diags(forms.bulk_mass).tocsc(), k=1, M=K0, which="LA",
                       v0=np.ones(g.n_nodes))
    tuned = cw.polynomial_potential([1.0, 0.0, -1.0 / mu[0], 0.0])
    H = energy_hessian(g, tuned, np.zeros(g.n_nodes), 1.0, 1.0)
    assert spectrum(g, H, k=6).kernel_dim == 1


def test_spectral_path_never_calls_dense_eigh(kernel_problem, pot, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(la, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    g, _, H = kernel_problem
    assert spectrum(g, H, k=6).kernel_dim == 1
    tall = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=16, ny=16)
    rep = spectrum(tall, energy_hessian(tall, pot, np.zeros(tall.n_nodes), 1.0, 1.0))
    assert rep.eigenvalues[0] < 0 and rep.lowest_vector is not None


def test_most_negative_direction_matches_dense(pot):
    # the saddle kick's direction is the report's lowest eigenvector
    g = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=24, ny=24)
    H = energy_hessian(g, pot, np.zeros(g.n_nodes), 1.0, 1.0)
    w = g.h_weights()
    rep = spectrum(g, H)
    lam0, phi = rep.eigenvalues[0], rep.lowest_vector
    rw = 1.0 / np.sqrt(w)
    lam, vec = la.eigh((sp.diags(rw) @ H @ sp.diags(rw)).toarray())
    assert abs(lam0 - lam[0]) <= 1e-10 * abs(lam[0])
    ref = rw * vec[:, 0]
    ref /= np.sqrt(np.sum(w * ref * ref))
    assert min(np.max(np.abs(phi - ref)), np.max(np.abs(phi + ref))) <= 1e-8


def test_spectrum_raises_when_window_disagrees_with_inertia(grid12, pot,
                                                            monkeypatch):
    import chwall.analysis as an

    H = energy_hessian(grid12, pot, np.zeros(grid12.n_nodes), 1.0, 1.0)
    true_count = an.count_below

    def miscounted(At, s):
        below, factor = true_count(At, s)
        return below + 1, factor

    monkeypatch.setattr(an, "count_below", miscounted)
    with pytest.raises(RuntimeError, match="inertia"):
        spectrum(grid12, H, k=5)


def test_engineered_kernel_detected(kernel_problem):
    g, _, H = kernel_problem
    rep = spectrum(g, H, k=6)
    assert rep.kernel_dim == 1
    phi = rep.kernel_basis[0]
    w = g.h_weights()
    assert abs(np.sum(w * phi * phi) - 1.0) <= 1e-10
    lphi = H @ phi / w
    assert np.sqrt(np.sum(w * lphi ** 2)) <= 10 * rep.kernel_tol * _dense_report(g, H, 6)[3]


def _count_spectral_calls(monkeypatch):
    """Count plain (which="LA") Lanczos runs, LDL^T factorizations and
    ``lowest_eigenpairs`` calls."""
    import chwall.analysis as an

    counts = {"LA": 0, "ldl": 0, "lowest": 0}

    def counted(key, fn, which=None):
        def wrapper(*args, **kwargs):
            if which is None or kwargs.get("which") == which:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spla, "eigsh", counted("LA", spla.eigsh, which="LA"))
    monkeypatch.setattr(an, "_shifted_ldl", counted("ldl", an._shifted_ldl))
    monkeypatch.setattr(an, "lowest_eigenpairs", counted("lowest", an.lowest_eigenpairs))
    return counts


def test_clear_minimum_needs_no_lambda_max_and_one_factorization(pot, monkeypatch):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    H = energy_hessian(g, pot, np.full(g.n_nodes, 0.05), 1.0, 1.0)
    counts = _count_spectral_calls(monkeypatch)
    rep = spectrum(g, H, k=6)
    assert rep.n_negative == 0 and rep.kernel_dim == 0
    # one inertia count, whose factor is the shift-invert run's operator
    assert counts == {"LA": 0, "ldl": 1, "lowest": 1}


def test_clear_minimum_eigenvalues_from_the_counting_factor(pot, monkeypatch):
    # the shift-invert run about the inertia bound, through the factor that
    # counted, gives the dense eigenvalues
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    u = 0.05 + 0.3 * np.cos(2 * np.pi * g.x) * np.cos(np.pi * g.y)
    H = energy_hessian(g, pot, u, 0.7, 1.5)
    counts = _count_spectral_calls(monkeypatch)
    rep = spectrum(g, H, k=6)
    assert counts == {"LA": 0, "ldl": 1, "lowest": 1}
    rw = 1.0 / np.sqrt(g.h_weights())
    lam = la.eigvalsh((sp.diags(rw) @ H @ sp.diags(rw)).toarray())[:6]
    assert lam[0] > 0 and rep.n_negative == 0 and rep.kernel_dim == 0
    assert np.all(np.abs(rep.eigenvalues - lam) <= 1e-10 * np.abs(lam))


def test_kernels_and_saddles_take_the_full_path(kernel_problem, pot, monkeypatch):
    tall = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=16, ny=16)
    cases = [kernel_problem[::2],
             (tall, energy_hessian(tall, pot, np.zeros(tall.n_nodes), 1.0, 1.0))]
    counts = _count_spectral_calls(monkeypatch)
    for g, H in cases:
        counts.update(dict.fromkeys(counts, 0))
        rep = spectrum(g, H, k=6)
        assert rep.n_negative + rep.kernel_dim > 0
        # lambda_max sets tol; the bound's count and the two counts at
        # -tol and +tol, and one factorization per shift-invert run
        assert counts["LA"] == 1
        assert counts["ldl"] == 3 + counts["lowest"]


def test_clear_minimum_asks_lanczos_for_eigenvalues_only(pot, monkeypatch):
    # no kernel basis is read at a clear minimum, so its shift-invert run
    # skips the Ritz vectors; a saddle's runs keep them.  The eigenvalues are
    # those of the run with vectors.
    import chwall.analysis as an

    tall = cw.build_grid("strip2d", Lx=8.0, Ly=8.0, nx=16, ny=16)
    unit = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    cases = {"minimum": (unit, np.full(unit.n_nodes, 0.05)),
             "saddle": (tall, np.zeros(tall.n_nodes))}
    asked, eigsh = [], spla.eigsh

    def spy(*args, **kwargs):
        asked.append((kwargs.get("which"), kwargs.get("return_eigenvectors", True)))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    for kind, (g, u) in cases.items():
        asked.clear()
        H = energy_hessian(g, pot, u, 1.0, 1.0)
        rep = spectrum(g, H, k=6)
        assert (rep.n_negative > 0) == (kind == "saddle")
        shift_invert = [vectors for which, vectors in asked if which == "LM"]
        assert shift_invert == [kind == "saddle"] * len(shift_invert) and shift_invert
        At, rw = an.weighted_symmetric(H, g.h_weights(1.0))
        lam = an.lowest_eigenpairs(At, rw, 6)[0]
        assert np.array_equal(an.lowest_eigenpairs(At, rw, 6, vectors=False)[0], lam)
        assert rep.kernel_basis.shape == (0, g.n_nodes)


def _w_residual(g, H, lam, v):
    """|W^-1/2 (H v - lam W v)| for a W-normalized field v."""
    w = g.h_weights()
    return float(np.linalg.norm((H @ v - lam * w * v) / np.sqrt(w)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    interval=st.booleans(),
    nx=st.integers(4, 16),
    ny=st.integers(4, 16),
    Lx=st.floats(1.0, 8.0),
    Ly=st.floats(1.0, 8.0),
    constants=st.tuples(*[st.floats(0.3, 3.0)] * 4),
    mean=st.floats(-1.2, 1.2),
    amplitude=st.floats(0.0, 1.0),
    wobble=st.floats(0.0, 1e-9),
    kernel_tol=st.sampled_from([1e-8, 0.05, 0.3]),
    seed=st.integers(0, 2**16),
)
# a saddle on a tall strip, where f'' = 6 psi spreads the wobble over f'
@example(interval=False, nx=12, ny=12, Lx=8.0, Ly=8.0, constants=(2.0, 0.5, 0.7, 1.5),
         mean=0.0, amplitude=1.0, wobble=1e-9, kernel_tol=1e-8, seed=1)
# a lowest vector in the k = 0 mode, whose Ritz value equals its mode
# eigenvalue to rounding
@example(interval=False, nx=4, ny=7, Lx=4.0, Ly=1.5, constants=(1.0, 1.0, 2.0, 2.0),
         mean=1.1953125, amplitude=0.5, wobble=9.178315657523462e-10, kernel_tol=0.05, seed=0)
# the zero saddle, where the sparse window misses one copy of 15.184
@example(interval=False, nx=9, ny=4, Lx=1.5, Ly=2.0078125, constants=(1.0, 1.0, 0.8125, 1.0),
         mean=0.0, amplitude=0.0, wobble=0.0, kernel_tol=1e-8, seed=0)
def test_mode_classification_matches_spectrum(interval, nx, ny, Lx, Ly, constants, mean,
                                              amplitude, wobble, kernel_tol, seed):
    # an x-invariant state plus an x-dependent wobble of at most 1e-9 is
    # classified mode by mode, and agrees with the sparse path on the counts
    # and the kernel space, with the dense spectrum on the eigenvalues (the
    # sparse window can miss one copy of a double eigenvalue at its edge),
    # and gives an eigenpair for the lowest vector
    import chwall.analysis as an

    g = (cw.build_grid("interval1d", Ly=Ly, ny=ny) if interval
         else cw.build_grid("strip2d", Lx=Lx, Ly=Ly, nx=nx, ny=ny))
    b, c, alpha, beta = constants
    op = cw.WentzellOperator(g, b=b, c=c, alpha=alpha, beta=beta)
    pot = cw.double_well()
    rng = np.random.default_rng(seed)
    profile = mean + amplitude * np.cos(np.pi * rng.integers(0, 3) * g.y / Ly + rng.uniform())
    psi = profile + wobble * rng.uniform(-1.0, 1.0, g.n_nodes)
    k = min(6, g.n_nodes)
    rep = an._mode_report(op, pot, psi, k, kernel_tol)
    assert rep is not None
    H = energy_hessian(g, pot, psi, alpha, beta)
    ref = spectrum(g, H, k=k, kernel_tol=kernel_tol)
    assert (rep.n_negative, rep.kernel_dim) == (ref.n_negative, ref.kernel_dim)
    eigs = _dense_report(g, H, k, kernel_tol)[0]
    assert rep.eigenvalues.shape == eigs.shape
    assert np.all(np.abs(rep.eigenvalues - eigs) <= 1e-10 * np.maximum(np.abs(eigs), 1.0))
    if rep.kernel_dim:
        # the same space: each basis lies in the span of the other's
        w = g.h_weights()
        kb, rb = rep.kernel_basis, ref.kernel_basis
        assert np.max(np.abs(rb - (rb * w) @ kb.T @ kb)) <= 1e-7
    if rep.n_negative or rep.kernel_dim:
        v = rep.lowest_vector
        assert abs(np.sum(g.h_weights() * v * v) - 1.0) <= 1e-12
        assert _w_residual(g, H, rep.eigenvalues[0], v) <= 1e-10
    else:
        assert rep.lowest_vector is None and rep.kernel_basis.shape == (0, g.n_nodes)


def _count_spectrum_calls(monkeypatch):
    import chwall.analysis as an

    calls, true = [], an.spectrum
    monkeypatch.setattr(an, "spectrum", lambda *a, **kw: calls.append(1) or true(*a, **kw))
    return calls


def test_eigenvalue_at_the_gate_takes_the_sparse_path(grid12, pot, monkeypatch):
    # with kernel_tol set so that tol = kernel_tol max|lambda| is an
    # eigenvalue of the x-invariant Hessian, the modes cannot decide its side
    from chwall.analysis import classify

    op = cw.WentzellOperator(grid12, b=2.0, c=0.5, alpha=0.7, beta=1.5)
    psi = np.full(grid12.n_nodes, 0.05)
    H = energy_hessian(grid12, pot, psi, op.alpha, op.beta)
    rw = 1.0 / np.sqrt(grid12.h_weights())
    lam = la.eigvalsh((sp.diags(rw) @ H @ sp.diags(rw)).toarray())
    calls = _count_spectrum_calls(monkeypatch)
    classify(op, pot, psi, kernel_tol=1e-8)
    assert calls == []
    classify(op, pot, psi, kernel_tol=lam[2] / max(lam[-1], -lam[0]))
    assert calls == [1]


def test_x_dependent_state_takes_the_sparse_path(pot, monkeypatch):
    # f'(u) varies along x by far more than the counts' tolerance: one LDL^T
    # and one shift-invert run, as ``spectrum`` at a clear minimum makes
    from chwall.analysis import classify

    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    op = cw.WentzellOperator(g, alpha=0.7, beta=1.5)
    u = 0.05 + 0.3 * np.cos(2 * np.pi * g.x) * np.cos(np.pi * g.y)
    counts = _count_spectral_calls(monkeypatch)
    rep, kind = classify(op, pot, u, kernel_tol=1e-8)
    assert kind == "minimum"
    assert counts == {"LA": 0, "ldl": 1, "lowest": 1}


def test_mode_spectrum_is_the_dense_spectrum():
    # K_A's pencil on a strip with an odd and an even nx, and on the interval:
    # each mode's eigenvalues with their multiplicity are the whole spectrum
    from chwall.analysis import ModeSpectrum
    from chwall.operators import level_rows

    for g in (cw.build_grid("strip2d", Lx=2.0, Ly=1.0, nx=7, ny=6),
              cw.build_grid("strip2d", Lx=2.0, Ly=1.0, nx=8, ny=6),
              cw.build_grid("interval1d", Ly=1.0, ny=9)):
        op = cw.WentzellOperator(g, b=2.0, c=0.5, alpha=0.7, beta=1.5)
        rows = level_rows(g)
        modes = ModeSpectrum(g, op.K_A[rows], op.mass_weights[rows])
        lam = np.sort(np.repeat(modes.values, modes.multiplicity, axis=0).ravel())
        rw = 1.0 / np.sqrt(op.mass_weights)
        dense = la.eigvalsh((sp.diags(rw) @ op.K_A @ sp.diags(rw)).toarray())
        assert np.max(np.abs(lam - dense)) <= 1e-12 * np.max(dense)
        assert lam[0] > 0


def test_minimizer_at_a_minimum_runs_no_eigensolve(pot, monkeypatch):
    # the minimizer makes no LDL^T; a clear-minimum solve that ends at an
    # x-invariant state is classified mode by mode, with none either
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    op = cw.WentzellOperator(g)
    counts = _count_spectral_calls(monkeypatch)
    res = minimize_energy(op, pot, np.zeros(g.n_nodes), tol=1e-8)
    assert res.converged
    assert counts == {"LA": 0, "ldl": 0, "lowest": 0}
    sol = find_equilibrium(op, pot, np.zeros(g.n_nodes))
    assert sol.kind == "minimum" and sol.kicks == 0
    assert counts == {"LA": 0, "ldl": 0, "lowest": 0}


def test_spectrum_converges_to_the_continuum_wentzell_eigenvalues():
    # -phi'' = lambda phi on (0, 1) with d_n phi + beta phi = lambda phi at
    # both ends.  With lambda = omega^2 the even modes solve
    # omega tan(omega/2) = beta - omega^2 and the odd ones
    # -omega cot(omega/2) = beta - omega^2; written without poles:
    from scipy.optimize import brentq

    beta = 1.5

    def even(om):
        return om * np.sin(om / 2) - (beta - om * om) * np.cos(om / 2)

    def odd(om):
        return -om * np.cos(om / 2) - (beta - om * om) * np.sin(om / 2)

    om = np.linspace(1e-3, 7.0, 7001)
    roots = []
    for f in (even, odd):
        v = f(om)
        roots += [brentq(f, om[i], om[i + 1], xtol=1e-14)
                  for i in np.flatnonzero(v[:-1] * v[1:] < 0)]
    exact = np.sort(np.square(roots))[:4]
    assert np.allclose(exact, [0.97099039, 2.97727829, 13.88400252, 43.49066985],
                       rtol=0, atol=1e-8)
    errors = []
    for ny in (80, 160, 320):
        g = cw.build_grid("interval1d", Ly=1.0, ny=ny)
        rep = spectrum(g, g.forms.k_lin(1.0, beta), k=4)
        assert rep.n_negative == 0 and rep.kernel_dim == 0
        errors.append(np.abs(rep.eigenvalues[:4] - exact))
    assert np.all(errors[-1] <= [1e-6, 3e-6, 1e-4, 2e-3])
    for coarse, fine in zip(errors, errors[1:]):
        order = np.log2(coarse / fine)
        assert np.all((1.9 <= order) & (order <= 2.1)), order


# -- exponent probe -----------------------------------------------------------

def test_fit_exponent_exact_synthetic():
    r = np.logspace(-6, -1, 40)
    theta, _, rms = fit_gap_exponent(r ** 2, r)
    assert abs(theta - 0.5) <= 1e-3
    assert rms <= 1e-12


def test_ls_probe_insufficient_on_stationary_trajectory(unit_grid, unit_op, pot):
    g = unit_grid
    rec = evolve(unit_op, pot, np.zeros(g.n_nodes),
                 RunConfig(dt=1e-2, t_end=0.1, snapshot_stride=2))
    rep = ls_probe(unit_op, pot, rec, np.zeros(g.n_nodes))
    assert rep.insufficient
    assert rep.inequality_violations == 0


@pytest.fixture(scope="module")
def converging_run(pot):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=16)
    op = cw.WentzellOperator(g)
    u0 = 0.1 * np.cos(2 * np.pi * g.x) + 0.05
    psi = newton_refine(op, pot, np.zeros(g.n_nodes), tol=1e-12).psi
    rec = evolve(op, pot, u0, RunConfig(dt=2e-3, t_end=40.0, series_stride=5,
                                           snapshot_stride=50),
                 ref=psi)
    return g, op, rec, psi


def test_ls_probe_hyperbolic_minimum_theta_half(converging_run, pot):
    g, op, rec, psi = converging_run
    rep = ls_probe(op, pot, rec, psi)
    assert not rep.insufficient
    assert abs(rep.fitted_theta - 0.5) <= 0.1
    assert rep.inequality_violations == 0
    gaps = [s[1] for s in rep.samples]
    # along the decreasing flow the recorded gaps are nonincreasing in t
    assert all(g2 <= g1 * (1 + 1e-10) for g1, g2 in zip(gaps, gaps[1:]))


def test_rate_fit_synthetic_algebraic():
    t = np.linspace(0.0, 99.0, 120)
    rep = rate_fit(list(t), list(2.7 * (1 + t) ** -1.0), theta=0.25)
    assert rep.model == "algebraic"
    assert abs(rep.q - 1.0) <= 1e-3
    assert abs(rep.c_alg - 2.7) <= 1e-3
    # theta/(1-2theta) = 0.5 <= 1.0: bound holds on the algebraic branch
    assert rep.bound_ok and rep.monotone_ok


def test_rate_fit_synthetic_exponential():
    t = np.linspace(0.0, 30.0, 90)
    dist = list(1.3 * np.exp(-t))
    for theta in (0.1, 0.3, 0.49):
        rep = rate_fit(list(t), dist, theta=theta)
        assert rep.model == "exponential"
        assert abs(rep.gamma - 1.0) <= 1e-3
        assert rep.bound_ok


def test_rate_fit_scale_invariant():
    t = np.linspace(0.0, 40.0, 80)
    base = np.exp(-0.7 * t) * (1 + 0.01 * np.sin(t))
    r1, r2 = rate_fit(list(t), list(base), 0.3), rate_fit(list(t), list(1e6 * base), 0.3)
    assert r1.model == r2.model
    assert r1.q == pytest.approx(r2.q, abs=1e-12)
    assert r1.gamma == pytest.approx(r2.gamma, abs=1e-12)


def test_rate_fit_flags_nonmonotone():
    t = np.linspace(0.0, 30.0, 60)
    d = np.exp(-t).tolist()
    d[30] *= 10.0  # a bump
    rep = rate_fit(list(t), d, 0.3)
    assert not rep.monotone_ok


def test_rate_fit_requires_a_decade():
    t = np.linspace(10.0, 12.0, 30)
    with pytest.raises(ValueError, match="decade"):
        rate_fit(list(t), list(np.exp(-t)), 0.3)


def test_rate_fit_on_converging_run(converging_run):
    g, op, rec, psi = converging_run
    rep = rate_fit(rec.times, rec.x_dist_to_ref, theta=0.49, t_min=1.0)
    assert rep.model == "exponential"
    assert rep.bound_ok and rep.monotone_ok
