"""Self-tests of the benchmark: python3 -m pytest e2ebench -q

The checkers must reject deliberately corrupted outputs, the independent
assembly must agree with chwall's, and a tiny-size pass of every workload
must finish in seconds with every check passing.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _run_child(workload, seed, out_dir, trace=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", "tiny", "--dir", str(out_dir),
           "--spawn", repr(time.monotonic())]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
    with open(os.path.join(out_dir, "result.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    result = _run_child("reference", 3, out, trace=True)
    return out, result


@pytest.fixture(scope="module")
def equilibrium_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("equilibrium")
    return out, _run_child("equilibrium", 3, out)


@pytest.fixture(scope="module")
def large_grid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("large_grid")
    return out, _run_child("large_grid", 3, out)


def _all_ok(result):
    return all(not op["failed"] for op in result["operations"])


def test_independent_forms_match_chwall():
    import chwall

    grid = chwall.build_grid("strip2d", Lx=2.0, Ly=1.5, nx=10, ny=9)
    mine = checks.strip_forms(2.0, 1.5, 10, 9)
    theirs = grid.forms
    assert abs(mine.k_grad - theirs.k_grad).max() <= 1e-13
    assert abs(mine.k_par - theirs.k_par).max() <= 1e-13
    assert np.array_equal(mine.bulk_mass, theirs.bulk_mass)
    assert np.array_equal(mine.bdry_mass, theirs.bdry_mass)
    u = np.random.default_rng(0).standard_normal(grid.n_nodes)
    pot = chwall.double_well()
    from chwall.energy import energy_value

    e = energy_value(grid, pot, u, 1.3, 0.7)
    assert abs(checks.energy(mine, u, 1.3, 0.7) - e) <= 1e-12 * abs(e)


def test_reference_energy_row_raised(reference_dir):
    out, result = reference_dir
    assert _all_ok(result)
    series = checks.read_columns(os.path.join(out, "run", "series.csv"))
    e = series["e_total"].copy()
    assert checks.energy_decreases(e).ok
    e[-2] += 1e-6
    assert not checks.energy_decreases(e).ok


def test_reference_theta_shifted(reference_dir):
    out, _ = reference_dir
    ls = checks.read_report(os.path.join(out, "run", "analysis", "ls_report.txt"))
    theta = float(ls["fitted_theta"])
    assert checks.theta_at_minimum(theta).ok
    assert not checks.theta_at_minimum(theta + 0.1).ok


def test_reference_rate_and_ledger_corrupted(reference_dir):
    out, _ = reference_dir
    rate = checks.read_report(os.path.join(out, "run", "analysis", "rate_report.txt"))
    forms = checks.strip_forms(1.0, 1.0, 12, 12)
    lam = checks.linearized_decay_rate(forms)
    assert checks.rate_matches_spectrum(rate["model"], rate["gamma"], lam).ok
    assert not checks.rate_matches_spectrum(rate["model"], 1.05 * rate["gamma"], lam).ok
    diag = checks.read_columns(os.path.join(out, "run", "diagnostics.csv"))
    defect = diag["ledger_defect"].copy()
    assert checks.ledger_bound(diag["t"], diag["ut_xnorm"], defect).ok
    defect[5] = 0.2  # 10 dt max(1, |u_t|) is 0.1 here
    assert not checks.ledger_bound(diag["t"], diag["ut_xnorm"], defect).ok


def test_reference_psi_perturbed(reference_dir):
    out, _ = reference_dir
    _, psi = checks.read_field(os.path.join(out, "eq", "equilibrium.csv"))
    forms = checks.strip_forms(1.0, 1.0, 12, 12)
    assert checks.zero_equilibrium(psi, checks.energy(forms, psi), 1.0).ok
    bad = psi + 1e-6 * np.random.default_rng(1).standard_normal(psi.size)
    assert not checks.zero_equilibrium(bad, checks.energy(forms, bad), 1.0).ok


def test_equilibrium_psi_perturbed(equilibrium_dir):
    out, result = equilibrium_dir
    assert _all_ok(result)
    (Lx, Ly, nx, ny), psi = checks.read_field(os.path.join(out, "run", "equilibrium.csv"))
    forms = checks.strip_forms(Lx, Ly, nx, ny)
    assert checks.stationary_directions(forms, psi, seed=5).ok
    bad = psi + 1e-3 * np.random.default_rng(2).standard_normal(psi.size)
    assert not checks.stationary_directions(forms, bad, seed=5).ok


def test_equilibrium_eigenvalue_misprinted(equilibrium_dir):
    out, result = equilibrium_dir
    line = next(ln for ln in result["operations"][0]["stdout"].splitlines()
                if ln.startswith("classification: "))
    (Lx, Ly, nx, ny), psi = checks.read_field(os.path.join(out, "run", "equilibrium.csv"))
    lam_min, lam_max = checks.lowest_eigenvalue(checks.strip_forms(Lx, Ly, nx, ny), psi)
    assert all(c.ok for c in checks.classification(line, lam_min, lam_max))
    printed = line.split("lambda_min=", 1)[1].split(",", 1)[0]
    wrong = line.replace(printed, f"{1.01 * float(printed):.6g}")
    assert not checks.classification(wrong, lam_min, lam_max)[0].ok
    relabelled = line.replace("classification: minimum", "classification: saddle")
    assert not checks.classification(relabelled, lam_min, lam_max)[1].ok


def test_large_grid_step_state_perturbed(large_grid_dir):
    out, result = large_grid_dir
    assert _all_ok(result)
    snapdir = os.path.join(out, "run", "snapshots")
    snaps = [os.path.join(snapdir, n) for n in sorted(os.listdir(snapdir))]
    (Lx, Ly, nx, ny), u_old = checks.read_field(snaps[-2])
    _, u_new = checks.read_field(snaps[-1])
    forms = checks.strip_forms(Lx, Ly, nx, ny)
    assert checks.step_residual(forms, u_old, u_new, 1e-3).ok
    bad = u_new + 1e-6 * np.random.default_rng(3).standard_normal(u_new.size)
    assert not checks.step_residual(forms, u_old, bad, 1e-3).ok


def test_initial_energy_closed_form_rejects_wrong_data():
    e = checks.cosine_energy(1.0, 1.0, 0.1, 0.05)
    assert checks.initial_energy(e * (1 - 1e-3), 1.0, 1.0, 32, 32, 0.1, 0.05).ok
    assert not checks.initial_energy(e * (1 - 1e-2), 1.0, 1.0, 32, 32, 0.1, 0.05).ok


def test_trace_accounts_for_run_time(reference_dir):
    _, result = reference_dir
    layers = result["layers"]
    run_s = result["wall_s"] - result["setup_s"]
    split = sum(v for k, v in layers.items() if k.startswith("self.") and k != "self.untimed_s")
    assert abs(split + layers["self.untimed_s"] - run_s) <= 1e-6
    assert layers["self.untimed_s"] <= 0.05 * run_s
    assert layers["evolution.steps"] == 1000
    assert layers["sparse.factorizations"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass(workload):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"wall_s", "setup_s", "run_s", "peak_rss_mb"}
    assert time.monotonic() - t0 < 30.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
