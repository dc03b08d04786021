"""Outputs do not depend on the BLAS thread count.

OpenBLAS splits a dot product across threads from 10,001 entries on, which
changes its rounding.  A 128x128 strip has 16,384 nodes, so every node dot
of ``chwall simulate`` and ``chwall equilibrium`` there is above that
threshold.  ``simulate`` runs with each scheme: Newton's MINRES takes its
inner products through ``grid.dot`` too.  Each run is made in a fresh
process with one and with two threads, and every file must come out byte
for byte the same.
"""

import os
import subprocess
import sys

CONFIG = """\
[grid]
mode = strip2d
Lx = 1.0
Ly = 1.0
nx = 128
ny = 128

[potential]
kind = double_well

[stepper]
scheme = {scheme}
dt = 1e-3
t_end = 0.005

[initial]
kind = cosine
amplitude = 0.1
mean = 0.05

[io]
output_dir = {out}
snapshot_stride = 5

[run]
seed = 7
"""

# config.ini records the output directory, manifest.json the run's times
DIFFER_BY_RUN = {"config.ini", "manifest.json"}


def _files(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = path
    return out


def _run(tmp_path, threads):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    root = tmp_path / f"threads{threads}"
    for name, command, scheme in (("simulate", "simulate", "semi_implicit"),
                                  ("newton", "simulate", "newton"),
                                  ("equilibrium", "equilibrium", "semi_implicit")):
        cfg = tmp_path / f"{name}{threads}.ini"
        cfg.write_text(CONFIG.format(out=root / name, scheme=scheme))
        subprocess.run([sys.executable, "-m", "chwall.cli", command, str(cfg)],
                       env=env, check=True, capture_output=True)
    return _files(root)


def test_outputs_are_the_same_on_one_and_two_blas_threads(tmp_path):
    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    assert sorted(one) == sorted(two)
    compared = [rel for rel in one if os.path.basename(rel) not in DIFFER_BY_RUN]
    assert {"simulate/series.csv", "simulate/diagnostics.csv",
            "newton/series.csv", "newton/final_state.csv",
            "equilibrium/equilibrium.csv", "equilibrium/equilibrium.meta"} <= set(compared)
    differ = []
    for rel in compared:
        with open(one[rel], "rb") as a, open(two[rel], "rb") as b:
            if a.read() != b.read():
                differ.append(rel)
    assert differ == []
