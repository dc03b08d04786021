"""End-to-end benchmark of chwall: one workload per call.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chwall checkout.  Each repetition of the workload is
a fresh process (``child.py``) that imports chwall from ``src``, runs the
workload's chwall commands, and checks their outputs.  Repetitions run one
at a time until the next one would end after S seconds (at least two).
With ``--trace 0`` the last line printed is the JSON result with the
end-to-end metrics (medians over repetitions); with ``--trace 1``,
untraced and traced repetitions alternate and the result holds the
per-layer metrics of the traced ones plus the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".e2ebench")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
RUN_DEADLINE_S = 175  # a call must end within 180 s


def run_rep(workload, seed, size, trace, rep_dir, timeout):
    """One fresh child process; returns its result dict."""
    if os.path.exists(rep_dir):
        shutil.rmtree(rep_dir)
    os.makedirs(rep_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--dir", rep_dir]
    if trace:
        cmd.append("--trace")
    log_path = os.path.join(rep_dir, "child.log")
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)], stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} repetition did not end within {timeout:.0f} s")
    result_path = os.path.join(rep_dir, "result.json")
    if rc != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            raise RuntimeError(f"{workload} child exited {rc}:\n{fh.read()[-3000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["run_s"] = result["wall_s"] - result["setup_s"]
    return result


def plan_reps(workload, seed, seconds, size, trace_pattern, work_dir, on_rep=None):
    """Repeat until the next repetition would end after `seconds`.

    trace_pattern gives the trace flag of repetition i (cycled); at least
    one full cycle and at least two repetitions run.
    """
    results = []
    t0 = time.monotonic()
    min_reps = max(2, len(trace_pattern))
    while True:
        i = len(results)
        trace = trace_pattern[i % len(trace_pattern)]
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - t0))
        res = run_rep(workload, seed, size, trace, os.path.join(work_dir, f"rep{i}"), timeout)
        res["traced"] = trace
        results.append(res)
        if on_rep:
            on_rep(res)
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(results)
        if len(results) >= min_reps and elapsed + per_rep > seconds:
            return results


def summarize_ops(results):
    attempted = failed = 0
    failures = []
    for res in results:
        for op in res["operations"]:
            attempted += 1
            if op["failed"]:
                failed += 1
                bad = [c for c in op["checks"] if not c["ok"]]
                failures.append({"op": op["label"], "rc": op["rc"], "error": op["error"],
                                 "failed_checks": bad, "check_error": res["check_error"]})
    return attempted, failed, failures


def median(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids, for the self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chwall", "cli.py")):
        print(f"error: no chwall sources under {os.path.join(ROOT, 'src')}; "
              "run from a chwall checkout", file=sys.stderr)
        return 2

    def progress(res):
        print(f"# {args.workload} rep: wall {res['wall_s']:.3f} s, setup "
              f"{res['setup_s']:.3f} s, peak {res['peak_rss_mb']:.1f} MB"
              + (" (traced)" if res["traced"] else ""), flush=True)

    pattern = (False, True) if args.trace else (False,)
    # a private directory per call; the last call's files are kept for reading
    work_dir = os.path.join(WORK_DIR, f"{args.workload}.{os.getpid()}")
    last_dir = os.path.join(WORK_DIR, f"last-{args.workload}")
    try:
        results = plan_reps(args.workload, args.seed, args.seconds, args.size,
                            pattern, work_dir, progress)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(work_dir):
            shutil.rmtree(last_dir, ignore_errors=True)
            os.replace(work_dir, last_dir)
    attempted, failed, failures = summarize_ops(results)
    for f in failures:
        print(f"# FAILED {json.dumps(f)}", flush=True)
    correct = not any(f["failed_checks"] or f["check_error"] for f in failures)

    plain = [r for r in results if not r["traced"]]
    if args.trace:
        traced = [r for r in results if r["traced"]]
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_pct":
                value = 100.0 * (median(traced, "run_s") / median(plain, "run_s") - 1.0)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
