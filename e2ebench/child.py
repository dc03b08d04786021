"""One repetition of one workload, in a fresh process.

    python3 e2ebench/child.py --workload NAME --seed N --size full|tiny
        --dir RUN_DIR --spawn T [--trace]

T is the parent's ``time.monotonic()`` just before it started this process,
so every time below counts from process start.  The process imports chwall,
runs the workload's chwall commands in turn, notes peak memory, and only
then checks the outputs; the checks are not timed.  The result goes to
RUN_DIR/result.json.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import chwall.cli as cli  # noqa: E402  (timed as part of set-up)

T_IMPORTED = time.monotonic()


class SetupMark:
    """Records when the first time step or equilibrium solve begins."""

    def __init__(self):
        self.t = None

    def hook(self, fn):
        def first_call(*args, **kwargs):
            if self.t is None:
                self.t = time.monotonic()
            return fn(*args, **kwargs)

        return first_call


def run_operations(ops):
    """Run each chwall command; returns one record per operation."""
    records = []
    for label, argv in ops:
        buf = io.StringIO()
        rec = {"label": label, "argv": argv, "rc": None, "error": ""}
        try:
            with contextlib.redirect_stdout(buf):
                rec["rc"] = cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            rec["error"] = traceback.format_exc(limit=5)
        rec["stdout"] = buf.getvalue()
        records.append(rec)
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    mark = SetupMark()
    cli.evolve = mark.hook(cli.evolve)
    cli.find_equilibrium = mark.hook(cli.find_equilibrium)

    ops = workloads.prepare(args.workload, args.size, args.seed, args.dir)
    records = run_operations(ops)
    t_end = time.monotonic()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_setup = mark.t if mark.t is not None else t_end

    result = {
        "import_s": T_IMPORTED - args.spawn,
        "setup_s": t_setup - args.spawn,
        "wall_s": t_end - args.spawn,
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        layers = tracer.metrics((t_setup, t_end))
        layers["setup.import_s"] = result["import_s"]
        result["layers"] = layers
        tracer.write_spans(os.path.join(args.dir, "trace_spans.csv"))

    stdout = {r["label"]: r["stdout"] for r in records}
    try:
        by_op = workloads.verify(args.workload, args.size, args.seed, args.dir, stdout)
        check_error = ""
    except Exception:  # unreadable or missing output: every check fails
        by_op = {}
        check_error = traceback.format_exc(limit=5)
    for rec in records:
        found = by_op.get(rec["label"], [])
        rec["checks"] = [{"name": c.name, "ok": bool(c.ok), "detail": c.detail}
                         for c in found]
        rec["failed"] = (rec["rc"] != 0 or bool(rec["error"]) or bool(check_error)
                         or not all(c.ok for c in found))
    result["operations"] = records
    result["check_error"] = check_error
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
