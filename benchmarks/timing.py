"""The timing rule and the result writer of the layer benchmarks.

Every figure ``*_s`` that a script in ``benchmarks/`` writes is the median
and quartiles of ``--repeat`` samples (at least 2), in seconds per call.  A
sample is the mean time of one call over a loop of calls that lasts about a
millisecond, or the time of one call when a call is longer.  The calls are
timed in groups: after one warm-up round, which also sets each loop's
length, each of ``--repeat`` rounds takes one sample of every call of the
group in turn, so a slow spell of a shared machine falls on every call of
the group rather than on one.  Calls that share cached state go in separate
groups.
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOOP_S = 1e-3
TIMING = ("median and quartiles of {repeat} samples, seconds per call; a sample is the "
          "mean of a loop of calls lasting about 1 ms (one call if longer), each call of a "
          "group taken in turn in each of {repeat} rounds after one warm-up round")


def timed(repeat, calls):
    """{name: {"median", "q1", "q3"}} of the dict of named calls, one group."""
    numbers = {}
    for name, call in calls.items():
        t0 = time.perf_counter()
        call()
        numbers[name] = max(1, int(LOOP_S / max(time.perf_counter() - t0, 1e-9)))
    samples = {name: [] for name in calls}
    for _ in range(repeat):
        for name, call in calls.items():
            t0 = time.perf_counter()
            for _ in range(numbers[name]):
                call()
            samples[name].append((time.perf_counter() - t0) / numbers[name])
    out = {}
    for name, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def run(argv, doc, out_name, cases, add_arguments=None):
    """Parse ``--repeat`` and ``--out`` (and a script's own arguments, which
    ``add_arguments(parser)`` adds), then write ``{"timing", "platform",
    "cases"}`` to ``--out``, by default ``out_name`` at the repo root.
    ``cases(args)`` yields the (name, figures) of each case."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, out_name))
    if add_arguments is not None:
        add_arguments(parser)
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2: the quartiles need two samples")
    result = {}
    for name, case in cases(args):
        result[name] = case
        print(name, json.dumps(case))
    with open(args.out, "w") as fh:
        json.dump({
            "timing": TIMING.format(repeat=args.repeat),
            "platform": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__, "machine": platform.machine(),
                         "cpus": os.cpu_count()},
            "cases": result,
        }, fh, indent=2)
        fh.write("\n")
