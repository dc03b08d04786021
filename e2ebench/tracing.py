"""Span tracing of a chwall process from the outside.

``Tracer.install`` replaces chwall's public functions, scipy's ``splu`` (and
the ``solve`` of the factor objects it returns), ``scipy.linalg.eigh`` and
the ``open`` that chwall's modules see with timing wrappers.  Each call
becomes a span (name, start, end, parent span) kept in memory, and the
first part of the name ("energy" in "energy.energy_value") is its layer;
``metrics`` turns the spans and counts into the per-layer figures and
``write_spans`` saves them when the run ends.  Nothing under chwall's
source is changed: the wrappers live in the traced process only.
"""

import builtins
import functools
import inspect
import os
import time
from array import array

import numpy as np

CHWALL_MODULES = ("grid", "kernels", "operators", "energy", "evolution",
                  "stationary", "analysis", "config", "svgplot", "cli")

# Layers of the self-time split, in report order.  "sparse" is scipy's LU
# (factorize and solve), "dense" is scipy.linalg.eigh, "io" is time between
# opening and closing a file.
LAYERS = ("cli", "config", "grid", "operators", "kernels", "energy", "evolution",
          "stationary", "analysis", "svgplot", "sparse", "dense", "io")

# Inclusive time and call counts reported for these functions.
TIMED = {
    "evolution.evolve": "evolution.evolve",
    "energy.energy_value": "energy.value",
    "energy.state_report": "energy.report",
    "energy.energy_gradient_raw": "energy.gradient",
    "kernels.grad_form_strip": "kernels.grad_form",
    "stationary.minimize_energy": "stationary.minimize",
    "stationary.newton_refine": "stationary.newton",
    "analysis.spectrum": "analysis.spectrum",
    "analysis.ls_probe": "analysis.probe",
    "analysis.rate_fit": "analysis.rate_fit",
    "operators.x_norm": "operators.x_norm",
    "cli.build_problem": "setup.build",
    "sparse.splu": "sparse.factorize",
    "sparse.solve": "sparse.solve",
    "dense.eigh": "analysis.dense_eig",
    "io.write": "io.write",
    "io.read": "io.read",
}

PER_LAYER = (
    ["setup.import_s", "setup.build_s",
     "sparse.factorizations", "sparse.factorize_s", "sparse.factor_nnz",
     "sparse.solves", "sparse.solve_s",
     "evolution.steps", "evolution.evolve_s", "evolution.factorizations_per_step",
     "evolution.auto_S_values",
     "energy.value_calls", "energy.value_s", "energy.report_calls", "energy.report_s",
     "energy.gradient_calls", "energy.gradient_s",
     "kernels.grad_form_calls", "kernels.grad_form_s",
     "stationary.minimize_s", "stationary.lbfgs_iters",
     "stationary.newton_s", "stationary.newton_iters",
     "analysis.spectrum_s", "analysis.dense_eig_s", "analysis.dense_eig_n",
     "analysis.probe_s", "analysis.rate_fit_s",
     "operators.x_norm_calls", "operators.x_norm_s",
     "io.write_s", "io.bytes_written", "io.read_s"]
    + [f"self.{layer}_s" for layer in LAYERS]
    + ["self.untimed_s", "trace.run_s", "trace.spans", "trace.overhead_pct"]
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric == "io.bytes_written":
        return "B"
    if metric == "evolution.factorizations_per_step":
        return "1/step"
    return "count"


class Tracer:
    def __init__(self):
        self.names = []          # interned span names
        self._name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.splu_in_evolve = 0
        self.steps = 0
        self.auto_S = set()
        self.factor_nnz = 0
        self.dense_n = 0
        self.lbfgs_iters = 0
        self.newton_iters = 0
        self.bytes_written = 0

    # -- spans ----------------------------------------------------------------

    def _open_span(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.monotonic())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close_span(self, idx):
        self.end[idx] = time.monotonic()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            self.stack.remove(idx)

    def _inside(self, name):
        nid = self._name_ids.get(name)
        return nid is not None and any(self.span_name[i] == nid for i in self.stack)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        import importlib

        import scipy.linalg
        import scipy.sparse.linalg

        mods = {m: importlib.import_module(f"chwall.{m}") for m in CHWALL_MODULES}
        hooks = {
            "evolution.auto_stabilization": self._on_auto_S,
            "stationary.minimize_energy": self._on_minimize,
            "stationary.newton_refine": self._on_newton,
        }
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[obj] = self.wrap(name, obj, hooks.get(name))
        # rebind every reference, including names imported into other modules
        for mod in list(mods.values()) + [importlib.import_module("chwall")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        for mod in mods.values():
            mod.open = self._open
        splu = scipy.sparse.linalg.splu
        scipy.sparse.linalg.splu = self.wrap("sparse.splu", self._splu(splu))
        scipy.linalg.eigh = self.wrap("dense.eigh", scipy.linalg.eigh, self._on_eigh)
        return self

    def _splu(self, splu):
        tracer = self

        def factorize(*args, **kwargs):
            lu = splu(*args, **kwargs)
            tracer.factor_nnz = max(tracer.factor_nnz, int(lu.nnz))
            if tracer._inside("evolution.evolve"):
                tracer.splu_in_evolve += 1
            return _TracedFactor(lu, tracer)

        return factorize

    def _on_auto_S(self, result, args):
        if self._inside("evolution.evolve"):
            self.steps += 1
        self.auto_S.add(result)

    def _on_minimize(self, result, args):
        self.lbfgs_iters += int(result.iterations)

    def _on_newton(self, result, args):
        self.newton_iters += int(result.newton_iters)

    def _on_eigh(self, result, args):
        self.dense_n = max(self.dense_n, int(np.shape(args[0])[0]))

    def _open(self, file, mode="r", *args, **kwargs):
        kind = "io.write" if any(c in mode for c in "wax+") else "io.read"
        idx = self._open_span(kind)
        try:
            fh = builtins.open(file, mode, *args, **kwargs)
        except BaseException:
            self._close_span(idx)
            raise
        return _TracedFile(fh, self, idx, kind == "io.write")

    # -- results ------------------------------------------------------------------

    def metrics(self, window):
        """Per-layer figures; self times are clipped to window = (t0, t1)."""
        n = len(self.start)
        names = np.array(self.names, dtype=object)
        sid = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        span_names = names[sid] if n else np.array([], dtype=object)
        dur = end - start
        t0, t1 = window
        clipped = np.clip(np.minimum(end, t1) - np.maximum(start, t0), 0.0, None)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], clipped[has_parent])
        self_time = clipped - child
        layer = np.array([s.split(".", 1)[0] for s in span_names], dtype=object)

        out = {}
        for key, label in TIMED.items():
            mask = span_names == key  # none of these functions calls itself
            out[f"{label}_s"] = float(dur[mask].sum())
            out[f"{label}_calls"] = int(mask.sum())
        for name in LAYERS:
            out[f"self.{name}_s"] = float(self_time[layer == name].sum())
        run_s = t1 - t0
        out["self.untimed_s"] = run_s - float(self_time.sum())
        out["trace.run_s"] = run_s
        out["trace.spans"] = n
        out["sparse.factorizations"] = out.pop("sparse.factorize_calls")
        out["sparse.solves"] = out.pop("sparse.solve_calls")
        out["sparse.factor_nnz"] = self.factor_nnz
        out["evolution.steps"] = self.steps
        out["evolution.factorizations_per_step"] = (
            self.splu_in_evolve / self.steps if self.steps else 0.0)
        out["evolution.auto_S_values"] = len(self.auto_S)
        out["stationary.lbfgs_iters"] = self.lbfgs_iters
        out["stationary.newton_iters"] = self.newton_iters
        out["analysis.dense_eig_n"] = self.dense_n
        out["io.bytes_written"] = self.bytes_written
        return out

    def write_spans(self, path):
        with builtins.open(path, "w") as fh:
            fh.write("span,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")


class _TracedFactor:
    """The factor object splu returns, with a timed solve."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("sparse.solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _TracedFile:
    """A file whose span runs from open to close; counts bytes written."""

    def __init__(self, fh, tracer, idx, writing):
        self._fh = fh
        self._tracer = tracer
        self._idx = idx
        self._writing = writing
        self._closed = False

    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            if self._writing:
                self._fh.flush()
                self._tracer.bytes_written += os.fstat(self._fh.fileno()).st_size
            self._fh.close()
        finally:
            self._tracer._close_span(self._idx)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __iter__(self):
        return iter(self._fh)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)
