"""Span recorder that wraps mesorate's public functions from outside the
package, plus the per-layer metrics computed from the recorded spans.

`install` replaces every module attribute of `mesorate.*` that names a
public function defined in the package (so `experiments.steady_state` is
wrapped as well as `solver.steady_state`), the same functions where a
module keeps them in a tuple (`acceptance._CRITERIA`), a few methods
(`RateSet.replacing`, `StateVector.__post_init__`) and `numpy.linalg.svd`
and `numpy.linalg.solve`.  A span is named after where the function is
defined, `<module>.<qualname>`, whichever binding was called.  Spans are
kept in memory with the index of their parent span and written out by
`write_tsv` at the end of the run.  Nothing here is active until
`install` is called, and the returned `restore` undoes every patch.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Per-layer metrics reported with --trace 1, in report order.  Counts are
# per pass; times are per call unless the name says otherwise.
LAYER_UNITS = {
    "solver.steady_calls": "count",
    "solver.steady_us": "us",
    "solver.steady_self_us": "us",
    "solver.steady_failed": "count",
    "solver.svd_calls": "count",
    "solver.svd_us": "us",
    "solver.lu_calls": "count",
    "solver.lu_us": "us",
    "solver.lapack_calls_per_point": "count",
    "solver.evolve_calls": "count",
    "solver.evolve_steps": "count",
    "solver.evolve_us_per_step": "us",
    "builders.calls": "count",
    "builders.us_per_call": "us",
    "model.replacing_us": "us",
    "model.violation_us": "us",
    "model.statevector_count": "count",
    "observables.calls": "count",
    "observables.us_per_call": "us",
    "analytic.calls": "count",
    "analytic.us_per_call": "us",
    "experiments.self_us_per_point": "us",
    "output.rows": "count",
    "output.bytes": "B",
    "output.us_per_row": "us",
    "config.load_us": "us",
    "cli.self_us": "us",
    "cli.pass_us": "us",
    **{f"acceptance.criterion_{k}_s": "s" for k in range(1, 10)},
    "oracle.max_rel_err": "ratio",
    "bench.trace_overhead_share": "ratio",
}

_METHODS = (("model", "RateSet", "replacing"), ("model", "StateVector", "__post_init__"))
_LINALG = ("svd", "solve")

# Functions whose result gives the work done by the call: RK4 steps of an
# evolve, grid points of a sweep.
_SIZE_OF = {
    "solver.evolve": lambda traj: len(traj.times) - 1,
    "experiments.run_sweep": len,
    "experiments.run_fermi_sweep": len,
}


class Recorder:
    """Spans as parallel arrays: name id, parent index (-1 at the root),
    start and end in ns, whether the call raised, and the work size."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.size = array("q")
        self._open: list[int] = []

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        size_of = _SIZE_OF.get(name)
        clock = time.perf_counter_ns
        rec = self
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(open_spans[-1] if open_spans else -1)
            rec.raised.append(1)
            rec.size.append(0)
            open_spans.append(idx)
            t0 = clock()
            rec.start.append(t0)
            rec.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                open_spans.pop()
            rec.raised[idx] = 0
            if size_of is not None:
                rec.size[idx] = size_of(result)
            return result

        return traced

    def write_tsv(self, path: str) -> None:
        """Write the spans of the first traced pass (the first root span
        and everything beneath it)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tdur_ns\traised\tsize\n")
            t_base = self.start[0] if len(self) else 0
            for i in range(len(self)):
                if i and self.parent[i] < 0:
                    break
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t_base}\t{self.end[i] - self.start[i]}\t"
                         f"{self.raised[i]}\t{self.size[i]}\n")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(rec: Recorder):
    """Patch the package and numpy.linalg; returns a function undoing it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "mesorate" or name.startswith("mesorate."))]
    wrapped: dict = {}
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrapper_for(fn):
        if fn not in wrapped:
            wrapped[fn] = rec.wrap(f"{_short(fn.__module__)}.{fn.__qualname__}", fn)
        return wrapped[fn]

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__.startswith("mesorate")):
                patch(mod, attr, wrapper_for(value))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, tuple) and any(inspect.isfunction(v) and v in wrapped
                                                 for v in value):
                patch(mod, attr, tuple(wrapped.get(v, v) if inspect.isfunction(v) else v
                                       for v in value))
    for mod_name, cls_name, meth in _METHODS:
        cls = getattr(sys.modules[f"mesorate.{mod_name}"], cls_name)
        patch(cls, meth, wrapper_for(vars(cls)[meth]))
    for fn_name in _LINALG:
        patch(np.linalg, fn_name, rec.wrap(f"numpy.linalg.{fn_name}", getattr(np.linalg, fn_name)))

    def restore():
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)

    return restore


def layer_metrics(rec: Recorder, passes: int, rows_per_pass: int) -> dict[str, float]:
    """Per-layer metrics, counts per pass and times per call (per written
    row for `output`).

    A span's self time is its duration minus the durations of its direct
    children.  A module's calls are its outermost spans: those whose
    parent span belongs to another module.  Inside `steady_state`, SVD and
    LU time are the `numpy.linalg` spans beneath it, and the steady self
    time is the rest, so the three add up to the steady time.
    """
    n = len(rec)
    names = rec.names
    nid = np.frombuffer(rec.name_id, dtype=np.int64, count=n)
    parent = np.frombuffer(rec.parent, dtype=np.int64, count=n)
    dur = (np.frombuffer(rec.end, dtype=np.int64, count=n)
           - np.frombuffer(rec.start, dtype=np.int64, count=n)).astype(float) / 1e3  # us
    raised = np.frombuffer(rec.raised, dtype=np.int8, count=n).astype(bool)
    size = np.frombuffer(rec.size, dtype=np.int64, count=n)

    has_parent = parent >= 0
    child_us = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_us = dur - child_us

    # the extra "" entry is the module of the missing parent of a root span
    module_of_name = np.array([nm.split(".")[0] for nm in names] + [""], dtype=object)
    mod = module_of_name[nid]
    parent_mod = module_of_name[np.where(has_parent, nid[parent], len(names))]
    outermost = mod != parent_mod

    def mask(name):
        return nid == rec._ids.get(name, -1)

    def per_call(total, calls):
        return float(total) / calls if calls else 0.0

    out: dict[str, float] = {}

    steady = mask("solver.steady_state")
    n_steady = int(steady.sum())
    steady_idx = set(np.nonzero(steady)[0].tolist())

    def under_steady(name):
        """Indices of `name` spans with a steady_state span above them."""
        found = []
        for i in np.nonzero(mask(name))[0].tolist():
            p = int(parent[i])
            while p >= 0 and p not in steady_idx:
                p = int(parent[p])
            if p >= 0:
                found.append(i)
        return np.array(found, dtype=np.int64)

    svd = under_steady("numpy.linalg.svd")
    lu = under_steady("numpy.linalg.solve")
    steady_us = per_call(dur[steady].sum(), n_steady)
    svd_us = per_call(dur[svd].sum(), n_steady)
    lu_us = per_call(dur[lu].sum(), n_steady)
    out["solver.steady_calls"] = n_steady / passes
    out["solver.steady_us"] = steady_us
    out["solver.steady_self_us"] = steady_us - svd_us - lu_us
    out["solver.steady_failed"] = int((steady & raised).sum()) / passes
    out["solver.svd_calls"] = len(svd) / passes
    out["solver.svd_us"] = svd_us
    out["solver.lu_calls"] = len(lu) / passes
    out["solver.lu_us"] = lu_us
    out["solver.lapack_calls_per_point"] = per_call(len(svd) + len(lu), n_steady)

    evolve = mask("solver.evolve")
    steps = int(size[evolve].sum())
    out["solver.evolve_calls"] = int(evolve.sum()) / passes
    out["solver.evolve_steps"] = steps / passes
    out["solver.evolve_us_per_step"] = per_call(dur[evolve].sum(), steps)

    for module in ("builders", "observables", "analytic"):
        top = outermost & (mod == module)
        calls = int(top.sum())
        out[f"{module}.calls"] = calls / passes
        out[f"{module}.us_per_call"] = per_call(dur[top].sum(), calls)

    replacing = mask("model.RateSet.replacing")
    violation = mask("model.state_violation_magnitude")
    out["model.replacing_us"] = per_call(dur[replacing].sum(), int(replacing.sum()))
    out["model.violation_us"] = per_call(dur[violation].sum(), int(violation.sum()))
    out["model.statevector_count"] = int(mask("model.StateVector.__post_init__").sum()) / passes

    sweeps = mask("experiments.run_sweep") | mask("experiments.run_fermi_sweep")
    out["experiments.self_us_per_point"] = per_call(self_us[sweeps].sum(), int(size[sweeps].sum()))

    top_output = outermost & (mod == "output")
    out["output.us_per_row"] = per_call(dur[top_output].sum(), rows_per_pass * passes)

    load = mask("config.load_config")
    out["config.load_us"] = per_call(dur[load].sum(), int(load.sum()))
    cli = mask("cli.cli_main")
    out["cli.self_us"] = per_call(self_us[cli].sum(), int(cli.sum()))
    out["cli.pass_us"] = per_call(dur[cli].sum(), int(cli.sum()))

    for k in range(1, 10):
        crit = mask(f"acceptance.criterion_{k}")
        out[f"acceptance.criterion_{k}_s"] = per_call(dur[crit].sum(), int(crit.sum())) / 1e6
    return out
