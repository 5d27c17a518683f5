"""Span tracing and call counting from outside the solver.

The solver is not edited: these classes replace module attributes with
wrappers for the duration of a `with` block and put the originals back on
exit. Every attribute of every loaded `idgp` module that is bound to a
wrapped function is replaced, which covers names imported by name (for
example `search.spg_minimize`, which is `spg.spg_minimize`) as well as
calls made through module globals (`place_atoms_batch` reaching
`local_frame` through `geometry`).
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# layers = modules; `model` holds types only and `cli` is a thin wrapper
MODULES = ("io", "geometry", "search", "spg", "metrics")
# StressProblem methods that do work; pack/unpack are reshapes and views
STRESS_METHODS = ("__init__", "init_d", "project", "objective", "gradient")


def traceable(pkg) -> dict:
    """Map 'module.name' -> (owner, attribute) for every public function of
    the measured modules, plus the StressProblem methods."""
    out = {}
    for mod_name in MODULES:
        mod = getattr(pkg, mod_name)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{mod_name}.{name}"] = (mod, name)
    for name in STRESS_METHODS:
        out[f"metrics.StressProblem.{name}"] = (pkg.metrics.StressProblem, name)
    return out


class _Patch:
    """Replace every reference to selected functions inside a package."""

    def __init__(self, pkg, targets: dict, make_wrapper):
        self._saved = []
        originals = {}
        for label, (owner, attr) in targets.items():
            fn = vars(owner)[attr]
            originals[id(fn)] = make_wrapper(label, fn)
        prefix = pkg.__name__ + "."
        owners = [m for n, m in list(sys.modules.items())
                  if n == pkg.__name__ or n.startswith(prefix)]
        owners += [owner for owner, _ in targets.values() if inspect.isclass(owner)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Counters:
    """Greedy-construction calls and SPG iterations, with no clock reads.

    Used on the untraced pass so its digest can include layer counts
    without timing anything inside the solver.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.greedy_calls = 0
        self.spg_iterations = 0

    def _wrap(self, label, fn):
        # functools.wraps keeps __module__, so a Tracer entered inside this
        # block still finds and wraps these functions
        if label == "search.greedy_construction":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.greedy_calls += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.spg_iterations += result.iterations
                return result
        return wrapper

    def __enter__(self):
        targets = traceable(self.pkg)
        self._patch = _Patch(self.pkg, {k: targets[k] for k in (
            "search.greedy_construction", "spg.spg_minimize")}, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def take(self):
        out = (self.greedy_calls, self.spg_iterations)
        self.greedy_calls = self.spg_iterations = 0
        return out


class Tracer:
    """Spans (name, start, end, parent, run id) kept in flat arrays.

    A span is opened on entry to a wrapped function and closed on exit;
    its parent is the innermost open span. `results` keeps, per span, the
    part of the return value that feeds a per-layer count.
    """

    KEEP = {
        "search.greedy_construction": lambda r: len(r[0]),     # atoms placed
        "spg.spg_minimize": lambda r: (r.iterations, r.status.value),
        "search.kabsch_rmsd": float,
        "metrics.lde_global": float,
    }

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = []                 # label per name id
        self.name_of = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.results = {}               # span id -> return value
        self.run_id = -1
        self.epoch = time.perf_counter()

    def _wrap(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        stack = self._stack
        name_of, parent, run = self.name_of, self.parent, self.run
        start, end, results = self.start, self.end, self.results
        keep = self.KEEP.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if keep is not None:
                results[sid] = keep(result)
            return result

        return wrapper

    def __enter__(self):
        self._stack = [-1]
        self.targets = traceable(self.pkg)
        self._patch = _Patch(self.pkg, self.targets, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def write(self, path):
        """Write every span to a compressed .npz: `name` indexes `names`,
        `parent` is a span index or -1, `run` is -1 for set-up, times are
        seconds since the tracer was created."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name_of),
            parent=np.array(self.parent), run=np.array(self.run),
            start=np.array(self.start) - self.epoch,
            end=np.array(self.end) - self.epoch)
