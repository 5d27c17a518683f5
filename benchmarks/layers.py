"""Per-layer metrics computed from a traced pass.

Each PER_LAYER entry names, in its last field, the end-to-end metric the
layer metric should move and the workloads where it should move it. A
faster layer can save at most its `<module>.self_share` of `wall_s`.
"""

import numpy as np

from tracer import MODULES

EASY, IMPROVE, REFINE = "paper-easy", "hard-improve", "hard-refine"
_CONSTRUCT = ("wall_s", (IMPROVE, EASY))
_REFINE = ("wall_s", (REFINE,))
# every run makes one trial, so no workload reaches the RMSD pool filter:
# these read 0 until a workload with several trials per run exists
_POOL = ("wall_s", ())

# (name, unit, better, (end-to-end metric, workloads where it moves))
PER_LAYER = (
    ("geometry.place_atoms_batch.calls", "count", "lower", _CONSTRUCT),
    ("geometry.place_atoms_batch.us_per_call", "us", "lower", _CONSTRUCT),
    ("geometry.local_frame.us_per_call", "us", "lower", _CONSTRUCT),
    ("geometry.sample_torsions.us_per_call", "us", "lower", _CONSTRUCT),
    ("search.greedy_construction.calls", "count", "lower", _CONSTRUCT),
    ("search.greedy_construction.atoms_placed", "count", "lower", _CONSTRUCT),
    ("search.greedy_construction.us_per_atom", "us", "lower", _CONSTRUCT),
    ("search.improve.sweeps", "count", "lower", ("wall_s", (IMPROVE,))),
    ("search.improve.s_per_sweep", "s", "lower", ("wall_s", (IMPROVE,))),
    ("search.improve.flip_attempts", "count", "lower", ("wall_s", (IMPROVE,))),
    ("search.improve.improved_frac", "fraction", "higher", ("solved_frac", (IMPROVE,))),
    ("search.kabsch_rmsd.calls", "count", "lower", _POOL),
    ("search.kabsch_rmsd.us_per_call", "us", "lower", _POOL),
    ("search.pool.reject_frac", "fraction", "lower", _POOL),
    ("search.multistart.trials", "count", "lower", _POOL),
    ("search.multistart.pool_size", "count", "lower", _POOL),
    ("spg.spg_minimize.runs", "count", "lower", _REFINE),
    ("spg.spg_minimize.iterations", "count", "lower", _REFINE),
    ("spg.spg_minimize.us_per_iter", "us", "lower", _REFINE),
    ("spg.spg_minimize.success_frac", "fraction", "higher", _REFINE),
    ("spg.status.SuccessTolerance", "count", "higher", _REFINE),
    ("spg.status.Stalled", "count", "lower", _REFINE),
    ("spg.status.MaxIter", "count", "lower", _REFINE),
    ("spg.status.NumericalFailure", "count", "lower", _REFINE),
    ("spg.evals_per_iter", "ratio", "lower", _REFINE),
    ("spg.grads_per_iter", "ratio", "lower", _REFINE),
    ("metrics.objective.calls", "count", "lower", _REFINE),
    ("metrics.objective.us_per_edge", "us", "lower", _REFINE),
    ("metrics.gradient.calls", "count", "lower", _REFINE),
    ("metrics.gradient.us_per_edge", "us", "lower", _REFINE),
    ("metrics.lde_global.calls", "count", "lower", ("wall_s", (IMPROVE,))),
    ("metrics.lde_global.us_per_call", "us", "lower", ("wall_s", (IMPROVE,))),
    ("metrics.mde_global.calls", "count", "lower", ("wall_s", (IMPROVE,))),
    ("metrics.mde_global.us_per_call", "us", "lower", ("wall_s", (IMPROVE,))),
    ("io.parse_instance.us_per_edge", "us", "lower", ("setup_s", (EASY, IMPROVE, REFINE))),
) + tuple(
    (f"{m}.self_share", "fraction", "lower", ("wall_s", (EASY, IMPROVE, REFINE)))
    for m in MODULES
) + (
    ("trace.overhead_s", "s", "lower", ("wall_s", ())),
)

# traced names the metrics above read; a missing one fails the run
SOURCES = (
    "geometry.place_atoms_batch", "geometry.local_frame", "geometry.sample_torsions",
    "search.greedy_construction", "search.improve", "search.kabsch_rmsd",
    "search.multistart_solve", "spg.spg_minimize", "metrics.StressProblem.objective",
    "metrics.StressProblem.gradient", "metrics.lde_global", "metrics.mde_global",
    "io.parse_instance",
)


def _ratio(num, den) -> float:
    # a layer that did not run reports 0 rather than a NaN the JSON cannot carry
    return float(num) / den if den else 0.0


class SpanTable:
    """Numpy view of a tracer's spans with per-name lookups.

    `factors[k]` rescales the spans of run k to the reference speed (see
    calibrate.py); set-up spans (run -1) use `factors[-1]`.
    """

    def __init__(self, tracer, factors):
        self.names = tracer.names
        self.name_of = np.frombuffer(tracer.name_of, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.run = np.frombuffer(tracer.run, dtype=np.int32)
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)
                    - np.frombuffer(tracer.start, dtype=np.float64)
                    ) * np.asarray(factors)[self.run]
        self.results = tracer.results
        self._nid = {}
        for nid, label in enumerate(self.names):
            self._nid.setdefault(label, []).append(nid)

    def ids(self, label) -> np.ndarray:
        return np.flatnonzero(np.isin(self.name_of, self._nid.get(label, [])))

    def calls(self, label) -> int:
        return int(self.ids(label).size)

    def busy(self, label) -> float:
        return float(self.dur[self.ids(label)].sum())

    def children(self, child, parent) -> np.ndarray:
        """Spans of `child` whose direct parent is a span of `parent`."""
        ids = self.ids(child)
        pids = self.parent[ids]
        ok = pids >= 0
        ok[ok] = np.isin(self.name_of[pids[ok]], self._nid.get(parent, []))
        return ids[ok]

    def self_time_by_module(self) -> dict:
        covered = np.bincount(self.parent[self.parent >= 0],
                              weights=self.dur[self.parent >= 0],
                              minlength=self.dur.size)
        own = self.dur - covered
        module = np.array([label.split(".", 1)[0] for label in self.names])
        per_name = np.bincount(self.name_of, weights=own, minlength=len(self.names))
        return {m: float(per_name[module == m].sum()) for m in MODULES}


def per_layer(t: SpanTable, rows, edges_by_run, parse_edges, traced_wall_s,
              untraced_wall_s, eps_similar) -> dict:
    """All PER_LAYER values for one traced pass.

    rows: per-run records of the traced pass (report fields);
    edges_by_run: edge count of each run's instance;
    parse_edges: total edges over the traced set-up parse.
    """
    out = {}

    for name in ("place_atoms_batch", "local_frame", "sample_torsions"):
        label = f"geometry.{name}"
        out[f"{label}.us_per_call"] = 1e6 * _ratio(t.busy(label), t.calls(label))
    out["geometry.place_atoms_batch.calls"] = t.calls("geometry.place_atoms_batch")

    greedy = "search.greedy_construction"
    atoms = sum(t.results[s] for s in t.ids(greedy))
    out[f"{greedy}.calls"] = t.calls(greedy)
    out[f"{greedy}.atoms_placed"] = atoms
    out[f"{greedy}.us_per_atom"] = 1e6 * _ratio(t.busy(greedy), atoms)

    improve = "search.improve"
    attempts = t.children(greedy, improve).size
    kept = 0
    ldes = t.children("metrics.lde_global", improve)
    for pid in np.unique(t.parent[ldes]):
        values = [t.results[s] for s in ldes[t.parent[ldes] == pid]]
        best = values[0]        # the sweep's starting LDE, then one per attempt
        for v in values[1:]:
            if v < best:
                kept, best = kept + 1, v
    out[f"{improve}.sweeps"] = t.calls(improve)
    out[f"{improve}.s_per_sweep"] = _ratio(t.busy(improve), t.calls(improve))
    out[f"{improve}.flip_attempts"] = attempts
    out[f"{improve}.improved_frac"] = _ratio(kept, attempts)

    kabsch = "search.kabsch_rmsd"
    rejected = sum(1 for s in t.ids(kabsch) if t.results[s] <= eps_similar)
    pooled = sum(r["pool"] for r in rows)
    out[f"{kabsch}.calls"] = t.calls(kabsch)
    out[f"{kabsch}.us_per_call"] = 1e6 * _ratio(t.busy(kabsch), t.calls(kabsch))
    out["search.pool.reject_frac"] = _ratio(rejected, rejected + pooled)
    out["search.multistart.trials"] = _ratio(sum(r["trials"] for r in rows), len(rows))
    out["search.multistart.pool_size"] = _ratio(pooled, len(rows))

    spg = "spg.spg_minimize"
    runs = t.ids(spg)
    iterations = sum(t.results[s][0] for s in runs)
    statuses = [t.results[s][1] for s in runs]
    out[f"{spg}.runs"] = int(runs.size)
    out[f"{spg}.iterations"] = iterations
    out[f"{spg}.us_per_iter"] = 1e6 * _ratio(t.busy(spg), iterations)
    out[f"{spg}.success_frac"] = _ratio(statuses.count("SuccessTolerance"), runs.size)
    for status in ("SuccessTolerance", "Stalled", "MaxIter", "NumericalFailure"):
        out[f"spg.status.{status}"] = statuses.count(status)
    out["spg.evals_per_iter"] = _ratio(
        t.children("metrics.StressProblem.objective", spg).size, iterations)
    out["spg.grads_per_iter"] = _ratio(
        t.children("metrics.StressProblem.gradient", spg).size, iterations)

    for name in ("objective", "gradient"):
        ids = t.ids(f"metrics.StressProblem.{name}")
        edge_calls = sum(edges_by_run[r] for r in t.run[ids])
        out[f"metrics.{name}.calls"] = int(ids.size)
        out[f"metrics.{name}.us_per_edge"] = 1e6 * _ratio(t.dur[ids].sum(), edge_calls)
    for name in ("lde_global", "mde_global"):
        label = f"metrics.{name}"
        out[f"{label}.calls"] = t.calls(label)
        out[f"{label}.us_per_call"] = 1e6 * _ratio(t.busy(label), t.calls(label))

    out["io.parse_instance.us_per_edge"] = 1e6 * _ratio(
        t.busy("io.parse_instance"), parse_edges)
    # io runs only in set-up, so its share compares parse time with wall_s
    for module, seconds in t.self_time_by_module().items():
        out[f"{module}.self_share"] = _ratio(seconds, traced_wall_s)
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
