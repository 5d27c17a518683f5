"""The idgp benchmark: seeded solve workloads, end-to-end metrics from an
untraced pass, per-layer metrics from a separate traced pass.

Run from the root of a source checkout (nothing needs building):

    python3 benchmarks/run.py --workload paper-easy --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
Instance files, per-run rows (in `idgp bench` TSV columns, so two commits
can be compared with `idgp profile`), spans and a machine record are
written under `.bench_out/` in the checkout.
"""

import os

# one BLAS thread, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402
from tracer import Counters, Tracer  # noqa: E402
from workloads import WORKLOADS, run_list  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 2
TSV_FIELDS = ("instance", "n", "edges", "pool", "lde", "mde", "time_s", "status", "seed")

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("solve_s.p50", "s", "lower", 0.25),
    ("solved_frac", "fraction", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


class Case(NamedTuple):
    spec: object                # workloads.RunSpec
    inst: object                # parsed idgp Instance
    edges: check.EdgeArrays
    params: object              # idgp SolverParams


def load_solver():
    """Import idgp from this checkout's src/, never from anywhere else."""
    pkg_dir = ROOT / "src" / "idgp"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"error: no solver sources at {pkg_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import idgp
    from idgp import cli, io, metrics, search, spg  # noqa: F401  (loaded for tracing)

    if Path(idgp.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"error: idgp imported from {idgp.__file__}, not {pkg_dir}")
    return idgp


def machine_record():
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "machine": platform.machine(),
    }


def generate(idgp, workload, specs, out_dir: Path) -> list:
    """Write the workload's instance files; returns their paths."""
    out_dir.mkdir(parents=True)
    paths = []
    for spec in specs:
        atoms, coords = idgp.io.synthetic_backbone(spec.residues, seed=spec.reference_seed)
        inst = idgp.io.generate_instance(atoms, coords, **workload.generator)
        path = out_dir / spec.instance
        idgp.io.write_instance(inst, path)
        paths.append(path)
    return paths


def timed_parse(idgp, paths, times: list) -> list:
    """Parse every instance file, appending the time taken, at reference
    speed, to `times`."""
    before = calibrate.kernel_seconds()
    start = time.perf_counter()
    insts = [idgp.io.parse_instance(p) for p in paths]
    elapsed = time.perf_counter() - start
    times.append(elapsed * calibrate.speed_factor(before, calibrate.kernel_seconds()))
    return insts


def solve_pass(idgp, cases, counters, tracer=None) -> list:
    """Solve every case once; check and digest each report.

    `raw_s` is the run's wall time; `time_s` is the same time at the
    reference speed of the kernel runs before and after it.
    """
    rows = []
    kernel = [calibrate.kernel_seconds()]
    for k, case in enumerate(cases):
        if tracer is not None:
            tracer.run_id = k
        row = {"instance": case.spec.instance, "n": case.inst.n,
               "edges": case.edges.m, "seed": case.params.rng_seed}
        start = time.perf_counter()
        try:
            rep = idgp.search.multistart_solve(case.inst, case.params)
        except Exception as exc:  # a run that raises is counted, not fatal
            rep, row["error"] = None, repr(exc)
        row["raw_s"] = time.perf_counter() - start
        kernel.append(calibrate.kernel_seconds())
        row["time_s"] = row["raw_s"] * calibrate.speed_factor(*kernel[-2:])
        greedy, spg_iterations = counters.take()
        if rep is not None:
            row.update(status=rep.status, trials=rep.trials, pool=rep.pool_size,
                       lde=rep.lde, mde=rep.mde, greedy_calls=greedy,
                       spg_iterations=spg_iterations,
                       digest=check.run_digest(rep, greedy, spg_iterations))
            try:
                check.check_report(rep, case.edges, case.params.eps_mde,
                                   case.params.eps_lde)
            except ValueError as exc:
                row["error"] = f"output check: {exc}"
        rows.append(row)
    return rows


def compare_digests(first, second, what: str) -> list:
    problems = []
    for a, b in zip(first, second):
        if a.get("digest") != b.get("digest"):
            problems.append(f"{what}: {a['instance']} digest {a.get('digest')} "
                            f"!= {b.get('digest')}")
    return problems


def write_tsv(rows, path: Path):
    lines = ["\t".join(TSV_FIELDS)]
    for r in rows:
        if "error" in r:
            vals = dict(r, pool="-", lde="-", mde="-", status="Error")
        else:
            vals = dict(r, lde=f"{r['lde']:.5e}", mde=f"{r['mde']:.5e}")
        vals["time_s"] = f"{r['time_s']:.4f}"
        lines.append("\t".join(str(vals[k]) for k in TSV_FIELDS))
    path.write_text("\n".join(lines) + "\n")


def end_to_end(rows, setup_s) -> dict:
    """End-to-end metrics of the untraced runs."""
    times = [r["time_s"] for r in rows]
    return {
        "wall_s": sum(times),
        "solve_s.p50": check.median(times),
        "solved_frac": check.fraction(r.get("status") == "Solved" and "error" not in r
                                      for r in rows),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    idgp = load_solver()
    machine = machine_record()
    selftest.run_all(idgp)

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    specs = run_list(workload, args.seed)
    paths = generate(idgp, workload, specs, out_dir / "instances")
    # set-up is timed several times, some between rounds, and reported as
    # the median, so one slow moment of the machine does not set it
    setup_times = []
    for _ in range(SETUP_REPEATS - MIN_ROUNDS + 1):
        insts = timed_parse(idgp, paths, setup_times)
    cases = [Case(spec, inst, check.EdgeArrays(inst),
                  idgp.SolverParams(rng_seed=spec.solver_seed, **workload.params))
             for spec, inst in zip(specs, insts)]

    problems = []
    with Counters(idgp) as counters:
        # rounds repeat the identical list; each run keeps its median round
        rounds = []
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if rounds:
                timed_parse(idgp, paths, setup_times)
            rounds.append(solve_pass(idgp, cases, counters))
            now = time.perf_counter()
            if args.trace or (len(rounds) >= MIN_ROUNDS
                              and (now - begin) + (now - round_start) > args.seconds):
                break
        for later in rounds[1:]:
            problems += compare_digests(rounds[0], later, "repeated round")

        if args.trace:
            with Tracer(idgp) as tracer:
                missing = [s for s in layers.SOURCES if s not in tracer.targets]
                for path in paths:
                    idgp.io.parse_instance(path)
                traced = solve_pass(idgp, cases, counters, tracer)
            problems += [f"tracer: wrapped name {s} missing" for s in missing]
            problems += compare_digests(rounds[0], traced, "traced vs untraced")

    # each run's row from the first round, timed by its median round
    rows = [dict(r, time_s=check.median([p[k]["time_s"] for p in rounds]),
                 raw_s=check.median([p[k]["raw_s"] for p in rounds]))
            for k, r in enumerate(rounds[0])]
    attempted = sum(len(p) for p in rounds) + (len(traced) if args.trace else 0)
    errors = [r for p in rounds + ([traced] if args.trace else []) for r in p
              if "error" in r]
    problems += [f"{r['instance']}: {r['error']}" for r in errors]
    write_tsv(rows, out_dir / "runs.tsv")

    if args.trace:
        untraced_wall = sum(r["time_s"] for r in rounds[0])
        traced_wall = sum(r["time_s"] for r in traced)
        factors = [r["time_s"] / r["raw_s"] for r in traced]
        span_table = layers.SpanTable(tracer, factors + [check.median(factors)])
        metrics = layers.per_layer(
            span_table, traced, [c.edges.m for c in cases],
            sum(c.edges.m for c in cases), traced_wall, untraced_wall,
            cases[0].params.eps_similar)
        for name in workload.must_run:
            if span_table.calls(name) == 0:
                problems.append(f"tracer: {name} recorded no calls")
        tracer.write(out_dir / "spans.npz")
        table = [(name, unit) for name, unit, _, _ in layers.PER_LAYER]
    else:
        metrics = end_to_end(rows, check.median(setup_times))
        table = [(name, unit) for name, unit, _, _ in END_TO_END]

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    n_runs = len(rows)
    times = sorted(r["time_s"] for r in rows)
    ok = [r for r in rows if "error" not in r]
    record = dict(result, workload=workload.name, seed=args.seed, machine=machine,
                  runs=n_runs, rounds=len(rounds),
                  error_frac=len(errors) / attempted,
                  digest=check.combined_digest(r.get("digest", "") for r in rows),
                  mde_p50=check.median([r["mde"] for r in ok]) if ok else None,
                  lde_p50=check.median([r["lde"] for r in ok]) if ok else None,
                  problems=problems, rows=rows)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name} seed {args.seed}: {n_runs} runs x "
          f"{len(rounds)} round(s), digest {record['digest']}, "
          f"error_frac {record['error_frac']:.3f}")
    print(f"per-run time over {n_runs} runs: p50 {check.median(times):.4f} s, "
          f"max {times[-1]:.4f} s; LDE p50 {record['lde_p50']}, "
          f"MDE p50 {record['mde_p50']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"raw wall time {sum(r['raw_s'] for r in rows):.4f} s; times below are "
          f"at the reference kernel's speed")
    for name, unit in table:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
