"""Command-line interface: solve, generate, bench, profile, synth."""

import argparse
import math
import sys
from pathlib import Path

from . import io
from .model import IdgpError, SolverParams
from .search import multistart_solve

_DEFAULTS = SolverParams()

_REPORT_FIELDS = ("instance", "n", "edges", "pool", "lde", "mde",
                  "time_s", "status", "seed")


def _run_report(name, inst, rep) -> dict:
    return {
        "instance": name,
        "n": inst.n,
        "edges": len(inst.edges),
        "pool": rep.pool_size,
        "lde": f"{rep.lde:.5e}",
        "mde": f"{rep.mde:.5e}",
        # sub-second runtimes are reported as 1 (timing noise dominates there)
        "time_s": f"{max(1.0, rep.wall_time):.2f}",
        "status": rep.status,
        "seed": rep.seed,
    }


def _emit(text: str, path) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _solver_params(args) -> SolverParams:
    return SolverParams(
        n_trial=args.n_trial, n_conf=args.n_conf, n_tors=args.n_tors,
        n_impr=args.n_impr, eps_mde=args.eps_mde, eps_lde=args.eps_lde,
        eps_similar=args.eps_similar, rng_seed=args.seed,
        time_limit=args.time_limit,
    )


def _add_solver_flags(p):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--time-limit", type=float, default=math.inf,
                   help="wall-clock limit in seconds (default none)")
    p.add_argument("--eps-mde", type=float, default=_DEFAULTS.eps_mde)
    p.add_argument("--eps-lde", type=float, default=_DEFAULTS.eps_lde)
    p.add_argument("--eps-similar", type=float, default=_DEFAULTS.eps_similar)
    p.add_argument("--n-trial", type=int, default=_DEFAULTS.n_trial)
    p.add_argument("--n-conf", type=int, default=_DEFAULTS.n_conf)
    p.add_argument("--n-tors", type=int, default=_DEFAULTS.n_tors)
    p.add_argument("--n-impr", type=int, default=_DEFAULTS.n_impr)


def cmd_solve(args) -> int:
    inst = io.parse_instance(args.instance)
    rep = multistart_solve(inst, _solver_params(args))
    if args.out:
        io.write_conformation(rep.conformation, inst, args.out)
    report = _run_report(Path(args.instance).name, inst, rep)
    _emit("".join(f"{k}: {report[k]}\n" for k in _REPORT_FIELDS), args.report)
    return 0 if rep.status == "Solved" else 2


def cmd_generate(args) -> int:
    atoms, coords = io.parse_reference(args.reference)
    inst = io.generate_instance(
        atoms, coords, angle_width_deg=args.angle_width,
        hh_cutoff=args.hh_cutoff, hh_width_adjacent=args.hh_width_adjacent,
        hh_width_other=args.hh_width_other)
    io.write_instance(inst, args.out)
    return 0


def cmd_bench(args) -> int:
    paths = sorted(Path(args.instances).glob("*"))
    paths = [p for p in paths if p.is_file()]
    if not paths:
        raise IdgpError("no instances")
    params = _solver_params(args)  # a bad flag is one error, not a row per file
    rows = []
    for path in paths:
        try:
            inst = io.parse_instance(path)
            rep = multistart_solve(inst, params)
            row = _run_report(path.name, inst, rep)
        except (IdgpError, OSError) as exc:
            print(f"{path.name}: {exc}", file=sys.stderr)
            row = {k: "-" for k in _REPORT_FIELDS}
            row.update(instance=path.name, status="Error", seed=args.seed,
                       time_s="1.00")
        rows.append(row)
    lines = ["\t".join(_REPORT_FIELDS)]
    lines += ["\t".join(str(r[k]) for k in _REPORT_FIELDS) for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_results_table(path) -> dict:
    out = {}
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise io.ProfileError(f"{path}: empty results table")
    header = lines[0].split("\t")
    try:
        c_name = header.index("instance")
        c_status = header.index("status")
        c_time = header.index("time_s")
    except ValueError as exc:
        raise io.ProfileError(f"{path}: missing column: {exc}") from exc
    for line in lines[1:]:
        if not line.strip():
            continue
        cols = line.split("\t")
        try:
            solved = cols[c_status] == "Solved"
            seconds = float(cols[c_time]) if solved else None
            if solved and not math.isfinite(seconds):
                raise ValueError("solved run without a finite time")
            out[cols[c_name]] = max(1.0, seconds) if solved else None
        except (IndexError, ValueError) as exc:
            raise io.ProfileError(f"{path}: bad row {line!r}: {exc}") from exc
    return out


def cmd_profile(args) -> int:
    labels = args.labels or [Path(p).stem for p in args.results]
    if len(labels) != len(args.results) or len(set(labels)) < len(labels):
        raise io.ProfileError(f"need one distinct label per --results file, got {labels}")
    results = {lab: _read_results_table(p) for lab, p in zip(labels, args.results)}
    profile = io.performance_profile(results)
    lines = [f"{lab}\t{t:.6g}\t{rho:.6g}"
             for lab in sorted(profile) for (t, rho) in profile[lab]]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    atoms, coords = io.synthetic_backbone(args.residues, seed=args.seed,
                                          include_hydrogens=not args.no_hydrogens)
    io.write_reference(atoms, coords, args.out)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="idgp",
        description="Interval distance geometry solver for backbone reconstruction")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--instance", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", help="conformation output path")
    p.add_argument("--report", help="run-report output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate an instance from a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--angle-width", type=float, default=50.0,
                   help="torsion window width in degrees (default 50)")
    p.add_argument("--hh-cutoff", type=float, default=5.0)
    p.add_argument("--hh-width-adjacent", type=float, default=1.0)
    p.add_argument("--hh-width-other", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="solve every instance in a directory")
    p.add_argument("--instances", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", help="results table path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("profile", help="performance-profile step points")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--labels", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("synth", help="emit a synthetic reference backbone")
    p.add_argument("--residues", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-hydrogens", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (IdgpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
