"""Fast self-test of the benchmark's own code: output check, digest,
statistics, fraction counting, the TSV rows `idgp profile` reads, and the
agreement of BENCHMARK.json with the metric tables. Runs on a tiny
generated instance in well under a second.

    python3 benchmarks/selftest.py       # from the root of a checkout
"""

import copy
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import calibrate
import check
import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class SelfTestError(AssertionError):
    pass


def _expect(ok, what):
    if not ok:
        raise SelfTestError(f"benchmark self-test failed: {what}")


def _raises(fn, what):
    try:
        fn()
    except ValueError:
        return
    raise SelfTestError(f"benchmark self-test failed: {what} was not rejected")


def _statistics():
    _expect(check.median([3.0, 1.0, 2.0]) == 2.0, "median of three")
    _expect(check.median([4.0, 1.0, 2.0, 3.0]) == 2.5, "median of four")
    _expect(check.fraction([True, False, True, True]) == 0.75, "fraction")
    _expect(check.fraction(x == "Solved" for x in ("Solved", "BestEffort")) == 0.5,
            "fraction of a generator")
    _raises(lambda: check.fraction([]), "fraction of nothing")
    ref = calibrate.REFERENCE_S
    _expect(calibrate.speed_factor(ref, ref) == 1.0, "speed factor at reference speed")
    _expect(math.isclose(calibrate.speed_factor(ref, 3 * ref), 0.5),
            "speed factor on a machine running at half speed")
    _expect(calibrate.kernel_seconds() > 0.0, "reference kernel time")


def _lde_mde():
    class Inst:
        n = 3
        edges = {(1, 2): type("E", (), dict(lower=1.0, upper=1.0))(),
                 (1, 3): type("E", (), dict(lower=1.0, upper=1.5))()}

    edges = check.EdgeArrays(Inst)
    coords = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lde, mde = check.lde_mde(coords, edges)
    # edge (1,2) exact at 1.0; edge (1,3) realized 2.0 over upper 1.5
    _expect(math.isclose(lde, 0.5 / 1.5) and math.isclose(mde, 0.25 / 1.5),
            "hand-computed LDE/MDE")


def _report_checks(idgp, work: Path):
    atoms, coords = idgp.io.synthetic_backbone(3, seed=1)
    path = work / "tiny.inst"
    idgp.io.write_instance(idgp.io.generate_instance(atoms, coords), path)
    inst = idgp.io.parse_instance(path)
    edges = check.EdgeArrays(inst)
    params = idgp.SolverParams(rng_seed=0, n_trial=3)
    rep = idgp.multistart_solve(inst, params)
    lde, mde, solved = check.check_report(rep, edges, params.eps_mde, params.eps_lde)
    _expect(solved == (rep.status == "Solved"), "status of the tiny solve")

    def altered(**changes):
        bad = copy.deepcopy(rep)
        for key, value in changes.items():
            setattr(bad, key, value)
        return lambda: check.check_report(bad, edges, params.eps_mde, params.eps_lde)

    _raises(altered(lde=rep.lde * 1.001 + 1e-9), "a wrong LDE")
    _raises(altered(mde=rep.mde * 1.001 + 1e-9), "a wrong MDE")
    _raises(altered(status="BestEffort" if solved else "Solved"), "a wrong status")
    nan = rep.conformation.coords.copy()
    nan[0, 0] = np.nan
    _raises(altered(conformation=idgp.Conformation(nan)), "non-finite coordinates")
    _raises(altered(conformation=idgp.Conformation(nan[:, :-1])), "a missing atom")

    again = idgp.multistart_solve(inst, params)
    d = check.run_digest(rep, 3, 10)
    _expect(d == check.run_digest(again, 3, 10), "digest of a repeated seeded run")
    _expect(d != check.run_digest(rep, 4, 10), "digest sees greedy calls")
    _expect(d != check.run_digest(rep, 3, 11), "digest sees SPG iterations")
    return inst, rep


def _tsv_profile(idgp, work: Path, inst, rep):
    from run import write_tsv

    row = {"instance": "tiny.inst", "n": inst.n, "edges": len(inst.edges),
           "seed": 0, "status": rep.status, "pool": rep.pool_size,
           "lde": rep.lde, "mde": rep.mde, "time_s": 0.5}
    a, b, out = work / "a.tsv", work / "b.tsv", work / "profile.tsv"
    write_tsv([row], a)
    write_tsv([dict(row, time_s=2.0)], b)
    _expect(idgp.cli.main(["profile", "--results", str(a), str(b),
                           "--labels", "a", "b", "--out", str(out)]) == 0,
            "idgp profile reads the benchmark's TSV rows")
    if rep.status == "Solved":
        lines = out.read_text().split()
        _expect(lines[:3] == ["a", "1", "1"], "profile of a solved run")


def _benchmark_json():
    from run import END_TO_END

    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    _expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads match workloads.py")
    _expect([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
            == [tuple(m) for m in END_TO_END], "BENCHMARK.json end_to_end matches run.py")
    _expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [m[:3] for m in layers.PER_LAYER],
            "BENCHMARK.json per_layer matches layers.py")


def run_all(idgp):
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _statistics()
    _lde_mde()
    inst, rep = _report_checks(idgp, work)
    _tsv_profile(idgp, work, inst, rep)
    _benchmark_json()


if __name__ == "__main__":
    from run import load_solver

    run_all(load_solver())
    print("benchmark self-test passed")
    sys.exit(0)
