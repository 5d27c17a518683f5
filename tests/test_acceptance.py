"""End-to-end acceptance checks; each test emits one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np

from idgp import geometry, io, metrics, search
from idgp.cli import main as cli_main
from idgp.model import CompiledInstance, SolverParams
from idgp.spg import SpgStatus, spg_minimize


def _verdict(num, desc, ok):
    print(f"\ncriterion {num} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_gradient_matches_finite_differences():
    # analytic stress gradient vs central differences (step 1e-6),
    # relative error <= 1e-6 at 100 random points, 20-atom instance, < 5 s
    atoms, coords = io.synthetic_backbone(4, seed=11)  # 20 atoms
    inst = io.generate_instance(atoms, coords)
    prob = metrics.StressProblem(CompiledInstance.of(inst))
    rng = np.random.default_rng(0)
    start = time.monotonic()
    h, worst = 1e-6, 0.0
    for _ in range(100):
        X = coords + 0.3 * rng.normal(size=coords.shape)
        d = prob.lower + rng.uniform(0.0, 1.0, prob.m) * (prob.upper - prob.lower)
        z = prob.pack(X, d)
        analytic = prob.gradient(z)
        fd = np.empty_like(z)
        for k in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd[k] = (prob.objective(zp) - prob.objective(zm)) / (2.0 * h)
        rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(fd))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _verdict(1, f"gradient rel err {worst:.2e} <= 1e-6, {elapsed:.2f}s < 5s",
             worst <= 1e-6 and elapsed < 5.0)


def test_criterion_2_placement_exactness():
    # 1000 random (d, theta, tau): placed bond length within 1e-10 and
    # dihedral round trip within 1e-8, < 1 s
    rng = np.random.default_rng(1)
    x1, x2, x3 = geometry.place_first_three(1.5, 1.5, 1.9)
    start = time.monotonic()
    worst_d = worst_tau = 0.0
    for _ in range(1000):
        d = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0.1, math.pi - 0.1)
        tau = rng.uniform(-math.pi, math.pi)
        x4 = geometry.place_atom(x1, x2, x3, d, theta, tau)
        worst_d = max(worst_d, abs(float(np.linalg.norm(x4 - x3)) - d))
        back = geometry.dihedral(x1, x2, x3, x4)
        err = abs(back - tau)
        worst_tau = max(worst_tau, min(err, 2.0 * math.pi - err))
    elapsed = time.monotonic() - start
    _verdict(2, f"bond length err {worst_d:.1e} <= 1e-10, "
                f"dihedral err {worst_tau:.1e} <= 1e-8, {elapsed:.2f}s < 1s",
             worst_d <= 1e-10 and worst_tau <= 1e-8 and elapsed < 1.0)


def test_criterion_3_generate_solve_round_trip():
    # 10-60 residue synthetic backbones, angle width 50, H-H widths 1/2:
    # MDE <= 1e-3 or LDE <= 1e-2 in >= 9 of 10 seeds, each run < 120 s
    ok = True
    summary = []
    for nres in (10, 30, 60):
        atoms, coords = io.synthetic_backbone(nres, seed=nres)
        inst = io.generate_instance(atoms, coords)
        solved, worst_t = 0, 0.0
        for seed in range(10):
            start = time.monotonic()
            rep = search.multistart_solve(inst, SolverParams(rng_seed=seed,
                                                             time_limit=110.0))
            t = time.monotonic() - start
            worst_t = max(worst_t, t)
            if rep.status == "Solved" and (rep.mde <= 1e-3 or rep.lde <= 1e-2):
                solved += 1
        ok = ok and solved >= 9 and worst_t < 120.0
        summary.append(f"{nres}res {solved}/10 max {worst_t:.1f}s")
    _verdict(3, "; ".join(summary) + " (need >=9/10, <120s)", ok)


def test_criterion_4_zero_width_exact_reconstruction():
    # angle width 0, no interval edges: greedy alone recovers the reference
    # up to rigid motion, RMSD <= 1e-6, no refinement, < 1 s
    atoms, coords = io.synthetic_backbone(3, seed=4, include_hydrogens=False)
    inst = io.generate_instance(atoms, coords, angle_width_deg=0.0)
    start = time.monotonic()
    ci = CompiledInstance.of(inst)
    _, conf = search.greedy_construction(ci, 1, np.random.default_rng(0))
    rmsd = search.kabsch_rmsd(conf, coords, ci)
    elapsed = time.monotonic() - start
    _verdict(4, f"greedy-only RMSD {rmsd:.1e} <= 1e-6, {elapsed:.2f}s < 1s",
             rmsd <= 1e-6 and elapsed < 1.0)


def test_criterion_5_improvement_ablation():
    # 20-instance synthetic suite over 5 seeds: solved count with the
    # improvement phase >= solved count without it; LDE never increases
    # across any improvement sweep
    suite = []
    for k in range(20):
        atoms, coords = io.synthetic_backbone(4, seed=100 + k)
        suite.append(io.generate_instance(atoms, coords,
                                          hh_width_adjacent=0.5,
                                          hh_width_other=1.0,
                                          include_torsion_annotations=False))

    def run(n_impr, n_tors):
        count = 0
        for inst in suite:
            for seed in range(5):
                rep = search.multistart_solve(inst, SolverParams(
                    rng_seed=seed, n_trial=40, n_conf=15, n_impr=n_impr,
                    n_tors=n_tors, time_limit=3.0))
                count += rep.status == "Solved"
        return count

    monotone = True
    for inst in suite[:3]:
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(0)
        tau, conf = search.greedy_construction(ci, 20, rng)
        lde = metrics.lde_global(conf, ci)
        for _ in range(3):
            conf, tau = search.improve(conf, tau, ci, 20, rng)
            new = metrics.lde_global(conf, ci)
            monotone = monotone and new <= lde + 1e-15
            lde = new

    with_impr = run(n_impr=3, n_tors=20)
    without = run(n_impr=0, n_tors=60)
    _verdict(5, f"solved with improvement {with_impr}/100 >= without {without}/100; "
                f"LDE monotone {monotone}",
             with_impr >= without and monotone)


def test_criterion_6_spg_unit_behavior():
    # box-constrained convex quadratic and the 2-atom toy both reach
    # f <= 1e-7 within 100 iterations; every evaluated point respects the box
    seen = []
    c = np.array([2.0, -3.0, 0.4])

    def f(z):
        seen.append(z.copy())
        # minimum over the box sits at (1, -1, 0.4) with value 2.5; shift to 0
        return 0.5 * float((z - c) @ (z - c)) - 2.5

    res_q = spg_minimize(f, lambda z: z - c, lambda z: np.clip(z, -1.0, 1.0),
                         np.zeros(3))
    box_ok = all(np.all(z >= -1.0) and np.all(z <= 1.0) for z in seen)
    quad_ok = res_q.f_final <= 1e-7 and res_q.iterations <= 100

    from idgp.model import AtomRecord, EdgeConstraint, Instance
    toy2 = Instance(atoms=[AtomRecord(1, "A", 1), AtomRecord(2, "B", 1)],
                    edges={(1, 2): EdgeConstraint(1, 2, 2.0, 2.0)})
    prob = metrics.StressProblem(CompiledInstance.of(toy2))
    X0 = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
    z0 = prob.pack(X0, prob.init_d(X0))
    res_t = spg_minimize(prob.objective, prob.gradient, prob.project, z0)
    toy_ok = (res_t.status is SpgStatus.SUCCESS_TOLERANCE
              and res_t.f_final <= 1e-7 and res_t.iterations <= 100)
    _verdict(6, f"quadratic f {res_q.f_final:.1e} in {res_q.iterations} it, "
                f"box respected {box_ok}; 2-atom f {res_t.f_final:.1e} in "
                f"{res_t.iterations} it", quad_ok and box_ok and toy_ok)


def test_criterion_7_rmsd_filter(hard):
    # pooled conformations pairwise > eps_similar; rigid copies RMSD <= 1e-8
    inst, coords = hard
    params = SolverParams(rng_seed=1, n_trial=30, n_conf=8, eps_mde=1e-20,
                          eps_lde=1e-20, eps_similar=0.5, time_limit=60.0)
    rep = search.multistart_solve(inst, params)
    confs = [p[0] for p in rep.pool]
    ci = CompiledInstance.of(inst)
    min_pair = min(search.kabsch_rmsd(confs[a], confs[b], ci)
                   for a in range(len(confs)) for b in range(a + 1, len(confs)))

    angle = 0.9
    R = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                  [math.sin(angle), math.cos(angle), 0.0],
                  [0.0, 0.0, 1.0]])
    copy_rmsd = search.kabsch_rmsd(coords, R @ coords + np.ones((3, 1)), ci)
    _verdict(7, f"pool {len(confs)}, min pairwise RMSD {min_pair:.3f} > 0.5; "
                f"rigid copy RMSD {copy_rmsd:.1e} <= 1e-8",
             len(confs) >= 2 and min_pair > 0.5 and copy_rmsd <= 1e-8)


def test_criterion_8_performance_profile_math():
    # hand-enumerated 2x2 table: rho_A(1)=1.0, rho_B(1)=0.5, rho_B(2)=1.0;
    # random tables stay monotone step functions in [0, 1]
    prof = io.performance_profile({"A": {"p1": 1.0, "p2": 1.0},
                                   "B": {"p1": 2.0, "p2": 1.0}})
    pa = dict(prof["A"])
    pb = dict(prof["B"])
    hand_ok = pa[1.0] == 1.0 and pb[1.0] == 0.5 and pb[2.0] == 1.0

    rng = np.random.default_rng(2)
    mono_ok = True
    for _ in range(50):
        problems = range(rng.integers(1, 8))
        results = {lab: {p: (None if rng.random() < 0.2
                             else float(rng.uniform(1.0, 50.0)))
                         for p in problems} for lab in "abc"}
        for points in io.performance_profile(results).values():
            rhos = [r for _, r in points]
            mono_ok = mono_ok and rhos == sorted(rhos) \
                and all(0.0 <= r <= 1.0 for r in rhos)
    _verdict(8, f"hand 2x2 exact {hand_ok}; random tables monotone {mono_ok}",
             hand_ok and mono_ok)


def test_criterion_9_deterministic_reports(toy_file, tmp_path):
    # two identical seeded solve runs produce byte-identical reports
    outs = []
    for run in (1, 2):
        report = tmp_path / f"report{run}.txt"
        conf = tmp_path / f"conf{run}.txt"
        code = cli_main(["solve", "--instance", str(toy_file), "--seed", "7",
                         "--out", str(conf), "--report", str(report)])
        assert code == 0
        outs.append((report.read_bytes(), conf.read_bytes()))
    _verdict(9, "seeded solve reports and conformations byte-identical",
             outs[0] == outs[1])
