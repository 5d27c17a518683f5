import math
import time

import numpy as np
import pytest

from idgp import io, metrics, search
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    Conformation,
    DomainKind,
    EdgeConstraint,
    Instance,
    SelectionError,
    SolverParams,
    TorsionDomain,
)
from tests.conftest import build_chain, exact_edge
from tests.oracles import pair_distance


def pinned_sign_instance():
    """Six-atom chain with exact edges only; the two long-range edges pin
    the torsion signs, while the per-atom domains are sign-symmetric pairs."""
    X = build_chain([-2.0, 1.0, 1.2])
    n = X.shape[1]
    atoms = [AtomRecord(k, "X", 1) for k in range(1, n + 1)]
    edges = []
    for i in range(2, n + 1):
        edges.append(exact_edge(X, i - 1, i))
    for i in range(3, n + 1):
        edges.append(exact_edge(X, i - 2, i))
    for i in range(4, n + 1):
        edges.append(exact_edge(X, i - 3, i))
    edges.append(exact_edge(X, 1, 5))
    edges.append(exact_edge(X, 2, 6))
    return io.build_instance(atoms, edges), X


class TestGreedyConstruction:
    def test_point_domains_reconstruct_reference(self):
        atoms, coords = io.synthetic_backbone(2, seed=3, include_hydrogens=False)
        inst = io.generate_instance(atoms, coords, angle_width_deg=0.0)
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(0)
        tau, conf = search.greedy_construction(ci, 1, rng)
        assert metrics.lde_global(conf, ci) <= 1e-10
        assert search.kabsch_rmsd(conf, Conformation(coords), ci) <= 1e-8

    def test_torsions_stay_in_domain(self, toy):
        inst, _ = toy
        rng = np.random.default_rng(1)
        tau, conf = search.greedy_construction(CompiledInstance.of(inst), 10, rng)
        assert set(tau) == set(range(4, inst.n + 1))
        for i, t in tau.items():
            assert inst.torsion_domains[i].contains(t, tol=1e-12)

    def test_discretization_edges_exact(self, toy):
        # one- and two-apart edges are satisfied by construction
        inst, _ = toy
        rng = np.random.default_rng(2)
        _, conf = search.greedy_construction(CompiledInstance.of(inst), 10, rng)
        for (i, j), e in inst.edges.items():
            if j - i <= 2:
                r = pair_distance(conf.coords, i, j)
                assert r == pytest.approx(e.lower, abs=1e-10)

    def test_deterministic_given_rng_state(self, toy):
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        t1, c1 = search.greedy_construction(ci, 10, np.random.default_rng(3))
        t2, c2 = search.greedy_construction(ci, 10, np.random.default_rng(3))
        assert t1 == t2
        np.testing.assert_array_equal(c1.coords, c2.coords)


class TestSignRestrictedDomain:
    def test_symmetric_positive_side(self):
        dom = TorsionDomain.symmetric(0.5, 1.0)
        r = search.sign_restricted_domain(dom, 0.7)
        assert r.kind is DomainKind.SINGLE and (r.lo, r.hi) == (0.5, 1.0)

    def test_symmetric_negative_side(self):
        dom = TorsionDomain.symmetric(0.5, 1.0)
        r = search.sign_restricted_domain(dom, -0.7)
        assert r.kind is DomainKind.SINGLE and (r.lo, r.hi) == (-1.0, -0.5)

    def test_single_intersection(self):
        dom = TorsionDomain.single(-0.4, 1.0)
        r = search.sign_restricted_domain(dom, 0.2)
        assert (r.lo, r.hi) == (0.0, 1.0)
        r = search.sign_restricted_domain(dom, -0.2)
        assert (r.lo, r.hi) == (-0.4, 0.0)


class TestImprove:
    def test_never_increases_lde(self, toy):
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tau, conf = search.greedy_construction(ci, 5, rng)
            lde = metrics.lde_global(conf, ci)
            for _ in range(3):
                conf, tau = search.improve(conf, tau, ci, 5, rng)
                new = metrics.lde_global(conf, ci)
                assert new <= lde + 1e-15
                lde = new

    def test_flips_wrong_handedness(self):
        # greedy with one torsion sample per atom commits to random signs;
        # improvement sweeps must repair every such failure here
        inst, _ = pinned_sign_instance()
        ci = CompiledInstance.of(inst)
        hard = fixed = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            tau, conf = search.greedy_construction(ci, 1, rng)
            if metrics.lde_global(conf, ci) <= 1e-6:
                continue
            hard += 1
            for _ in range(4):
                conf, tau = search.improve(conf, tau, ci, 1, rng)
            if metrics.lde_global(conf, ci) <= 1e-8:
                fixed += 1
        assert hard >= 5
        assert fixed == hard

    def test_past_deadline_tries_no_flip(self, hard):
        inst, _ = hard
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(0)
        tau, conf = search.greedy_construction(ci, 5, rng)
        state = rng.bit_generator.state
        X, tau_out = search.improve(conf, tau, ci, 5, rng, deadline=-math.inf)
        assert X is conf and tau_out is tau
        assert rng.bit_generator.state == state


class TestKabschRmsd:
    def _instance(self, n, names=None):
        """Compiled view of n atoms joined by unit bonds, the least it needs."""
        atoms = [AtomRecord(k + 1, (names or ["X"] * n)[k], 1) for k in range(n)]
        edges = {(k, k + 1): EdgeConstraint(k, k + 1, 1.0, 1.0)
                 for k in range(1, n)}
        return CompiledInstance.of(Instance(atoms=atoms, edges=edges))

    def test_identity(self):
        A = np.random.default_rng(0).normal(size=(3, 8))
        assert search.kabsch_rmsd(A, A.copy(), self._instance(8)) <= 1e-12

    def test_rigid_motion_copy(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 8))
        angle = 1.1
        R = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                      [math.sin(angle), math.cos(angle), 0.0],
                      [0.0, 0.0, 1.0]])
        B = R @ A + np.array([[3.0], [-1.0], [2.0]])
        assert search.kabsch_rmsd(A, B, self._instance(8)) <= 1e-8

    def test_mirror_image_not_matched(self):
        # only proper rotations are allowed, so a chiral flip keeps RMSD large
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 12))
        B = A.copy()
        B[2] *= -1.0
        assert search.kabsch_rmsd(A, B, self._instance(12)) > 0.1

    def test_known_translation_only(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        B = A + 5.0
        assert search.kabsch_rmsd(A, B, self._instance(2)) <= 1e-12

    def test_optimal_among_sampled_rotations(self):
        # oracle: dense quaternion sampling cannot beat the closed form,
        # and its best sample comes within 1e-3 of it
        rng = np.random.default_rng(7)
        n = 10
        A = rng.normal(size=(3, n))
        B = rng.normal(size=(3, n))
        closed = search.kabsch_rmsd(A, B, self._instance(n))

        q = rng.normal(size=(200000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        R = np.empty((q.shape[0], 3, 3))
        R[:, 0, 0] = 1 - 2 * (y * y + z * z)
        R[:, 0, 1] = 2 * (x * y - z * w)
        R[:, 0, 2] = 2 * (x * z + y * w)
        R[:, 1, 0] = 2 * (x * y + z * w)
        R[:, 1, 1] = 1 - 2 * (x * x + z * z)
        R[:, 1, 2] = 2 * (y * z - x * w)
        R[:, 2, 0] = 2 * (x * z - y * w)
        R[:, 2, 1] = 2 * (y * z + x * w)
        R[:, 2, 2] = 1 - 2 * (x * x + y * y)

        Ac = A - A.mean(axis=1, keepdims=True)
        Bc = B - B.mean(axis=1, keepdims=True)
        diff = Bc[None] - np.einsum("mij,jk->mik", R, Ac)
        sampled = float(np.sqrt((diff ** 2).sum(axis=(1, 2)) / n).min())
        assert closed <= sampled + 1e-12
        assert sampled - closed <= 1e-3

    def test_large_instance_uses_ca_subset(self):
        n = 300
        names = ["CA" if k % 3 == 1 else "X" for k in range(n)]
        inst = self._instance(n, names)
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, n))
        B = A.copy()
        B[:, [k for k in range(n) if names[k] != "CA"]] += 100.0
        # only CA atoms are compared, so the non-CA wreckage is invisible
        assert search.kabsch_rmsd(A, B, inst) <= 1e-8

    def test_no_ca_atoms_raises(self):
        # compiling succeeds; only an RMSD over the empty subset raises
        ci = self._instance(300)
        A = np.random.default_rng(4).normal(size=(3, 300))
        with pytest.raises(SelectionError):
            search.kabsch_rmsd(A, A, ci)

    @pytest.mark.parametrize("n", [8, 300])
    def test_instance_is_compiled(self, n):
        # the compiled view's selection is the whole comparison: the RMSD
        # equals one over just the selected columns
        ci = self._instance(n, ["CA" if k % 3 == 1 else "X" for k in range(n)])
        rng = np.random.default_rng(5)
        A, B = rng.normal(size=(3, n)), rng.normal(size=(3, n))
        sel = ci.rmsd_sel
        assert sel.size == (n if n <= 200 else n // 3)
        assert search.kabsch_rmsd(A, B, ci) == \
            search.kabsch_rmsd(A[:, sel], B[:, sel], self._instance(sel.size))


class TestMultistart:
    def test_solves_toy(self, toy):
        inst, _ = toy
        rep = search.multistart_solve(inst, SolverParams(rng_seed=0, n_trial=50))
        assert rep.status == "Solved"
        assert rep.mde <= 1e-3 or rep.lde <= 1e-2
        assert rep.trials >= 1
        assert rep.conformation.coords.shape == (3, inst.n)

    def test_deterministic(self, toy):
        inst, _ = toy
        params = SolverParams(rng_seed=42, n_trial=50)
        r1 = search.multistart_solve(inst, params)
        r2 = search.multistart_solve(inst, params)
        np.testing.assert_array_equal(r1.conformation.coords,
                                      r2.conformation.coords)
        assert (r1.status, r1.trials, r1.lde, r1.mde) == \
               (r2.status, r2.trials, r2.lde, r2.mde)

    def test_seed_changes_outcome_coords(self, toy):
        inst, _ = toy
        r1 = search.multistart_solve(inst, SolverParams(rng_seed=0))
        r2 = search.multistart_solve(inst, SolverParams(rng_seed=1))
        assert not np.array_equal(r1.conformation.coords,
                                  r2.conformation.coords)

    def test_unreachable_tolerance_builds_distinct_pool(self, hard):
        inst, _ = hard
        params = SolverParams(rng_seed=1, n_trial=30, n_conf=8,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=0.5,
                              time_limit=60.0)
        rep = search.multistart_solve(inst, params)
        assert rep.status in ("BestEffort", "TimeLimit")
        assert rep.pool_size == len(rep.pool) >= 2
        confs = [p[0] for p in rep.pool]
        ci = CompiledInstance.of(inst)
        for a in range(len(confs)):
            for b in range(a + 1, len(confs)):
                assert search.kabsch_rmsd(confs[a], confs[b], ci) > 0.5

    def test_best_of_pool_reported(self, hard):
        inst, _ = hard
        params = SolverParams(rng_seed=1, n_trial=20, n_conf=8,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=0.5,
                              time_limit=60.0)
        rep = search.multistart_solve(inst, params)
        assert rep.mde == min(p[1] for p in rep.pool)

    def test_time_limit_bounds_the_first_trial(self):
        # no torsion annotations: every atom is a flip candidate, and one
        # trial left to finish runs for seconds (sweep, then up to 30000
        # SPG iterations); a limit may be overrun by the one greedy
        # construction or SPG iteration under way when it passes
        atoms, coords = io.synthetic_backbone(30, seed=4)
        inst = io.generate_instance(atoms, coords, hh_width_adjacent=0.5,
                                    hh_width_other=1.0,
                                    include_torsion_annotations=False)
        ci = CompiledInstance.of(inst)
        greedy_s = 0.0
        for seed in range(3):
            t0 = time.monotonic()
            search.greedy_construction(ci, 20, np.random.default_rng(seed))
            greedy_s = max(greedy_s, time.monotonic() - t0)
        limit = 0.5
        # with n_trial=1 the limit cuts the last trial, not the trial loop
        for n_trial in (SolverParams().n_trial, 1):
            rep = search.multistart_solve(inst, SolverParams(
                rng_seed=0, n_trial=n_trial, eps_mde=1e-20, eps_lde=1e-20,
                time_limit=limit))
            assert (rep.status, rep.trials) == ("TimeLimit", 1)
            assert rep.wall_time <= limit + greedy_s + 0.25

    def test_zero_time_limit_still_returns_conformation(self, hard):
        inst, _ = hard
        params = SolverParams(rng_seed=0, n_trial=50, eps_mde=1e-20,
                              eps_lde=1e-20, time_limit=0.0)
        rep = search.multistart_solve(inst, params)
        assert rep.status == "TimeLimit"
        assert rep.conformation.coords.shape == (3, inst.n)
        assert np.all(np.isfinite(rep.conformation.coords))
