import dataclasses
import inspect
import math
import time
from unittest import mock

import numpy as np
import pytest

from idgp import geometry, io, metrics, search
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    EdgeConstraint,
    Instance,
    SelectionError,
    SolverParams,
    TorsionDomain,
    ValidationError,
)
from tests import oracles
from tests.conftest import build_chain, exact_edge, one_edge_instance
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
        assert search.kabsch_rmsd(conf, coords, ci) <= 1e-8

    def test_torsions_stay_in_domain(self, toy):
        inst, _ = toy
        rng = np.random.default_rng(1)
        ci = CompiledInstance.of(inst)
        tau, conf = search.greedy_construction(ci, 10, rng)
        assert tau.shape == (inst.n - 3,)  # atom i at entry i - 4
        domains = oracles.torsion_domains(ci)
        for i, t in enumerate(tau.tolist(), start=4):
            assert domains[i].contains(t, tol=1e-12)

    def test_discretization_edges_exact(self, toy):
        # one- and two-apart edges are satisfied by construction
        inst, _ = toy
        rng = np.random.default_rng(2)
        _, conf = search.greedy_construction(CompiledInstance.of(inst), 10, rng)
        for (i, j), e in inst.edges.items():
            if j - i <= 2:
                r = pair_distance(conf, i, j)
                assert r == pytest.approx(e.lower, abs=1e-10)

    def test_coordinates_are_c_ordered_3_by_n(self, toy, hard, unsatisfiable):
        # the stress kernels index the row-major flattening; a transposed
        # n x 3 array is F-ordered unless copied. Nothing in the solver
        # coerces coordinates, so every array it hands out must be one.
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(4)
        _, conf = search.greedy_construction(ci, 10, rng)
        _, regrown = search.greedy_construction(ci, 10, rng, conf[:, :5])
        arrays = [(conf, inst.n), (regrown, inst.n)]
        # improve's output after a kept reflection (seed 0, one draw per
        # atom) and after a kept flip (seed 33, five draws): the array that
        # move made
        ci = CompiledInstance.of(hard[0])
        for seed, n_tors, owner, name in ((0, 1, geometry, "reflect_tail"),
                                          (33, 5, search, "greedy_construction")):
            rng = np.random.default_rng(seed)
            tau, X = search.greedy_construction(ci, n_tors, rng)
            move, made = getattr(owner, name), []

            def recording(*args, **kwargs):
                out = move(*args, **kwargs)
                made.append(out if name == "reflect_tail" else out[1])
                return out

            with mock.patch.object(owner, name, recording):
                Y, _ = search.improve(X, tau, ci, n_tors, rng)
            assert any(Y is Z for Z in made)
            arrays.append((Y, ci.n))
        # every pool member and the report of an unsolved multi-trial solve;
        # SPG is capped, since on this instance it runs thousands of iterations
        inst, _ = unsatisfiable
        params = SolverParams(rng_seed=1, n_trial=4, n_conf=3, spg_max_iter=20,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=0.5)
        rep = search.multistart_solve(inst, params)
        assert rep.status == "BestEffort" and len(rep.pool) >= 2
        arrays += [(p.conformation, inst.n) for p in rep.pool]
        arrays.append((rep.conformation.coords, inst.n))
        for X, n in arrays:
            assert X.shape == (3, n) and X.dtype == np.float64
            assert X.flags.c_contiguous

    def test_deterministic_given_rng_state(self, toy):
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        t1, c1 = search.greedy_construction(ci, 10, np.random.default_rng(3))
        t2, c2 = search.greedy_construction(ci, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(c1, c2)


def flip_at_atom_4(dom, t):
    """Run one sweep with atom 4's domain `dom` and torsion `t`, the other
    atoms left far from their edges so a flip at 4 could lower the LDE.
    Returns the interval (lo, hi) the flip attempt at atom 4 hands
    construction as `first`, or None if the sweep made none."""
    atoms, coords = io.synthetic_backbone(2, seed=3, include_hydrogens=False)
    edges = io.generate_instance(atoms, coords, include_torsion_annotations=False).edges
    ci = CompiledInstance.of(io.build_instance(atoms, edges.values(), {4: dom}))
    rng = np.random.default_rng(0)
    tau, X = search.greedy_construction(ci, 5, rng)
    tau[0] = t  # atom 4
    X[:, 3:] += 100.0
    greedy, first = search.greedy_construction, {}
    signature = inspect.signature(greedy)

    def recording(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        first.setdefault(call["prefix"].shape[1] + 1, call["first"])
        return greedy(*args, **kwargs)

    with mock.patch.object(search, "greedy_construction", recording):
        search.improve(X, tau, ci, 5, rng)
    return first.get(4)


class TestImprove:
    def test_flip_symmetric_to_positive_side(self):
        assert flip_at_atom_4(TorsionDomain.symmetric(0.5, 1.0), -0.7) == (0.5, 1.0)

    def test_flip_symmetric_to_negative_side(self):
        assert flip_at_atom_4(TorsionDomain.symmetric(0.5, 1.0), 0.7) == (-1.0, -0.5)

    def test_single_interval_is_never_flipped(self):
        # -t is in the interval, on the other side of zero from t: the
        # construction's draws already cover both signs there
        dom = TorsionDomain.single(-0.4, 1.0)
        assert flip_at_atom_4(dom, -0.2) is None
        assert flip_at_atom_4(dom, 0.2) is None

    @pytest.mark.parametrize("dom, t", [
        (TorsionDomain.single(-0.4, 1.0), 0.7),    # -0.7 is outside
        (TorsionDomain.single(0.0, 1.0), 0.7),     # nothing on the negative side
        (TorsionDomain.symmetric(0.5, 1.0), 0.0),  # no sign to flip
        (TorsionDomain.point(0.7), 0.7)])
    def test_flip_outside_the_domain_is_not_tried(self, dom, t):
        assert flip_at_atom_4(dom, t) is None

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
        # on the pinned chain at seed 0, greedy with one sample per atom
        # commits an atom to the wrong sign, which a reflection repairs
        pinned, _ = pinned_sign_instance()
        for inst, n_tors in ((hard[0], 5), (pinned, 1)):
            ci = CompiledInstance.of(inst)
            rng = np.random.default_rng(0)
            tau, conf = search.greedy_construction(ci, n_tors, rng)
            state = rng.bit_generator.state
            X, tau_out = search.improve(conf, tau, ci, n_tors, rng, deadline=-math.inf)
            assert X is conf and tau_out is tau
            assert rng.bit_generator.state == state
        # with no deadline the LDE drops and nothing is drawn: a reflection
        # was kept, and the sweep did not run
        X, _ = search.improve(conf, tau, ci, 1, rng)
        assert metrics.lde_global(X, ci) < 1e-8 < metrics.lde_global(conf, ci)
        assert rng.bit_generator.state == state

    @staticmethod
    def improve_tested(inst, seed, n_tors, eps):
        """Run `improve` with `eps` on a fresh construction; returns its
        output, the conformation it started from, the LDE of each residual
        array it tested against the solve criterion, and the generator."""
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        tested, solved = [], metrics.solved

        def recording(res, *eps):
            tested.append(float(res.max()))
            return solved(res, *eps)

        with mock.patch.object(metrics, "solved", recording):
            X, tau_out = search.improve(conf, tau, ci, n_tors, rng, eps=eps)
        return X, tau_out, conf, tested, rng

    # at seed 0 with one draw per atom the reflection pass keeps several
    # reflections; at seed 33 with five it keeps none and the sweep keeps a flip
    @pytest.mark.parametrize("seed, n_tors", [(0, 1), (33, 5)])
    def test_stops_at_the_first_residuals_that_meet_the_criterion(self, hard, seed, n_tors):
        ci = CompiledInstance.of(hard[0])
        _, _, _, ldes, _ = self.improve_tested(hard[0], seed, n_tors, (-1.0, -1.0))
        assert len(ldes) >= 2  # on entry, then after each kept move
        for k, lde in enumerate(ldes):
            X, _, conf, tested, _ = self.improve_tested(hard[0], seed, n_tors, (-1.0, lde))
            assert tested == ldes[:k + 1]
            assert metrics.lde_global(X, ci) == lde
            assert (X is conf) == (k == 0)

    @pytest.mark.parametrize("seed, n_tors", [(0, 1), (33, 5)])
    def test_without_eps_sweeps_on(self, hard, seed, n_tors):
        # as with a criterion no residuals meet, through every kept move
        ci = CompiledInstance.of(hard[0])
        X_never, tau_never, _, ldes, rng_never = self.improve_tested(hard[0], seed, n_tors,
                                                                      (-1.0, -1.0))
        rng = np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        X, tau_out = search.improve(conf, tau, ci, n_tors, rng)
        assert X.tobytes() == X_never.tobytes()
        assert tau_out.tobytes() == tau_never.tobytes()
        assert rng.bit_generator.state == rng_never.bit_generator.state
        assert metrics.lde_global(X, ci) == ldes[-1] < ldes[0]


class TestKabschRmsd:
    def _instance(self, n, names=None):
        """Compiled view of n atoms joined by unit bonds, each atom 4..n given a
        domain (with no (i-3, i) edge, none derives), the least it needs."""
        atoms = [AtomRecord(k + 1, (names or ["X"] * n)[k], 1) for k in range(n)]
        edges = {(k, k + 1): EdgeConstraint(k, k + 1, 1.0, 1.0)
                 for k in range(1, n)}
        domains = {i: TorsionDomain.point(0.0) for i in range(4, n + 1)}
        return CompiledInstance.of(Instance(atoms, edges, domains))

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
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_atoms_is_a_validation_error(self, n):
        # an Instance built directly, not through io.build_instance
        two = one_edge_instance(1.5, 1.5)
        inst = Instance(two.atoms[:n], two.edges if n == 2 else {})
        with pytest.raises(ValidationError) as err:
            search.multistart_solve(inst, SolverParams(n_trial=1))
        assert err.value.violations == [f"{n} atoms: the discretization needs at least 3"]

    @pytest.mark.parametrize("edit, violation", [
        ({(1, 3): None}, "missing required edge (1,3)"),
        ({(2, 4): None}, "missing required edge (2,4)"),
        ({(4, 5): None}, "missing required edge (4,5)"),
        ({(3, 99): EdgeConstraint(3, 99, 2.0, 3.0)}, "edge (3,99): atom 99 beyond n = 10"),
        ({(0, 2): EdgeConstraint(0, 2, 2.0, 3.0)},
         "edge (0,2): indices must satisfy 1 <= i < j"),
    ], ids=["no-1-3", "no-2-4", "no-4-5", "end-99", "end-0"])
    def test_broken_structure_is_a_validation_error(self, edit, violation):
        # an Instance edited directly: each rule is checked before the compile
        inst = io.generate_instance(*io.synthetic_backbone(2, seed=1))
        edges = {**inst.edges, **edit}
        edited = dataclasses.replace(inst, edges={k: e for k, e in edges.items() if e})
        with pytest.raises(ValidationError) as err:
            search.multistart_solve(edited, SolverParams(n_trial=3, rng_seed=0))
        assert err.value.violations == [violation]

    @pytest.mark.parametrize("n_impr", [0, 3])
    def test_domains_not_given_solve_as_given(self, n_impr):
        # the compile derives each atom's domain from its (i-3, i) bounds, the
        # one an instance given that domain holds
        inst = io.generate_instance(*io.synthetic_backbone(2, seed=1),
                                    include_torsion_annotations=False)
        assert inst.torsion_domains == {}
        given = dataclasses.replace(
            inst, torsion_domains=oracles.torsion_domains(CompiledInstance.of(inst)))
        params = SolverParams(rng_seed=5, n_trial=5, n_impr=n_impr, eps_mde=1e-20,
                              eps_lde=1e-20, spg_max_iter=100)
        first, second = (search.multistart_solve(case, params) for case in (inst, given))
        assert first.conformation.coords.tobytes() == second.conformation.coords.tobytes()
        assert [(p.lde, p.mde, p.conformation.tobytes()) for p in first.pool] == \
               [(p.lde, p.mde, p.conformation.tobytes()) for p in second.pool]
        assert (first.status, first.lde, first.mde, first.trials, first.pool_size) == \
               (second.status, second.lde, second.mde, second.trials, second.pool_size)

    def test_edited_three_apart_bounds_move_the_domain(self):
        # the domain of an atom given none follows its (i-3, i) bounds as edited
        inst = io.generate_instance(*io.synthetic_backbone(2, seed=1),
                                    include_torsion_annotations=False)
        e = inst.edges[(4, 7)]
        narrowed = EdgeConstraint(4, 7, 0.95 * e.lower, 0.95 * e.upper)
        edited = dataclasses.replace(inst, edges={**inst.edges, (4, 7): narrowed})
        ci = CompiledInstance.of(edited)
        before = oracles.torsion_domains(CompiledInstance.of(inst))
        after = oracles.torsion_domains(ci)
        expect = oracles.torsion_domain_from_distance(ci.law_a[3], ci.law_b[3], narrowed)
        assert (after[7].lo, after[7].hi, after[7].sym) == (expect.lo, expect.hi, True)
        assert (after[7].lo, after[7].hi) != (before[7].lo, before[7].hi)
        assert {i: dom for i, dom in after.items() if i != 7} == \
               {i: dom for i, dom in before.items() if i != 7}

    def test_instance_rebuilt_from_records_solves_as_parsed(self, tmp_path):
        # the bond angles come from the edges, not from the parse
        atoms, coords = io.synthetic_backbone(3, seed=1)
        io.write_instance(io.generate_instance(atoms, coords), tmp_path / "case.inst")
        parsed = io.parse_instance(tmp_path / "case.inst")
        rebuilt = Instance(parsed.atoms, parsed.edges, parsed.torsion_domains)
        params = SolverParams(rng_seed=3, n_trial=5, eps_mde=1e-20, eps_lde=1e-20,
                              spg_max_iter=200)
        first, second = (search.multistart_solve(inst, params) for inst in (parsed, rebuilt))
        assert first.conformation.coords.tobytes() == second.conformation.coords.tobytes()
        assert [(p.lde, p.mde, p.conformation.tobytes()) for p in first.pool] == \
               [(p.lde, p.mde, p.conformation.tobytes()) for p in second.pool]
        assert (first.status, first.lde, first.mde, first.trials, first.pool_size) == \
               (second.status, second.lde, second.mde, second.trials, second.pool_size)

    def test_edited_bond_length_moves_the_bond_angle(self, toy):
        # a longer bond (1, 2) with (1, 3) kept: atoms 1-3 still realize (1, 3)
        inst = toy[0]
        d12 = 1.05 * inst.edges[(1, 2)].lower
        edited = dataclasses.replace(inst, edges={**inst.edges,
                                                  (1, 2): EdgeConstraint(1, 2, d12, d12)})
        _, conf = search.greedy_construction(CompiledInstance.of(edited), 5,
                                             np.random.default_rng(0))
        assert pair_distance(conf, 1, 2) == pytest.approx(d12, rel=1e-12)
        assert pair_distance(conf, 1, 3) == pytest.approx(inst.edges[(1, 3)].lower, rel=1e-12)

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

    def test_trial_c_draws_from_child_c_of_the_seed(self, toy):
        # each trial spawns its own stream when it starts; trial c's is child
        # c of SeedSequence(rng_seed), as a spawn of all n_trial up front gives
        inst, _ = toy
        first = {}  # the state of each generator at its first construction
        greedy = search.greedy_construction

        def recording(ci, n_tors, rng, *args, **kwargs):
            first.setdefault(id(rng), (rng, rng.bit_generator.state))
            return greedy(ci, n_tors, rng, *args, **kwargs)

        params = SolverParams(rng_seed=7, n_trial=3, n_impr=1, spg_max_iter=20,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=1e-9)
        with mock.patch.object(search, "greedy_construction", recording):
            rep = search.multistart_solve(inst, params)
        assert rep.trials == len(first) == 3
        for c, (_, state) in enumerate(first.values()):
            child = np.random.SeedSequence(params.rng_seed).spawn(c + 1)[c]
            assert state == np.random.default_rng(child).bit_generator.state

    def test_unreachable_tolerance_builds_distinct_pool(self, unsatisfiable):
        inst, _ = unsatisfiable
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

    def test_pool_holds_n_conf(self, unsatisfiable):
        # the trial loop ends once the pool is full
        inst, _ = unsatisfiable
        params = SolverParams(rng_seed=1, n_trial=30, n_conf=3,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=0.5,
                              time_limit=60.0)
        rep = search.multistart_solve(inst, params)
        assert rep.pool_size == len(rep.pool) == params.n_conf
        assert rep.trials < params.n_trial

    def test_best_of_pool_reported(self, unsatisfiable):
        inst, _ = unsatisfiable
        params = SolverParams(rng_seed=1, n_trial=20, n_conf=8,
                              eps_mde=1e-20, eps_lde=1e-20, eps_similar=0.5,
                              time_limit=60.0)
        rep = search.multistart_solve(inst, params)
        assert rep.mde == min(p[1] for p in rep.pool)

    def test_time_limit_bounds_the_first_trial(self):
        # no torsion annotations: every atom is a flip candidate, and one
        # trial left to finish runs a sweep, then SPG until it stalls; a
        # limit of half that trial's time must cut it, and may be overrun by
        # the one greedy construction or SPG iteration under way when it passes
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
        rep = search.multistart_solve(inst, SolverParams(
            rng_seed=0, n_trial=1, eps_mde=1e-20, eps_lde=1e-20))
        assert rep.status == "BestEffort"
        limit = 0.5 * rep.wall_time
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
