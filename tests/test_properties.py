"""Properties of the compiled array view, the stress model, the solver's
pool, the improvement sweep's sign restriction and the instance file
format, checked on random valid instances."""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from idgp import io, metrics, search, spg
from idgp.model import CompiledInstance, DomainKind, SolverParams, TorsionDomain
from tests import oracles


@st.composite
def instances(draw):
    """A generated instance: random backbone, torsion window and H-H widths."""
    hydrogens = draw(st.booleans())
    residues = draw(st.integers(1 if hydrogens else 2, 4))
    atoms, coords = io.synthetic_backbone(residues, seed=draw(st.integers(0, 10**6)),
                                          include_hydrogens=hydrogens)
    adjacent = draw(st.floats(0.2, 2.0))
    return io.generate_instance(
        atoms, coords, angle_width_deg=draw(st.sampled_from([0.0, 20.0, 50.0, 90.0])),
        hh_width_adjacent=adjacent, hh_width_other=2.0 * adjacent,
        include_torsion_annotations=draw(st.booleans()))


@st.composite
def torsion_domains(draw):
    a, b = sorted(draw(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi))))
    kind = draw(st.sampled_from(["+", "-", "+-", "across zero"]))
    if kind == "+":
        return TorsionDomain.single(a, b)
    if kind == "-":
        return TorsionDomain.single(-b, -a)
    if kind == "+-":
        return TorsionDomain.symmetric(a, b)
    return TorsionDomain.single(-a, b)


class TestCompiledView:
    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_metrics_match_scalar_oracle(self, inst, seed, noise):
        rng = np.random.default_rng(seed)
        coords = rng.normal(scale=5.0, size=(3, inst.n))
        coords[:, rng.random(inst.n) < 0.5] *= noise
        ci = CompiledInstance.of(inst)
        residuals = [oracles.edge_residual(coords, e) for e in inst.edges.values()]
        assert metrics.lde_global(coords, ci) == max(residuals)
        assert math.isclose(metrics.mde_global(coords, ci),
                            math.fsum(residuals) / len(residuals), rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_back_edge_rows(self, inst):
        ci = CompiledInstance.of(inst)
        assert ci.back_ptr.shape == (inst.n + 1,)
        for i in range(1, inst.n + 1):
            rows = slice(ci.back_ptr[i - 1], ci.back_ptr[i])
            back = sorted(j for (j, k) in inst.edges if k == i)
            assert list(ci.back_col[rows] + 1) == back
            assert list(ci.back_lower[rows]) == [inst.edge(j, i).lower for j in back]
            assert list(ci.back_upper[rows]) == [inst.edge(j, i).upper for j in back]
            if i >= 2:
                assert ci.d_prev[i] == inst.edge(i - 1, i).lower
            if i >= 3:
                assert ci.theta[i] == inst.bond_angles[i]

    @settings(max_examples=10, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1))
    def test_solve_leaves_instance_untouched(self, inst, seed):
        edges = dict(inst.edges)
        domains = dict(inst.torsion_domains)
        search.multistart_solve(inst, SolverParams(rng_seed=seed, n_trial=3,
                                                   spg_max_iter=50))
        assert set(vars(inst)) == {"atoms", "edges", "torsion_domains", "bond_angles"}
        assert inst.edges == edges
        assert inst.torsion_domains == domains


class TestStressKernel:
    """The flat-index edge kernel is bit-identical to the column-gather
    oracle, whatever the one-entry edge cache holds when a call arrives."""

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1))
    def test_matches_column_gather_oracle(self, inst, seed):
        ci = CompiledInstance.of(inst)
        prob = metrics.StressProblem(ci)
        rng = np.random.default_rng(seed)

        def point():
            return prob.pack(rng.normal(scale=3.0, size=(3, inst.n)),
                             rng.uniform(ci.lower, ci.upper))

        coords = rng.normal(scale=3.0, size=(3, inst.n))
        assert np.array_equal(metrics._residuals(coords, ci),
                              oracles.residuals(coords, ci))
        assert np.array_equal(prob.init_d(coords), oracles.init_d(coords, ci))
        # gradient on an array no call has seen
        z = point()
        assert np.array_equal(prob.gradient(z), oracles.gradient(z, ci))
        # gradient right after objective at the same z, as SPG calls them
        z = point()
        assert prob.objective(z) == oracles.objective(z, ci)
        assert np.array_equal(prob.gradient(z), oracles.gradient(z, ci))
        # gradient after objective at a different z
        z, z_other = point(), point()
        assert prob.objective(z_other) == oracles.objective(z_other, ci)
        assert np.array_equal(prob.gradient(z), oracles.gradient(z, ci))


    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1))
    def test_solved_matches_lde_mde(self, inst, seed):
        # at the criterion's edge: eps equal to the metric or one ulp below
        ci = CompiledInstance.of(inst)
        prob = metrics.StressProblem(ci)
        rng = np.random.default_rng(seed)
        z = prob.pack(rng.normal(scale=3.0, size=(3, inst.n)),
                      rng.uniform(ci.lower, ci.upper))
        X = prob.unpack(z)[0].copy()
        mde, lde = metrics.mde_global(X, ci), metrics.lde_global(X, ci)
        for eps_mde in (mde, np.nextafter(mde, -math.inf)):
            for eps_lde in (lde, np.nextafter(lde, -math.inf)):
                assert prob.solved(z, eps_mde, eps_lde) == \
                       (mde <= eps_mde or lde <= eps_lde)


class TestEarlyStop:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 2**32 - 1), st.sampled_from([0, 3]),
           st.sampled_from([20, 60]))
    @example(101, 0, 0, 60)     # SPG stops at the criterion on iteration 182
    def test_solved_by_early_stop_meets_criterion(self, ref_seed, seed, n_impr, n_tors):
        # criterion 5's regime, where SPG usually has work left to do
        atoms, coords = io.synthetic_backbone(4, seed=ref_seed)
        inst = io.generate_instance(atoms, coords, hh_width_adjacent=0.5,
                                    hh_width_other=1.0,
                                    include_torsion_annotations=False)
        results = []

        def recording(*args, **kwargs):
            results.append(spg.spg_minimize(*args, **kwargs))
            return results[-1]

        params = SolverParams(rng_seed=seed, n_trial=5, n_impr=n_impr, n_tors=n_tors,
                              spg_max_iter=3000)
        with mock.patch.object(search, "spg_minimize", recording):
            rep = search.multistart_solve(inst, params)
        stops = [r.status is spg.SpgStatus.SOLVE_CRITERION for r in results]
        # a stop at the criterion ends the solve as Solved, on that iterate
        assert not any(stops[:-1])
        if stops and stops[-1]:
            ci = CompiledInstance.of(inst)
            mde = metrics.mde_global(rep.conformation, ci)
            lde = metrics.lde_global(rep.conformation, ci)
            assert rep.status == "Solved" and (rep.mde, rep.lde) == (mde, lde)
            assert mde <= params.eps_mde or lde <= params.eps_lde
            np.testing.assert_array_equal(rep.conformation.coords.ravel(),
                                          results[-1].z_final[:3 * inst.n])


class TestPool:
    @settings(max_examples=15, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    def test_members_pairwise_distinct(self, inst, seed, eps_similar):
        params = SolverParams(rng_seed=seed, n_trial=8, n_impr=1, spg_max_iter=50,
                              eps_mde=1e-300, eps_lde=1e-300, eps_similar=eps_similar)
        pool = [p.conformation for p in search.multistart_solve(inst, params).pool]
        ci = CompiledInstance.of(inst)
        for new in range(len(pool)):
            for old in range(new):
                # in the order multistart_solve compares a candidate with the pool
                assert search.kabsch_rmsd(pool[new], pool[old], ci) > eps_similar

    @settings(max_examples=15, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.sampled_from([math.inf, 1e-9]))
    def test_unsolved_report_is_smallest_mde_member(self, inst, seed, time_limit):
        # even when the deadline passes during the first trial
        params = SolverParams(rng_seed=seed, n_trial=6, n_impr=1, spg_max_iter=50,
                              eps_mde=1e-300, eps_lde=1e-300, eps_similar=0.05,
                              time_limit=time_limit)
        rep = search.multistart_solve(inst, params)
        if rep.status != "Solved":
            assert rep.pool_size == len(rep.pool) >= 1
            best = min(rep.pool, key=lambda p: p.mde)
            assert rep.conformation is best.conformation
            assert (rep.mde, rep.lde) == (best.mde, best.lde)


class TestImprove:
    @settings(max_examples=200, deadline=None)
    @given(torsion_domains(), st.data())
    def test_sign_restriction_keeps_tau_side(self, dom, data):
        # improve asks only for a nonzero tau inside the domain
        tau = data.draw(st.floats(dom.lo, dom.hi))
        if dom.kind is DomainKind.SYMMETRIC and data.draw(st.booleans()):
            tau = -tau
        assume(tau != 0.0)
        r = search.sign_restricted_domain(dom, tau)
        assert r.kind is DomainKind.SINGLE
        assert dom.contains(r.lo) and dom.contains(r.hi)
        assert (r.lo >= 0.0) if tau > 0.0 else (r.hi <= 0.0)
        assert r.contains(tau)

    @settings(max_examples=25, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_sweep_never_raises_lde(self, inst, seed, n_tors):
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        before = metrics.lde_global(conf, ci)
        X, _ = search.improve(conf, tau, ci, n_tors, rng)
        assert metrics.lde_global(X, ci) <= before


class TestInstanceFileRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(instances(), st.data())
    def test_write_parse_round_trip(self, tmp_path_factory, inst, data):
        domains = {i: data.draw(torsion_domains()) for i in range(4, inst.n + 1)}
        inst = io.build_instance(inst.atoms, list(inst.edges.values()), domains)
        path = tmp_path_factory.mktemp("round_trip") / "case.inst"
        io.write_instance(inst, path)
        back = io.parse_instance(path)

        assert back.atoms == inst.atoms
        assert set(back.edges) == set(inst.edges)
        for key, e in inst.edges.items():
            b = back.edges[key]
            assert (b.lower, b.upper) == (e.lower, e.upper)
        # degrees in the file: the radian bounds come back within round-off
        assert set(back.torsion_domains) == set(domains)
        for i, dom in domains.items():
            b = back.torsion_domains[i]
            assert b.kind is dom.kind
            assert abs(b.lo - dom.lo) <= 1e-12 and abs(b.hi - dom.hi) <= 1e-12
