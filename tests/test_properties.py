"""Properties of the compiled array view, the stress model, the solver's
pool, the improvement sweep's sign restriction, early stop, kept prefix and
skipped flips, the reflection pass, the batched torsion sampler, the
placement table, and the instance file format, checked on random valid
instances and domains."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idgp import geometry, io, metrics, search, spg
from idgp.model import (
    CompiledInstance,
    DomainKind,
    EdgeConstraint,
    IdgpError,
    Instance,
    SolverParams,
    TorsionDomain,
    validate_instance,
)
from tests import oracles


# tight H-H widths and no torsion annotations: a sweep there keeps flips at
# several atoms and leaves others out
SWEEP_CASE = io.generate_instance(*io.synthetic_backbone(4, seed=0), hh_width_adjacent=0.5,
                                  hh_width_other=1.0, include_torsion_annotations=False)


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


@st.composite
def sampler_domains(draw):
    """Every case the sampler tells apart: interval, point, symmetric
    interval, symmetric point and symmetric {0}."""
    a, b = sorted(draw(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi))))
    kind = draw(st.sampled_from(["interval", "point", "+-", "+- point", "+- zero"]))
    if kind == "interval":
        return TorsionDomain.single(-a, b)
    if kind == "point":
        return TorsionDomain.point(draw(st.sampled_from([-b, b])))
    if kind == "+-":
        return TorsionDomain.symmetric(a, b)
    if kind == "+- point":
        return TorsionDomain.symmetric(b, b)
    return TorsionDomain.symmetric(0.0, 0.0)


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
                d, theta = inst.edge(i - 1, i).lower, inst.bond_angles[i]
                assert ci.theta[i] == theta
                assert ci.axial[i] == -d * math.cos(theta)
                assert ci.radial[i] == d * math.sin(theta)
            else:
                assert math.isnan(ci.axial[i]) and math.isnan(ci.radial[i])
        assert ci.axial.shape == ci.radial.shape == (inst.n + 1,)
        assert math.isnan(ci.axial[0]) and math.isnan(ci.radial[0])

    @settings(max_examples=20, deadline=None)
    @given(instances())
    def test_fields_are_ints_or_read_only_arrays(self, inst):
        # one array view: no field carries a second, mutable copy of the instance
        ci = CompiledInstance.of(inst)
        for name, value in vars(ci).items():
            assert isinstance(value, int) or (isinstance(value, np.ndarray)
                                              and not value.flags.writeable), name

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
    @given(instances(), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    def test_project_matches_clip_oracle(self, inst, seed, spread):
        # distances inside, on and outside their intervals
        ci = CompiledInstance.of(inst)
        prob = metrics.StressProblem(ci)
        rng = np.random.default_rng(seed)
        d = rng.uniform(ci.lower * (1.0 - spread), ci.upper * (1.0 + spread))
        on = rng.random(d.size)
        d[on < 0.1], d[on > 0.9] = ci.lower[on < 0.1], ci.upper[on > 0.9]
        z = prob.pack(rng.normal(scale=3.0, size=(3, inst.n)), d)
        before = z.copy()
        assert prob.project(z).tobytes() == oracles.project(z, ci).tobytes()
        assert z.tobytes() == before.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1))
    def test_solved_matches_lde_mde(self, inst, seed):
        # at the criterion's edge, eps equal to the metric or one ulp below,
        # on a z no call has seen, right after objective(z) and after
        # objective at another point
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(seed)

        def point():
            return prob.pack(rng.normal(scale=3.0, size=(3, inst.n)),
                             rng.uniform(ci.lower, ci.upper))

        for state in ("fresh", "same", "other"):
            prob = metrics.StressProblem(ci)
            z, z_other = point(), point()
            if state != "fresh":
                prob.objective(z if state == "same" else z_other)
            X = prob.unpack(z)[0].copy()
            mde, lde = metrics.mde_global(X, ci), metrics.lde_global(X, ci)
            for eps_mde in (mde, np.nextafter(mde, -math.inf)):
                for eps_lde in (lde, np.nextafter(lde, -math.inf)):
                    got = prob.solved(z, eps_mde, eps_lde)
                    assert type(got) is bool
                    assert got == (mde <= eps_mde or lde <= eps_lde), state


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
        # the reference restriction of the sweep oracle, asked only for a
        # nonzero tau inside the domain
        tau = data.draw(st.floats(dom.lo, dom.hi))
        if dom.kind is DomainKind.SYMMETRIC and data.draw(st.booleans()):
            tau = -tau
        assume(tau != 0.0)
        r = oracles.sign_restricted_domain(dom, tau)
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

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_sweep_matches_prefix_keeping_oracle(self, inst, seed, n_tors):
        # a stopped attempt is one the full regrowth would have rejected, and
        # it consumes the same draws; a flip past the edges at the current
        # LDE draws nothing
        ci = CompiledInstance.of(inst)
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        tau, X = search.greedy_construction(ci, n_tors, rng)
        X, tau = search.improve(X, tau, ci, n_tors, rng)
        tau_oracle, X_oracle = oracles.greedy_construction(ci, n_tors, rng_oracle)
        X_oracle, tau_oracle = oracles.improve(X_oracle, tau_oracle, ci, n_tors,
                                               rng_oracle)
        assert X.coords.tobytes() == X_oracle.coords.tobytes()
        assert tau == tau_oracle
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @staticmethod
    def improve_recorded(X, tau, ci, n_tors, rng):
        """Run `search.improve`; returns its output, the (X, i, result) of
        each `geometry.reflect_tail` call, whether its pass kept a reflection,
        and the (prefix, domains, result) of each `greedy_construction` call."""
        reflections, attempts = [], []
        reflect, greedy = geometry.reflect_tail, search.greedy_construction
        signature = inspect.signature(greedy)

        def recording_reflect(X, i):
            reflections.append((X, i, reflect(X, i)))
            return reflections[-1][2]

        def recording_greedy(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            attempts.append((call["prefix"], call["domains"], greedy(*args, **kwargs)))
            return attempts[-1][2]

        with mock.patch.object(geometry, "reflect_tail", recording_reflect), \
                mock.patch.object(search, "greedy_construction", recording_greedy):
            X_out, tau_out = search.improve(X, tau, ci, n_tors, rng)
        reflected = any(Y is X_out.coords for _, _, Y in reflections)
        return X_out, tau_out, reflections, reflected, attempts

    @classmethod
    def sweep_steps(cls, ci, n_tors, seed):
        """Run `improve` on a fresh construction, and once more if its
        reflection pass kept a reflection (the sweep then does not run; the
        second pass starts where the first stopped and keeps none). Returns
        the conformation and torsions before each atom's turn in the sweep
        that ran, and that atom's attempt (None if the sweep made none), for
        atoms 4..n."""
        rng = np.random.default_rng(seed)
        tau, X = search.greedy_construction(ci, n_tors, rng)
        for _ in range(2):
            X_out, tau_out, _, reflected, calls = cls.improve_recorded(X, tau, ci, n_tors,
                                                                       rng)
            if not reflected:
                break
            assert not calls
            X, tau = X_out, tau_out
        assert not reflected
        attempts = {}
        for prefix, domains, out in calls:
            # the flipped atom is the one whose domain differs from the instance's
            start = prefix.shape[1] + 1
            own = ci.tors_lo[start - 4:], ci.tors_hi[start - 4:], ci.tors_sym[start - 4:]
            differs = np.logical_or.reduce([a != b for a, b in zip(domains, own)])
            attempts[start + int(np.flatnonzero(differs)[0])] = out
        steps = []
        for i in range(4, ci.n + 1):
            steps.append((i, X, tau, attempts.get(i)))
            placed, trial = attempts.get(i, ({}, None))
            if trial is not None and metrics.lde_global(trial, ci) < metrics.lde_global(X, ci):
                X, tau = trial, {**{k: tau[k] for k in range(4, i)}, **placed}
        assert X is X_out and tau == tau_out
        return steps

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 1, 5)
    def test_flip_keeps_the_prefix(self, inst, seed, n_tors):
        # every finished attempt, so also every kept one
        ci = CompiledInstance.of(inst)
        for i, X, _, attempt in self.sweep_steps(ci, n_tors, seed):
            if attempt is not None and attempt[1] is not None:
                prefix = attempt[1].coords[:, :i - 1]
                assert prefix.tobytes() == X.coords[:, :i - 1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    @example(SWEEP_CASE, 3, 1, 0)
    def test_skipped_flip_could_not_be_kept(self, inst, seed, n_tors, regrow_seed):
        # regrow every flip the sweep left out, to the last atom
        ci = CompiledInstance.of(inst)
        domains = oracles.torsion_domains(ci)
        for i, X, tau, attempt in self.sweep_steps(ci, n_tors, seed):
            dom = domains[i]
            if attempt is not None or tau[i] == 0.0 or not dom.contains(-tau[i]):
                continue
            trial = oracles.sign_restricted_domain(dom, -tau[i])
            lo, hi, sym = (ci.tors_lo[i - 4:].copy(), ci.tors_hi[i - 4:].copy(),
                           ci.tors_sym[i - 4:].copy())
            lo[0], hi[0], sym[0] = trial.lo, trial.hi, False
            rng = np.random.default_rng(regrow_seed)
            for _ in range(3):
                _, regrown = search.greedy_construction(ci, n_tors, rng,
                                                        X.coords[:, :i - 1], (lo, hi, sym))
                assert metrics.lde_global(regrown, ci) >= metrics.lde_global(X, ci)

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.one_of(st.floats(0.0, 2.0), st.just(math.inf)))
    def test_bounded_construction_is_prefix_of_full(self, inst, seed, n_tors, scale):
        ci = CompiledInstance.of(inst)
        rng, rng_bounded = np.random.default_rng(seed), np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        lde = metrics.lde_global(conf, ci)
        bound = math.inf if scale == math.inf else scale * lde
        tau_b, conf_b = search.greedy_construction(ci, n_tors, rng_bounded, bound=bound)
        assert rng.bit_generator.state == rng_bounded.bit_generator.state
        if conf_b is None:
            assert list(tau_b.items()) == list(tau.items())[:len(tau_b)]
            assert lde >= bound
        else:
            assert tau_b == tau
            assert conf_b.coords.tobytes() == conf.coords.tobytes()
        # an unbounded construction is the one that samples inside its loop
        tau_o, conf_o = oracles.greedy_construction(
            ci, n_tors, np.random.default_rng(seed))
        assert tau == tau_o and conf.coords.tobytes() == conf_o.coords.tobytes()


class TestReflectionPass:
    @staticmethod
    def pass_steps(ci, n_tors, seed):
        """Run `improve` on a fresh construction; returns, for each
        reflection its pass tried, (conformation, torsions, i, result,
        whether it was kept), and the torsions `improve` returned."""
        rng = np.random.default_rng(seed)
        tau, X = search.greedy_construction(ci, n_tors, rng)
        X_out, tau_out, reflections, reflected, _ = TestImprove.improve_recorded(
            X, tau, ci, n_tors, rng)
        # a kept reflection is the start of the next scan, or the output
        taus = {id(X.coords): tau}  # torsions of each conformation scanned from
        steps = []
        for r, (X_in, i, Y) in enumerate(reflections):
            kept = Y is X_out.coords or any(Y is Z for Z, _, _ in reflections[r + 1:])
            if kept:
                taus[id(Y)] = {k: -t if k >= i else t for k, t in taus[id(X_in)].items()}
            steps.append((X_in, taus[id(X_in)], i, Y, kept))
        assert reflected == any(step[4] for step in steps)
        if reflected:
            assert taus[id(X_out.coords)] == tau_out
        return steps

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_reflection_keeps_the_prefix(self, inst, seed, n_tors):
        # every tried reflection, so also every kept one
        for X, _, i, Y, _ in self.pass_steps(CompiledInstance.of(inst), n_tors, seed):
            assert Y[:, :i - 1].tobytes() == X[:, :i - 1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_negated_torsions_match_the_geometry(self, inst, seed, n_tors):
        ci = CompiledInstance.of(inst)
        for _, tau, i, Y, kept in self.pass_steps(ci, n_tors, seed):
            if not kept:
                continue
            for k in range(i, ci.n + 1):
                measured = geometry.dihedral(*(Y[:, a] for a in range(k - 4, k)))
                assert abs(math.remainder(measured + tau[k], 2.0 * math.pi)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_no_reflection_leaves_a_domain(self, inst, seed, n_tors):
        # every tried reflection, so no kept one puts a torsion outside
        ci = CompiledInstance.of(inst)
        domains = oracles.torsion_domains(ci)
        for _, tau, i, _, _ in self.pass_steps(ci, n_tors, seed):
            assert all(domains[k].contains(-tau[k]) for k in range(i, ci.n + 1))

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_tried_only_where_every_edge_at_the_lde_changes(self, inst, seed, n_tors):
        # j < i - 3 and k >= i for each edge (j, k) at the LDE; elsewhere the
        # reflection keeps such an edge, up to rounding
        ci = CompiledInstance.of(inst)
        for X, _, i, _, _ in self.pass_steps(ci, n_tors, seed):
            res = oracles.residuals(X, ci)
            at = res == res.max()
            assert ci.ii[at].max() + 1 < i - 3 and ci.jj[at].min() + 1 >= i

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_lde_never_rises(self, inst, seed, n_tors):
        # a scan of the window from X keeps its first lowest LDE if that is
        # below X's, else nothing; the next scan starts from what it kept
        ci = CompiledInstance.of(inst)
        scans = []
        for X, _, _, Y, kept in self.pass_steps(ci, n_tors, seed):
            if not scans or scans[-1][0] is not X:
                scans.append((X, [], []))
            scans[-1][1].append(metrics.lde_global(Y, ci))
            scans[-1][2].append(kept)
        for X, ldes, kept in scans:
            lowest = ldes.index(min(ldes)) if min(ldes) < metrics.lde_global(X, ci) else None
            assert kept == [r == lowest for r in range(len(ldes))]


class TestSampleTorsions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(sampler_domains(), max_size=8), st.integers(1, 9),
           st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3]))
    @example([TorsionDomain.symmetric(0.5, 1.0)] * 3, 3, 0, 1)
    @example([TorsionDomain.symmetric(0.5, 0.5), TorsionDomain.single(-1.0, 1.0)],
             2, 0, 0)
    def test_matches_per_domain_calls(self, doms, size, seed, odd_before):
        # an odd integers(0, 2, k) call first leaves a half word buffered
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        if odd_before:
            rng.integers(0, 2, odd_before)
            rng_oracle.integers(0, 2, odd_before)
        taus = geometry.sample_torsions(
            [d.lo for d in doms], [d.hi for d in doms],
            [d.kind is DomainKind.SYMMETRIC for d in doms], rng, size)
        expect = [oracles.sample_torsions(d, rng_oracle, size) for d in doms]
        assert taus.shape == (len(doms), size)
        assert [row.tobytes() for row in taus] == [row.tobytes() for row in expect]
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        assert rng.integers(0, 2, 5).tolist() == rng_oracle.integers(0, 2, 5).tolist()
        assert rng.random(3).tobytes() == rng_oracle.random(3).tobytes()

    def test_other_bit_generator_raises(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError):
            geometry.sample_torsions([0.0], [1.0], [True], rng, 3)


class TestPlacementTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(sampler_domains(), st.floats(0.5, 3.0),
                              st.floats(0.05, math.pi - 0.05)), min_size=1, max_size=6),
           st.integers(1, 25), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9))
    @example([(TorsionDomain.point(0.7), 1.5, 1.9)], 1, 0, [0.0, 0.0, 0.0, -1.5, 0.0, 0.0,
                                                            -2.0, 1.4, 0.0])
    def test_row_matches_per_atom_trig(self, rows, n_tors, seed, points):
        # a row of one table over k atoms' torsion block, as greedy construction
        # builds it, places each atom as the per-call trig of the oracle does
        x1, x2, x3 = np.array(points).reshape(3, 3)
        try:
            geometry.local_frame(x1, x2, x3)
        except IdgpError:
            assume(False)
        doms, d, theta = zip(*rows)
        taus = geometry.sample_torsions([t.lo for t in doms], [t.hi for t in doms],
                                        [t.kind is DomainKind.SYMMETRIC for t in doms],
                                        np.random.default_rng(seed), n_tors)
        table = geometry._local_table(
            np.array([-a * math.cos(b) for a, b in zip(d, theta)]),
            np.array([a * math.sin(b) for a, b in zip(d, theta)]), taus)
        assert table.shape == (len(rows), 3, n_tors)
        for r in range(len(rows)):
            got = geometry.place_atoms_batch(x1, x2, x3, table[r])
            expect = oracles.place_atoms_batch(x1, x2, x3, d[r], theta[r], taus[r])
            assert got.tobytes() == expect.tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.data())
    def test_file_and_memory_apply_one_edge_rule(self, tmp_path_factory, inst, data):
        """With one edge's bounds replaced, parse_instance raises a record's
        ParseError at that edge's line exactly when validate_instance, given
        the same instance in memory, reports that edge; a derivation it
        breaks is a ParseError at the line of an edge spanning it."""
        keys = sorted(inst.edges)
        i, j = key = data.draw(st.sampled_from(keys))
        bound = st.one_of(st.sampled_from([0.0, -1.5, math.nan, math.inf, -math.inf]),
                          st.floats(0.5, 6.0))
        lower = data.draw(bound)
        upper = data.draw(st.one_of(st.just(lower), bound))  # equal, swapped or apart
        changed = Instance(inst.atoms, {**inst.edges, key: EdgeConstraint(i, j, lower, upper)},
                           inst.torsion_domains, inst.bond_angles)
        reported = any(v.startswith(f"edge ({i},{j}):") for v in validate_instance(changed))
        path = tmp_path_factory.mktemp("one_rule") / "case.inst"
        io.write_instance(changed, path)  # a header line, then the edges in key order
        try:
            io.parse_instance(path)
            line = None
        except io.ParseError as exc:
            line = exc.line_no
            if not isinstance(exc.__cause__, ValueError):
                # deriving atom a's bond angle or torsion domain failed, at
                # the line of edge (a-2, a) or (a-3, a); the edges it reads
                # lie within atoms a-2..a or a-3..a
                first, a = keys[line - 2]
                assert a - first in (2, 3) and first <= i < j <= a
                line = None
        except IdgpError:  # a rule of the whole instance
            line = None
        assert line == (2 + keys.index(key) if reported else None)
