"""Properties of the compiled array view, the stress model, the solver's
pool, the improvement sweep's sign restriction, early stop, kept prefix and
skipped flips, the reflection pass, the batched torsion sampler, the
placement table, and the instance file format and its parser, checked on
random valid instances and domains and on files broken from them."""

import inspect
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idgp import geometry, io, metrics, search, spg
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    EdgeConstraint,
    IdgpError,
    Instance,
    SolverParams,
    TorsionDomain,
    edge_problems,
    torsion_law,
)
from tests import oracles
from tests.conftest import build_chain, exact_edge, one_edge_instance
from tests.test_io import BAD_TORSION_LINES, CHAIN, FLAT_CHAIN, MALFORMED_LINES


# tight H-H widths and no torsion annotations: a sweep there keeps flips at
# several atoms and leaves others out
SWEEP_CASE = io.generate_instance(*io.synthetic_backbone(4, seed=0), hh_width_adjacent=0.5,
                                  hh_width_other=1.0, include_torsion_annotations=False)


# annotated, so every domain is one interval and no round keeps a move
ANNOTATED_CASE = io.generate_instance(*io.synthetic_backbone(4, seed=0), hh_width_adjacent=0.5,
                                      hh_width_other=1.0)
# paper widths without annotations: with rng seed 9 and 5 torsions the first
# round keeps a reflection and the second a flip that meets the paper's criterion
PAPER_WIDTH_CASE = io.generate_instance(*io.synthetic_backbone(4, seed=0),
                                        include_torsion_annotations=False)
NO_EPS = (-math.inf, -math.inf)
PAPER_EPS = (SolverParams().eps_mde, SolverParams().eps_lde)


@st.composite
def instances(draw, hh_cutoff=5.0):
    """A generated instance: random backbone, torsion window and H-H widths;
    `hh_cutoff=0` leaves out every H-H edge."""
    hydrogens = draw(st.booleans())
    residues = draw(st.integers(1 if hydrogens else 2, 4))
    atoms, coords = io.synthetic_backbone(residues, seed=draw(st.integers(0, 10**6)),
                                          include_hydrogens=hydrogens)
    adjacent = draw(st.floats(0.2, 2.0))
    return io.generate_instance(
        atoms, coords, angle_width_deg=draw(st.sampled_from([0.0, 20.0, 50.0, 90.0])),
        hh_cutoff=hh_cutoff, hh_width_adjacent=adjacent, hh_width_other=2.0 * adjacent,
        include_torsion_annotations=draw(st.booleans()))


def narrowed(backbone, narrow_deg: float, wide_deg: float):
    """An instance whose (i-3, i) intervals come from a torsion window of
    `narrow_deg` and its torsion annotations from one of `wide_deg`, so that
    drawn torsions violate the torsion-distance law."""
    narrow = io.generate_instance(*backbone, angle_width_deg=narrow_deg)
    wide = io.generate_instance(*backbone, angle_width_deg=wide_deg)
    return io.build_instance(backbone[0], narrow.edges.values(), wide.torsion_domains)


@st.composite
def narrowed_instances(draw):
    backbone = io.synthetic_backbone(draw(st.integers(2, 4)), seed=draw(st.integers(0, 10**6)))
    return narrowed(backbone, draw(st.sampled_from([0.0, 10.0, 20.0])),
                    draw(st.sampled_from([60.0, 120.0, 360.0])))


# exact (i-3, i) edges and 60-degree torsion windows: with rng seed 4 and 8
# torsions, an atom's draw 0 violates the law by less than 1e-3 and meets its
# long-range edges, and a later draw scores lower
NARROWED_CASE = narrowed(io.synthetic_backbone(4, seed=0), 0.0, 60.0)
# 10-degree (i-3, i) windows and 60-degree annotations: in the construction
# with rng seed 0 and 8 torsions, one far atom's draw 0 violates the law and
# its first draw k > 0 that meets the law is kept alone; at another far atom
# that draw violates a long-range edge and the block of all draws picks one
NARROWED_10_CASE = narrowed(io.synthetic_backbone(4, seed=0), 10.0, 60.0)


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


# chains without a torsion: every per-torsion array of the compiled view is empty
THREE_ATOM_CHAIN = io.build_instance(
    [AtomRecord(k, "X", 1) for k in (1, 2, 3)],
    [exact_edge(build_chain([]), i, j) for i, j in ((1, 2), (2, 3), (1, 3))])
ONE_EDGE = one_edge_instance(1.5, 1.5)


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
    @example(THREE_ATOM_CHAIN)
    @example(ONE_EDGE)
    def test_back_edge_rows(self, inst):
        ci = CompiledInstance.of(inst)
        assert ci.back_ptr.shape == (inst.n + 1,)
        for i in range(1, inst.n + 1):
            rows = slice(ci.back_ptr[i - 1], ci.back_ptr[i])
            back = sorted(j for (j, k) in inst.edges if k == i)
            assert list(ci.back_col[rows] + 1) == back
            assert list(ci.back_lower[rows]) == [inst.edges[(j, i)].lower for j in back]
            assert list(ci.back_upper[rows]) == [inst.edges[(j, i)].upper for j in back]
            if i >= 2:
                assert ci.d_prev[i] == inst.edges[(i - 1, i)].lower
            if i >= 3:
                d, theta = inst.edges[(i - 1, i)].lower, inst.bond_angles[i]
                assert ci.theta[i] == theta
            if i >= 4:
                assert ci.axial[i - 4] == -d * math.cos(theta)
                assert ci.radial[i - 4] == d * math.sin(theta)
        # atom i at entry i - 4, like the torsion domains
        assert ci.axial.shape == ci.radial.shape == ci.tors_lo.shape == (max(inst.n - 3, 0),)

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=5))
    @example(THREE_ATOM_CHAIN, [0.0])
    @example(ONE_EDGE, [0.0])
    def test_torsion_distance_law(self, inst, taus):
        # the arrays are torsion_law of each atom's lengths and angles, and
        # the law gives the distance of atom i placed after any predecessor
        # triple with those lengths and angle
        ci = CompiledInstance.of(inst)
        assert ci.law_a.shape == ci.law_b.shape == ci.tors_lo.shape == (max(inst.n - 3, 0),)
        for i in range(4, inst.n + 1):
            d, theta = ci.d_prev[i], ci.theta[i]
            a, b = torsion_law(ci.d_prev[i - 2], ci.d_prev[i - 1], ci.theta[i - 1], d, theta)
            assert (ci.law_a[i - 4], ci.law_b[i - 4]) == (a, b)
            triple = geometry.place_first_three(ci.d_prev[i - 2], ci.d_prev[i - 1],
                                                ci.theta[i - 1])
            scale = abs(a) + abs(b)
            for tau in taus:
                x = geometry.place_atom(*triple, d, theta, tau)
                d2 = float(((x - triple[0]) ** 2).sum())
                assert math.isclose(a + b * math.cos(tau), d2,
                                    rel_tol=1e-12, abs_tol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.randoms(use_true_random=False))
    @example(THREE_ATOM_CHAIN, Random(0))
    @example(ONE_EDGE, Random(0))
    def test_compile_matches_per_record_build(self, inst, random):
        # generate_instance inserts edges in no (i, j) order, and a shuffled
        # rebuild in none at all; every field equals the per-record build's
        records = list(inst.edges.values())
        random.shuffle(records)
        overrides = {i: inst.torsion_domains[i] for i in inst.torsion_domains
                     if random.random() < 0.5}
        # build_instance rejects an instance of fewer than 3 atoms
        rebuilt = [io.build_instance(inst.atoms, records, overrides)] if inst.n >= 3 else []
        for case in (inst, *rebuilt):
            ci, expected = CompiledInstance.of(case), oracles.compiled_instance(case)
            for name, value in vars(expected).items():
                got = getattr(ci, name)
                if isinstance(value, int):
                    assert got == value, name
                    continue
                assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                assert got.tobytes() == value.tobytes(), name

    def test_compile_is_byte_stable(self, tmp_path):
        # in a fresh interpreter, so that CPython specializes the compile's
        # float operations between its calls: no field holds a computed NaN,
        # whose sign could change with the specialization
        script = """if True:
            import sys
            import numpy as np
            from idgp import io
            from idgp.model import CompiledInstance
            generated = io.generate_instance(*io.synthetic_backbone(3, seed=1))
            io.write_instance(generated, sys.argv[1] + "/case.inst")
            for inst in (generated, io.parse_instance(sys.argv[1] + "/case.inst")):
                first = vars(CompiledInstance.of(inst))
                for _ in range(10):
                    for name, value in vars(CompiledInstance.of(inst)).items():
                        if isinstance(value, np.ndarray):
                            assert value.tobytes() == first[name].tobytes(), name
            """
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_generated_edges_are_not_in_pair_order(self):
        # the compile above sees unsorted input
        assert list(SWEEP_CASE.edges) != sorted(SWEEP_CASE.edges)

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
                    assert metrics.solved(metrics._residuals(X, ci), eps_mde, eps_lde) is got
                    assert got == (mde <= eps_mde or lde <= eps_lde), state


class TestEarlyStop:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 2**32 - 1), st.sampled_from([0, 3]),
           st.sampled_from([20, 60]))
    @example(101, 0, 0, 60)     # SPG stops at the criterion on iteration 55
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
            mde = metrics.mde_global(rep.conformation.coords, ci)
            lde = metrics.lde_global(rep.conformation.coords, ci)
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
            assert rep.conformation.coords is best.conformation
            assert (rep.mde, rep.lde) == (best.mde, best.lde)


class TestImprove:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)), st.data())
    def test_sign_restriction_keeps_tau_side(self, bounds, data):
        # the reference restriction of the sweep oracle, asked only for a
        # nonzero tau inside a sign-symmetric domain, the only kind it flips
        dom = TorsionDomain.symmetric(*sorted(bounds))
        tau = data.draw(st.floats(dom.lo, dom.hi))
        if data.draw(st.booleans()):
            tau = -tau
        assume(tau != 0.0)
        r = oracles.sign_restricted_domain(dom, tau)
        assert not r.sym
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
    @given(st.one_of(instances(), narrowed_instances()), st.integers(0, 2**32 - 1),
           st.integers(1, 8))
    @example(NARROWED_CASE, 4, 8)
    @example(NARROWED_10_CASE, 0, 8)
    @example(SWEEP_CASE, 33, 5)  # the sweep keeps a flip at the first improvement
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
        assert X.tobytes() == X_oracle.tobytes()
        assert tau.tobytes() == tau_oracle.tobytes()
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3),
           st.sampled_from([NO_EPS, PAPER_EPS]))
    @example(SWEEP_CASE, 14, 5, 3, NO_EPS)  # reflection, flip, then a rescan keeps one
    @example(SWEEP_CASE, 13, 5, 3, NO_EPS)  # reflection, then a flip in each round
    @example(ANNOTATED_CASE, 0, 5, 3, NO_EPS)
    @example(PAPER_WIDTH_CASE, 9, 5, 3, PAPER_EPS)
    def test_rounds_equal_chained_calls(self, inst, seed, n_tors, rounds, eps):
        # a round that skips the reflection scan skips one that keeps nothing
        ci = CompiledInstance.of(inst)
        rng = np.random.default_rng(seed)
        tau, X = search.greedy_construction(ci, n_tors, rng)
        rng_chained = np.random.default_rng()
        rng_chained.bit_generator.state = rng.bit_generator.state
        X_chained, tau_chained = oracles.improve_rounds(X, tau, ci, n_tors, rng_chained, eps,
                                                        rounds)
        X, tau = search.improve(X, tau, ci, n_tors, rng, eps=eps, rounds=rounds)
        assert X.tobytes() == X_chained.tobytes()
        assert tau.tobytes() == tau_chained.tobytes()
        assert rng.bit_generator.state == rng_chained.bit_generator.state

    @staticmethod
    def improve_recorded(X, tau, ci, n_tors, rng):
        """Run `search.improve`; returns its output, the (X, i, result) of
        each `geometry.reflect_tail` call, whether its pass kept a reflection,
        and the (prefix, first, result) of each `greedy_construction` call."""
        reflections, attempts = [], []
        reflect, greedy = geometry.reflect_tail, search.greedy_construction
        signature = inspect.signature(greedy)

        def recording_reflect(X, i):
            reflections.append((X, i, reflect(X, i)))
            return reflections[-1][2]

        def recording_greedy(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            attempts.append((call["prefix"], call["first"], greedy(*args, **kwargs)))
            return attempts[-1][2]

        with mock.patch.object(geometry, "reflect_tail", recording_reflect), \
                mock.patch.object(search, "greedy_construction", recording_greedy):
            X_out, tau_out = search.improve(X, tau, ci, n_tors, rng)
        reflected = any(Y is X_out for _, _, Y in reflections)
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
        for prefix, _, out in calls:
            # the flipped atom is the first one the attempt builds
            attempts[prefix.shape[1] + 1] = out
        steps = []
        for i in range(4, ci.n + 1):
            steps.append((i, X, tau, attempts.get(i)))
            placed, trial = attempts.get(i, (None, None))
            if trial is not None and metrics.lde_global(trial, ci) < metrics.lde_global(X, ci):
                X, tau = trial, np.concatenate((tau[:i - 4], placed))
        assert X is X_out and tau.tobytes() == tau_out.tobytes()
        return steps

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 1, 5)
    def test_flip_keeps_the_prefix(self, inst, seed, n_tors):
        # every finished attempt, so also every kept one
        ci = CompiledInstance.of(inst)
        for i, X, _, attempt in self.sweep_steps(ci, n_tors, seed):
            if attempt is not None and attempt[1] is not None:
                prefix = attempt[1][:, :i - 1]
                assert prefix.tobytes() == X[:, :i - 1].tobytes()

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
            # a single interval is left out by rule, whatever a flip there gives
            if (attempt is not None or tau[i - 4] == 0.0
                    or not dom.sym):
                continue
            trial = oracles.sign_restricted_domain(dom, -tau[i - 4])
            rng = np.random.default_rng(regrow_seed)
            for _ in range(3):
                _, regrown = search.greedy_construction(ci, n_tors, rng, X[:, :i - 1],
                                                        (trial.lo, trial.hi))
                assert metrics.lde_global(regrown, ci) >= metrics.lde_global(X, ci)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(instances(), narrowed_instances()), st.integers(0, 2**32 - 1),
           st.integers(1, 8), st.one_of(st.floats(0.0, 2.0), st.just(math.inf)))
    @example(NARROWED_CASE, 4, 8, math.inf)
    def test_bounded_construction_is_prefix_of_full(self, inst, seed, n_tors, scale):
        ci = CompiledInstance.of(inst)
        rng, rng_bounded = np.random.default_rng(seed), np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        lde = metrics.lde_global(conf, ci)
        bound = math.inf if scale == math.inf else scale * lde
        tau_b, conf_b = search.greedy_construction(ci, n_tors, rng_bounded, bound=bound)
        assert rng.bit_generator.state == rng_bounded.bit_generator.state
        if conf_b is None:
            assert tau_b.tobytes() == tau[:len(tau_b)].tobytes()
            assert lde >= bound
        else:
            assert tau_b.tobytes() == tau.tobytes()
            assert conf_b.tobytes() == conf.tobytes()
        # an unbounded construction is the one that samples inside its loop
        tau_o, conf_o = oracles.greedy_construction(
            ci, n_tors, np.random.default_rng(seed))
        assert tau.tobytes() == tau_o.tobytes()
        assert conf.tobytes() == conf_o.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
    def test_first_interval_matches_oracle(self, inst, seed, n_tors, data):
        # `first` replaces atom s's domain by one interval, as a flip hands it
        # over; the later atoms draw from their own domains
        ci = CompiledInstance.of(inst)
        assume(ci.n >= 4)
        _, X = search.greedy_construction(ci, n_tors, np.random.default_rng(seed))
        s = data.draw(st.integers(4, ci.n), label="s")
        lo, hi = sorted(data.draw(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi))))
        # the two halves of a sign-symmetric domain, an interval across zero, points
        first = data.draw(st.sampled_from([(lo, hi), (-hi, -lo), (-lo, hi), (hi, hi),
                                           (-hi, -hi)]), label="first")
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng, X[:, :s - 1], first)
        domains = oracles.torsion_domains(ci)
        domains[s] = TorsionDomain.single(*first)
        tau_o, conf_o = oracles.greedy_construction(ci, n_tors, rng_oracle, X[:, :s - 1],
                                                    domains)
        assert tau.tobytes() == tau_o.tobytes()
        assert conf.tobytes() == conf_o.tobytes()
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_stop_is_judged_as_lde_global_judges(self, inst, seed, n_tors):
        # a candidate's score rounds unlike lde_global and leaves out the exact
        # edges, so the stop measures the kept atom again: a construction stops
        # only at an atom whose back edges reach the bound as lde_global
        # measures them, and a bound one ulp above that never stops there
        ci = CompiledInstance.of(inst)
        _, conf = search.greedy_construction(ci, n_tors, np.random.default_rng(seed))
        worst = np.zeros(ci.n + 1)  # atom k's largest back-edge violation
        np.maximum.at(worst, ci.jj + 1, metrics._residuals(conf, ci))
        for bound in {*worst[4:], *np.nextafter(worst[4:], math.inf)}:
            tau_b, conf_b = search.greedy_construction(ci, n_tors, np.random.default_rng(seed),
                                                       bound=bound)
            if conf_b is None:
                assert worst[3 + len(tau_b)] >= bound

    @settings(max_examples=40, deadline=None)
    @given(instances(hh_cutoff=0.0), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_law_alone_chooses_without_h_h_edges(self, inst, seed, n_tors):
        # every atom's only scored edge is (i-3, i): its torsion is the first
        # lowest clamped violation of d^2 = law_a + law_b cos(tau)
        ci = CompiledInstance.of(inst)
        assert (ci.back_ptr[4:] - ci.back_ptr[3:-1] == 3).all()
        rng, rng_draws = np.random.default_rng(seed), np.random.default_rng(seed)
        tau, conf = search.greedy_construction(ci, n_tors, rng)
        draws = geometry.sample_torsions(ci.tors_lo, ci.tors_hi, ci.tors_sym, rng_draws,
                                         n_tors)
        for i, row in enumerate(draws, start=4):
            r = np.sqrt(ci.law_a[i - 4] + ci.law_b[i - 4] * np.cos(row))
            e = ci.back_ptr[i] - 3
            lower, upper = ci.back_lower[e], ci.back_upper[e]
            score = np.maximum(0.0, np.maximum((lower - r) / lower, (r - upper) / upper))
            assert tau[i - 4] == row[np.flatnonzero(score == score.min())[0]]
        assert conf is not None and metrics.lde_global(conf, ci) < 1e-9


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
        taus = {id(X): tau}  # torsions of each conformation scanned from
        steps = []
        for r, (X_in, i, Y) in enumerate(reflections):
            kept = Y is X_out or any(Y is Z for Z, _, _ in reflections[r + 1:])
            if kept:
                taus[id(Y)] = np.concatenate((taus[id(X_in)][:i - 4], -taus[id(X_in)][i - 4:]))
            steps.append((X_in, taus[id(X_in)], i, Y, kept))
        assert reflected == any(step[4] for step in steps)
        if reflected:
            assert taus[id(X_out)].tobytes() == tau_out.tobytes()
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
                assert abs(math.remainder(measured + tau[k - 4], 2.0 * math.pi)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(SWEEP_CASE, 0, 1)
    def test_no_reflection_leaves_a_domain(self, inst, seed, n_tors):
        # every tried reflection, so no kept one puts a torsion outside
        ci = CompiledInstance.of(inst)
        domains = oracles.torsion_domains(ci)
        for _, tau, i, _, _ in self.pass_steps(ci, n_tors, seed):
            assert all(domains[k].contains(-tau[k - 4]) for k in range(i, ci.n + 1))

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


def sample_block(doms, rng, size):
    """`geometry.sample_torsions` over the rows `doms`."""
    return geometry.sample_torsions([d.lo for d in doms], [d.hi for d in doms],
                                    [d.sym for d in doms], rng, size)


class TestSampleTorsions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(sampler_domains(), max_size=8), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    @example([TorsionDomain.symmetric(0.5, 1.0)] * 3, 3, 0)
    @example([TorsionDomain.symmetric(0.5, 0.5), TorsionDomain.single(-1.0, 1.0)], 2, 0)
    def test_block_matches_row_calls(self, doms, size, seed):
        # one block call, one-row calls in row order and the one-domain
        # oracle give the same torsions and leave the same generator state
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        taus = sample_block(doms, rngs[0], size)
        rows = [sample_block([d], rngs[1], size)[0] for d in doms]
        expect = [oracles.sample_torsions(d, rngs[2], size) for d in doms]
        assert taus.shape == (len(doms), size)
        assert [row.tobytes() for row in taus] == [row.tobytes() for row in rows] \
            == [row.tobytes() for row in expect]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state \
            == rngs[2].bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(st.lists(sampler_domains(), max_size=8), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_one_word_per_torsion(self, doms, size, seed):
        # every row takes `size` words, point rows too: the generator ends
        # where advancing a copy by k * size words leaves it
        rng, skipped = np.random.default_rng(seed), np.random.default_rng(seed)
        sample_block(doms, rng, size)
        skipped.bit_generator.advance(len(doms) * size)
        assert rng.bit_generator.state == skipped.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.lists(sampler_domains(), min_size=1, max_size=8), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_draws_stay_in_their_domains(self, doms, size, seed):
        taus = sample_block(doms, np.random.default_rng(seed), size)
        for dom, row in zip(doms, taus.tolist()):
            assert all(dom.contains(t) for t in row)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_single_interval_is_rng_uniform(self, a, b, size, seed):
        lo, hi = min(a, b), max(a, b)
        assume(lo != hi)
        rng, rng_uniform = np.random.default_rng(seed), np.random.default_rng(seed)
        taus = geometry.sample_torsions([lo], [hi], [False], rng, size)
        assert taus[0].tobytes() == rng_uniform.uniform(lo, hi, size).tobytes()
        assert rng.bit_generator.state == rng_uniform.bit_generator.state

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
            frame = geometry.local_frame(x1, x2, x3)
        except IdgpError:
            assume(False)
        doms, d, theta = zip(*rows)
        taus = geometry.sample_torsions([t.lo for t in doms], [t.hi for t in doms],
                                        [t.sym for t in doms], np.random.default_rng(seed),
                                        n_tors)
        table = geometry._local_table(
            np.array([-a * math.cos(b) for a, b in zip(d, theta)]),
            np.array([a * math.sin(b) for a, b in zip(d, theta)]), taus)
        assert table.shape == (len(rows), 3, n_tors)
        for r in range(len(rows)):
            got = geometry.place_atoms_batch(frame, x3, table[r])
            expect = oracles.place_atoms_batch(x1, x2, x3, d[r], theta[r], taus[r])
            assert got.tobytes() == expect.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9), st.integers(1, 25),
           st.data())
    def test_block_column_is_one_atom_placed_alone(self, points, k, data):
        # one rounding rule: a candidate placed in a block of k is the same
        # point, bit for bit, as that candidate placed alone
        x1, x2, x3 = points[0:3], points[3:6], points[6:9]
        try:
            frame = geometry.local_frame(x1, x2, x3)
        except IdgpError:
            assume(False)
        local = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=3 * k,
                                            max_size=3 * k))).reshape(3, k)
        block = geometry.place_atoms_batch(frame, x3, local)
        assert block.shape == (3, k)
        for c in range(k):
            alone = geometry.place_local(frame, x3, local[:, c].tolist())
            assert all(type(t) is float for t in alone)
            assert np.array(alone).tobytes() == block[:, c].tobytes()


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
            assert b.sym == dom.sym
            assert abs(b.lo - dom.lo) <= 1e-12 and abs(b.hi - dom.hi) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.data())
    def test_file_and_memory_apply_one_edge_rule(self, tmp_path_factory, inst, data):
        """With one edge's bounds replaced, parse_instance raises a record's
        ParseError at that edge's line exactly when edge_problems, given the
        same record in memory, reports it; a derivation it breaks is a
        ParseError at the line of an edge spanning it."""
        keys = sorted(inst.edges)
        i, j = key = data.draw(st.sampled_from(keys))
        bound = st.one_of(st.sampled_from([0.0, -1.5, math.nan, math.inf, -math.inf]),
                          st.floats(0.5, 6.0))
        lower = data.draw(bound)
        upper = data.draw(st.one_of(st.just(lower), bound))  # equal, swapped or apart
        record = EdgeConstraint(i, j, lower, upper)
        changed = Instance(inst.atoms, {**inst.edges, key: record},
                           inst.torsion_domains, inst.bond_angles)
        reported = bool(edge_problems([record]))
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


# whitespace the tokenizer splits at but a line split at '\n' keeps inside the
# line (str.splitlines would break at all but '\r' and '\t')
LINE_NOISE = ["\r", "\x0c", "\x85", "\u2028", "\t"]


@st.composite
def instance_texts(draw):
    """The text of a written instance, and of variants of it: one or two lines
    replaced by a malformed record, a bad T record or a copy of another
    line; an E record given other bounds, which may break a bond angle or a
    torsion domain, or another name for an atom; a line, or every E line,
    left out; comments and blank lines inserted; and spaces, or the line
    ends, turned into CRs, form feeds, NELs, line separators or tabs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.inst"
        io.write_instance(draw(instances()), path)
        lines = path.read_text().split("\n")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.sampled_from(MALFORMED_LINES + BAD_TORSION_LINES + lines))
    if draw(st.integers(0, 3)) == 3:
        k = draw(st.sampled_from([k for k, line in enumerate(lines) if line[:1] == "E"]))
        tok = lines[k].split(" ")
        tok[3:5] = draw(st.sampled_from([("3.5", "3.5"), ("9", "9.5"), ("0.5", "40"),
                                         ("2", "1"), ("1e300", "1e300"), ("0", "0")]))
        lines[k] = " ".join(tok)
    if draw(st.integers(0, 3)) == 3:
        k = draw(st.sampled_from([k for k, line in enumerate(lines) if line[:1] == "E"]))
        tok = lines[k].split(" ")
        tok[draw(st.sampled_from([5, 7]))] = "Z"
        lines[k] = " ".join(tok)
    drop = draw(st.integers(0, 9))
    if drop == 9:
        lines = [line for line in lines if line[:1] != "E"]
    elif drop == 8:
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(st.sampled_from(["", "   ", "# note", "\t# E 1 2"])))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += draw(st.sampled_from([" # trailing note", "#", " \r"]))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        spaces = [p for p, c in enumerate(lines[k]) if c == " "]
        if spaces:
            p = draw(st.sampled_from(spaces))
            lines[k] = lines[k][:p] + draw(st.sampled_from(LINE_NOISE)) + lines[k][p + 1:]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def parse_outcome(parse, path):
    """What `parse` makes of a file: its Instance with every float as hex
    and every dict in order, or the type and text of its error."""
    try:
        inst = parse(path)
    except IdgpError as exc:
        return type(exc), str(exc)
    return (inst.atoms,
            [(key, e.i, e.j, e.lower.hex(), e.upper.hex()) for key, e in inst.edges.items()],
            [(i, theta.hex()) for i, theta in inst.bond_angles.items()],
            [(i, d.sym, d.lo.hex(), d.hi.hex()) for i, d in inst.torsion_domains.items()])


class TestParseOracle:
    @settings(max_examples=200, deadline=None)
    @given(instance_texts())
    # a rule broken on a line whose residue is no integer
    @example(CHAIN + "E 2 1 1.5 1.5 N x CA 1\n")
    # a residue that is no integer, then a broken rule
    @example(CHAIN.replace("N 1 C 1", "N x C 1") + "E 2 1 1.5 1.5 N 1 CA 1\n")
    # a T record out of range, then a broken E rule
    @example(CHAIN + "T 99 10 20 +\nE 2 1 1.5 1.5 N 1 CA 1\n")
    # a repeated pair, then a broken rule; both on one line; a broken rule,
    # then a repeated T
    @example(CHAIN + "E 1 2 1.5 1.5 N 1 CA 1\nE 2 1 1 1 A 1 B 1\n")
    @example(CHAIN + "E 1 2 2.0 1.0 N 1 CA 1\n")
    @example(CHAIN + "E 2 1 1 1 A 1 B 1\nT 4 1 2 +\nT 4 1 2 +\n")
    # no torsion reaches the (1,4) bounds; at atom 3 no triangle, a collinear
    # one, and a cosine that overflows to NaN
    @example(CHAIN.replace("2.8 3.2", "9 9.5"))
    @example(CHAIN.replace("E 1 3 2.5 2.5", "E 1 3 3.5 3.5"))
    @example(CHAIN.replace("E 1 3 2.5 2.5", "E 1 3 3.0 3.0"))
    @example(CHAIN.replace("1 2 1.5 1.5", "1 2 1e300 1e300")
             .replace("2 3 1.5 1.5", "2 3 1e300 1e300"))
    # bond angles within 2e-8 of pi give a flat law (|b| <= 1e-12), whose
    # (1,4) bounds admit every torsion or none
    @example(FLAT_CHAIN.replace("2.8 3.2", "4.4 4.6"))
    @example(FLAT_CHAIN)
    # (1,4) bounds whose squares overflow
    @example(CHAIN.replace("2.8 3.2", "1e200 1e200"))
    @example(CHAIN.replace("2.8 3.2", "3.0 1e200"))
    # (1,4) bounds no torsion reaches, for an atom with a T line: not inverted
    @example(CHAIN.replace("2.8 3.2", "9 9.5") + "T 4 10 20 +\n")
    # an inexact edge two apart
    @example(CHAIN.replace("2.5 2.5 N 1 C 1", "2.4 2.6 N 1 C 1"))
    # atom 2 named again, otherwise, by a later record; two atoms
    @example(CHAIN.replace("E 2 4 2.5 2.5 CA 1", "E 2 4 2.5 2.5 XX 7"))
    @example("E 1 2 1.5 1.5 N 1 CA 1\n")
    # indices beyond int64
    @example(CHAIN + "E -99999999999999999999999 2 1.5 1.5 N 1 CA 1\n")
    def test_matches_the_line_by_line_parser(self, tmp_path_factory, text):
        """parse_instance gives the oracle's Instance bit for bit, or its
        error type and text, errors in the oracle's order; a file whose E
        records leave an atom in 1..n unnamed has a new error and is left out."""
        path = tmp_path_factory.mktemp("oracle") / "case.inst"
        path.write_bytes(text.encode("utf-8"))
        expect = parse_outcome(oracles.parse_instance, path)
        if expect[0] is io.ValidationError:  # every E record was read
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            toks = [line.split("#", 1)[0].split() for line in lines]
            named = {int(t) for tok in toks if tok[:1] == ["E"] for t in tok[1:3]}
            assume(named == set(range(1, max(named) + 1)))
        assert parse_outcome(io.parse_instance, path) == expect
