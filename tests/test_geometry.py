import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from idgp import geometry
from idgp.model import (
    CompiledInstance,
    DegenerateGeometryError,
    EdgeConstraint,
    InfeasibleDiscretizationError,
    TorsionDomain,
    torsion_law,
)
from tests import oracles
from tests.conftest import build_chain


def circular_error(a, b):
    e = abs(a - b)
    return min(e, 2.0 * math.pi - e)


TRIPLE = geometry.place_first_three(1.5, 1.5, 1.9)


class TestPlaceFirstThree:
    def test_positions(self):
        x1, x2, x3 = geometry.place_first_three(1.2, 1.4, 2.0)
        np.testing.assert_allclose(x1, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(x2, [-1.2, 0.0, 0.0])
        np.testing.assert_allclose(
            x3, [-1.2 + 1.4 * math.cos(2.0), 1.4 * math.sin(2.0), 0.0])

    def test_realizes_lengths_and_angle(self):
        x1, x2, x3 = geometry.place_first_three(1.2, 1.4, 2.0)
        assert np.linalg.norm(x2 - x1) == pytest.approx(1.2)
        assert np.linalg.norm(x3 - x2) == pytest.approx(1.4)
        v1, v2 = x1 - x2, x3 - x2
        cosang = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert math.acos(cosang) == pytest.approx(2.0)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                      (1.0, 1.0, 0.0), (1.0, 1.0, math.pi)])
    def test_degenerate_raises(self, args):
        with pytest.raises(DegenerateGeometryError):
            geometry.place_first_three(*args)


def frame_columns(frame):
    """The nine floats of a `local_frame` as the 3 x 3 matrix [e n m], whose
    columns the tests call u1, u2, u3."""
    return np.array(frame).reshape(3, 3).T


class TestLocalFrame:
    def test_orthonormal(self):
        U = frame_columns(geometry.local_frame(*TRIPLE))
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-14)

    def test_returns_python_floats(self):
        frame = geometry.local_frame(*(x.tolist() for x in TRIPLE))
        assert len(frame) == 9 and all(type(t) is float for t in frame)

    def test_u1_is_chain_direction(self):
        x1, x2, x3 = TRIPLE
        e = geometry.local_frame(x1, x2, x3)[0:3]
        v1 = (x3 - x2) / np.linalg.norm(x3 - x2)
        np.testing.assert_allclose(e, v1, atol=1e-14)

    def test_u2_normal_to_predecessor_plane(self):
        x1, x2, x3 = TRIPLE
        n = np.array(geometry.local_frame(x1, x2, x3)[3:6])
        assert abs(n @ (x3 - x2)) < 1e-14
        assert abs(n @ (x1 - x2)) < 1e-14

    def test_collinear_raises(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([2.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            geometry.local_frame(a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
           st.integers(0, 4), st.integers(1, 3))
    def test_matches_numpy_oracle(self, values, first, step):
        # the three predecessors as float lists, as greedy construction passes
        # them, and as strided column views of a 3 x n coordinate matrix;
        # bit for bit against the same operations in helper form, and within
        # a relative 1e-15 per unit vector against np.cross/np.linalg.norm
        triples = [tuple(values[k:k + 3] for k in (0, 3, 6))]
        X = np.full((3, first + 3 * step), np.nan)
        X[:, first::step] = np.reshape(values, (3, 3)).T
        triples.append((X[:, first], X[:, first + step], X[:, first + 2 * step]))
        for triple in triples:
            try:
                want = oracles.frame_floats(*triple)
            except DegenerateGeometryError:
                with pytest.raises(DegenerateGeometryError):
                    geometry.local_frame(*triple)
                continue
            got = geometry.local_frame(*triple)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            try:
                U = oracles.local_frame(*map(np.asarray, triple))
            except DegenerateGeometryError:
                continue
            err = np.linalg.norm(frame_columns(got) - U, axis=0)
            assert np.all(err <= 1e-15 * np.linalg.norm(U, axis=0))


class TestPlaceAtom:
    def test_realizes_distance_and_angle(self):
        x1, x2, x3 = TRIPLE
        x4 = geometry.place_atom(x1, x2, x3, 1.3, 2.1, 0.7)
        assert np.linalg.norm(x4 - x3) == pytest.approx(1.3, abs=1e-12)
        v1, v2 = x2 - x3, x4 - x3
        cosang = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert math.acos(cosang) == pytest.approx(2.1, abs=1e-12)

    def test_cis_is_coplanar_same_side(self):
        # tau = 0: atom lies in the predecessor plane, same side as x_{i-3}
        x1, x2, x3 = TRIPLE
        x4 = geometry.place_atom(x1, x2, x3, 1.3, 1.9, 0.0)
        normal = np.cross(x3 - x2, x1 - x2)
        assert abs(normal @ (x4 - x3)) < 1e-12
        axis = (x3 - x2) / np.linalg.norm(x3 - x2)
        side = lambda p: (p - x3) - ((p - x3) @ axis) * axis
        assert side(x4) @ side(x1) > 0.0

    def test_trans_is_coplanar_opposite_side(self):
        x1, x2, x3 = TRIPLE
        x4 = geometry.place_atom(x1, x2, x3, 1.3, 1.9, math.pi)
        normal = np.cross(x3 - x2, x1 - x2)
        assert abs(normal @ (x4 - x3)) < 1e-12
        axis = (x3 - x2) / np.linalg.norm(x3 - x2)
        side = lambda p: (p - x3) - ((p - x3) @ axis) * axis
        assert side(x4) @ side(x1) < 0.0

    def test_sign_flip_is_mirror_image(self):
        # tau and -tau placements reflect across the predecessor plane and
        # realize the same distance to x_{i-3}
        x1, x2, x3 = TRIPLE
        p = geometry.place_atom(x1, x2, x3, 1.3, 1.9, 0.8)
        q = geometry.place_atom(x1, x2, x3, 1.3, 1.9, -0.8)
        normal = np.cross(x3 - x2, x1 - x2)
        normal /= np.linalg.norm(normal)
        mirrored = p - 2.0 * (normal @ (p - x3)) * normal
        np.testing.assert_allclose(q, mirrored, atol=1e-12)
        assert np.linalg.norm(p - x1) == pytest.approx(np.linalg.norm(q - x1),
                                                       abs=1e-12)

    def test_batch_matches_scalar(self):
        # one row of the local-coordinate table, as greedy construction builds it
        x1, x2, x3 = TRIPLE
        taus = np.linspace(-3.0, 3.0, 17)
        local = geometry._local_table(np.array([-1.3 * math.cos(1.9)]),
                                      np.array([1.3 * math.sin(1.9)]), taus[None])
        batch = geometry.place_atoms_batch(geometry.local_frame(x1, x2, x3), x3, local[0])
        for k, tau in enumerate(taus):
            one = geometry.place_atom(x1, x2, x3, 1.3, 1.9, float(tau))
            np.testing.assert_array_equal(batch[:, k], one)

    @pytest.mark.parametrize("kw", [{"d": 0.0}, {"theta": 0.0},
                                    {"theta": math.pi}])
    def test_degenerate_raises(self, kw):
        args = {"d": 1.3, "theta": 1.9, "tau": 0.5}
        args.update(kw)
        with pytest.raises(DegenerateGeometryError):
            geometry.place_atom(*TRIPLE, **args)


class TestDihedral:
    def test_planar_cis_is_zero(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0])
        c = np.array([2.0, 0.0, 0.0])
        d = np.array([3.0, 1.0, 0.0])  # same side as a
        assert geometry.dihedral(a, b, c, d) == 0.0

    def test_planar_trans_is_plus_pi(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0])
        c = np.array([2.0, 0.0, 0.0])
        d = np.array([3.0, -1.0, 0.0])  # opposite side
        assert geometry.dihedral(a, b, c, d) == math.pi

    def test_collinear_raises(self):
        z = np.zeros(3)
        e = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            geometry.dihedral(z, e, 2 * e, 3 * e)

    @settings(max_examples=200)
    @given(st.floats(0.5, 3.0), st.floats(0.2, math.pi - 0.2),
           st.floats(-math.pi + 1e-6, math.pi))
    def test_inverse_of_placement(self, d, theta, tau):
        x1, x2, x3 = TRIPLE
        x4 = geometry.place_atom(x1, x2, x3, d, theta, tau)
        got = geometry.dihedral(x1, x2, x3, x4)
        assert circular_error(got, tau) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9),
           st.floats(0.5, 3.0), st.floats(0.2, math.pi - 0.2),
           st.floats(-math.pi, math.pi))
    def test_inverse_of_placement_from_any_triple(self, values, d, theta, tau):
        x1, x2, x3 = (np.array(values[k:k + 3]) for k in (0, 3, 6))
        v1, v2 = x1 - x2, x3 - x2
        # away from degeneracy: bonds of at least 0.5, angle within (0.2, pi - 0.2)
        assume(min(np.linalg.norm(v1), np.linalg.norm(v2)) >= 0.5)
        assume(np.linalg.norm(np.cross(v1, v2))
               >= math.sin(0.2) * np.linalg.norm(v1) * np.linalg.norm(v2))
        x4 = geometry.place_atom(x1, x2, x3, d, theta, tau)
        assert circular_error(geometry.dihedral(x1, x2, x3, x4), tau) < 1e-9

    def test_chain_round_trip(self):
        taus = [0.3, -2.5, 3.0, -0.9, 1.7]
        X = build_chain(taus)
        for k, tau in enumerate(taus, start=4):
            got = geometry.dihedral(X[:, k - 4], X[:, k - 3], X[:, k - 2],
                                    X[:, k - 1])
            assert circular_error(got, tau) < 1e-10


@st.composite
def law_entries(draw):
    """(a, b, lower, upper): a torsion-distance law d^2 = a + b cos(tau), often
    flat or near it (|b| about 1e-12), and (i-3, i) bounds at two points of
    cos(tau) in [-1.2, 1.2], often equal, or bounds whose squares overflow."""
    b = draw(st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.0000000000000002e-12,
                                        -1e-300, math.nan, math.inf]),
                       st.floats(-2e-12, 2e-12), st.floats(-30.0, 30.0)))
    a = draw(st.floats(0.0, 60.0) if draw(st.integers(0, 9)) else
             st.sampled_from([math.nan, math.inf]))
    s1, s2 = sorted(a + b * draw(st.floats(-1.2, 1.2)) for _ in range(2))
    lower = math.sqrt(max(s1, 1e-6))
    upper = draw(st.sampled_from([lower, lower, math.sqrt(max(s2, 1e-6)), 1e200]))
    return (a, b, 1e200, 1e200) if draw(st.integers(0, 19)) == 0 else (a, b, lower, upper)


def distance_at(inst, tau, triple):
    """||x_4 - x_1|| for atom 4 of `inst` placed at torsion tau after `triple`."""
    x4 = geometry.place_atom(*triple, inst.edges[(3, 4)].lower, inst.bond_angles[4], tau)
    return float(np.linalg.norm(x4 - triple[0]))


class TestTorsionDomainFromDistance:
    @staticmethod
    def _triple(inst):
        return geometry.place_first_three(
            inst.edges[(1, 2)].lower, inst.edges[(2, 3)].lower, inst.bond_angles[3])

    def test_distance_squared_affine_in_cos(self, toy):
        # d(tau)^2 = a + b cos(tau) of torsion_law characterizes the placement
        inst, _ = toy
        triple = self._triple(inst)
        a, b = torsion_law(inst.edges[(1, 2)].lower, inst.edges[(2, 3)].lower,
                           inst.bond_angles[3], inst.edges[(3, 4)].lower, inst.bond_angles[4])
        for tau in np.linspace(-3.1, 3.1, 25):
            d = distance_at(inst, float(tau), triple)
            assert d * d == pytest.approx(a + b * math.cos(tau), abs=1e-10)

    def test_distance_is_even_in_tau(self, toy):
        inst, _ = toy
        triple = self._triple(inst)
        for tau in (0.4, 1.3, 2.8):
            dp = distance_at(inst, tau, triple)
            dm = distance_at(inst, -tau, triple)
            assert dp == pytest.approx(dm, abs=1e-12)

    def test_derived_domain_is_symmetric_and_consistent(self, toy):
        # every torsion inside the derived domain realizes a distance inside
        # the interval; torsions outside fall outside
        inst, _ = toy
        triple = self._triple(inst)
        dom = inst.torsion_domains[4]
        e = inst.edges[(1, 4)]
        assert dom.sym
        for tau in np.linspace(-math.pi, math.pi, 201):
            d = distance_at(inst, float(tau), triple)
            inside = e.lower - 1e-9 <= d <= e.upper + 1e-9
            assert inside == dom.contains(float(tau), tol=1e-7)

    def test_exact_edge_collapses_domain(self):
        from idgp import io
        atoms, coords = io.synthetic_backbone(2, seed=3, include_hydrogens=False)
        inst = io.generate_instance(atoms, coords, angle_width_deg=0.0,
                                    include_torsion_annotations=False)
        for i in range(4, inst.n + 1):
            dom = inst.torsion_domains[i]
            assert dom.sym
            assert dom.lo == dom.hi

    def test_unreachable_bounds_raise(self, toy):
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        edges = [inst.edges[(1, 4)], EdgeConstraint(2, 5, 50.0, 60.0)]
        with pytest.raises(InfeasibleDiscretizationError, match=r"edge \(2,5\) bounds") as exc:
            geometry.invert_torsion_law(ci.law_a[:2], ci.law_b[:2], edges)
        assert exc.value.index == 1

    @settings(max_examples=400, deadline=None)
    @given(st.lists(law_entries(), min_size=1, max_size=6))
    def test_array_inversion_matches_per_atom_oracle(self, entries):
        # the same float bits entry by entry, or the same first unreached
        # entry and message
        a, b, lower, upper = (list(column) for column in zip(*entries))
        edges = [EdgeConstraint(k + 1, k + 4, lo, up)
                 for k, (lo, up) in enumerate(zip(lower, upper))]
        expect = []
        for a_k, b_k, e in zip(a, b, edges):
            try:
                dom = oracles.torsion_domain_from_distance(a_k, b_k, e)
            except InfeasibleDiscretizationError as exc:
                expect = (str(exc), len(expect))
                break
            assert dom.sym
            expect.append((dom.lo.hex(), dom.hi.hex()))
        try:
            lo, hi = geometry.invert_torsion_law(np.array(a), np.array(b), edges)
            got = [(lo_k.hex(), hi_k.hex()) for lo_k, hi_k in zip(lo, hi)]
        except InfeasibleDiscretizationError as exc:
            got = (str(exc), exc.index)
        assert got == expect


def sample_one(dom, rng, size):
    """The batched sampler on a one-row input."""
    taus = geometry.sample_torsions([dom.lo], [dom.hi], [dom.sym], rng, size)
    assert taus.shape == (1, size)
    return taus[0]


class TestSampleTorsions:
    def test_single_in_bounds(self):
        rng = np.random.default_rng(0)
        dom = TorsionDomain.single(-0.5, 1.2)
        taus = sample_one(dom, rng, 500)
        assert np.all((taus >= -0.5) & (taus <= 1.2))

    def test_point_domain(self):
        rng = np.random.default_rng(0)
        taus = sample_one(TorsionDomain.point(0.7), rng, 10)
        assert np.all(taus == 0.7)

    def test_symmetric_covers_both_signs(self):
        rng = np.random.default_rng(0)
        dom = TorsionDomain.symmetric(0.5, 1.0)
        taus = sample_one(dom, rng, 1000)
        mags = np.abs(taus)
        assert np.all((mags >= 0.5) & (mags <= 1.0))
        assert (taus > 0).any() and (taus < 0).any()

    def test_collapsed_symmetric_is_sign_pair(self):
        rng = np.random.default_rng(0)
        dom = TorsionDomain.symmetric(0.9, 0.9)
        taus = sample_one(dom, rng, 200)
        assert set(np.unique(taus)) <= {-0.9, 0.9}
        assert len(np.unique(taus)) == 2

    def test_symmetric_signs_are_balanced(self):
        # bit 0 of each word picks the side: the count of negative draws is
        # Binomial(n, 1/2), here within four standard deviations of n / 2
        n = 4000
        taus = sample_one(TorsionDomain.symmetric(0.2, 2.5), np.random.default_rng(7), n)
        assert abs(np.count_nonzero(taus < 0) - n / 2) <= 4 * math.sqrt(n / 4)
