import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idgp.model import (
    AtomRecord,
    CompiledInstance,
    Conformation,
    EdgeConstraint,
    Instance,
    InvalidBoundsError,
    DegenerateGeometryError,
    SolverParams,
    TorsionDomain,
    bond_angle_from_distances,
    validate_instance,
)
from idgp.metrics import StressProblem
from tests.conftest import one_edge_instance


class TestEdgeConstraint:
    def test_exact_flag(self):
        assert EdgeConstraint(1, 2, 1.5, 1.5).exact
        assert not EdgeConstraint(1, 2, 1.4, 1.6).exact


class TestTorsionDomain:
    def test_invalid_order_raises(self):
        with pytest.raises(InvalidBoundsError):
            TorsionDomain.single(1.0, 0.5)

    @pytest.mark.parametrize("lo, hi", [(math.nan, math.nan), (0.0, math.nan),
                                        (-math.inf, 1.0), (0.0, math.inf)])
    def test_non_finite_raises(self, lo, hi):
        with pytest.raises(InvalidBoundsError):
            TorsionDomain.single(lo, hi)

    def test_outside_minus_pi_pi_raises(self):
        TorsionDomain.single(-math.pi, math.pi)     # the closed range is valid
        for lo, hi in [(-4.0, 1.0), (0.0, 3.2), (-math.pi, math.nextafter(math.pi, 4.0))]:
            with pytest.raises(InvalidBoundsError):
                TorsionDomain.single(lo, hi)

    def test_symmetric_negative_lo_raises(self):
        with pytest.raises(InvalidBoundsError):
            TorsionDomain.symmetric(-0.1, 1.0)

    def test_single_contains(self):
        dom = TorsionDomain.single(-1.0, 0.5)
        assert dom.contains(0.0)
        assert dom.contains(-1.0)
        assert not dom.contains(0.6)
        assert dom.contains(0.6, tol=0.2)

    def test_symmetric_contains_both_sides(self):
        dom = TorsionDomain.symmetric(0.5, 1.0)
        assert dom.contains(0.7)
        assert dom.contains(-0.7)
        assert not dom.contains(0.2)
        assert not dom.contains(-0.2)


class TestProjectInterval:
    # the stress model projects its auxiliary distances onto their intervals
    @staticmethod
    def project(r, lo, hi):
        prob = StressProblem(CompiledInstance.of(one_edge_instance(lo, hi)))
        return float(prob.project(prob.pack(np.zeros((3, 2)), np.array([r])))[-1])

    def test_inside_unchanged(self):
        assert self.project(1.5, 1.0, 2.0) == 1.5

    def test_clips(self):
        assert self.project(0.2, 1.0, 2.0) == 1.0
        assert self.project(9.0, 1.0, 2.0) == 2.0

    @given(st.floats(-1e6, 1e6), st.floats(0.1, 1e3), st.floats(0.0, 1e3))
    def test_result_in_interval_and_idempotent(self, r, lo, width):
        hi = lo + width
        p = self.project(r, lo, hi)
        assert lo <= p <= hi
        assert self.project(p, lo, hi) == p


class TestBondAngle:
    def test_right_triangle(self):
        # 3-4-5 triangle: the angle between the legs is pi/2
        assert bond_angle_from_distances(3.0, 4.0, 5.0) == pytest.approx(math.pi / 2)

    def test_equilateral(self):
        assert bond_angle_from_distances(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3)

    def test_impossible_triangle_raises(self):
        with pytest.raises(DegenerateGeometryError):
            bond_angle_from_distances(1.0, 1.0, 5.0)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateGeometryError):
            bond_angle_from_distances(1.0, 1.0, 2.0)

    def test_nonpositive_side_raises(self):
        with pytest.raises(DegenerateGeometryError):
            bond_angle_from_distances(0.0, 1.0, 1.0)

    @given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.1, math.pi - 0.1))
    def test_round_trip_with_law_of_cosines(self, a, b, ang):
        c = math.sqrt(a * a + b * b - 2 * a * b * math.cos(ang))
        assert bond_angle_from_distances(a, b, c) == pytest.approx(ang, abs=1e-9)


class TestConformation:
    def test_shape_enforced(self):
        with pytest.raises(InvalidBoundsError):
            Conformation(np.zeros((2, 5)))

    def test_n(self):
        assert Conformation(np.zeros((3, 7))).n == 7


class TestSolverParams:
    def test_defaults_valid(self):
        p = SolverParams()
        assert p.n_trial == 500 and p.n_conf == 50 and p.n_tors == 20
        assert p.n_impr == 3
        assert p.eps_mde == 1e-3 and p.eps_lde == 1e-2 and p.eps_similar == 5.0

    def test_zero_improvement_allowed(self):
        assert SolverParams(n_impr=0).n_impr == 0

    @pytest.mark.parametrize("kw", [{"n_trial": 0}, {"n_tors": -1},
                                    {"n_impr": -1}, {"eps_mde": 0.0},
                                    {"eps_similar": -2.0}])
    def test_invalid_raise(self, kw):
        with pytest.raises(InvalidBoundsError):
            SolverParams(**kw)


class TestValidateInstance:
    def test_valid_toy(self, toy):
        inst, _ = toy
        assert validate_instance(inst) == []

    def _minimal(self):
        atoms = [AtomRecord(k, "X", 1) for k in range(1, 5)]
        edges = {
            (1, 2): EdgeConstraint(1, 2, 1.5, 1.5),
            (2, 3): EdgeConstraint(2, 3, 1.5, 1.5),
            (3, 4): EdgeConstraint(3, 4, 1.5, 1.5),
            (1, 3): EdgeConstraint(1, 3, 2.5, 2.5),
            (2, 4): EdgeConstraint(2, 4, 2.5, 2.5),
            (1, 4): EdgeConstraint(1, 4, 3.0, 3.5),
        }
        angles = {3: 1.9, 4: 1.9}
        doms = {4: TorsionDomain.symmetric(0.5, 1.0)}
        return Instance(atoms=atoms, edges=edges, torsion_domains=doms,
                        bond_angles=angles)

    def test_minimal_valid(self):
        assert validate_instance(self._minimal()) == []

    def test_missing_edge_reported(self):
        inst = self._minimal()
        del inst.edges[(1, 4)]
        assert any("(1,4)" in v for v in validate_instance(inst))

    def test_interval_adjacent_edge_reported(self):
        inst = self._minimal()
        inst.edges[(1, 2)] = EdgeConstraint(1, 2, 1.4, 1.6)
        assert any("exact" in v for v in validate_instance(inst))

    def test_bad_bounds_reported(self):
        inst = self._minimal()
        inst.edges[(1, 4)] = EdgeConstraint(1, 4, 3.5, 3.0)
        assert any("bounds" in v for v in validate_instance(inst))

    def test_missing_angle_and_domain_reported(self):
        inst = self._minimal()
        inst.bond_angles.pop(4)
        inst.torsion_domains.pop(4)
        msgs = validate_instance(inst)
        assert any("bond angle" in v for v in msgs)
        assert any("torsion domain" in v for v in msgs)

    def test_noncontiguous_atoms_reported(self):
        inst = self._minimal()
        inst.atoms[1] = AtomRecord(9, "X", 1)
        assert any("contiguous" in v for v in validate_instance(inst))
