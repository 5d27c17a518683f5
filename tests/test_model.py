import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idgp.io import ValidationError, build_instance
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
    edge_problems,
    structure_problems,
)
from idgp.metrics import StressProblem
from tests import oracles
from tests.conftest import one_edge_instance


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

    def test_sym_flag_has_no_default(self):
        # a field named like the `symmetric` constructor would take it as its
        # default, a truthy function
        with pytest.raises(TypeError):
            TorsionDomain(0.1, 0.2)

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

    @pytest.mark.parametrize("c, message", [
        (2.0 + 2.5e-13, "collinear triple"),  # |cos| - 1 within the tolerance
        (2.0 + 1e-11, "no triangle with sides 1.0, 1.0, 2.00000000001")])
    def test_degeneracy_tolerance(self, c, message):
        with pytest.raises(DegenerateGeometryError, match=f"^{message}$"):
            bond_angle_from_distances(1.0, 1.0, c)

    def test_nonpositive_side_raises(self):
        with pytest.raises(DegenerateGeometryError):
            bond_angle_from_distances(0.0, 1.0, 1.0)

    @given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.1, math.pi - 0.1))
    def test_round_trip_with_law_of_cosines(self, a, b, ang):
        c = math.sqrt(a * a + b * b - 2 * a * b * math.cos(ang))
        assert bond_angle_from_distances(a, b, c) == pytest.approx(ang, abs=1e-9)

    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -1.0, 1e-200, 1e300, math.nan, 1.0,
                                                  2.0, 3.0]) | st.floats(0.5, 3.0)] * 3),
                    max_size=6))
    def test_sequences_match_one_triangle_at_a_time(self, triples):
        """A call on sequences gives each triangle's angle bit for bit as the
        one-triangle oracle does, or raises its error at the first triangle
        it rejects, with that position as `index`."""
        expect = []
        for k, sides in enumerate(triples):
            try:
                expect.append(oracles.bond_angle_from_distances(*sides).hex())
            except (DegenerateGeometryError, ZeroDivisionError) as exc:
                expect = k, exc
                break
        columns = [list(side) for side in zip(*triples)] or [[], [], []]
        try:
            got = [theta.hex() for theta in bond_angle_from_distances(*columns)]
        except DegenerateGeometryError as exc:
            got = exc.index, exc
        if isinstance(expect, tuple) and isinstance(expect[1], ZeroDivisionError):
            # the oracle divides by a product that underflows to 0; the
            # array form rejects that triangle instead
            assert got[0] == expect[0]
        elif isinstance(expect, tuple):
            assert (got[0], str(got[1])) == (expect[0], str(expect[1]))
        else:
            assert got == expect


class TestConformation:
    def test_shape_enforced(self):
        with pytest.raises(InvalidBoundsError):
            Conformation(np.zeros((2, 5)))

    def test_n(self):
        assert Conformation(np.zeros((3, 7))).coords.shape == (3, 7)


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
                                    {"eps_similar": -2.0}, {"eps_mde": math.nan},
                                    {"eps_lde": math.nan}, {"eps_similar": math.nan},
                                    {"spg_stress_success": math.nan},
                                    {"time_limit": math.nan}, {"time_limit": -1.0},
                                    {"rng_seed": -1}])
    def test_invalid_raise(self, kw):
        with pytest.raises(InvalidBoundsError):
            SolverParams(**kw)

    @pytest.mark.parametrize("kw", [{"time_limit": 0.0}, {"time_limit": math.inf},
                                    {"eps_mde": math.inf}, {"eps_lde": math.inf}])
    def test_zero_and_infinite_limits_allowed(self, kw):
        SolverParams(**kw)


class TestValidateInstance:
    """The instance rules `build_instance` applies: `edge_problems` to the edge
    records and `structure_problems` to the whole instance."""

    @staticmethod
    def problems(inst):
        return structure_problems(inst) + [
            message for _, message in edge_problems(list(inst.edges.values()))]

    def test_valid_toy(self, toy):
        inst, _ = toy
        assert self.problems(inst) == []

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
        return Instance(atoms=atoms, edges=edges)

    def test_minimal_valid(self):
        inst = self._minimal()
        assert self.problems(inst) == []
        built = build_instance(inst.atoms, inst.edges.values())
        assert built.edges == inst.edges and list(built.torsion_domains) == [4]

    def test_missing_edge_reported(self):
        inst = self._minimal()
        del inst.edges[(1, 4)]
        assert any("(1,4)" in v for v in self.problems(inst))
        with pytest.raises(ValidationError, match=r"\(1,4\)"):
            build_instance(inst.atoms, inst.edges.values())

    def test_interval_adjacent_edge_reported(self):
        inst = self._minimal()
        inst.edges[(1, 2)] = EdgeConstraint(1, 2, 1.4, 1.6)
        assert any("exact" in v for v in self.problems(inst))
        with pytest.raises(ValidationError, match="exact"):
            build_instance(inst.atoms, inst.edges.values())

    def test_bad_bounds_reported(self):
        inst = self._minimal()
        inst.edges[(1, 4)] = EdgeConstraint(1, 4, 3.5, 3.0)
        assert any("bounds" in v for v in self.problems(inst))
        with pytest.raises(ValidationError, match="bounds"):
            build_instance(inst.atoms, inst.edges.values())

    def test_edge_beyond_the_atoms_reported(self):
        inst = self._minimal()
        inst.edges[(2, 5)] = EdgeConstraint(2, 5, 3.0, 3.5)
        assert self.problems(inst) == ["edge (2,5): atom 5 beyond n = 4"]
        with pytest.raises(ValidationError) as err:
            build_instance(inst.atoms, inst.edges.values())
        assert err.value.violations == ["edge (2,5): atom 5 beyond n = 4"]

    def test_noncontiguous_atoms_reported(self):
        inst = self._minimal()
        inst.atoms[1] = AtomRecord(9, "X", 1)
        assert any("contiguous" in v for v in self.problems(inst))
        with pytest.raises(ValidationError, match="contiguous"):
            build_instance(inst.atoms, inst.edges.values())