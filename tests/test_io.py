import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgp import io, metrics
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    DomainKind,
    DuplicateEdgeError,
    EdgeConstraint,
    TorsionDomain,
)
from tests.oracles import pair_distance


class TestInstanceRoundTrip:
    def test_edges_survive_exactly(self, toy, toy_file):
        inst, _ = toy
        back = io.parse_instance(toy_file)
        assert set(back.edges) == set(inst.edges)
        for key, e in inst.edges.items():
            b = back.edges[key]
            # %.17g round-trips doubles exactly
            assert (b.lower, b.upper) == (e.lower, e.upper)

    def test_atoms_survive(self, toy, toy_file):
        inst, _ = toy
        back = io.parse_instance(toy_file)
        assert back.atoms == inst.atoms

    def test_torsion_domains_survive(self, toy, toy_file):
        inst, _ = toy
        back = io.parse_instance(toy_file)
        assert set(back.torsion_domains) == set(inst.torsion_domains)
        for i, dom in inst.torsion_domains.items():
            b = back.torsion_domains[i]
            assert b.kind is dom.kind
            # degrees in the file: allow conversion round-off
            assert b.lo == pytest.approx(dom.lo, abs=1e-12)
            assert b.hi == pytest.approx(dom.hi, abs=1e-12)


class TestParseInstance:
    def _write(self, tmp_path, text):
        p = tmp_path / "case.inst"
        p.write_text(text)
        return p

    VALID = """\
# minimal four-atom chain
E 1 2 1.5 1.5 N 1 CA 1
E 2 3 1.5 1.5 CA 1 C 1
E 3 4 1.5 1.5 C 1 N 2
E 1 3 2.5 2.5 N 1 C 1
E 2 4 2.5 2.5 CA 1 N 2
E 1 4 2.8 3.2 N 1 N 2
"""

    def test_valid_minimal(self, tmp_path):
        inst = io.parse_instance(self._write(tmp_path, self.VALID))
        assert inst.n == 4 and len(inst.edges) == 6
        assert inst.atoms[0] == AtomRecord(1, "N", 1)
        assert 4 in inst.torsion_domains

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n\n" + self.VALID.replace("E 1 2", "E 1 2") + "\n  # tail\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        assert inst.n == 4

    def test_torsion_annotation_overrides_derived(self, tmp_path):
        text = self.VALID + "T 4 10 20 +-\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        dom = inst.torsion_domains[4]
        assert dom.kind is DomainKind.SYMMETRIC
        assert dom.lo == pytest.approx(math.radians(10))
        assert dom.hi == pytest.approx(math.radians(20))

    @pytest.mark.parametrize("sign,kind,lo,hi", [
        ("+", DomainKind.SINGLE, 10.0, 20.0),
        ("-", DomainKind.SINGLE, -20.0, -10.0),
        ("+-", DomainKind.SYMMETRIC, 10.0, 20.0),
        ("±", DomainKind.SYMMETRIC, 10.0, 20.0),
    ])
    def test_annotation_signs(self, tmp_path, sign, kind, lo, hi):
        text = self.VALID + f"T 4 10 20 {sign}\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        dom = inst.torsion_domains[4]
        assert dom.kind is kind
        assert dom.lo == pytest.approx(math.radians(lo))
        assert dom.hi == pytest.approx(math.radians(hi))

    def test_duplicate_edge_raises(self, tmp_path):
        text = self.VALID + "E 1 2 1.5 1.5 N 1 CA 1\n"
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(self._write(tmp_path, text))
        assert ":8:" in str(err.value)

    @pytest.mark.parametrize("line", [
        "E 2 1 1.5 1.5 N 1 CA 1",          # i >= j
        "E 1 2 2.0 1.0 N 1 CA 1",          # dL > dU
        "E 1 2 1.5 N 1 CA 1",              # wrong arity
        "Q 1 2 1.5 1.5 N 1 CA 1",          # unknown record
        "T 4 10 20 *",                     # unknown sign
        "E 1 2 abc 1.5 N 1 CA 1",          # bad float
    ])
    def test_malformed_lines_raise_with_location(self, tmp_path, line):
        path = self._write(tmp_path, self.VALID + line + "\n")
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert ":8:" in str(err.value)

    @pytest.mark.parametrize("bounds", ["2.8 inf", "nan 3.2"])
    def test_non_finite_edge_bounds_raise_with_location(self, tmp_path, bounds):
        path = self._write(tmp_path, self.VALID.replace("2.8 3.2", bounds))
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert ":7:" in str(err.value) and "not finite" in str(err.value)

    @pytest.mark.parametrize("line", [
        "T 3 10 20 +",                     # atom below 4: no torsion
        "T 99 10 20 +",                    # atom beyond n
        "T 4 30 20 +",                     # lo > hi
        "T 4 -10 20 +-",                   # symmetric union needs lo >= 0
        "T 4 nan nan +",                   # NaN bounds pass the lo > hi test
        "T 4 10 inf +-",                   # infinite upper bound
        "T 4 -300 300 +",                  # beyond -180..180
        "T 4 10 400 +-",                   # beyond 180
    ])
    def test_bad_torsion_records_raise_with_location(self, tmp_path, line):
        path = self._write(tmp_path, self.VALID + line + "\n")
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert ":8:" in str(err.value)

    def test_duplicate_torsion_record_raises_with_location(self, tmp_path):
        path = self._write(tmp_path, self.VALID + "T 4 10 20 +\nT 4 30 40 +\n")
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert ":9:" in str(err.value)

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(io.ParseError):
            io.parse_instance(self._write(tmp_path, "# nothing here\n"))

    def test_invalid_instance_raises_validation(self, tmp_path):
        # missing the required two-apart edge (2,4)
        text = "".join(l + "\n" for l in self.VALID.splitlines()
                       if not l.startswith("E 2 4"))
        with pytest.raises(io.ValidationError) as err:
            io.parse_instance(self._write(tmp_path, text))
        assert any("(2,4)" in v for v in err.value.violations)


class TestReferenceFiles:
    def test_round_trip(self, tmp_path):
        atoms, coords = io.synthetic_backbone(2, seed=1)
        path = tmp_path / "ref.txt"
        io.write_reference(atoms, coords, path)
        atoms2, coords2 = io.parse_reference(path)
        assert atoms2 == atoms
        np.testing.assert_allclose(coords2, coords, atol=5.1e-7)  # %.6f output

    def test_noncontiguous_indices_raise(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("1 N 1 0 0 0\n3 CA 1 1 0 0\n")
        with pytest.raises(io.ParseError):
            io.parse_reference(path)

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("1 N 1 0 0\n")
        with pytest.raises(io.ParseError):
            io.parse_reference(path)

    def test_empty_raises(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("# no atoms\n")
        with pytest.raises(io.ParseError):
            io.parse_reference(path)


class TestWriteConformation:
    def test_trailer_carries_metrics(self, toy, tmp_path):
        inst, coords = toy
        path = tmp_path / "conf.txt"
        io.write_conformation(coords, inst, path)
        atoms, back = io.parse_reference(path)  # trailer lines are comments
        assert len(atoms) == inst.n
        tail = [l for l in path.read_text().splitlines() if l.startswith("#")]
        labels = [l.split()[1] for l in tail]
        assert labels == ["LDE", "MDE", "stress"]
        assert float(tail[0].split()[2]) == 0.0

    def test_empty_refused(self, toy, tmp_path):
        inst, _ = toy
        with pytest.raises(io.IdgpError):
            io.write_conformation(np.empty((3, 0)), inst, tmp_path / "x.txt")


@pytest.fixture(scope="module")
def generated():
    atoms, coords = io.synthetic_backbone(3, seed=2)
    inst = io.generate_instance(atoms, coords)
    return atoms, coords, inst


class TestGenerateInstance:
    def test_reference_exactly_feasible(self, generated):
        _, coords, inst = generated
        assert metrics.lde_global(coords, CompiledInstance.of(inst)) == 0.0

    def test_short_range_edges_exact(self, generated):
        _, coords, inst = generated
        for (i, j), e in inst.edges.items():
            if j - i <= 2:
                assert e.exact
                assert e.lower == pair_distance(coords, i, j)

    def test_three_apart_edges_bracket_reference(self, generated):
        _, coords, inst = generated
        for i in range(4, inst.n + 1):
            e = inst.edge(i - 3, i)
            ref = pair_distance(coords, i - 3, i)
            assert e.lower <= ref <= e.upper
            assert e.upper > e.lower  # nonzero angle width widens the edge

    def test_torsion_annotations_bracket_reference(self, generated):
        from idgp import geometry
        _, coords, inst = generated
        half = math.radians(50.0) / 2.0
        for i in range(4, inst.n + 1):
            dom = inst.torsion_domains[i]
            tau = geometry.dihedral(coords[:, i - 4], coords[:, i - 3],
                                    coords[:, i - 2], coords[:, i - 1])
            assert dom.kind is DomainKind.SINGLE
            assert dom.contains(tau, tol=1e-12)
            assert dom.hi - dom.lo <= 2 * half + 1e-12

    def test_hydrogen_pairs_within_cutoff(self, generated):
        atoms, coords, inst = generated
        h_idx = [a.index for a in atoms if a.name.startswith("H")]
        short = {(i, j) for (i, j) in inst.edges if j - i <= 3}
        for ai in range(len(h_idx)):
            for bi in range(ai + 1, len(h_idx)):
                p, q = h_idx[ai], h_idx[bi]
                if (p, q) in short:
                    continue
                d = pair_distance(coords, p, q)
                e = inst.edge(p, q)
                if d > 5.0:
                    assert e is None
                    continue
                assert e is not None
                adjacent = abs(atoms[p - 1].residue - atoms[q - 1].residue) <= 1
                width = 1.0 if adjacent else 2.0
                assert e.upper == pytest.approx(d + width / 2.0)
                assert e.lower == pytest.approx(max(0.1, d - width / 2.0))

    def test_hydrogens_skipped_on_request(self):
        atoms, coords = io.synthetic_backbone(3, seed=2)
        inst = io.generate_instance(atoms, coords, hh_cutoff=0.0)
        assert all(j - i <= 3 for (i, j) in inst.edges)

    def test_zero_width_gives_exact_instance(self):
        atoms, coords = io.synthetic_backbone(2, seed=2, include_hydrogens=False)
        inst = io.generate_instance(atoms, coords, angle_width_deg=0.0)
        assert all(e.exact for e in inst.edges.values())
        for dom in inst.torsion_domains.values():
            assert dom.lo == dom.hi

    def test_lower_bound_floor(self):
        # a tiny chain scaled down would hit the 0.1 floor; fake it with a
        # close hydrogen pair instead
        atoms, coords = io.synthetic_backbone(2, seed=2)
        inst = io.generate_instance(atoms, coords, hh_width_adjacent=20.0,
                                    hh_width_other=20.0)
        hh = [e for (i, j), e in inst.edges.items()
              if j - i > 3 and not e.is_discretization]
        assert hh and all(e.lower >= 0.1 or e.lower == pytest.approx(
            pair_distance(coords, e.i, e.j)) for e in hh)


class TestBuildInstance:
    def test_duplicate_edge_raises(self, toy):
        inst, coords = toy
        edges = list(inst.edges.values())
        edges.append(EdgeConstraint(2, 1, 1.0, 1.0))  # same pair, swapped
        with pytest.raises(DuplicateEdgeError):
            io.build_instance(inst.atoms, edges)

    def test_override_precedence(self, toy):
        inst, _ = toy
        dom = TorsionDomain.single(0.1, 0.2)
        rebuilt = io.build_instance(inst.atoms, list(inst.edges.values()),
                                    torsion_overrides={5: dom})
        assert rebuilt.torsion_domains[5] is dom
        assert rebuilt.torsion_domains[4].kind is DomainKind.SYMMETRIC


class TestSyntheticBackbone:
    def test_deterministic_per_seed(self):
        a1, c1 = io.synthetic_backbone(3, seed=9)
        a2, c2 = io.synthetic_backbone(3, seed=9)
        assert a1 == a2
        np.testing.assert_array_equal(c1, c2)
        _, c3 = io.synthetic_backbone(3, seed=10)
        assert not np.array_equal(c1, c3)

    def test_atom_pattern(self):
        atoms, coords = io.synthetic_backbone(2)
        assert [a.name for a in atoms] == ["N", "HN", "CA", "HA", "C"] * 2
        assert [a.residue for a in atoms] == [1] * 5 + [2] * 5
        assert coords.shape == (3, 10)

    def test_plain_pattern(self):
        atoms, coords = io.synthetic_backbone(2, include_hydrogens=False)
        assert [a.name for a in atoms] == ["N", "CA", "C"] * 2

    def test_too_short_raises(self):
        with pytest.raises(io.IdgpError):
            io.synthetic_backbone(0)


class TestPerformanceProfile:
    def test_failure_counts_against_algorithm(self):
        results = {"A": {"p1": 1.0, "p2": None}, "B": {"p1": 2.0, "p2": 3.0}}
        prof = io.performance_profile(results)
        # A fails p2 forever; B reaches 1.0 at its worst ratio
        assert prof["A"][-1][1] == 0.5
        assert prof["B"][-1][1] == 1.0

    def test_all_failed_problem_is_lost_for_everyone(self):
        results = {"A": {"p1": 1.0, "p2": None}, "B": {"p1": 1.0, "p2": None}}
        prof = io.performance_profile(results)
        assert prof["A"][-1][1] == 0.5 and prof["B"][-1][1] == 0.5

    def test_mismatched_problem_sets_raise(self):
        with pytest.raises(io.ProfileError):
            io.performance_profile({"A": {"p1": 1.0}, "B": {"p2": 1.0}})

    def test_empty_raises(self):
        with pytest.raises(io.ProfileError):
            io.performance_profile({})
        with pytest.raises(io.ProfileError):
            io.performance_profile({"A": {}})

    @settings(max_examples=50)
    @given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                           st.dictionaries(st.integers(0, 5),
                                           st.one_of(st.none(),
                                                     st.floats(0.1, 100.0)),
                                           min_size=1, max_size=6),
                           min_size=1, max_size=3))
    def test_step_points_monotone_in_unit_interval(self, raw):
        problems = sorted(set().union(*[set(v) for v in raw.values()]))
        results = {lab: {p: v.get(p) for p in problems} for lab, v in raw.items()}
        prof = io.performance_profile(results)
        for points in prof.values():
            ts = [t for t, _ in points]
            rhos = [r for _, r in points]
            assert ts == sorted(ts) and ts[0] == 1.0
            assert all(0.0 <= r <= 1.0 for r in rhos)
            assert rhos == sorted(rhos)
