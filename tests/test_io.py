import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgp import io, metrics
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    DegenerateGeometryError,
    EdgeConstraint,
    IdgpError,
    TorsionDomain,
)
from tests import oracles
from tests.oracles import pair_distance

# a minimal valid instance file: a four-atom chain, its (1,4) edge on line 7
CHAIN = """\
# minimal four-atom chain
E 1 2 1.5 1.5 N 1 CA 1
E 2 3 1.5 1.5 CA 1 C 1
E 3 4 1.5 1.5 C 1 N 2
E 1 3 2.5 2.5 N 1 C 1
E 2 4 2.5 2.5 CA 1 N 2
E 1 4 2.8 3.2 N 1 N 2
"""
# CHAIN with its bond angles within 2e-8 of pi: the torsion-distance law of
# atom 4 is flat, d_{1,4} about 4.5 at every torsion
FLAT_CHAIN = CHAIN.replace("2.5 2.5", "2.9999999999999996 2.9999999999999996")
# records that each break one rule of the instance format; every one is an
# error at its own line (the instance-file properties draw from them too)
MALFORMED_LINES = [
    "E 2 1 1.5 1.5 N 1 CA 1",          # i >= j
    "E 1 2 2.0 1.0 N 1 CA 1",          # dL > dU
    "E 1 2 1.5 N 1 CA 1",              # wrong arity
    "T 4 10 20",                       # wrong arity
    "Q 1 2 1.5 1.5 N 1 CA 1",          # unknown record
    "T 4 10 20 *",                     # unknown sign
    "E 1 2 abc 1.5 N 1 CA 1",          # bad float
    "E 0 4 3.0 3.5 X 1 N 2",           # atom index below 1
    "E 3 5 1.4 1.6 C 1 CA 2",          # two apart, not exact
]
BAD_TORSION_LINES = [
    "T 3 10 20 +",                     # atom below 4: no torsion
    "T 99 10 20 +",                    # atom beyond n
    "T 4 30 20 +",                     # lo > hi
    "T 4 -10 20 +-",                   # symmetric union needs lo >= 0
    "T 4 nan nan +",                   # NaN bounds pass the lo > hi test
    "T 4 10 inf +-",                   # infinite upper bound
    "T 4 -300 300 +",                  # beyond -180..180
    "T 4 10 400 +-",                   # beyond 180
]


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
        # the toy has no domain given: the file holds the derived ones as T lines
        inst, _ = toy
        back = oracles.torsion_domains(CompiledInstance.of(io.parse_instance(toy_file)))
        domains = oracles.torsion_domains(CompiledInstance.of(inst))
        assert set(back) == set(domains) == set(range(4, inst.n + 1))
        for i, dom in domains.items():
            b = back[i]
            assert b.sym == dom.sym
            # degrees in the file: allow conversion round-off
            assert b.lo == pytest.approx(dom.lo, abs=1e-12)
            assert b.hi == pytest.approx(dom.hi, abs=1e-12)


    def test_non_ascii_names_survive_an_ascii_locale(self, tmp_path):
        # the writers encode UTF-8, as the readers decode, whatever the locale
        script = """if True:
            import sys
            from idgp import io
            atoms, coords = io.synthetic_backbone(2, seed=1)
            atoms[2] = atoms[2]._replace(name="C\\u03b1")
            inst = io.generate_instance(atoms, coords)
            io.write_instance(inst, sys.argv[1] + "/case.inst")
            io.write_conformation(coords, inst, sys.argv[1] + "/conf.txt")
            assert io.parse_instance(sys.argv[1] + "/case.inst").atoms == atoms
            assert io.parse_reference(sys.argv[1] + "/conf.txt")[0] == atoms
            """
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestParseInstance:
    def _write(self, tmp_path, text):
        p = tmp_path / "case.inst"
        p.write_text(text)
        return p

    VALID = CHAIN

    def test_valid_minimal(self, tmp_path):
        inst = io.parse_instance(self._write(tmp_path, self.VALID))
        assert inst.n == 4 and len(inst.edges) == 6
        assert inst.atoms[0] == AtomRecord(1, "N", 1)
        assert CompiledInstance.of(inst).tors_sym.tolist() == [True]

    def test_file_without_t_lines_stores_no_domain(self, tmp_path):
        # the compiled view derives the domains; the file written from it
        # carries them as T lines, and parses to the same view
        inst = io.parse_instance(self._write(tmp_path, self.VALID))
        assert inst.torsion_domains == {}
        io.write_instance(inst, tmp_path / "back.inst")
        back = io.parse_instance(tmp_path / "back.inst")
        assert list(back.torsion_domains) == [4] and back.torsion_domains[4].sym
        for name in ("tors_lo", "tors_hi", "tors_sym"):
            assert (getattr(CompiledInstance.of(back), name).tolist()
                    == pytest.approx(getattr(CompiledInstance.of(inst), name).tolist(),
                                     abs=1e-12))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n\n" + self.VALID.replace("E 1 2", "E 1 2") + "\n  # tail\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        assert inst.n == 4

    def test_torsion_annotation_overrides_derived(self, tmp_path):
        text = self.VALID + "T 4 10 20 +-\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        dom = inst.torsion_domains[4]
        assert dom.sym
        assert dom.lo == pytest.approx(math.radians(10))
        assert dom.hi == pytest.approx(math.radians(20))

    @pytest.mark.parametrize("sign,sym,lo,hi", [
        ("+", False, 10.0, 20.0),
        ("-", False, -20.0, -10.0),
        ("+-", True, 10.0, 20.0),
        ("±", True, 10.0, 20.0),
    ])
    def test_annotation_signs(self, tmp_path, sign, sym, lo, hi):
        text = self.VALID + f"T 4 10 20 {sign}\n"
        inst = io.parse_instance(self._write(tmp_path, text))
        dom = inst.torsion_domains[4]
        assert dom.sym is sym
        assert dom.lo == pytest.approx(math.radians(lo))
        assert dom.hi == pytest.approx(math.radians(hi))

    def test_duplicate_edge_raises(self, tmp_path):
        text = self.VALID + "E 1 2 1.5 1.5 N 1 CA 1\n"
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(self._write(tmp_path, text))
        assert ":8:" in str(err.value)

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_lines_raise_with_location(self, tmp_path, line):
        path = self._write(tmp_path, self.VALID + line + "\n")
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert ":8:" in str(err.value)

    @pytest.mark.parametrize("old,new,where,message", [
        pytest.param("2.8 3.2", "2.8 inf", ":7:", "not finite", id="2.8 inf"),
        pytest.param("2.8 3.2", "nan 3.2", ":7:", "not finite", id="nan 3.2"),
        # zero bounds on an edge a bond angle is derived from
        pytest.param("E 1 2 1.5 1.5", "E 1 2 0 0", ":2:", "0 < lower", id="E 1 2 0 0"),
    ])
    def test_non_finite_edge_bounds_raise_with_location(self, tmp_path, old, new, where,
                                                        message):
        path = self._write(tmp_path, self.VALID.replace(old, new))
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert where in str(err.value) and message in str(err.value)

    @pytest.mark.parametrize("line", BAD_TORSION_LINES)
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

    def test_two_atoms_raise_validation(self, tmp_path):
        # every required edge of two atoms is there; the discretization fixes three
        with pytest.raises(io.ValidationError) as err:
            io.parse_instance(self._write(tmp_path, "E 1 2 1.5 1.5 N 1 CA 1\n"))
        assert err.value.violations == ["2 atoms: the discretization needs at least 3"]

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

    @pytest.mark.parametrize("pair", ["1 2", "1 3", "2 3"])
    def test_missing_first_edges_raise_validation(self, tmp_path, pair):
        # the rule covers the pairs among atoms 1-3 too, before any bond
        # angle is derived from them
        text = "".join(l + "\n" for l in self.VALID.splitlines()
                       if not l.startswith(f"E {pair}"))
        with pytest.raises(io.ValidationError) as err:
            io.parse_instance(self._write(tmp_path, text))
        i, j = pair.split()
        assert err.value.violations == [f"missing required edge ({i},{j})"]

    def test_unnamed_atoms_are_one_violation_per_run(self, tmp_path):
        # n is the largest E index; the atoms below it that no E record
        # names are reported as runs, before any work per atom
        text = ("E 1 2 1.5 1.5 N 1 CA 1\nE 2 3 1.5 1.5 CA 1 C 1\n"
                "E 1 3 2.5 2.5 N 1 C 1\nE 3 200000 5 6 C 1 N 2\n")
        path = self._write(tmp_path, text)
        tracemalloc.start()
        try:
            with pytest.raises(io.ValidationError) as err:
                io.parse_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.violations == ["atoms 4..199999 appear in no E record"]
        assert peak < 5e6

    def test_gaps_name_single_atoms_and_runs(self, tmp_path):
        text = "".join(l + "\n" for l in self.VALID.splitlines()
                       if l and not l.startswith("E 1 ")) + "E 3 7 2.0 3.0 C 1 Q 3\n"
        with pytest.raises(io.ValidationError) as err:
            io.parse_instance(self._write(tmp_path, text))
        assert err.value.violations == ["atom 1 appears in no E record",
                                        "atoms 5..6 appear in no E record"]

    @pytest.mark.parametrize("parse", [io.parse_instance, io.parse_reference])
    def test_non_utf8_byte_is_an_error_at_its_line(self, tmp_path, parse):
        path = tmp_path / "case.txt"
        path.write_bytes(b"# header\r\n1 N \xff 0 0 0\n")
        with pytest.raises(io.ParseError) as err:
            parse(path)
        assert ":2: not UTF-8" in str(err.value)

    @pytest.mark.parametrize("parse", [io.parse_instance, io.parse_reference])
    def test_non_utf8_byte_is_reported_before_any_rule(self, tmp_path, parse):
        # the whole file is decoded first: a bad byte on a later line wins
        # over a malformed line before it
        path = tmp_path / "case.txt"
        path.write_bytes(b"# header\nE 1 2\n# note\n1 N \xff 0 0 0\n")
        with pytest.raises(io.ParseError) as err:
            parse(path)
        assert ":4: not UTF-8" in str(err.value)

    @pytest.mark.parametrize("old, new, where, message", [
        pytest.param("E 1 4 2.8 3.2", "E 1 4 9 9.5", ":7:",
                     "edge (1,4) bounds [9.0,9.5] outside the reachable distance range",
                     id="unreachable (1,4)"),
        pytest.param(CHAIN, FLAT_CHAIN, ":7:", "edge (1,4) unreachable by any torsion",
                     id="flat law (1,4)"),
        pytest.param("E 1 3 2.5 2.5", "E 1 3 3.5 3.5", ":5:",
                     "no triangle with sides 1.5, 1.5, 3.5", id="no triangle (1,3)"),
        # 2 * dL(1,2) * dL(2,3) underflows to 0; the cosine is -inf
        pytest.param("1 2 1.5 1.5 N 1 CA 1\nE 2 3 1.5 1.5", "1 2 1e-200 1e-200 N 1 CA 1\n"
                     "E 2 3 1e-200 1e-200", ":5:", "no triangle with sides 1e-200, 1e-200, 2.5",
                     id="underflow (1,3)")])
    def test_derivation_errors_raise_with_location(self, tmp_path, old, new, where,
                                                   message):
        # each record is valid on its own; deriving atom i's torsion domain
        # or bond angle fails, and the error names the line of (i-3, i) or
        # (i-2, i)
        path = self._write(tmp_path, self.VALID.replace(old, new))
        with pytest.raises(io.ParseError) as err:
            io.parse_instance(path)
        assert str(err.value) == f"{path}{where} {message}"


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
        with pytest.raises(io.ParseError) as err:
            io.parse_reference(path)
        assert ":2:" in str(err.value)

    def test_non_finite_coordinate_raises_with_location(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("1 N 1 0 0 0\n# comment\n2 CA 1 1 nan 0\n")
        with pytest.raises(io.ParseError) as err:
            io.parse_reference(path)
        assert ":3:" in str(err.value) and "non-finite" in str(err.value)

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
                assert e.lower == e.upper
                assert e.lower == pair_distance(coords, i, j)

    def test_three_apart_edges_bracket_reference(self, generated):
        _, coords, inst = generated
        for i in range(4, inst.n + 1):
            e = inst.edges[(i - 3, i)]
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
            assert not dom.sym
            assert dom.contains(tau, tol=1e-12)
            assert dom.hi - dom.lo <= 2 * half + 1e-12

    @pytest.mark.parametrize("width_deg", [50.0, 150.0, 300.0])
    def test_torsion_window_spans_three_apart_bounds(self, generated, width_deg):
        # atom i placed after the reference atoms i-3..i-1 at torsions across
        # its window, its ends and any cos extreme inside it, lands inside the
        # (i-3, i) bounds and reaches each bound not clamped to
        # MIN_LOWER_BOUND or the reference distance
        from idgp import geometry
        atoms, coords, _ = generated
        inst = io.generate_instance(atoms, coords, angle_width_deg=width_deg)
        half, theta = math.radians(width_deg) / 2.0, CompiledInstance.of(inst).theta
        for i in range(4, inst.n + 1):
            predecessors = [coords[:, k] for k in range(i - 4, i - 1)]
            tau_star = geometry.dihedral(*predecessors, coords[:, i - 1])
            window = [tau_star + t for t in np.linspace(-half, half, 101)]
            window += [t for t in (0.0, math.pi, -math.pi)
                       if tau_star - half <= t <= tau_star + half]
            dists = [float(np.linalg.norm(
                geometry.place_atom(*predecessors, inst.edges[(i - 1, i)].lower,
                                    theta[i], t) - predecessors[0]))
                for t in window]
            e, ref = inst.edges[(i - 3, i)], pair_distance(coords, i - 3, i)
            assert e.lower - 1e-9 <= min(dists) and max(dists) <= e.upper + 1e-9
            if e.lower not in (io.MIN_LOWER_BOUND, ref):
                assert min(dists) == pytest.approx(e.lower, abs=1e-9)
            if e.upper != ref:
                assert max(dists) == pytest.approx(e.upper, abs=1e-9)

    @pytest.mark.parametrize("width_deg", [20.0, 50.0, 300.0])
    def test_three_apart_bounds_use_the_solver_law(self, width_deg):
        # the generator's window extremes, evaluated on the law the solver
        # compiles from the same exact edges, give each bound bit for bit
        from idgp import geometry
        atoms, coords = io.synthetic_backbone(6, seed=3)
        inst = io.generate_instance(atoms, coords, angle_width_deg=width_deg)
        ci = CompiledInstance.of(inst)
        half, theta = math.radians(width_deg) / 2.0, CompiledInstance.of(inst).theta
        for i in range(4, inst.n + 1):
            tau = geometry.dihedral(*coords[:, i - 4:i].T)
            cands = [math.cos(tau - half), math.cos(tau + half)]
            cands += [1.0] * (tau - half <= 0.0 <= tau + half)
            cands += [-1.0] * (tau + half >= math.pi or tau - half <= -math.pi)
            sq = [ci.law_a[i - 4].item() + ci.law_b[i - 4].item() * c for c in cands]
            ref = pair_distance(coords, i - 3, i)
            e = inst.edges[(i - 3, i)]
            lower = max(math.sqrt(max(min(sq), 0.0)), io.MIN_LOWER_BOUND)
            assert e.lower == min(lower, ref)
            assert e.upper == max(math.sqrt(max(max(sq), 0.0)), ref)

    def test_collinear_reference_raises_as_build_instance(self):
        atoms, coords = io.synthetic_backbone(2, seed=2)
        coords[:, 2] = 2.0 * coords[:, 1] - coords[:, 0]  # atoms 1, 2, 3 on a line
        exact = [EdgeConstraint(i, j, d, d) for i, j in ((1, 2), (2, 3), (1, 3))
                 for d in [pair_distance(coords, i, j)]]
        with pytest.raises(DegenerateGeometryError, match="^collinear triple$"):
            io.build_instance(atoms[:3], exact)
        with pytest.raises(DegenerateGeometryError, match="^collinear triple$"):
            io.generate_instance(atoms, coords)

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
                e = inst.edges.get((p, q))
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
        assert all(e.lower == e.upper for e in inst.edges.values())
        for dom in inst.torsion_domains.values():
            assert dom.lo == dom.hi

    def test_lower_bound_floor(self):
        # a tiny chain scaled down would hit the 0.1 floor; fake it with a
        # close hydrogen pair instead
        atoms, coords = io.synthetic_backbone(2, seed=2)
        inst = io.generate_instance(atoms, coords, hh_width_adjacent=20.0,
                                    hh_width_other=20.0)
        hh = [e for (i, j), e in inst.edges.items() if j - i > 3]
        assert hh and all(e.lower >= 0.1 or e.lower == pytest.approx(
            pair_distance(coords, e.i, e.j)) for e in hh)

    @pytest.mark.parametrize("kwargs", [
        {"angle_width_deg": math.inf}, {"angle_width_deg": math.nan},
        {"angle_width_deg": -1.0}, {"hh_width_adjacent": math.inf},
        {"hh_width_adjacent": -0.5}, {"hh_width_other": math.nan},
        {"hh_width_other": -math.inf}, {"hh_cutoff": math.nan}])
    def test_bad_widths_and_cutoff_raise(self, kwargs):
        atoms, coords = io.synthetic_backbone(2, seed=2)
        with pytest.raises(IdgpError, match=next(iter(kwargs))):
            io.generate_instance(atoms, coords, **kwargs)


    @pytest.mark.parametrize("transform", [lambda c: c[:, :-1], lambda c: c.T])
    def test_coordinates_not_3_by_n_raise(self, transform):
        atoms, coords = io.synthetic_backbone(2, seed=2)
        with pytest.raises(IdgpError, match="reference coordinates must be 3 x n"):
            io.generate_instance(atoms, transform(coords))


class TestBuildInstance:
    def test_duplicate_edge_raises(self, toy):
        inst, coords = toy
        edges = list(inst.edges.values())
        edges.append(EdgeConstraint(2, 1, 1.0, 1.0))  # same pair, swapped
        with pytest.raises(io.ValidationError) as err:
            io.build_instance(inst.atoms, edges)
        assert err.value.violations == ["duplicate edge (1,2)"]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_atoms_raise(self, n):
        atoms = [AtomRecord(k, "X", 1) for k in range(1, n + 1)]
        edges = [EdgeConstraint(1, 2, 1.5, 1.5)] if n == 2 else []
        with pytest.raises(io.ValidationError) as err:
            io.build_instance(atoms, edges)
        assert err.value.violations == [f"{n} atoms: the discretization needs at least 3"]

    @pytest.mark.parametrize("pair, bounds, message", [
        ((1, 2), (0.0, 0.0), "edge (1,2): bounds 0.0, 0.0 must satisfy 0 < lower <= upper"),
        ((1, 3), (2.0, 2.5), "edge (1,3): distance across at most two bonds must be exact")])
    def test_edge_record_checked_before_derivation(self, pair, bounds, message):
        # deriving a bond angle or torsion domain from such an edge would
        # raise another error, or blame another edge, first
        inst = io.generate_instance(*io.synthetic_backbone(2, seed=1))
        edges = {**inst.edges, pair: EdgeConstraint(*pair, *bounds)}
        with pytest.raises(io.ValidationError) as err:
            io.build_instance(inst.atoms, edges.values())
        assert err.value.violations == [message]

    def test_generated_edge_records_are_checked(self):
        # atom 19 (the last H) on atom 2 (the first): their H-H edge gets
        # lower bound 0
        atoms, coords = io.synthetic_backbone(4, seed=1)
        assert (atoms[1].name, atoms[18].name) == ("HN", "HA")
        coords[:, 18] = coords[:, 1]
        with pytest.raises(io.ValidationError) as err:
            io.generate_instance(atoms, coords)
        assert err.value.violations == [
            "edge (2,19): bounds 0.0, 1.0 must satisfy 0 < lower <= upper"]

    def test_override_precedence(self, toy):
        inst, _ = toy
        dom = TorsionDomain.single(0.1, 0.2)
        rebuilt = io.build_instance(inst.atoms, list(inst.edges.values()),
                                    torsion_overrides={5: dom})
        assert rebuilt.torsion_domains == {5: dom}
        assert rebuilt.torsion_domains[5] is dom
        ci = CompiledInstance.of(rebuilt)
        assert ci.tors_sym.tolist()[:2] == [True, False]  # atom 4 derived, atom 5 given
        assert (ci.tors_lo[1], ci.tors_hi[1]) == (0.1, 0.2)

    def test_override_outside_the_chain_raises(self):
        inst = io.generate_instance(*io.synthetic_backbone(2, seed=1))
        dom = TorsionDomain.single(0.1, 0.2)
        with pytest.raises(io.ValidationError) as err:
            io.build_instance(inst.atoms, inst.edges.values(), {3: dom, 99: dom})
        assert err.value.violations == ["torsion override for atom 3 outside 4..10",
                                        "torsion override for atom 99 outside 4..10"]


class TestSyntheticBackbone:
    def test_deterministic_per_seed(self):
        a1, c1 = io.synthetic_backbone(3, seed=9)
        a2, c2 = io.synthetic_backbone(3, seed=9)
        assert a1 == a2
        np.testing.assert_array_equal(c1, c2)
        _, c3 = io.synthetic_backbone(3, seed=10)
        assert not np.array_equal(c1, c3)

    def test_negative_seed_raises(self):
        with pytest.raises(IdgpError, match="seed"):
            io.synthetic_backbone(3, seed=-2)

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

    @pytest.mark.parametrize("runtime", [0.0, -1.0, math.nan, math.inf])
    def test_runtime_not_positive_and_finite_raises(self, runtime):
        with pytest.raises(io.ProfileError, match="not positive and finite"):
            io.performance_profile({"A": {"p1": 1.0, "p2": runtime},
                                    "B": {"p1": 2.0, "p2": 1.0}})

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
