"""Instance/reference file formats, instance generation, profile data.

Both formats are UTF-8 (another byte is a ParseError at its line, raised before any
rule below) and line oriented (LF, CR LF or CR ends a line); '#' starts a comment.
Instance records:

    E i j dL dU name_i res_i name_j res_j     distance edge (Angstrom)
    T i tauL_deg tauU_deg sign                torsion annotation (degrees)

E needs integer i, j and residues with 1 <= i < j, finite 0 < dL <= dU, dL == dU
when j - i <= 2, and a pair no earlier E gave; an atom's first E names it. T needs
an atom no earlier T gave, -180 <= tauL <= tauU <= 180 and a sign: '+' is [tauL,
tauU]; '-' mirrors it to [-tauU, -tauL]; '+-' (or a Unicode plus-minus) is the
sign-symmetric union of both and needs tauL >= 0. The first line that breaks one
of these rules, or has another record type, is a ParseError. Then, in this order:
no E record is one at line 0; a T atom outside 4..n (n the largest E index) one at
its line; atoms of 1..n that no E names are a ValidationError, a violation per run;
so are n < 3 and a missing edge (j, i) for an atom i >= 2 and max(1, i-3) <= j < i;
a bond angle at atom i without a triangle is a ParseError at the line of E (i-2, i),
and bounds (i-3, i) no torsion reaches, for an atom i without T line, one at the line
of that E; the Instance holds only the T lines' domains. `build_instance` applies the
same E rules (a repeated pair included), the T rule 4 <= i <= n and the rule n >= 3
to in-memory records as a ValidationError, and `generate_instance` ends in it.

Reference/conformation files carry one atom per line, `index name residue
x y z`: integers, index = atoms on earlier lines + 1, finite x, y, z. Each
rule is a ParseError at its line; a file without atoms is one at line 0.
"""

import math
import re
from itertools import pairwise

import numpy as np

from . import geometry, metrics
from .model import (
    AtomRecord,
    CompiledInstance,
    DegenerateGeometryError,
    EdgeConstraint,
    IdgpError,
    InfeasibleDiscretizationError,
    Instance,
    InvalidBoundsError,
    TorsionDomain,
    ValidationError,
    chain_geometry,
    edge_problems,
    invert_torsion_law,
    structure_holds,
    structure_problems,
)

MIN_LOWER_BOUND = 0.1  # floor for generated interval lower bounds (Angstrom)
_COMMENT = re.compile("#.*")  # '.' stops at a line end


class ParseError(IdgpError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ProfileError(IdgpError):
    pass


def build_instance(atoms, edges, torsion_overrides=None) -> Instance:
    """An Instance of edge records given with either end first and the domains
    `torsion_overrides` gives. A ValidationError names the first record that breaks an
    E rule or repeats a pair, else every override for an atom outside 4..n, else every
    `structure_problems` rule broken; then its compile raises what does not derive."""
    records = [EdgeConstraint(*sorted((e.i, e.j)), e.lower, e.upper) for e in edges]
    edge_map, bad = _edge_map(records)
    if bad:
        raise ValidationError([bad[1]])
    inst = Instance(list(atoms), edge_map, dict(torsion_overrides or {}))
    violations = [f"torsion override for atom {i} outside 4..{inst.n}" for i in
                  inst.torsion_domains if not 4 <= i <= inst.n] or structure_problems(inst)
    if violations:
        raise ValidationError(violations)
    CompiledInstance.of(inst)
    return inst


def _edge_map(records):
    """The records as a dict pair -> record, and the first that breaks an E rule
    or repeats a pair, as (row, message), or None."""
    problems = edge_problems(records)
    edges = dict(zip([e[:2] for e in records], records))
    if len(edges) < len(records):
        seen = set()
        k = next(k for k, e in enumerate(records) if e[:2] in seen or seen.add(e[:2]))
        if not problems or k < problems[0][0]:
            problems = [(k, "duplicate edge ({},{})".format(*records[k][:2]))]
    return edges, (problems[0] if problems else None)


def _derive(inst: Instance, path, lines) -> Instance:
    """Check that every bond angle of the parsed `inst` (every required edge there)
    has a triangle and, in one array pass, that every atom without a T line has a
    torsion domain, as `CompiledInstance.of` derives them, storing none: an error
    is a ParseError at the line of (i-2, i) for a bond angle, (i-3, i) for a domain."""
    n, edges = inst.n, inst.edges
    derived = [edges[(i - 3, i)] for i in range(4, n + 1) if i not in inst.torsion_domains]
    try:
        _, (a, b) = chain_geometry([edges[(i - 1, i)].lower for i in range(2, n + 1)],
                                   [edges[(i - 2, i)].lower for i in range(3, n + 1)])
        if derived:  # an instance with a T line for every atom inverts nothing
            rows = [e.j - 4 for e in derived]
            invert_torsion_law(a[rows], b[rows], derived)
    except (DegenerateGeometryError, InfeasibleDiscretizationError) as exc:
        pair = (derived[exc.index][:2] if isinstance(exc, InfeasibleDiscretizationError)
                else (exc.index + 1, exc.index + 3))  # the bond angle at exc.index + 3
        raise ParseError(path, lines[list(edges).index(pair)], str(exc)) from exc
    return inst


def _tokens(path):
    """(line number, tokens) of each line of a UTF-8 file, '#' starting a comment; lines
    end at LF, CR LF or CR, as in text mode. A byte not UTF-8 is an error at its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once
        head = exc.object[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(path, head.count(b"\n") + 1, f"not UTF-8 ({exc.reason})") from exc
    return enumerate(map(str.split, _COMMENT.sub("", text).split("\n")), start=1)


def parse_instance(path) -> Instance:
    """Parse and fully validate an instance file (rules and their order: module docstring).
    One loop tokenizes and converts each line; each E rule then runs once over them all."""
    records, lines, names, residues, overrides, t_lines, failure = [], [], [], [], {}, {}, None
    try:
        for line_no, tok in _tokens(path):
            if not tok:
                continue
            if tok[0] == "E":
                if len(tok) != 9:
                    raise ValueError("expected: E i j dL dU name_i res_i name_j res_j")
                records.append(EdgeConstraint(int(tok[1]), int(tok[2]), float(tok[3]),
                                              float(tok[4])))
                lines.append(line_no)
                # flat lists: a tuple per record would outlive the loop as GC work
                names += tok[5], tok[7]
                residues += int(tok[6]), int(tok[8])
            elif tok[0] == "T":
                if len(tok) != 5:
                    raise ValueError("expected: T i tauL_deg tauU_deg sign")
                i, sign = int(tok[1]), tok[4]
                if i in overrides:
                    raise ValueError(f"duplicate torsion record for atom {i}")
                lo, hi = math.radians(float(tok[2])), math.radians(float(tok[3]))
                if sign not in ("+", "-", "+-", "±"):
                    raise ValueError(f"unknown sign '{sign}'")
                t_lines[i] = line_no
                overrides[i] = (TorsionDomain.single(lo, hi) if sign == "+" else
                                TorsionDomain.single(-hi, -lo) if sign == "-" else
                                TorsionDomain.symmetric(lo, hi))
            else:
                raise ValueError(f"unknown record type '{tok[0]}'")
    except (ValueError, InvalidBoundsError) as exc:
        failure = exc
    # the records end at a failed line, which has one only if its residues
    # failed: a broken E rule or repeated pair up to there comes first
    edges, bad = _edge_map(records)
    if bad:
        raise ParseError(path, lines[bad[0]], bad[1]) from ValueError(bad[1])
    if failure:
        raise ParseError(path, line_no, str(failure)) from failure
    if not edges:
        raise ParseError(path, 0, "no edge records")
    ii, jj, _, _ = zip(*records)
    n = max(jj)
    for i, line_no in t_lines.items():
        if not 4 <= i <= n:
            raise ParseError(path, line_no, f"torsion record for atom {i} outside 4..{n}")
    ends = [0] * len(names)
    ends[::2], ends[1::2] = ii, jj
    named = dict(zip(ends[::-1], zip(names[::-1], residues[::-1])))  # first E names an atom
    if len(named) < n:
        gaps = [(a + 1, b - 1) for a, b in pairwise([0, *sorted(named), n + 1]) if b > a + 1]
        raise ValidationError([f"atom {a} appears in no E record" if a == b else
                               f"atoms {a}..{b} appear in no E record" for a, b in gaps])
    inst = Instance([AtomRecord(k, *named[k]) for k in range(1, n + 1)], edges, overrides)
    if not structure_holds(inst):
        raise ValidationError(structure_problems(inst))
    return _derive(inst, path, lines)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_instance(inst: Instance, path) -> None:
    """Write `inst` with a T line for every atom 4..n, its domain in the compiled
    view; an instance that does not compile raises before the file is opened."""
    ci, atoms = CompiledInstance.of(inst), inst.atoms
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# idgp instance, {inst.n} atoms, {len(inst.edges)} edges\n")
        for (i, j) in sorted(inst.edges):
            e = inst.edges[(i, j)]
            ai, aj = atoms[i - 1], atoms[j - 1]
            fh.write(f"E {i} {j} {_fmt(e.lower)} {_fmt(e.upper)} "
                     f"{ai.name} {ai.residue} {aj.name} {aj.residue}\n")
        for i, lo, hi, sym in zip(range(4, inst.n + 1), ci.tors_lo.tolist(),
                                  ci.tors_hi.tolist(), ci.tors_sym.tolist()):
            sign, lo, hi = ("+-", lo, hi) if sym else (
                ("-", -hi, -lo) if hi <= 0.0 and lo < 0.0 else ("+", lo, hi))
            fh.write(f"T {i} {_fmt(math.degrees(lo))} {_fmt(math.degrees(hi))} {sign}\n")


def parse_reference(path):
    """Read `index name residue x y z` lines; returns (atoms, 3 x n coords)."""
    atoms, xyz = [], []
    for line_no, tok in _tokens(path):
        if not tok:
            continue
        if len(tok) != 6:
            raise ParseError(path, line_no, "expected: index name residue x y z")
        try:
            index = int(tok[0])
            if index != len(atoms) + 1:
                raise ValueError(f"atom index {index} follows {len(atoms)} atoms")
            atoms.append(AtomRecord(index, tok[1], int(tok[2])))
            xyz.append([float(tok[3]), float(tok[4]), float(tok[5])])
            if not all(map(math.isfinite, xyz[-1])):
                raise ValueError(f"atom {index}: non-finite coordinate")
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
    if not atoms:
        raise ParseError(path, 0, "empty reference file")
    return atoms, np.array(xyz).T


def write_reference(atoms, coords, path) -> None:
    coords = np.asarray(coords, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for a in atoms:
            x, y, z = coords[:, a.index - 1]
            fh.write(f"{a.index} {a.name} {a.residue} {x:.6f} {y:.6f} {z:.6f}\n")


def write_conformation(coords: np.ndarray, inst: Instance, path) -> None:
    """Write the float 3 x n coordinates `coords` plus a comment trailer with
    LDE, MDE and stress."""
    if coords.size == 0:
        raise IdgpError("refusing to write an empty conformation")
    write_reference(inst.atoms, coords, path)
    ci = CompiledInstance.of(inst)
    problem = metrics.StressProblem(ci)
    stress = problem.objective(problem.pack(coords, problem.init_d(coords)))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"# LDE {metrics.lde_global(coords, ci):.5e}\n")
        fh.write(f"# MDE {metrics.mde_global(coords, ci):.5e}\n")
        fh.write(f"# stress {stress:.5e}\n")


def generate_instance(atoms, coords, angle_width_deg: float = 50.0,
                      hh_cutoff: float = 5.0, hh_width_adjacent: float = 1.0,
                      hh_width_other: float = 2.0,
                      include_torsion_annotations: bool = True) -> Instance:
    """Build an instance from a reference conformation.

    Exact edges for one- and two-apart pairs; the three-apart distance is
    widened to the range realized by torsions within +-angle_width/2 of the
    reference torsion, by the torsion law that `CompiledInstance` takes from
    the exact edges (a triple without a bond angle raises there, as in
    `build_instance`); hydrogen pairs within hh_cutoff get interval edges of
    total width hh_width_adjacent (adjacent residues) or hh_width_other;
    hh_cutoff=0 drops them. The reference is feasible for the result by
    construction. The widths must be finite and nonnegative, and hh_cutoff
    not NaN (no distance exceeds NaN, so it would keep every pair).
    """
    for name, width in (("angle_width_deg", angle_width_deg),
                        ("hh_width_adjacent", hh_width_adjacent),
                        ("hh_width_other", hh_width_other)):
        if not 0.0 <= width < math.inf:  # NaN fails too
            raise IdgpError(f"{name} must be finite and nonnegative, got {width}")
    if math.isnan(hh_cutoff):
        raise IdgpError("hh_cutoff must not be NaN")
    coords = np.asarray(coords, dtype=float)
    n = len(atoms)
    if coords.shape != (3, n):
        raise IdgpError("reference coordinates must be 3 x n")

    def dist(p, q):
        diff = coords[:, p] - coords[:, q]
        return float(np.sqrt((diff * diff).sum()))

    one = [dist(i - 2, i - 1) for i in range(2, n + 1)]  # d_{i-1,i}, i = 2..n
    two = [dist(i - 3, i - 1) for i in range(3, n + 1)]  # d_{i-2,i}, i = 3..n
    edges = {(i - 1, i): EdgeConstraint(i - 1, i, d, d) for i, d in enumerate(one, start=2)}
    edges.update({(i - 2, i): EdgeConstraint(i - 2, i, d, d)
                  for i, d in enumerate(two, start=3)})
    # chain_geometry's law, as the parser and CompiledInstance.of take it from these edges
    law_a, law_b = (c.tolist() for c in chain_geometry(one, two)[1])

    half = math.radians(angle_width_deg) / 2.0
    overrides = {}
    for i in range(4, n + 1):
        tau_star = geometry.dihedral(*coords[:, i - 4:i].T)
        ref_d = dist(i - 4, i - 1)
        if half == 0.0:
            edges[(i - 3, i)] = EdgeConstraint(i - 3, i, ref_d, ref_d)
            overrides[i] = TorsionDomain.point(tau_star)
            continue
        lo_t, hi_t = tau_star - half, tau_star + half
        # extremes of cos over the (unwrapped) window
        cands = [math.cos(lo_t), math.cos(hi_t)]
        if lo_t <= 0.0 <= hi_t:
            cands.append(1.0)
        if hi_t >= math.pi or lo_t <= -math.pi:
            cands.append(-1.0)
        a, b = law_a[i - 4], law_b[i - 4]
        svals = [a + b * c for c in cands]
        d_lo = math.sqrt(max(min(svals), 0.0))
        d_hi = math.sqrt(max(max(svals), 0.0))
        d_lo = min(max(d_lo, MIN_LOWER_BOUND), ref_d)
        d_hi = max(d_hi, ref_d)
        edges[(i - 3, i)] = EdgeConstraint(i - 3, i, d_lo, d_hi)
        overrides[i] = TorsionDomain.single(max(lo_t, -math.pi), min(hi_t, math.pi))

    h_idx = [a.index for a in atoms if a.name.startswith("H")]
    for ai in range(len(h_idx)):
        for bi in range(ai + 1, len(h_idx)):
            p, q = h_idx[ai], h_idx[bi]
            if (p, q) in edges:
                continue
            d = dist(p - 1, q - 1)
            if d > hh_cutoff:
                continue
            width = (hh_width_adjacent
                     if abs(atoms[p - 1].residue - atoms[q - 1].residue) <= 1
                     else hh_width_other)
            lo = max(MIN_LOWER_BOUND, d - width / 2.0)
            edges[(p, q)] = EdgeConstraint(p, q, min(lo, d), d + width / 2.0)

    return build_instance(atoms, edges.values(),
                          overrides if include_torsion_annotations else {})


_BACKBONE_WITH_H = [
    # (name, distance to previous chain atom, bond angle, flexible torsion?)
    ("N", 1.329, math.radians(114.0), True),
    ("HN", 1.010, math.radians(119.0), False),
    ("CA", 2.050, math.radians(108.0), True),
    ("HA", 1.090, math.radians(110.0), False),
    ("C", 2.150, math.radians(111.0), True),
]
_BACKBONE_PLAIN = [
    ("N", 1.329, math.radians(121.7), True),
    ("CA", 1.458, math.radians(111.0), True),
    ("C", 1.525, math.radians(117.2), True),
]
_RIGID_TORSIONS = {"HN": 2.0, "HA": -2.0}


def synthetic_backbone(n_residues: int, seed: int = 0,
                       include_hydrogens: bool = True):
    """Build a synthetic, geometrically consistent chain via the placement
    primitive; helix-like flexible torsions give compact folds with
    hydrogen contacts. Returns (atoms, 3 x n coords)."""
    if n_residues < 1:
        raise IdgpError("need at least one residue")
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise IdgpError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    pattern = _BACKBONE_WITH_H if include_hydrogens else _BACKBONE_PLAIN

    atoms, rows = [], []
    idx = 0
    for res in range(1, n_residues + 1):
        for name, d, theta, flexible in pattern:
            idx += 1
            atoms.append(AtomRecord(idx, name, res))
            rows.append((name, d, theta, flexible))
    n = idx
    if n < 4:
        raise IdgpError("chain too short")

    coords = np.empty((3, n))
    x1, x2, x3 = geometry.place_first_three(rows[1][1], rows[2][1], rows[2][2])
    coords[:, 0], coords[:, 1], coords[:, 2] = x1, x2, x3
    for k in range(4, n + 1):
        name, d, theta, flexible = rows[k - 1]
        if flexible:
            tau = float(np.clip(rng.normal(-1.0, 0.5), -math.pi + 0.15,
                                math.pi - 0.15))
        else:
            tau = _RIGID_TORSIONS.get(name, 3.0)
        coords[:, k - 1] = geometry.place_atom(coords[:, k - 4], coords[:, k - 3],
                                               coords[:, k - 2], d, theta, tau)
    return atoms, coords


def performance_profile(results: dict) -> dict:
    """Dolan-More profile step points.

    `results` maps algorithm label -> {problem: runtime or None (failure)};
    a runtime that is not positive and finite is a ProfileError.
    Returns label -> sorted list of (t, rho(t)) step points; rho(t) is the
    fraction of problems with performance ratio at most t.
    """
    labels = sorted(results)
    if not labels:
        raise ProfileError("no result sets")
    problems = sorted(results[labels[0]])
    for lab in labels[1:]:
        if sorted(results[lab]) != problems:
            raise ProfileError("result sets cover different problem sets")
    if not problems:
        raise ProfileError("empty problem set")
    for lab in labels:
        for p, t in results[lab].items():
            if t is not None and not 0.0 < t < math.inf:  # NaN fails too
                raise ProfileError(f"{lab}: runtime {t!r} of {p!r} is not positive and finite")

    # a failure (None) has no ratio: it never counts toward rho
    best = {p: min((results[lab][p] for lab in labels if results[lab][p] is not None),
                   default=None) for p in problems}
    out = {}
    for lab in labels:
        ratios = [t / best[p] for p, t in results[lab].items() if t is not None]
        rs = sorted(filter(math.isfinite, ratios))  # a ratio may overflow to inf
        out[lab] = [(t, sum(r <= t for r in rs) / len(problems)) for t in sorted({1.0, *rs})]
    return out
