"""Instance/reference file formats, instance generation, profile data.

Instance files are line oriented, '#' starts a comment:

    E i j dL dU name_i res_i name_j res_j     distance edge (Angstrom)
    T i tauL_deg tauU_deg sign                torsion annotation (degrees)

with sign one of '+', '-', '+-' (accepted alias: a Unicode plus-minus).
'+' is a plain interval [tauL, tauU]; '-' mirrors the given magnitudes to
[-tauU, -tauL]; '+-' is the sign-symmetric union of both sides.

Reference/conformation files carry one atom per line:

    index name residue x y z
"""

import math

import numpy as np

from . import geometry, metrics
from .model import (
    AtomRecord,
    CompiledInstance,
    DegenerateGeometryError,
    DomainKind,
    DuplicateEdgeError,
    EdgeConstraint,
    IdgpError,
    Instance,
    InvalidBoundsError,
    TorsionDomain,
    as_coords,
    bond_angle_from_distances,
    validate_instance,
)

MIN_LOWER_BOUND = 0.1  # floor for generated interval lower bounds (Angstrom)


class ParseError(IdgpError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(IdgpError):
    def __init__(self, violations):
        super().__init__("invalid instance:\n  " + "\n  ".join(violations))
        self.violations = violations


class ProfileError(IdgpError):
    pass


def build_instance(atoms, edges, torsion_overrides=None) -> Instance:
    """Assemble an Instance: key edges by (i, j) with i < j, derive bond
    angles from exact edges and torsion domains from d_{i-3,i} bounds.

    Explicit torsion annotations take precedence over derived domains.
    Raises ValidationError unless the result is fully valid.
    """
    edge_map = {}
    for e in edges:
        i, j = (e.i, e.j) if e.i < e.j else (e.j, e.i)
        if (i, j) in edge_map:
            raise DuplicateEdgeError(f"duplicate edge record for pair ({i},{j})")
        edge_map[(i, j)] = EdgeConstraint(i, j, e.lower, e.upper)

    inst = Instance(atoms=list(atoms), edges=edge_map)
    n = inst.n

    for i in range(3, n + 1):
        ab = inst.edge(i - 2, i - 1)
        bc = inst.edge(i - 1, i)
        ac = inst.edge(i - 2, i)
        if ab is None or bc is None or ac is None:
            continue  # validate_instance reports the missing edge
        inst.bond_angles[i] = bond_angle_from_distances(ab.lower, bc.lower, ac.lower)

    overrides = torsion_overrides or {}
    for i in range(4, n + 1):
        if i in overrides:
            inst.torsion_domains[i] = overrides[i]
        elif inst.edge(i - 3, i) is not None and i in inst.bond_angles \
                and (i - 1) in inst.bond_angles:
            inst.torsion_domains[i] = geometry.torsion_domain_from_distance(inst, i)

    violations = validate_instance(inst)
    if violations:
        raise ValidationError(violations)
    return inst


def _parse_domain(lo_deg, hi_deg, sign) -> TorsionDomain:
    lo, hi = math.radians(lo_deg), math.radians(hi_deg)
    if sign == "+":
        return TorsionDomain.single(lo, hi)
    if sign == "-":
        return TorsionDomain.single(-hi, -lo)
    if sign in ("+-", "±"):
        return TorsionDomain.symmetric(lo, hi)
    raise ValueError(f"unknown sign '{sign}'")


def parse_instance(path) -> Instance:
    """Parse and fully validate an instance file."""
    names, residues = {}, {}
    edges = []
    seen_pairs = set()
    overrides = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "E":
                    if len(tok) != 9:
                        raise ValueError("expected: E i j dL dU name_i res_i name_j res_j")
                    i, j = int(tok[1]), int(tok[2])
                    lo, up = float(tok[3]), float(tok[4])
                    if i >= j:
                        raise ValueError(f"edge requires i < j, got ({i},{j})")
                    if not (math.isfinite(lo) and math.isfinite(up)):
                        raise ValueError(f"edge ({i},{j}): bounds {lo}, {up} not finite")
                    if lo > up:
                        raise ValueError(f"edge ({i},{j}): dL {lo} > dU {up}")
                    if (i, j) in seen_pairs:
                        raise ValueError(f"duplicate edge ({i},{j})")
                    seen_pairs.add((i, j))
                    names.setdefault(i, tok[5])
                    residues.setdefault(i, int(tok[6]))
                    names.setdefault(j, tok[7])
                    residues.setdefault(j, int(tok[8]))
                    edges.append(EdgeConstraint(i, j, lo, up))
                elif tok[0] == "T":
                    if len(tok) != 5:
                        raise ValueError("expected: T i tauL_deg tauU_deg sign")
                    i = int(tok[1])
                    if i in overrides:
                        raise ValueError(f"duplicate torsion record for atom {i}")
                    overrides[i] = (line_no, _parse_domain(float(tok[2]),
                                                           float(tok[3]), tok[4]))
                else:
                    raise ValueError(f"unknown record type '{tok[0]}'")
            except (ValueError, IndexError, InvalidBoundsError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc

    if not edges:
        raise ParseError(path, 0, "no edge records")
    n = max(max(i, j) for (i, j) in seen_pairs)
    for i, (line_no, _) in overrides.items():
        if not 4 <= i <= n:
            raise ParseError(path, line_no, f"torsion record for atom {i} outside 4..{n}")
    atoms = [AtomRecord(k, names.get(k, "X"), residues.get(k, 0))
             for k in range(1, n + 1)]
    return build_instance(atoms, edges, {i: dom for i, (_, dom) in overrides.items()})


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_instance(inst: Instance, path) -> None:
    atoms = inst.atoms
    with open(path, "w") as fh:
        fh.write(f"# idgp instance, {inst.n} atoms, {len(inst.edges)} edges\n")
        for (i, j) in sorted(inst.edges):
            e = inst.edges[(i, j)]
            ai, aj = atoms[i - 1], atoms[j - 1]
            fh.write(f"E {i} {j} {_fmt(e.lower)} {_fmt(e.upper)} "
                     f"{ai.name} {ai.residue} {aj.name} {aj.residue}\n")
        for i in sorted(inst.torsion_domains):
            dom = inst.torsion_domains[i]
            if dom.kind is DomainKind.SYMMETRIC:
                sign, lo, hi = "+-", dom.lo, dom.hi
            elif dom.hi <= 0.0 and dom.lo < 0.0:
                sign, lo, hi = "-", -dom.hi, -dom.lo
            else:
                sign, lo, hi = "+", dom.lo, dom.hi
            fh.write(f"T {i} {_fmt(math.degrees(lo))} {_fmt(math.degrees(hi))} {sign}\n")


def parse_reference(path):
    """Read `index name residue x y z` lines; returns (atoms, 3 x n coords)."""
    atoms, xyz = [], []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) != 6:
                raise ParseError(path, line_no, "expected: index name residue x y z")
            try:
                atoms.append(AtomRecord(int(tok[0]), tok[1], int(tok[2])))
                xyz.append([float(tok[3]), float(tok[4]), float(tok[5])])
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    if not atoms:
        raise ParseError(path, 0, "empty reference file")
    for k, a in enumerate(atoms, start=1):
        if a.index != k:
            raise ParseError(path, 0, f"atom indices not contiguous at {a.index}")
    coords = np.array(xyz).T
    if not np.all(np.isfinite(coords)):
        raise ParseError(path, 0, "non-finite coordinate")
    return atoms, coords


def write_reference(atoms, coords, path) -> None:
    coords = np.asarray(coords, dtype=float)
    with open(path, "w") as fh:
        for a in atoms:
            x, y, z = coords[:, a.index - 1]
            fh.write(f"{a.index} {a.name} {a.residue} {x:.6f} {y:.6f} {z:.6f}\n")


def write_conformation(X, inst: Instance, path) -> None:
    """Write coordinates plus a comment trailer with LDE, MDE and stress."""
    coords = as_coords(X)
    if coords.size == 0:
        raise IdgpError("refusing to write an empty conformation")
    write_reference(inst.atoms, coords, path)
    ci = CompiledInstance.of(inst)
    problem = metrics.StressProblem(ci)
    stress = problem.objective(problem.pack(coords, problem.init_d(coords)))
    with open(path, "a") as fh:
        fh.write(f"# LDE {metrics.lde_global(coords, ci):.5e}\n")
        fh.write(f"# MDE {metrics.mde_global(coords, ci):.5e}\n")
        fh.write(f"# stress {stress:.5e}\n")


def _angle_at(coords, a, b, c) -> float:
    v1 = coords[:, a] - coords[:, b]
    v2 = coords[:, c] - coords[:, b]
    cn = np.linalg.norm(np.cross(v1, v2))
    if cn <= 1e-12:
        raise DegenerateGeometryError(f"collinear triple ({a + 1},{b + 1},{c + 1})")
    cosang = float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
    return math.acos(min(1.0, max(-1.0, cosang)))


def generate_instance(atoms, coords, angle_width_deg: float = 50.0,
                      hh_cutoff: float = 5.0, hh_width_adjacent: float = 1.0,
                      hh_width_other: float = 2.0,
                      include_torsion_annotations: bool = True) -> Instance:
    """Build an instance from a reference conformation.

    Exact edges for one- and two-apart pairs; the three-apart distance is
    widened to the range realized by torsions within +-angle_width/2 of the
    reference torsion; hydrogen pairs within hh_cutoff get interval edges of
    total width hh_width_adjacent (adjacent residues) or hh_width_other;
    hh_cutoff=0 drops them. The reference is feasible for the result by
    construction.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(atoms)
    if coords.shape != (3, n):
        raise IdgpError("reference coordinates must be 3 x n")

    def dist(p, q):
        diff = coords[:, p] - coords[:, q]
        return float(np.sqrt((diff * diff).sum()))

    edges = []
    for i in range(2, n + 1):
        d = dist(i - 2, i - 1)
        edges.append(EdgeConstraint(i - 1, i, d, d))
    for i in range(3, n + 1):
        d = dist(i - 3, i - 1)
        edges.append(EdgeConstraint(i - 2, i, d, d))

    half = math.radians(angle_width_deg) / 2.0
    overrides = {}
    for i in range(4, n + 1):
        p3, p2, p1 = coords[:, i - 4], coords[:, i - 3], coords[:, i - 2]
        tau_star = geometry.dihedral(p3, p2, p1, coords[:, i - 1])
        ref_d = dist(i - 4, i - 1)
        if half == 0.0:
            edges.append(EdgeConstraint(i - 3, i, ref_d, ref_d))
            overrides[i] = TorsionDomain.point(tau_star)
            continue
        lo_t, hi_t = tau_star - half, tau_star + half
        # extremes of cos over the (unwrapped) window
        cands = [math.cos(lo_t), math.cos(hi_t)]
        if lo_t <= 0.0 <= hi_t:
            cands.append(1.0)
        if hi_t >= math.pi or lo_t <= -math.pi:
            cands.append(-1.0)
        a, b = geometry.cos_affine_coefficients(
            p3, p2, p1, dist(i - 2, i - 1), _angle_at(coords, i - 3, i - 2, i - 1))
        svals = [a + b * c for c in cands]
        d_lo = math.sqrt(max(min(svals), 0.0))
        d_hi = math.sqrt(max(max(svals), 0.0))
        d_lo = min(max(d_lo, MIN_LOWER_BOUND), ref_d)
        d_hi = max(d_hi, ref_d)
        edges.append(EdgeConstraint(i - 3, i, d_lo, d_hi))
        overrides[i] = TorsionDomain.single(max(lo_t, -math.pi), min(hi_t, math.pi))

    existing = {(min(e.i, e.j), max(e.i, e.j)) for e in edges}
    h_idx = [a.index for a in atoms if a.name.startswith("H")]
    for ai in range(len(h_idx)):
        for bi in range(ai + 1, len(h_idx)):
            p, q = h_idx[ai], h_idx[bi]
            if (p, q) in existing:
                continue
            d = dist(p - 1, q - 1)
            if d > hh_cutoff:
                continue
            width = (hh_width_adjacent
                     if abs(atoms[p - 1].residue - atoms[q - 1].residue) <= 1
                     else hh_width_other)
            lo = max(MIN_LOWER_BOUND, d - width / 2.0)
            edges.append(EdgeConstraint(p, q, min(lo, d), d + width / 2.0))

    return build_instance(atoms, edges,
                          overrides if include_torsion_annotations else None)


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

    `results` maps algorithm label -> {problem: runtime or None (failure)}.
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

    ratios = {lab: {} for lab in labels}
    for p in problems:
        times = {lab: results[lab][p] for lab in labels}
        finite = [t for t in times.values() if t is not None]
        best = min(finite) if finite else None
        for lab in labels:
            t = times[lab]
            # failures map to infinity; so does the inf/inf convention
            ratios[lab][p] = math.inf if (t is None or best is None) else t / best

    npb = len(problems)
    out = {}
    for lab in labels:
        rs = sorted(r for r in ratios[lab].values() if math.isfinite(r))
        points, support = [], sorted(set([1.0] + rs))
        for t in support:
            rho = sum(1 for r in rs if r <= t) / npb
            points.append((t, rho))
        out[lab] = points
    return out
