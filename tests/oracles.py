"""Reference implementations the optimized code is checked against: scalar
per-edge loops for the array code of `idgp.metrics` and
`idgp.model.CompiledInstance`, a record-by-record build for the single
passes of `CompiledInstance.of`, with a bond angle per triangle and the
torsion domain of each atom given none inverted one atom at a time,
column gathers for the flat-index edge kernel
of `idgp.metrics` and np.clip for its projection, vector helpers in the
same operation order and numpy vector ops for the scalar-float
`idgp.geometry.local_frame`, per-atom trig for the local-coordinate table
of `idgp.geometry.place_atoms_batch`, a one-domain draw of one 64-bit word
per torsion (`rng.uniform` for an interval, raw words read one at a time
otherwise) for the k-domain block of `idgp.geometry.sample_torsions`, and,
for `idgp.search.improve`, a reflection pass that tries every atom and tests
each domain on its own, then a prefix-keeping sign-flip sweep that regrows
every attempt to the last atom, with its sign restriction on
`TorsionDomain` objects, and its rounds as chained one-round calls. Torsions are arrays laid out like
`CompiledInstance.tors_lo`, atom k at entry k - 4, as the solver holds them.
For `idgp.io.parse_instance`, which converts each line in one pass and then
checks the E records as columns, it holds the parser that checks each record
on its own line, with its scalar edge rule and whole-instance rules, the
one-triangle law of cosines for `idgp.model.chain_geometry`, which takes all
of a chain's triangles at once, and the per-atom inversion of
the torsion-distance law for `idgp.model.invert_torsion_law`, which takes
every atom given no domain at once. Like the parser, it stores only the
domains of the T lines; it inverts the law for the others only to check
them, and `compiled_instance` derives them for the view."""

import math

import numpy as np

from idgp import geometry, metrics, search
from idgp.geometry import _COLLINEAR_TOL
from idgp.io import ParseError, ValidationError
from idgp.metrics import _SMOOTHNESS_TOL
from idgp.model import (
    AtomRecord,
    CompiledInstance,
    DegenerateGeometryError,
    EdgeConstraint,
    IdgpError,
    InfeasibleDiscretizationError,
    Instance,
    InvalidBoundsError,
    TorsionDomain,
    _CA_SUBSET_THRESHOLD,
    _COS_CLAMP_TOL,
    _COS_DEGENERACY_TOL,
    torsion_law,
)


def pair_distance(coords, i, j) -> float:
    """Distance between atoms i and j (1-based). Always sqrt-of-sum-of-squares
    so it agrees bitwise with the vectorized metrics."""
    diff = coords[:, i - 1] - coords[:, j - 1]
    return float(np.sqrt((diff * diff).sum()))


def edge_residual(coords, e) -> float:
    """Normalized interval violation of one edge; zero iff satisfied."""
    r = pair_distance(coords, e.i, e.j)
    return max(0.0, (e.lower - r) / e.lower, (r - e.upper) / e.upper)


def edge_weights(inst) -> dict:
    """Stress weights: equal, discretization edges (pairs one to three
    apart) doubled, sum normalized to 1."""
    raw = {(i, j): 2.0 if j - i <= 3 else 1.0 for (i, j) in inst.edges}
    total = sum(raw.values())
    return {key: v / total for key, v in raw.items()}


def stress(coords, d: dict, weights: dict) -> float:
    """Weighted half sum of squared gaps between realized and auxiliary distances."""
    total = 0.0
    for (i, j), dij in d.items():
        total += weights[(i, j)] * (pair_distance(coords, i, j) - dij) ** 2
    return 0.5 * total


def stress_gradient(coords, d: dict, weights: dict):
    """Gradient of `stress`: (3 x n coordinate block, per-edge block keyed like d)."""
    gX = np.zeros_like(coords)
    gd = {}
    for (i, j), dij in d.items():
        diff = coords[:, i - 1] - coords[:, j - 1]
        r = float(np.sqrt((diff * diff).sum()))
        t = weights[(i, j)] * (r - dij)
        gX[:, i - 1] += t * diff / r
        gX[:, j - 1] -= t * diff / r
        gd[(i, j)] = -t
    return gX, gd


def _sub(a, b):
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _norm(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def frame_floats(x_im3, x_im2, x_im1) -> tuple:
    """The frame (e, n, m) at x_{i-1} as nine floats, from vector helpers
    that take `geometry.local_frame`'s operations in its order."""
    v = _sub(x_im1, x_im2)
    c = _cross(v, _sub(x_im3, x_im2))
    cn = _norm(c)
    if cn <= _COLLINEAR_TOL:
        raise DegenerateGeometryError("collinear predecessors")
    vn = _norm(v)
    e = [t / vn for t in v]
    n = [t / cn for t in c]
    return (*e, *n, *_cross(n, e))


def local_frame(x_im3, x_im2, x_im1):
    """Frame at x_{i-1} from numpy vector ops: columns chain direction,
    predecessor-plane normal, and their cross product."""
    v1 = x_im1 - x_im2
    v2 = x_im3 - x_im2
    c = np.cross(v1, v2)
    cn = np.linalg.norm(c)
    if cn <= _COLLINEAR_TOL:
        raise DegenerateGeometryError("collinear predecessors")
    u1 = v1 / np.linalg.norm(v1)
    u2 = c / cn
    u3 = np.cross(u2, u1)
    return np.column_stack((u1, u2, u3))


def place_atoms_batch(x_im3, x_im2, x_im1, d: float, theta: float, taus):
    """Candidates of atom i (3 x len(taus)) with the trig of one atom's
    torsions taken per call: the local coordinates of each batch built from
    d, theta and np.sin/np.cos of its own torsions, placed as one block."""
    taus = np.asarray(taus, dtype=float)
    s = d * math.sin(theta)
    local = np.empty((3, taus.size))
    local[0] = -d * math.cos(theta)
    np.multiply(s, np.sin(taus), out=local[1])
    np.multiply(s, np.cos(taus), out=local[2])
    return geometry.place_atoms_batch(geometry.local_frame(x_im3, x_im2, x_im1), x_im1, local)


def compiled_instance(inst: Instance) -> CompiledInstance:
    """`CompiledInstance.of` record by record: the edge keys sorted in Python,
    one conversion per edge field, d_{i-1,i} looked up per atom, the bond angle
    at each atom by the one-triangle law of cosines, the domain of each atom
    given none by `torsion_domain_from_distance`, one atom at a time, and one
    list per torsion-domain field."""
    edges = [inst.edges[k] for k in sorted(inst.edges)]
    ii, jj, lower, upper = zip(*edges) if edges else ((),) * 4
    ii, jj = np.array(ii, dtype=int) - 1, np.array(jj, dtype=int) - 1
    lower, upper = np.array(lower, dtype=float), np.array(upper, dtype=float)
    w = np.where(jj - ii <= 3, 2.0, 1.0)
    by_end = np.lexsort((ii, jj))
    back_ptr = np.concatenate(([0], np.cumsum(np.bincount(jj, minlength=inst.n))))
    d_prev = [math.nan] * 2 + [inst.edges[(i - 1, i)].lower for i in range(2, inst.n + 1)]
    theta = [math.nan] * 3 + [bond_angle_from_distances(
        d_prev[i - 1], d_prev[i], inst.edges[(i - 2, i)].lower) for i in range(3, inst.n + 1)]
    axial = np.array([-d_prev[i] * math.cos(theta[i]) for i in range(4, inst.n + 1)],
                     dtype=float)
    radial = np.array([d_prev[i] * math.sin(theta[i]) for i in range(4, inst.n + 1)],
                      dtype=float)
    d, t = np.array(d_prev), np.array(theta)
    law_a, law_b = torsion_law(d[2:-2], d[3:-1], t[3:-1], d[4:], t[4:])
    rows = inst.n * np.arange(3)[:, None]
    doms = [inst.torsion_domains.get(i) or torsion_domain_from_distance(
        a, b, inst.edges[(i - 3, i)])
        for i, a, b in zip(range(4, inst.n + 1), law_a.tolist(), law_b.tolist())]
    if inst.n <= _CA_SUBSET_THRESHOLD:
        rmsd_sel = np.arange(inst.n)
    else:
        rmsd_sel = np.array([a.index - 1 for a in inst.atoms if a.name == "CA"], dtype=int)
    return CompiledInstance(
        inst.n, ii, jj, ii + rows, jj + rows, lower, upper, w / w.sum(), back_ptr,
        ii[by_end], lower[by_end], upper[by_end], d, t, axial, radial, law_a, law_b,
        np.array([d.lo for d in doms], dtype=float),
        np.array([d.hi for d in doms], dtype=float),
        np.array([d.sym for d in doms], dtype=bool),
        rmsd_sel)


# Column-gather numpy versions of the stress model and the residuals: each
# recomputes diff/r from coords[:, ii] - coords[:, jj] and scatters the
# gradient one coordinate row at a time. The flat-index kernel must match
# them bit for bit.

def _diff_and_r(coords, ci):
    diff = coords[:, ci.ii] - coords[:, ci.jj]
    return diff, np.sqrt((diff * diff).sum(axis=0))


def residuals(coords, ci) -> np.ndarray:
    _, r = _diff_and_r(coords, ci)
    return np.maximum(0.0, np.maximum((ci.lower - r) / ci.lower,
                                      (r - ci.upper) / ci.upper))


def init_d(coords, ci) -> np.ndarray:
    _, r = _diff_and_r(coords, ci)
    return np.clip(r, ci.lower, ci.upper)


def project(z, ci) -> np.ndarray:
    out = z.copy()
    np.clip(out[3 * ci.n:], ci.lower, ci.upper, out=out[3 * ci.n:])
    return out


def objective(z, ci) -> float:
    coords, d = z[:3 * ci.n].reshape(3, ci.n), z[3 * ci.n:]
    _, r = _diff_and_r(coords, ci)
    return float(0.5 * np.sum(ci.w * (r - d) ** 2))


def gradient(z, ci) -> np.ndarray:
    coords, d = z[:3 * ci.n].reshape(3, ci.n), z[3 * ci.n:]
    diff, r = _diff_and_r(coords, ci)
    if np.any(r <= _SMOOTHNESS_TOL):  # coincident endpoints: no gradient
        return np.full(3 * ci.n + r.size, np.nan)
    t = ci.w * (r - d)
    unit = diff * (t / r)
    gX = np.zeros((3, ci.n))
    for row in range(3):
        gX[row] = (np.bincount(ci.ii, weights=unit[row], minlength=ci.n)
                   - np.bincount(ci.jj, weights=unit[row], minlength=ci.n))
    return np.concatenate([gX.ravel(), -t])


def sample_torsions(dom, rng, size) -> np.ndarray:
    """Draw `size` torsions uniformly over one domain, one 64-bit word w each:
    an interval by `rng.uniform`; otherwise lo + (hi - lo) * u with
    u = (w >> 11) * 2**-53 in Python floats, negated on a symmetric domain
    when w is odd, which picks each side with p = 1/2."""
    if not dom.sym and dom.lo != dom.hi:
        return rng.uniform(dom.lo, dom.hi, size)
    out = []
    for w in rng.bit_generator.random_raw(size).tolist():
        t = dom.lo + (dom.hi - dom.lo) * ((w >> 11) * 2.0**-53)
        out.append(-t if dom.sym and w % 2 else t)
    return np.array(out)


def torsion_domains(ci) -> dict:
    """Atom i -> its TorsionDomain, rebuilt from `ci.tors_lo/tors_hi/tors_sym`."""
    return {i: TorsionDomain(lo, hi, sym)
            for i, (lo, hi, sym) in enumerate(zip(ci.tors_lo.tolist(), ci.tors_hi.tolist(),
                                                  ci.tors_sym.tolist()), start=4)}


def sign_restricted_domain(dom: TorsionDomain, tau: float) -> TorsionDomain:
    """The half of a sign-symmetric domain on the same side of zero as tau,
    as one interval. Requires tau != 0 with `dom.contains(tau)`, so the half
    holds tau.
    """
    assert dom.sym
    if tau > 0.0:
        return TorsionDomain.single(dom.lo, dom.hi)
    return TorsionDomain.single(-dom.hi, -dom.lo)


# The sign-flip sweep as plain prefix-keeping regrowths: the construction
# samples each atom's torsions inside its placement loop, every attempt is
# regrown to atom n and scored, only atoms with a sign-symmetric domain are
# flipped, and a flip at i is skipped when an edge inside atoms 1..i-1
# already has the current LDE. `idgp.search.improve` must keep
# the same flips and leave the generator in the same state.

def greedy_construction(ci, n_tors, rng, prefix=None, domains=None):
    """Every one of the n_tors candidates of atom i is scored: its (i-3, i)
    violation by the torsion-distance law, from d^2 = law_a + law_b cos(tau)
    written as law_a + (law_b / s) (s cos(tau)) with s = d sin(theta), the
    placement's own cos term; its violations of the edges (j, i), j < i-3,
    measured on all k placed candidates; the largest clamped one. The first
    lowest score is kept, as its column of the k placed candidates."""
    if prefix is None:
        prefix = np.column_stack(geometry.place_first_three(ci.d_prev[2], ci.d_prev[3],
                                                            ci.theta[3]))
    if domains is None:
        domains = torsion_domains(ci)
    start = prefix.shape[1] + 1
    X = np.empty((3, ci.n))
    X[:, :start - 1] = prefix
    ptr, d_prev, theta = ci.back_ptr.tolist(), ci.d_prev.tolist(), ci.theta.tolist()
    tau = []
    for i in range(start, ci.n + 1):
        taus = sample_torsions(domains[i], rng, n_tors)
        cand = place_atoms_batch(X[:, i - 4], X[:, i - 3], X[:, i - 2], d_prev[i], theta[i],
                                 taus)
        s = d_prev[i] * math.sin(theta[i])
        r = np.sqrt(ci.law_a[i - 4] + ci.law_b[i - 4] / s * (s * np.cos(taus)))
        lower, upper = ci.back_lower[ptr[i] - 3], ci.back_upper[ptr[i] - 3]
        score = np.maximum(0.0, np.maximum((lower - r) / lower, (r - upper) / upper))
        for e in range(ptr[i - 1], ptr[i] - 3):  # the edges (j, i), j < i - 3
            lower, upper = ci.back_lower[e], ci.back_upper[e]
            d = cand - X[:, ci.back_col[e], None]
            d *= d
            r = np.sqrt(d[0] + d[1] + d[2])
            score = np.maximum(score, np.maximum((lower - r) / lower, (r - upper) / upper))
        best = int(np.flatnonzero(score == score.min())[0])
        X[:, i - 1] = cand[:, best]
        tau.append(taus[best])
    return np.array(tau), X


# The reflection pass as a plain scan: every i in 4..n, in order, is tried
# when each edge at the current LDE has j < i - 3 and k >= i (the edges a
# reflection at i changes; outside that window rounding alone could lower the
# LDE by an ulp) and every atom k >= i has -tau[k] in its TorsionDomain; the
# first lowest LDE below the current one is kept, and the scan starts again.
# `idgp.search.improve` must keep the same reflections, then sweep only if it
# kept none.

def reflection_pass(X, tau, ci):
    """Returns the conformation, its torsions and whether a reflection was kept."""
    domains = torsion_domains(ci)
    kept = False
    while True:
        res = residuals(X, ci)
        lde = res.max()
        at = [(j + 1, k + 1) for j, k, r in zip(ci.ii.tolist(), ci.jj.tolist(), res.tolist())
              if r == lde]
        for i in range(4, ci.n + 1):
            if not all(j < i - 3 and k >= i for j, k in at):
                continue
            if not all(domains[k].contains(-tau[k - 4]) for k in range(i, ci.n + 1)):
                continue
            Y = geometry.reflect_tail(X, i)
            lde_y = metrics.lde_global(Y, ci)
            if lde_y < lde:
                lde, best = lde_y, (i, Y)
        if lde == res.max():
            return X, tau, kept
        i, Y = best
        X, kept = Y, True
        tau = np.where(np.arange(4, ci.n + 1) >= i, -tau, tau)


def improve(X, tau, ci, n_tors, rng):
    X, tau, kept = reflection_pass(X, tau, ci)
    if kept:
        return X, tau
    current_lde = metrics.lde_global(X, ci)
    domains = torsion_domains(ci)
    for i in range(4, ci.n + 1):
        t_i = tau[i - 4]
        dom = domains[i]
        if t_i == 0.0 or not dom.sym:
            continue
        if residuals(X, ci)[ci.jj < i - 1].max() == current_lde:
            continue
        trial_domains = dict(domains)
        trial_domains[i] = sign_restricted_domain(dom, -t_i)
        placed, X_trial = greedy_construction(ci, n_tors, rng, X[:, :i - 1], trial_domains)
        lde_trial = metrics.lde_global(X_trial, ci)
        if lde_trial < current_lde:
            X, current_lde = X_trial, lde_trial
            tau = np.concatenate((tau[:i - 4], placed))
    return X, tau


def improve_rounds(X, tau, ci, n_tors, rng, eps, rounds):
    """`rounds` rounds of improvement as chained one-round calls, each of
    which scans for reflections again."""
    for _ in range(rounds):
        X, tau = search.improve(X, tau, ci, n_tors, rng, eps=eps)
    return X, tau


# The instance-file parser as it checked each record on its own line: an
# error is raised at the first line that breaks a record rule; then come the
# torsion range, the whole-instance rules and the derivations. It names an
# atom no E record gives ("X", 0). It reads the file as UTF-8, as the parser
# under test does; files that are not UTF-8 are outside its range.

def _parse_domain(lo_deg, hi_deg, sign) -> TorsionDomain:
    lo, hi = math.radians(lo_deg), math.radians(hi_deg)
    if sign == "+":
        return TorsionDomain.single(lo, hi)
    if sign == "-":
        return TorsionDomain.single(-hi, -lo)
    if sign in ("+-", "±"):
        return TorsionDomain.symmetric(lo, hi)
    raise ValueError(f"unknown sign '{sign}'")


def bond_angle_from_distances(d_ab: float, d_bc: float, d_ac: float) -> float:
    """Angle at vertex b of the triangle with the given side lengths."""
    if d_ab <= 0 or d_bc <= 0 or d_ac <= 0:
        raise DegenerateGeometryError("nonpositive side length")
    c = (d_ab * d_ab + d_bc * d_bc - d_ac * d_ac) / (2.0 * d_ab * d_bc)
    if abs(c) > 1.0 + _COS_DEGENERACY_TOL:
        raise DegenerateGeometryError(f"no triangle with sides {d_ab}, {d_bc}, {d_ac}")
    c = min(1.0, max(-1.0, c))
    if abs(c) == 1.0:
        raise DegenerateGeometryError("collinear triple")
    return math.acos(c)


def edge_problem(e: EdgeConstraint):
    """The rule one edge record breaks, or None: 1 <= i < j, finite bounds with
    0 < lower <= upper, and exact when j - i <= 2, as the discretization needs."""
    if not 1 <= e.i < e.j:
        return f"edge ({e.i},{e.j}): indices must satisfy 1 <= i < j"
    if not (math.isfinite(e.lower) and math.isfinite(e.upper)):
        return f"edge ({e.i},{e.j}): bounds {e.lower}, {e.upper} not finite"
    if not 0 < e.lower <= e.upper:
        return f"edge ({e.i},{e.j}): bounds {e.lower}, {e.upper} must satisfy 0 < lower <= upper"
    if e.j - e.i <= 2 and e.lower != e.upper:
        return f"edge ({e.i},{e.j}): distance across at most two bonds must be exact"
    return None


def structure_problems(inst: Instance) -> list:
    """Every violated whole-instance rule: n >= 3 atoms, numbered 1..n in
    order, every edge (i, j) with j <= n, and an edge (j, i) for every atom
    i >= 2 and every max(1, i - 3) <= j < i."""
    n = inst.n
    out = []
    if n < 3:
        out.append(f"{n} atoms: the discretization needs at least 3")
    for k, atom in enumerate(inst.atoms, start=1):
        if atom.index != k:
            out.append(f"atom index {atom.index} at position {k}: "
                       "indices must be contiguous 1..n")
    for e in inst.edges.values():
        if e.j > n:
            out.append(f"edge ({e.i},{e.j}): atom {e.j} beyond n = {n}")
    out += [f"missing required edge ({j},{i})" for i in range(2, n + 1)
            for j in range(max(1, i - 3), i) if (j, i) not in inst.edges]
    return out


def torsion_domain_from_distance(a, b, e: EdgeConstraint) -> TorsionDomain:
    """Invert the d_{i-3,i} interval of edge e into a sign-symmetric torsion
    domain of the law d^2 = a + b cos(tau)."""
    s_lo, s_up = e.lower * e.lower, e.upper * e.upper

    if abs(b) <= _COLLINEAR_TOL:
        # distance independent of tau; either everything or nothing is feasible
        if s_lo - _COS_CLAMP_TOL <= a <= s_up + _COS_CLAMP_TOL:
            return TorsionDomain.symmetric(0.0, math.pi)
        raise InfeasibleDiscretizationError(
            f"edge ({e.i},{e.j}) unreachable by any torsion")

    c1 = (s_lo - a) / b
    c2 = (s_up - a) / b
    c_lo, c_hi = min(c1, c2), max(c1, c2)
    if c_hi < -1.0 - _COS_CLAMP_TOL or c_lo > 1.0 + _COS_CLAMP_TOL:
        raise InfeasibleDiscretizationError(
            f"edge ({e.i},{e.j}) bounds [{e.lower},{e.upper}] outside the "
            f"reachable distance range")
    c_lo = min(1.0, max(-1.0, c_lo))
    c_hi = min(1.0, max(-1.0, c_hi))

    if e.lower == e.upper:
        t = math.acos(min(1.0, max(-1.0, (s_lo - a) / b)))
        return TorsionDomain.symmetric(t, t)
    return TorsionDomain.symmetric(math.acos(c_hi), math.acos(c_lo))


def _complete(inst: Instance, overrides: dict, path=None, edge_lines=None) -> Instance:
    violations = structure_problems(inst)
    if violations:
        raise ValidationError(violations)
    inst.torsion_domains.update(overrides)
    edges, angles = inst.edges, {}
    try:
        for i in range(3, inst.n + 1):
            pair = (i - 2, i)
            angles[i] = bond_angle_from_distances(
                edges[(i - 2, i - 1)].lower, edges[(i - 1, i)].lower, edges[pair].lower)
        for i in (i for i in range(4, inst.n + 1) if i not in overrides):
            pair = (i - 3, i)  # checked; the Instance stores only the given domains
            a, b = torsion_law(edges[(i - 3, i - 2)].lower, edges[(i - 2, i - 1)].lower,
                               angles[i - 1], edges[(i - 1, i)].lower, angles[i])
            torsion_domain_from_distance(a, b, edges[pair])
    except IdgpError as exc:
        if edge_lines is None:
            raise
        raise ParseError(path, edge_lines[pair], str(exc)) from exc
    return inst


def parse_instance(path) -> Instance:
    atoms, edges, edge_lines, overrides = {}, {}, {}, {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "E":
                    if len(tok) != 9:
                        raise ValueError("expected: E i j dL dU name_i res_i name_j res_j")
                    e = EdgeConstraint(int(tok[1]), int(tok[2]), float(tok[3]), float(tok[4]))
                    problem = edge_problem(e)
                    if problem:
                        raise ValueError(problem)
                    key = e.i, e.j
                    if key in edges:
                        raise ValueError(f"duplicate edge ({e.i},{e.j})")
                    edges[key] = e
                    edge_lines[key] = line_no
                    atoms.setdefault(e.i, (tok[5], int(tok[6])))  # name, residue
                    atoms.setdefault(e.j, (tok[7], int(tok[8])))
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
    n = max(atoms)
    for i, (line_no, _) in overrides.items():
        if not 4 <= i <= n:
            raise ParseError(path, line_no, f"torsion record for atom {i} outside 4..{n}")
    atom_list = [AtomRecord(k, *atoms.get(k, ("X", 0))) for k in range(1, n + 1)]
    return _complete(Instance(atom_list, edges), {i: dom for i, (_, dom) in overrides.items()},
                     path, edge_lines)
