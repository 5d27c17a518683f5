"""Domain types for interval distance geometry instances.

All angles are radians internally; degrees appear only in files.
All distances are in Angstrom.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_COS_DEGENERACY_TOL = 1e-12
_CA_SUBSET_THRESHOLD = 200     # larger instances superpose CA atoms only


class IdgpError(Exception):
    """Base class for all solver errors."""


class InvalidBoundsError(IdgpError):
    pass


class DegenerateGeometryError(IdgpError):
    pass


class InfeasibleDiscretizationError(IdgpError):
    pass


class DuplicateEdgeError(IdgpError):
    pass


class NonsmoothPointError(IdgpError):
    pass


class SelectionError(IdgpError):
    pass


@dataclass(frozen=True)
class AtomRecord:
    """One atom in the sequential ordering (1-based index)."""

    index: int
    name: str
    residue: int


@dataclass(frozen=True)
class EdgeConstraint:
    """Distance bounds for an unordered atom pair, stored with i < j."""

    i: int
    j: int
    lower: float
    upper: float

    @property
    def is_discretization(self) -> bool:  # one to three apart in the DMDGP order
        return self.j - self.i in (1, 2, 3)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


class DomainKind(Enum):
    SINGLE = "single"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class TorsionDomain:
    """Admissible torsion angles: one interval, or a sign-symmetric union.

    SINGLE denotes [lo, hi] with -pi <= lo <= hi <= pi.
    SYMMETRIC denotes [-hi, -lo] u [lo, hi] with 0 <= lo <= hi <= pi.
    """

    kind: DomainKind
    lo: float
    hi: float

    def __post_init__(self):
        # NaN and infinite bounds fail this test too
        if not -math.pi <= self.lo <= self.hi <= math.pi:
            raise InvalidBoundsError(
                f"torsion domain [{self.lo}, {self.hi}] needs -pi <= lo <= hi <= pi")
        if self.kind is DomainKind.SYMMETRIC and self.lo < 0:
            raise InvalidBoundsError("symmetric union requires 0 <= lo")

    @staticmethod
    def single(lo: float, hi: float) -> "TorsionDomain":
        return TorsionDomain(DomainKind.SINGLE, lo, hi)

    @staticmethod
    def symmetric(lo: float, hi: float) -> "TorsionDomain":
        return TorsionDomain(DomainKind.SYMMETRIC, lo, hi)

    @staticmethod
    def point(tau: float) -> "TorsionDomain":
        return TorsionDomain(DomainKind.SINGLE, tau, tau)

    def contains(self, tau: float, tol: float = 0.0) -> bool:
        if self.kind is DomainKind.SINGLE:
            return self.lo - tol <= tau <= self.hi + tol
        return self.lo - tol <= abs(tau) <= self.hi + tol


@dataclass
class Conformation:
    """Candidate solution: 3 x n coordinate matrix (Angstrom)."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[0] != 3:
            raise InvalidBoundsError("conformation coordinates must be 3 x n")

    @property
    def n(self) -> int:
        return self.coords.shape[1]


def as_coords(X) -> np.ndarray:
    """Accept a Conformation or a raw 3 x n array."""
    return X.coords if isinstance(X, Conformation) else np.asarray(X, dtype=float)


@dataclass(frozen=True)
class SolverParams:
    """Tunables of the construction, improvement and refinement phases."""

    n_trial: int = 500
    n_conf: int = 50
    n_tors: int = 20
    n_impr: int = 3
    eps_mde: float = 1e-3
    eps_lde: float = 1e-2
    eps_similar: float = 5.0
    spg_max_iter: int = 30000
    spg_stress_success: float = 1e-7
    spg_stall_window: int = 100
    rng_seed: int = 0
    time_limit: float = math.inf

    def __post_init__(self):
        for name in ("n_trial", "n_conf", "n_tors", "spg_max_iter", "spg_stall_window"):
            if getattr(self, name) <= 0:
                raise InvalidBoundsError(f"{name} must be positive")
        if self.n_impr < 0:  # zero disables the improvement phase (ablation)
            raise InvalidBoundsError("n_impr must be nonnegative")
        if self.rng_seed < 0:  # np.random.SeedSequence takes no negative seed
            raise InvalidBoundsError("rng_seed must be nonnegative")
        # written as "not > 0" so that NaN fails too
        for name in ("eps_mde", "eps_lde", "eps_similar", "spg_stress_success"):
            if not getattr(self, name) > 0:
                raise InvalidBoundsError(f"{name} must be positive")
        if not self.time_limit >= 0:  # inf means no limit
            raise InvalidBoundsError("time_limit must be nonnegative")


@dataclass
class Instance:
    """Weighted interval graph over ordered atoms plus derived torsion data.

    `edges` holds one record per unordered pair, keyed by (i, j) with i < j.
    `bond_angles[i]` (i >= 3) is the angle at atom i-1 between atoms i-2 and i.
    `torsion_domains[i]` (i >= 4) constrains the torsion of quadruple
    (i-3, i-2, i-1, i).
    """

    atoms: list
    edges: dict
    torsion_domains: dict = field(default_factory=dict)
    bond_angles: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.atoms)

    def edge(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.edges.get((i, j))


@dataclass(frozen=True, eq=False)
class CompiledInstance:
    """Read-only array view of an Instance, built once per solve.

    Edges are sorted by (i, j) with 0-based ends `ii` < `jj`; `ii3`/`jj3`
    (3 x m) index the same ends in the row-major flattened 3 x n coordinates,
    `ii + n * row` for rows 0..2. `w` holds the stress weights (discretization
    edges doubled, sum 1). Row i of the back-edge CSR,
    `back_ptr[i - 1]:back_ptr[i]`, lists the edges (j, i) with j < i in
    ascending j: 0-based j in `back_col`, bounds in `back_lower`/`back_upper`.
    `d_prev[i]` is d_{i-1,i}, `theta[i]` the bond angle at atom i, and
    `axial[i]`/`radial[i]` are -d_prev[i] cos(theta[i])/d_prev[i] sin(theta[i])
    (1-based; nan where undefined). Entry i - 4 of `tors_lo`/`tors_hi`/
    `tors_sym` holds atom i's torsion domain (i >= 4) as
    `geometry.sample_torsions` takes it (nan bounds where undefined); it is
    the solver's only copy of the domains. `rmsd_sel` holds the 0-based atoms
    an RMSD compares: all of them for n <= 200, otherwise the CA-named ones
    (empty if there are none). Every field is an int or a read-only array.
    """

    n: int
    ii: np.ndarray
    jj: np.ndarray
    ii3: np.ndarray
    jj3: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    w: np.ndarray
    back_ptr: np.ndarray
    back_col: np.ndarray
    back_lower: np.ndarray
    back_upper: np.ndarray
    d_prev: np.ndarray
    theta: np.ndarray
    axial: np.ndarray
    radial: np.ndarray
    tors_lo: np.ndarray
    tors_hi: np.ndarray
    tors_sym: np.ndarray
    rmsd_sel: np.ndarray

    @classmethod
    def of(cls, inst: Instance) -> "CompiledInstance":
        edges = [inst.edges[k] for k in sorted(inst.edges)]
        ii = np.array([e.i - 1 for e in edges], dtype=int)
        jj = np.array([e.j - 1 for e in edges], dtype=int)
        lower = np.array([e.lower for e in edges], dtype=float)
        upper = np.array([e.upper for e in edges], dtype=float)
        w = np.array([2.0 if e.is_discretization else 1.0 for e in edges])
        by_end = np.lexsort((ii, jj))
        back_ptr = np.concatenate(([0], np.cumsum(np.bincount(jj, minlength=inst.n))))
        d_prev = [math.nan] * 2 + [inst.edge(i - 1, i).lower for i in range(2, inst.n + 1)]
        theta = [inst.bond_angles.get(i, math.nan) for i in range(inst.n + 1)]
        axial = [-d * math.cos(t) for d, t in zip(d_prev, theta)]
        radial = [d * math.sin(t) for d, t in zip(d_prev, theta)]
        rows = inst.n * np.arange(3)[:, None]
        doms = [inst.torsion_domains.get(i) for i in range(4, inst.n + 1)]
        if inst.n <= _CA_SUBSET_THRESHOLD:
            rmsd_sel = np.arange(inst.n)
        else:
            rmsd_sel = np.array([a.index - 1 for a in inst.atoms if a.name == "CA"],
                                dtype=int)
        view = cls(inst.n, ii, jj, ii + rows, jj + rows, lower, upper, w / w.sum(),
                   back_ptr, ii[by_end], lower[by_end], upper[by_end], np.array(d_prev),
                   np.array(theta), np.array(axial), np.array(radial),
                   np.array([d.lo if d else math.nan for d in doms], dtype=float),
                   np.array([d.hi if d else math.nan for d in doms], dtype=float),
                   np.array([d is not None and d.kind is DomainKind.SYMMETRIC
                             for d in doms], dtype=bool),
                   rmsd_sel)
        for value in vars(view).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return view


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
    if e.j - e.i <= 2 and not e.exact:
        return f"edge ({e.i},{e.j}): distance across at most two bonds must be exact"
    return None


def structure_problems(inst: Instance) -> list:
    """Every violated whole-instance rule: atoms numbered 1..n in order, each
    edge keyed by its own pair (i, j) with j <= n, and an edge (j, i) for
    every atom i >= 2 and every max(1, i - 3) <= j < i."""
    n = inst.n
    out = [f"atom index {atom.index} at position {k}: indices must be contiguous 1..n"
           for k, atom in enumerate(inst.atoms, start=1) if atom.index != k]
    for key, e in inst.edges.items():
        if key != (e.i, e.j):
            out.append(f"edge {key}: key does not match record pair ({e.i},{e.j})")
        elif e.j > n:
            out.append(f"edge ({e.i},{e.j}): atom {e.j} beyond n = {n}")
    out += [f"missing required edge ({j},{i})" for i in range(2, n + 1)
            for j in range(max(1, i - 3), i) if (j, i) not in inst.edges]
    return out


def validate_instance(inst: Instance) -> list:
    """Return every violated instance invariant; empty list means valid."""
    out = structure_problems(inst)
    out += filter(None, map(edge_problem, inst.edges.values()))
    for i in range(4, inst.n + 1):
        if i not in inst.torsion_domains:
            out.append(f"missing torsion domain for atom {i}")
    for i in range(3, inst.n + 1):
        theta = inst.bond_angles.get(i)
        if theta is None:
            out.append(f"missing bond angle for atom {i}")
        elif not (0.0 < theta < math.pi):
            out.append(f"bond angle at atom {i} outside (0, pi)")
    return out
