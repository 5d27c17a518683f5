"""Domain types for interval distance geometry instances.

All angles are radians internally; degrees appear only in files.
All distances are in Angstrom.
"""

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

_COS_DEGENERACY_TOL = 1e-12
_CA_SUBSET_THRESHOLD = 200     # larger instances superpose CA atoms only
_NO_DOMAIN = (math.nan, math.nan, False)  # (lo, hi, sym) of an atom without one


class IdgpError(Exception):
    """Base class for all solver errors."""


class InvalidBoundsError(IdgpError):
    pass


class DegenerateGeometryError(IdgpError):
    pass


class InfeasibleDiscretizationError(IdgpError):
    pass


class SelectionError(IdgpError):
    pass


class AtomRecord(NamedTuple):
    """One atom in the sequential ordering (1-based index)."""

    index: int
    name: str
    residue: int


class EdgeConstraint(NamedTuple):
    """Distance bounds for an unordered atom pair, stored with i < j."""

    i: int
    j: int
    lower: float
    upper: float


@dataclass(frozen=True)
class TorsionDomain:
    """Admissible torsion angles, in the fields `CompiledInstance` holds them in:
    the interval [lo, hi] with -pi <= lo <= hi <= pi or, where `sym`, the
    sign-symmetric union [-hi, -lo] u [lo, hi] with 0 <= lo."""

    lo: float
    hi: float
    sym: bool

    def __post_init__(self):
        # NaN and infinite bounds fail this test too
        if not -math.pi <= self.lo <= self.hi <= math.pi:
            raise InvalidBoundsError(
                f"torsion domain [{self.lo}, {self.hi}] needs -pi <= lo <= hi <= pi")
        if self.sym and self.lo < 0:
            raise InvalidBoundsError("symmetric union requires 0 <= lo")

    @staticmethod
    def single(lo: float, hi: float) -> "TorsionDomain":
        return TorsionDomain(lo, hi, False)

    @staticmethod
    def symmetric(lo: float, hi: float) -> "TorsionDomain":
        return TorsionDomain(lo, hi, True)

    @staticmethod
    def point(tau: float) -> "TorsionDomain":
        return TorsionDomain(tau, tau, False)

    def contains(self, tau: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= (abs(tau) if self.sym else tau) <= self.hi + tol


@dataclass
class Conformation:
    """A solve's reported coordinates: a 3 x n matrix (Angstrom)."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[0] != 3:
            raise InvalidBoundsError("conformation coordinates must be 3 x n")


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


@dataclass(frozen=True, eq=False)
class CompiledInstance:
    """Read-only array view of an Instance, built once per solve.

    Edges are sorted by (i, j) with 0-based ends `ii` < `jj`; `ii3`/`jj3`
    (3 x m) index the same ends in the row-major flattened 3 x n coordinates,
    `ii + n * row` for rows 0..2. `w` holds the stress weights (discretization
    edges doubled, sum 1). Row i of the back-edge CSR,
    `back_ptr[i - 1]:back_ptr[i]`, lists the edges (j, i) with j < i in
    ascending j: 0-based j in `back_col`, bounds in `back_lower`/`back_upper`.
    `d_prev[i]` is d_{i-1,i} and `theta[i]` the bond angle at atom i (1-based;
    nan where undefined). Every per-torsion array holds atom i >= 4 at entry
    i - 4, length max(n - 3, 0): `axial`/`radial`, -d_prev[i] cos(theta[i])/
    d_prev[i] sin(theta[i]); `law_a`/`law_b`, `torsion_law` of atoms i-3..i,
    d_{i-3,i}^2 = law_a + law_b cos(tau_i) once they realize their exact
    edges; and `tors_lo`/`tors_hi`/`tors_sym`, atom i's torsion domain as
    `geometry.sample_torsions` takes it (nan bounds where undefined), the
    solver's only copy of the domains. The solver's torsion arrays share the
    layout. `rmsd_sel` holds the 0-based atoms an RMSD compares: all of them
    for n <= 200, otherwise the CA-named ones (empty if there are none).
    Every field is an int or a read-only array.
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
    law_a: np.ndarray
    law_b: np.ndarray
    tors_lo: np.ndarray
    tors_hi: np.ndarray
    tors_sym: np.ndarray
    rmsd_sel: np.ndarray

    @classmethod
    def of(cls, inst: Instance) -> "CompiledInstance":
        m = len(inst.edges)
        rec = np.fromiter(chain.from_iterable(inst.edges.values()), float, 4 * m)
        rec = rec.reshape(m, 4)
        ii, jj, lower, upper = rec[np.lexsort((rec[:, 1], rec[:, 0]))].T.copy()
        ii, jj = ii.astype(int) - 1, jj.astype(int) - 1
        w = np.where(jj - ii <= 3, 2.0, 1.0)  # discretization edges doubled
        by_end = np.lexsort((ii, jj))
        back_ptr = np.concatenate(([0], np.cumsum(np.bincount(jj, minlength=inst.n))))
        back_lower = lower[by_end]
        # the last back edge of atom i >= 2 is (i - 1, i)
        d = np.concatenate(([math.nan] * 2, back_lower[back_ptr[2:] - 1]))
        t = np.array([inst.bond_angles.get(i, math.nan) for i in range(inst.n + 1)])
        law_a, law_b = chain_torsion_law(d[2:], t[3:])
        # math, not np.cos/np.sin, which may round differently by an ulp
        pairs = list(zip(d[4:].tolist(), t[4:].tolist()))
        axial = np.array([-d_i * math.cos(t_i) for d_i, t_i in pairs], dtype=float)
        radial = np.array([d_i * math.sin(t_i) for d_i, t_i in pairs], dtype=float)
        rows = inst.n * np.arange(3)[:, None]
        doms = map(inst.torsion_domains.get, range(4, inst.n + 1))
        tors = np.fromiter(chain.from_iterable(
            (dom.lo, dom.hi, dom.sym) if dom else _NO_DOMAIN
            for dom in doms), float, 3 * max(inst.n - 3, 0))
        tors_lo, tors_hi, tors_sym = tors.reshape(-1, 3).T.copy()
        if inst.n <= _CA_SUBSET_THRESHOLD:
            rmsd_sel = np.arange(inst.n)
        else:
            rmsd_sel = np.array([a.index - 1 for a in inst.atoms if a.name == "CA"],
                                dtype=int)
        view = cls(inst.n, ii, jj, ii + rows, jj + rows, lower, upper, w / w.sum(),
                   back_ptr, ii[by_end], back_lower, upper[by_end], d, t, axial, radial,
                   law_a, law_b, tors_lo, tors_hi, tors_sym.astype(bool), rmsd_sel)
        for value in vars(view).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return view


def torsion_law(d1, d2, theta2, d3, theta3):
    """Coefficients (a, b) of the torsion-distance law d_{i-3,i}^2 = a + b cos(tau_i)
    of atoms i-3..i at bond lengths d1 = d_{i-3,i-2}, d2 = d_{i-2,i-1},
    d3 = d_{i-1,i} and bond angles theta2 at atom i-2 and theta3 at atom i-1
    (Lavor, Liberti, Maculan & Mucherino, Comput. Optim. Appl. 52, 2012).
    Takes floats or arrays of one shape."""
    # atoms i-3 and i about the axis x_{i-2} -> x_{i-1}: gap h along it, radii p, q
    h = d2 - d1 * np.cos(theta2) - d3 * np.cos(theta3)
    p, q = d1 * np.sin(theta2), d3 * np.sin(theta3)
    return h * h + p * p + q * q, -2.0 * p * q


def chain_torsion_law(one, angles):
    """`torsion_law` of atoms i-3..i for each atom i >= 4 of a chain of n atoms, from
    the bond lengths `one`, d_{i-1,i} for i = 2..n, and the bond angles `angles`,
    `Instance.bond_angles[i]` for i = 3..n. Entry i - 4 of a and b is atom i's."""
    one, angles = np.asarray(one, dtype=float), np.asarray(angles, dtype=float)
    return torsion_law(one[:-2], one[1:-1], angles[:-1], one[2:], angles[1:])


def bond_angle_from_distances(d_ab, d_bc, d_ac):
    """Angle at vertex b of the triangle with the given side lengths. Takes floats,
    or sequences of one length for a list of angles; the first triangle without an
    angle raises, with its position in them as the error's `index`."""
    a, b, c = (np.ravel(np.asarray(d, dtype=float)) for d in (d_ab, d_bc, d_ac))
    with np.errstate(all="ignore"):  # sides too small to square give NaN or inf
        cos = (a * a + b * b - c * c) / (2.0 * a * b)
    for k in np.flatnonzero(~((a > 0) & (b > 0) & (c > 0) & (np.abs(cos) < 1.0)))[:1].tolist():
        sides = a[k].item(), b[k].item(), c[k].item()
        if any(d <= 0 for d in sides):
            exc = DegenerateGeometryError("nonpositive side length")
        elif abs(cos[k]) > 1.0 + _COS_DEGENERACY_TOL:
            exc = DegenerateGeometryError("no triangle with sides {}, {}, {}".format(*sides))
        else:  # within the tolerance of +-1, or NaN
            exc = DegenerateGeometryError("collinear triple")
        exc.index = k
        raise exc
    angles = list(map(math.acos, cos.tolist()))
    return angles if np.ndim(d_ab) else angles[0]


def edge_problems(records) -> list:
    """(k, message) for each edge record k, in order, that breaks a rule: 1 <= i < j,
    finite bounds with 0 < lower <= upper, and exact when j - i <= 2, as the
    discretization needs. Each rule is one mask; a message names k's first rule."""
    ii, jj, lower, upper = zip(*records) if records else ((),) * 4
    try:
        i, j = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    except OverflowError:  # beyond int64: compare as Python ints
        i, j = np.array(ii, dtype=object), np.array(jj, dtype=object)
    lo, up = np.array(lower, dtype=float), np.array(upper, dtype=float)
    rules = (((i < 1) | (i >= j), "indices must satisfy 1 <= i < j"),
             (~(np.isfinite(lo) & np.isfinite(up)), "bounds {}, {} not finite"),
             (~((0 < lo) & (lo <= up)), "bounds {}, {} must satisfy 0 < lower <= upper"),
             ((j - i <= 2) & (lo != up), "distance across at most two bonds must be exact"))
    broken = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in rules]))
    return [(k, f"edge ({ii[k]},{jj[k]}): "
             + next(text for mask, text in rules if mask[k]).format(lower[k], upper[k]))
            for k in broken.tolist()]


def structure_problems(inst: Instance) -> list:
    """Every violated whole-instance rule: n >= 3 atoms (the discretization
    fixes atoms 1-3), numbered 1..n in order, every edge (i, j) with j <= n,
    and an edge (j, i) for every atom i >= 2 and every max(1, i - 3) <= j < i."""
    n = inst.n
    out = [f"{n} atoms: the discretization needs at least 3"] if n < 3 else []
    out += [f"atom index {atom.index} at position {k}: indices must be contiguous 1..n"
            for k, atom in enumerate(inst.atoms, start=1) if atom.index != k]
    out += [f"edge ({i},{j}): atom {j} beyond n = {n}" for i, j in inst.edges if j > n]
    out += [f"missing required edge ({j},{i})" for i in range(2, n + 1)
            for j in range(max(1, i - 3), i) if (j, i) not in inst.edges]
    return out
