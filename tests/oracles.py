"""Reference implementations the optimized code is checked against: scalar
per-edge loops for the array code of `idgp.metrics` and
`idgp.model.CompiledInstance`, column gathers for the flat-index edge kernel
of `idgp.metrics` and np.clip for its projection, numpy vector ops for the
scalar-float `idgp.geometry.local_frame`, per-atom trig for the
local-coordinate table of `idgp.geometry.place_atoms_batch`, one numpy draw
call per domain for the single-call `idgp.geometry.sample_torsions`, and,
for `idgp.search.improve`, a reflection pass that tries every atom and tests
each domain on its own, then a prefix-keeping sign-flip sweep that regrows
every attempt to the last atom, with its sign restriction on
`TorsionDomain` objects."""

import math

import numpy as np

from idgp import geometry, metrics
from idgp.geometry import _COLLINEAR_TOL
from idgp.metrics import _SMOOTHNESS_TOL
from idgp.model import (
    Conformation,
    DegenerateGeometryError,
    DomainKind,
    NonsmoothPointError,
    TorsionDomain,
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
    d, theta and np.sin/np.cos of its own torsions."""
    U = geometry.local_frame(x_im3, x_im2, x_im1)
    taus = np.asarray(taus, dtype=float)
    s = d * math.sin(theta)
    local = np.empty((3, taus.size))
    local[0] = -d * math.cos(theta)
    np.multiply(s, np.sin(taus), out=local[1])
    np.multiply(s, np.cos(taus), out=local[2])
    return x_im1[:, None] + U @ local


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
    if np.any(r <= _SMOOTHNESS_TOL):
        raise NonsmoothPointError("coincident endpoints on an edge")
    t = ci.w * (r - d)
    unit = diff * (t / r)
    gX = np.zeros((3, ci.n))
    for row in range(3):
        gX[row] = (np.bincount(ci.ii, weights=unit[row], minlength=ci.n)
                   - np.bincount(ci.jj, weights=unit[row], minlength=ci.n))
    return np.concatenate([gX.ravel(), -t])


def sample_torsions(dom, rng, size) -> np.ndarray:
    """Draw `size` torsions uniformly over one domain with numpy's own
    integers/uniform calls."""
    if dom.kind is DomainKind.SINGLE:
        if dom.hi == dom.lo:
            return np.full(size, dom.lo)
        return rng.uniform(dom.lo, dom.hi, size)
    if dom.lo == 0.0 and dom.hi == 0.0:
        return np.zeros(size)
    # symmetric union: the two sides have equal length, pick each with p=1/2
    signs = 2.0 * rng.integers(0, 2, size) - 1.0
    if dom.hi == dom.lo:
        return signs * dom.lo
    return signs * rng.uniform(dom.lo, dom.hi, size)


def torsion_domains(ci) -> dict:
    """Atom i -> its TorsionDomain, rebuilt from `ci.tors_lo/tors_hi/tors_sym`."""
    return {i: TorsionDomain(DomainKind.SYMMETRIC if sym else DomainKind.SINGLE, lo, hi)
            for i, (lo, hi, sym) in enumerate(zip(ci.tors_lo.tolist(), ci.tors_hi.tolist(),
                                                  ci.tors_sym.tolist()), start=4)}


def sign_restricted_domain(dom: TorsionDomain, tau: float) -> TorsionDomain:
    """Portion of the domain on the same side of zero as tau, as one interval.

    Requires tau != 0 with `dom.contains(tau)`, so the portion holds tau.
    """
    if dom.kind is DomainKind.SYMMETRIC:
        if tau > 0.0:
            return TorsionDomain.single(dom.lo, dom.hi)
        return TorsionDomain.single(-dom.hi, -dom.lo)
    if tau > 0.0:
        return TorsionDomain.single(max(dom.lo, 0.0), dom.hi)
    return TorsionDomain.single(dom.lo, min(dom.hi, 0.0))


# The sign-flip sweep as plain prefix-keeping regrowths: the construction
# samples each atom's torsions inside its placement loop, every attempt is
# regrown to atom n and scored, and a flip at i is skipped when an edge inside
# atoms 1..i-1 already has the current LDE. `idgp.search.improve` must keep
# the same flips and leave the generator in the same state.

def greedy_construction(ci, n_tors, rng, prefix=None, domains=None):
    if prefix is None:
        prefix = np.column_stack(geometry.place_first_three(ci.d_prev[2], ci.d_prev[3],
                                                            ci.theta[3]))
    if domains is None:
        domains = torsion_domains(ci)
    start = prefix.shape[1] + 1
    X = np.empty((3, ci.n))
    X[:, :start - 1] = prefix
    ptr, d_prev, theta = ci.back_ptr.tolist(), ci.d_prev.tolist(), ci.theta.tolist()
    back_lower, back_upper = ci.back_lower[:, None], ci.back_upper[:, None]
    tau = {}
    for i in range(start, ci.n + 1):
        rows = slice(ptr[i - 1], ptr[i])
        lower, upper = back_lower[rows], back_upper[rows]
        taus = sample_torsions(domains[i], rng, n_tors)
        cand = place_atoms_batch(X[:, i - 4], X[:, i - 3], X[:, i - 2], d_prev[i], theta[i],
                                 taus)
        d = cand[:, None, :] - X.take(ci.back_col[rows], axis=1)[:, :, None]
        d *= d
        r = np.sqrt(d[0] + d[1] + d[2])
        delta = (lower - r) / lower
        np.maximum(delta, (r - upper) / upper, out=delta)
        worst = delta.max(axis=0)
        best = np.maximum(worst, 0.0, out=worst).argmin()
        X[:, i - 1] = cand[:, best]
        tau[i] = float(taus[best])
    return tau, Conformation(X)


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
        res = residuals(X.coords, ci)
        lde = res.max()
        at = [(j + 1, k + 1) for j, k, r in zip(ci.ii.tolist(), ci.jj.tolist(), res.tolist())
              if r == lde]
        for i in range(4, ci.n + 1):
            if not all(j < i - 3 and k >= i for j, k in at):
                continue
            if not all(domains[k].contains(-tau[k]) for k in range(i, ci.n + 1)):
                continue
            Y = geometry.reflect_tail(X.coords, i)
            lde_y = metrics.lde_global(Y, ci)
            if lde_y < lde:
                lde, best = lde_y, (i, Y)
        if lde == res.max():
            return X, tau, kept
        i, Y = best
        X, kept = Conformation(Y), True
        tau = {k: -t if k >= i else t for k, t in tau.items()}


def improve(X, tau, ci, n_tors, rng):
    X, tau, kept = reflection_pass(X, tau, ci)
    if kept:
        return X, tau
    current_lde = metrics.lde_global(X, ci)
    domains = torsion_domains(ci)
    for i in range(4, ci.n + 1):
        t_i = tau[i]
        dom = domains[i]
        if t_i == 0.0 or not dom.contains(-t_i):
            continue
        if residuals(X.coords, ci)[ci.jj < i - 1].max() == current_lde:
            continue
        trial_domains = dict(domains)
        trial_domains[i] = sign_restricted_domain(dom, -t_i)
        placed, X_trial = greedy_construction(ci, n_tors, rng, X.coords[:, :i - 1],
                                              trial_domains)
        lde_trial = metrics.lde_global(X_trial, ci)
        if lde_trial < current_lde:
            X, current_lde = X_trial, lde_trial
            tau = {**{k: tau[k] for k in range(4, i)}, **placed}
    return X, tau
