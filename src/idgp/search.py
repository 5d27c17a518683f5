"""Construction, sign-flip improvement and multistart refinement."""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, metrics
from .model import (
    CompiledInstance,
    Conformation,
    Instance,
    SelectionError,
    SolverParams,
    as_coords,
)
from .spg import spg_minimize

_STALL_TRIALS = 50  # consecutive duplicate candidates that end the search


def greedy_construction(ci: CompiledInstance, n_tors: int, rng, prefix=None,
                        domains=None, bound: float = math.inf):
    """Build a conformation atom by atom, keeping the sampled torsion with
    the smallest local inconsistency at each step.

    `prefix`, a 3 x (s - 1) array with s >= 4, keeps atoms 1..s-1 as given
    and builds atoms s..n; by default s = 4 and atoms 1-3 are fixed by
    `geometry.place_first_three`. `domains` is (lo, hi, symmetric) for atoms
    s..n, arrays laid out like `ci.tors_lo[s - 4:]`, `ci.tors_hi[s - 4:]`
    and `ci.tors_sym[s - 4:]`, which are the default. The torsions of atoms
    s..n are drawn and turned into local coordinates first, one call each, so
    the generator ends in the same state however far the construction gets.
    Returns (torsion assignment dict of atoms s..n, Conformation), or (the
    torsions placed so far, None) as soon as a chosen candidate violates one
    of its edges by at least `bound`: the finished conformation's LDE could
    not be below it.
    """
    if prefix is None:
        prefix = np.column_stack(geometry.place_first_three(ci.d_prev[2], ci.d_prev[3],
                                                            ci.theta[3]))
    start = prefix.shape[1] + 1
    if domains is None:
        domains = ci.tors_lo[start - 4:], ci.tors_hi[start - 4:], ci.tors_sym[start - 4:]
    draws = geometry.sample_torsions(*domains, rng, n_tors)
    table = geometry._local_table(ci.axial[start:], ci.radial[start:], draws)
    X = np.empty((3, ci.n))
    X[:, :start - 1] = prefix
    ptr = ci.back_ptr.tolist()
    back_lower, back_upper = ci.back_lower[:, None], ci.back_upper[:, None]
    tau = {}
    for i, (taus, local) in enumerate(zip(draws, table), start=start):
        rows = slice(ptr[i - 1], ptr[i])
        lower, upper = back_lower[rows], back_upper[rows]
        cand = geometry.place_atoms_batch(X[:, i - 4], X[:, i - 3], X[:, i - 2], local)
        # r = ||cand - x_j||, summed in np.linalg.norm(axis=0)'s order; the
        # operations of metrics.lde_global (its edge vector is negated, which
        # squaring undoes exactly), so worst[best] is a lower bound on the LDE
        d = cand[:, None, :] - X.take(ci.back_col[rows], axis=1)[:, :, None]
        d *= d
        r = np.sqrt(d[0] + d[1] + d[2])
        delta = (lower - r) / lower
        np.maximum(delta, (r - upper) / upper, out=delta)
        # the clamp at 0 ties all satisfied candidates; argmin keeps the first
        worst = np.maximum.reduce(delta, axis=0)
        best = np.maximum(worst, 0.0, out=worst).argmin()
        X[:, i - 1] = cand[:, best]
        tau[i] = taus.item(best)
        if worst[best] >= bound:
            return tau, None
    return tau, Conformation(X)


def _last_useful_flip(res, lde: float, ci: CompiledInstance) -> int:
    """The smallest larger end (1-based) of the edges whose violation in the
    residuals `res` is `lde`: a flip at any later atom keeps such an edge as
    it is, so it cannot lower the LDE."""
    return int(ci.jj[res == lde].min()) + 1


def improve(X, tau: dict, ci: CompiledInstance, n_tors: int, rng,
            deadline: float = math.inf):
    """A pass of partial reflections, then, if it kept none, one sweep of
    sign flips. A reflection or flip is kept only if the global LDE strictly
    decreases, so neither raises the LDE. Nothing is tried after `deadline`
    (a time.monotonic() value).

    A reflection at atom i mirrors atoms i..n through the plane of atoms
    i-3, i-2, i-1 (`geometry.reflect_tail`) and negates tau[k] for k >= i;
    it draws no random numbers. It changes only the edges (j, k) with
    j < i-3 and k >= i, so it is tried only for i in the window
    max(j) + 3 < i <= min(k) over the edges whose violation is the current
    LDE, and only if every atom k >= i has -tau[k] in its domain
    (`ci.tors_sym` or `ci.tors_lo <= -tau[k] <= ci.tors_hi`). Each scan of
    the window keeps the reflection that lowers the LDE most (the smallest
    such i on a tie), and the pass scans the new window, until a scan keeps
    none.

    A flip at atom i keeps atoms 1..i-1 and their torsions, draws torsions
    for atoms i..n only, with atom i's sign forced, and regrows i..n
    greedily. It stops once a placed atom violates some edge by the current
    LDE; a stopped attempt is rejected. Atom i's forced side is the part of
    its domain on the other side of zero from tau[i], one interval; a flip is
    tried only if that part holds -tau[i] != 0. No flip is tried past J, the
    smallest larger end of the edges whose violation is the current LDE: it
    would keep such an edge as it is, so it could not be kept. J is found
    again after each kept flip."""
    res = metrics._residuals(X, ci)
    current_lde = float(res.max())
    reflected = False
    while current_lde > 0.0:
        at = res == current_lde
        neg = -np.fromiter((tau[k] for k in range(4, ci.n + 1)), float, ci.n - 3)
        bad = np.flatnonzero(~(ci.tors_sym | (ci.tors_lo <= neg) & (neg <= ci.tors_hi)))
        # past the last atom that may not flip, every later atom may
        first = max(int(ci.ii[at].max()) + 5, int(bad[-1]) + 5 if bad.size else 4)
        best = None  # (LDE, i, coordinates, residuals) of the lowest LDE so far
        for i in range(first, int(ci.jj[at].min()) + 2):
            if time.monotonic() > deadline:
                break
            Y = geometry.reflect_tail(as_coords(X), i)
            res_y = metrics._residuals(Y, ci)
            lde_y = float(res_y.max())
            if lde_y < (current_lde if best is None else best[0]):
                best = lde_y, i, Y, res_y
        if best is None:
            break
        current_lde, i, Y, res = best
        X, reflected = Conformation(Y), True
        tau = {k: -t if k >= i else t for k, t in tau.items()}
    if reflected:
        return X, tau

    last = _last_useful_flip(res, current_lde, ci)
    for i in range(4, ci.n + 1):
        if i > last:
            break
        t = -tau[i]
        lo, hi = ci.tors_lo[i - 4], ci.tors_hi[i - 4]
        if ci.tors_sym[i - 4] and t < 0.0:
            lo, hi = -hi, -lo  # the negative half of a sign-symmetric union
        if t == 0.0 or not lo <= t <= hi:
            continue
        if time.monotonic() > deadline:
            break
        tail = slice(i - 4, None)
        lo_tail, hi_tail, sym_tail = (ci.tors_lo[tail].copy(), ci.tors_hi[tail].copy(),
                                      ci.tors_sym[tail].copy())
        lo_tail[0], hi_tail[0] = (max(lo, 0.0), hi) if t > 0.0 else (lo, min(hi, 0.0))
        sym_tail[0] = False
        placed, X_trial = greedy_construction(ci, n_tors, rng, as_coords(X)[:, :i - 1],
                                              (lo_tail, hi_tail, sym_tail),
                                              bound=current_lde)
        if X_trial is None:
            continue
        lde_trial = metrics.lde_global(X_trial, ci)
        if lde_trial < current_lde:
            X, current_lde = X_trial, lde_trial
            tau = {**{k: tau[k] for k in range(4, i)}, **placed}
            last = _last_useful_flip(metrics._residuals(X, ci), current_lde, ci)
    return X, tau


def kabsch_rmsd(X, Y, ci: CompiledInstance) -> float:
    """RMSD after optimal proper-rotation superposition (Kabsch).

    Uses all atoms for n <= 200, otherwise the CA subset (`ci.rmsd_sel`).
    """
    sel = ci.rmsd_sel
    if sel.size == 0:
        raise SelectionError("no CA-named atoms for large-instance RMSD subset")
    A = as_coords(X)[:, sel]
    B = as_coords(Y)[:, sel]
    A = A - A.mean(axis=1, keepdims=True)
    B = B - B.mean(axis=1, keepdims=True)
    H = A @ B.T
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return float(np.linalg.norm(B - R @ A) / math.sqrt(sel.size))


class PoolEntry(NamedTuple):
    conformation: Conformation
    mde: float
    lde: float


@dataclass
class MultistartReport:
    status: str                 # Solved | BestEffort | TimeLimit
    conformation: Conformation
    lde: float
    mde: float
    trials: int
    pool_size: int
    pool: list                  # PoolEntry records
    wall_time: float
    seed: int


def multistart_solve(inst: Instance, params: SolverParams) -> MultistartReport:
    """Multistart greedy construction + improvement, RMSD de-duplication and
    SPG refinement of the stress model; early return on LDE/MDE tolerance."""
    start = time.monotonic()
    deadline = start + params.time_limit
    ci = CompiledInstance.of(inst)
    problem = metrics.StressProblem(ci)
    streams = np.random.SeedSequence(params.rng_seed).spawn(params.n_trial)

    pool = []
    stall = 0
    trials = 0

    def report(entry, st):
        return MultistartReport(st, entry.conformation, entry.lde, entry.mde, trials,
                                len(pool), list(pool), time.monotonic() - start,
                                params.rng_seed)

    for c in range(params.n_trial):
        if trials and time.monotonic() > deadline:
            break
        trials += 1
        rng = np.random.default_rng(streams[c])

        tau, conf = greedy_construction(ci, params.n_tors, rng)
        for _ in range(params.n_impr):
            conf, tau = improve(conf, tau, ci, params.n_tors, rng, deadline)
        # the constructed candidate is refined only if distinct from the
        # pool, and checked again after: SPG can pull it onto a pooled one
        for refine in (False, True):
            if refine:
                z0 = problem.pack(conf.coords, problem.init_d(conf.coords))
                result = spg_minimize(
                    problem.objective, problem.gradient, problem.project, z0,
                    max_iter=params.spg_max_iter, success_f=params.spg_stress_success,
                    stall_window=params.spg_stall_window, deadline=deadline,
                    done=lambda z: problem.solved(z, params.eps_mde, params.eps_lde))
                coords, _ = problem.unpack(result.z_final)
                conf = Conformation(coords.copy())
            entry = PoolEntry(conf, metrics.mde_global(conf, ci),
                              metrics.lde_global(conf, ci))
            if entry.mde <= params.eps_mde or entry.lde <= params.eps_lde:
                return report(entry, "Solved")
            if any(kabsch_rmsd(conf, p.conformation, ci) <= params.eps_similar
                   for p in pool):
                stall += 1
                break
        else:  # no break: the refined candidate is distinct from the pool
            pool.append(entry)
            stall = 0
        if stall >= _STALL_TRIALS or len(pool) > params.n_conf:
            break

    # the first trial always runs and pools an unsolved candidate; every
    # candidate that met the criterion returned above; past the deadline, it
    # cut the trial loop, an improvement sweep or an SPG run, or the step
    # under way when it passed ran over it
    return report(min(pool, key=lambda p: p.mde),
                  "TimeLimit" if time.monotonic() > deadline else "BestEffort")
