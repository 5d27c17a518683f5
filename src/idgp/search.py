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
    ValidationError,
    structure_holds,
    structure_problems,
)
from .spg import spg_minimize

_STALL_TRIALS = 50  # consecutive duplicate candidates that end the search


def _back_worst(points, cand, rows: slice, ci: CompiledInstance):
    """Each of the 3 x k candidates' largest violation of the back edges `rows`
    to atoms of `points` (float triples), in the operations of
    `metrics.lde_global` (its edge vector is negated, which squaring undoes
    exactly)."""
    far = np.array([points[j] for j in ci.back_col[rows].tolist()])
    d = cand[:, None, :] - far.T[:, :, None]
    d *= d
    r = np.sqrt(d[0] + d[1] + d[2])
    violations = metrics._violations(r, ci.back_lower[rows, None], ci.back_upper[rows, None])
    return np.maximum.reduce(violations, axis=0)


def _worst(x, points, rows: slice, ci: CompiledInstance) -> float:
    """The largest violation, clamped at 0, of the back edges `rows` by the
    point x (three floats) to `points`, in Python floats; on finite values,
    `_back_worst`'s bits for that one candidate."""
    x0, x1, x2 = x
    worst = 0.0
    for j, lower, upper in zip(ci.back_col[rows].tolist(), ci.back_lower[rows].tolist(),
                               ci.back_upper[rows].tolist()):
        q0, q1, q2 = points[j]
        d0, d1, d2 = x0 - q0, x1 - q1, x2 - q2
        r = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        if not lower <= r <= upper:
            worst = max(worst, (lower - r) / lower if r < lower else (r - upper) / upper)
    return worst


def greedy_construction(ci: CompiledInstance, n_tors: int, rng, prefix=None,
                        first=None, bound: float = math.inf):
    """Build a conformation atom by atom, keeping the sampled torsion with
    the smallest local inconsistency at each step.

    `prefix`, a 3 x (s - 1) array with s >= 4 that realizes its exact edges,
    as every prefix the solver builds does, keeps atoms 1..s-1 as given and
    builds atoms s..n; by default s = 4 and atoms 1-3 are fixed by
    `geometry.place_first_three`. Atoms s..n draw from their domains in
    `ci.tors_lo`/`ci.tors_hi`/`ci.tors_sym`, except that `first` = (lo, hi),
    if given, makes atom s's domain the one interval [lo, hi]. The torsions
    of atoms s..n are drawn, n_tors words each, and turned into local
    coordinates first, one call each, so the generator ends in the same
    state however far the construction gets.

    A candidate for atom i scores its largest violation of the edge (i-3, i),
    by the torsion-distance law `ci.law_a`/`ci.law_b`, and of the edges
    (j, i), j < i-3, measured; (i-2, i) and (i-1, i) hold by construction.
    The first lowest score wins. The first lowest law score is placed alone,
    in floats, and kept if atom i has no edge (j, i), j < i-3, or if it
    scores 0 and violates no edge: every earlier draw then scores above 0.
    Otherwise all candidates are placed as one block, which rounds each
    column as the one alone. Placed atoms are kept as float triples only.
    Returns (tau, X), tau the torsions of atoms s..n as a float array, atom
    i at entry i - s, and X the coordinates as a float64 C-ordered 3 x n
    array, or (tau of the atoms placed so far, None) once a kept atom scores
    at least `bound` and violates an edge, as `metrics.lde_global` measures
    it, by at least `bound`: the finished conformation's LDE could not be
    below it.
    """
    if prefix is None:
        prefix = np.column_stack(geometry.place_first_three(ci.d_prev[2], ci.d_prev[3],
                                                            ci.theta[3]))
    start = prefix.shape[1] + 1
    rows = slice(start - 4, None)  # atoms s..n in the per-torsion arrays
    lo, hi, sym = ci.tors_lo[rows], ci.tors_hi[rows], ci.tors_sym[rows]
    if first is not None:
        lo, hi, sym = lo.copy(), hi.copy(), sym.copy()
        lo[0], hi[0] = first
        sym[0] = False
    draws = geometry.sample_torsions(lo, hi, sym, rng, n_tors)
    table = geometry._local_table(ci.axial[rows], ci.radial[rows], draws)
    # (i-3, i) violations of every candidate; table row 2 is radial cos(tau)
    slope = ci.law_b[rows] / ci.radial[rows]
    r3 = np.sqrt(ci.law_a[rows, None] + slope[:, None] * table[:, 2])
    at3 = ci.back_ptr[start:] - 3
    law = metrics._violations(r3, ci.back_lower[at3, None], ci.back_upper[at3, None])
    # draw 0 of each atom: its local coordinates, law score and torsion
    local0, law0, tau0 = table[:, :, 0].tolist(), law[:, 0].tolist(), draws[:, 0].tolist()
    points = prefix.T.tolist()  # the atoms placed so far, as float triples
    ptr = ci.back_ptr.tolist()
    tau = []
    for k, (taus, local, score) in enumerate(zip(draws, table, law)):
        i = start + k
        frame = geometry.local_frame(*points[i - 4:i - 1])
        far = slice(ptr[i - 1], ptr[i] - 3)  # the edges (j, i) with j < i - 3
        if law0[k] == 0.0:
            worst, t, lone = 0.0, tau0[k], local0[k]
        else:
            best = score.argmin()
            worst, t, lone = score.item(best), taus.item(best), local[:, best].tolist()
        x = geometry.place_local(frame, points[i - 2], lone)
        if far.start < far.stop and (worst != 0.0 or _worst(x, points, far, ci) > 0.0):
            cand = geometry.place_atoms_batch(frame, points[i - 2], local)
            score = np.maximum(_back_worst(points, cand, far, ci), score)
            best = score.argmin()
            worst, t, x = score.item(best), taus.item(best), cand[:, best].tolist()
        points.append(x)
        tau.append(t)
        # the score rounds unlike lde_global and leaves out (i-2, i), (i-1, i)
        if worst >= bound and _worst(x, points, slice(ptr[i - 1], ptr[i]), ci) >= bound:
            return np.array(tau, dtype=float), None
    # copied to C order: the stress kernels index the row-major flattening
    return np.array(tau, dtype=float), np.array(points).T.copy()


def _last_useful_flip(res, lde: float, ci: CompiledInstance) -> int:
    """The smallest larger end (1-based) of the edges whose violation in the
    residuals `res` is `lde`: a flip at any later atom keeps such an edge as
    it is, so it cannot lower the LDE."""
    return int(ci.jj[res == lde].min()) + 1


def improve(X, tau, ci: CompiledInstance, n_tors: int, rng,
            deadline: float = math.inf, eps=(-math.inf, -math.inf), rounds: int = 1):
    """`rounds` rounds of improvement, each a pass of partial reflections,
    then, if it kept none, one sweep of sign flips. A reflection or flip is
    kept only if the global LDE strictly decreases, so neither raises the
    LDE. Nothing is tried after `deadline` (a time.monotonic() value). X is
    a float64 C-ordered 3 x n array and `tau` holds the torsions of atoms
    4..n, laid out like `ci.tors_lo` (atom k at entry k-4). Returns the
    coordinates and their torsions: `X` and `tau` themselves if nothing was
    kept, else the last kept move's array as `geometry.reflect_tail` or
    `greedy_construction` made it. It returns as soon as the conformation
    meets the solve criterion `metrics.solved` with `eps` = (eps_mde,
    eps_lde): on entry, after a kept reflection or after a kept flip. The
    default criterion is never met.

    A round scans for reflections again only if the previous round's sweep
    kept a flip. Otherwise the pass would start where the last one ended: at
    a conformation its last scan left unchanged, at LDE 0, or past the
    deadline, and a scan draws no random numbers. So one call with
    `rounds=k` returns what k chained calls with `rounds=1` return, and
    leaves the generator in the same state.

    A reflection at atom i mirrors atoms i..n through the plane of atoms
    i-3, i-2, i-1 (`geometry.reflect_tail`) and negates the torsions tau_k,
    k >= i; it draws no random numbers. It changes only the edges (j, k)
    with j < i-3 and k >= i, so it is tried only for i in the window
    max(j) + 3 < i <= min(k) over the edges whose violation is the current
    LDE, and only if every atom k >= i has -tau_k in its domain
    (`ci.tors_sym` or `ci.tors_lo <= -tau_k <= ci.tors_hi`). Each scan of
    the window keeps the reflection that lowers the LDE most (the smallest
    such i on a tie), and the pass scans the new window, until a scan keeps
    none.

    A flip at atom i keeps atoms 1..i-1 and their torsions, draws torsions
    for atoms i..n only, with atom i's sign forced, and regrows i..n
    greedily. It stops once a placed atom violates some edge by the current
    LDE; a stopped attempt is rejected. A flip is tried only at an atom
    whose domain is sign-symmetric, [-hi, -lo] u [lo, hi], with tau_i != 0,
    and hands `greedy_construction` the half that holds -tau_i as `first`,
    (-hi, -lo) or (lo, hi); the later atoms keep their own domains. A single interval is not flipped:
    its draws already range over all of it, both signs included where it
    straddles zero. No flip is tried past J, the smallest larger end of the
    edges whose violation is the current LDE: it would keep such an edge as
    it is, so it could not be kept. J is found again after each kept flip."""
    res = metrics._residuals(X, ci)
    if metrics.solved(res, *eps):
        return X, tau
    current_lde = float(res.max())
    flippable = (np.flatnonzero(ci.tors_sym) + 4).tolist()
    rescan = True  # no reflection scan has seen this conformation yet
    for _ in range(rounds):
        reflected = False
        while rescan and current_lde > 0.0:
            at = res == current_lde
            neg = -tau
            bad = np.flatnonzero(~(ci.tors_sym | (ci.tors_lo <= neg) & (neg <= ci.tors_hi)))
            # past the last atom that may not flip, every later atom may
            first = max(int(ci.ii[at].max()) + 5, int(bad[-1]) + 5 if bad.size else 4)
            best = None  # (LDE, i, coordinates, residuals) of the lowest LDE so far
            for i in range(first, _last_useful_flip(res, current_lde, ci) + 1):
                if time.monotonic() > deadline:
                    break
                Y = geometry.reflect_tail(X, i)
                res_y = metrics._residuals(Y, ci)
                lde_y = float(res_y.max())
                if lde_y < (current_lde if best is None else best[0]):
                    best = lde_y, i, Y, res_y
            if best is None:
                break
            current_lde, i, Y, res = best
            X, reflected = Y, True
            tau = np.concatenate((tau[:i - 4], -tau[i - 4:]))
            if metrics.solved(res, *eps):
                return X, tau
        rescan = False
        if reflected:
            continue

        last = _last_useful_flip(res, current_lde, ci)
        for i in flippable:
            if i > last:
                break
            t = -tau.item(i - 4)
            if t == 0.0:
                continue
            if time.monotonic() > deadline:
                break
            lo, hi = ci.tors_lo.item(i - 4), ci.tors_hi.item(i - 4)
            half = (-hi, -lo) if t < 0.0 else (lo, hi)  # the half of the union holding t
            placed, X_trial = greedy_construction(ci, n_tors, rng, X[:, :i - 1], half,
                                                  bound=current_lde)
            if X_trial is None:
                continue
            lde_trial = metrics.lde_global(X_trial, ci)
            if lde_trial < current_lde:
                X, current_lde, rescan = X_trial, lde_trial, True
                tau = np.concatenate((tau[:i - 4], placed))
                res = metrics._residuals(X, ci)
                if metrics.solved(res, *eps):
                    return X, tau
                last = _last_useful_flip(res, current_lde, ci)
    return X, tau


def kabsch_rmsd(X, Y, ci: CompiledInstance) -> float:
    """RMSD after optimal proper-rotation superposition (Kabsch) of two
    3 x n coordinate arrays.

    Uses all atoms for n <= 200, otherwise the CA subset (`ci.rmsd_sel`).
    """
    sel = ci.rmsd_sel
    if sel.size == 0:
        raise SelectionError("no CA-named atoms for large-instance RMSD subset")
    A = X[:, sel]
    B = Y[:, sel]
    A = A - A.mean(axis=1, keepdims=True)
    B = B - B.mean(axis=1, keepdims=True)
    H = A @ B.T
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return float(np.linalg.norm(B - R @ A) / math.sqrt(sel.size))


class PoolEntry(NamedTuple):
    """A pooled candidate: its coordinates, a float64 C-ordered 3 x n
    array, and their MDE and LDE."""

    conformation: np.ndarray
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
    SPG refinement of the stress model; early return on LDE/MDE tolerance.
    A `structure_problems` rule broken is a ValidationError, raised before the
    compile derives the domains not given; the edge records' rules are the
    caller's (`io.build_instance` applies them)."""
    if not structure_holds(inst):
        raise ValidationError(structure_problems(inst))
    start = time.monotonic()
    deadline = start + params.time_limit
    ci = CompiledInstance.of(inst)
    problem = metrics.StressProblem(ci)
    root = np.random.SeedSequence(params.rng_seed)  # trial c takes its child c

    pool = []
    stall = 0
    trials = 0

    def report(entry, st):
        return MultistartReport(st, Conformation(entry.conformation), entry.lde, entry.mde,
                                trials, len(pool), list(pool), time.monotonic() - start,
                                params.rng_seed)

    for c in range(params.n_trial):
        if trials and time.monotonic() > deadline:
            break
        trials += 1
        rng = np.random.default_rng(root.spawn(1)[0])

        tau, conf = greedy_construction(ci, params.n_tors, rng)
        if params.n_impr:
            conf, tau = improve(conf, tau, ci, params.n_tors, rng, deadline,
                                (params.eps_mde, params.eps_lde), params.n_impr)
        # the constructed candidate is refined only if distinct from the
        # pool, and checked again after: SPG can pull it onto a pooled one
        for refine in (False, True):
            if refine:
                z0 = problem.pack(conf, problem.init_d(conf))
                result = spg_minimize(
                    problem.objective, problem.gradient, problem.project, z0,
                    max_iter=params.spg_max_iter, success_f=params.spg_stress_success,
                    stall_window=params.spg_stall_window, deadline=deadline,
                    done=lambda z: problem.solved(z, params.eps_mde, params.eps_lde))
                conf = problem.unpack(result.z_final)[0].copy()
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
        if stall >= _STALL_TRIALS or len(pool) >= params.n_conf:
            break

    # the first trial always runs and pools an unsolved candidate; every
    # candidate that met the criterion returned above; past the deadline, it
    # cut the trial loop, an improvement sweep or an SPG run, or the step
    # under way when it passed ran over it
    return report(min(pool, key=lambda p: p.mde),
                  "TimeLimit" if time.monotonic() > deadline else "BestEffort")
