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
    DomainKind,
    Instance,
    SelectionError,
    SolverParams,
    TorsionDomain,
    as_coords,
)
from .spg import spg_minimize

_STALL_TRIALS = 50  # consecutive duplicate candidates that end the search


def greedy_construction(ci: CompiledInstance, n_tors: int, rng, domains=None):
    """Build a conformation atom by atom, keeping the sampled torsion with
    the smallest local inconsistency at each step.

    Returns (torsion assignment dict, Conformation).
    """
    if domains is None:
        domains = ci.torsion_domains
    X = np.empty((3, ci.n))
    X[:, 0], X[:, 1], X[:, 2] = geometry.place_first_three(ci.d_prev[2], ci.d_prev[3],
                                                           ci.theta[3])
    ptr, d_prev, theta = ci.back_ptr.tolist(), ci.d_prev.tolist(), ci.theta.tolist()
    back_lower, back_upper = ci.back_lower[:, None], ci.back_upper[:, None]
    tau = {}
    for i in range(4, ci.n + 1):
        rows = slice(ptr[i - 1], ptr[i])
        lower, upper = back_lower[rows], back_upper[rows]
        taus = geometry.sample_torsions(domains[i], rng, n_tors)
        cand = geometry.place_atoms_batch(X[:, i - 4], X[:, i - 3], X[:, i - 2],
                                          d_prev[i], theta[i], taus)
        # r = ||cand - x_j||, summed in np.linalg.norm(axis=0)'s order
        d = cand[:, None, :] - X.take(ci.back_col[rows], axis=1)[:, :, None]
        d *= d
        r = np.sqrt(d[0] + d[1] + d[2])
        delta = (lower - r) / lower
        np.maximum(delta, (r - upper) / upper, out=delta)
        # the clamp at 0 ties all satisfied candidates; argmin keeps the first
        worst = delta.max(axis=0)
        best = np.maximum(worst, 0.0, out=worst).argmin()
        X[:, i - 1] = cand[:, best]
        tau[i] = float(taus[best])
    return tau, Conformation(X)


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


def improve(X, tau: dict, ci: CompiledInstance, n_tors: int, rng,
            deadline: float = math.inf):
    """One sweep of sign flips; each flip is kept only if the global LDE
    strictly decreases. Never increases the LDE. No flip is tried after
    `deadline` (a time.monotonic() value)."""
    current_lde = metrics.lde_global(X, ci)
    for i in range(4, ci.n + 1):
        t_i = tau[i]
        dom = ci.torsion_domains[i]
        if t_i == 0.0 or not dom.contains(-t_i):
            continue
        if time.monotonic() > deadline:
            break
        trial_domains = dict(ci.torsion_domains)
        trial_domains[i] = sign_restricted_domain(dom, -t_i)
        tau_trial, X_trial = greedy_construction(ci, n_tors, rng, trial_domains)
        lde_trial = metrics.lde_global(X_trial, ci)
        if lde_trial < current_lde:
            X, tau, current_lde = X_trial, tau_trial, lde_trial
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
