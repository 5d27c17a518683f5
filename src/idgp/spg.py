"""Spectral Projected Gradient method with nonmonotone line search.

Minimizes a smooth function over a closed convex set given via its
projection operator. Used here on the stress objective, whose feasible
set is free coordinates times a per-edge distance box.
"""

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import IdgpError, NonsmoothPointError


class StationaryStartError(IdgpError):
    pass


class SpgStatus(Enum):
    SUCCESS_TOLERANCE = "SuccessTolerance"
    STALLED = "Stalled"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"
    TIME_LIMIT = "TimeLimit"
    SOLVE_CRITERION = "SolveCriterion"


# Line-search and spectral-step safeguards of Birgin, Martinez & Raydan
# (SIAM J. Optim. 10, 2000)
_GAMMA = 1e-4                       # sufficient-decrease constant
_MEMORY = 10                        # nonmonotone reference window
_LAMBDA_MIN, _LAMBDA_MAX = 1e-30, 1e30
_SIGMA1, _SIGMA2 = 0.1, 0.9         # interpolated step kept in [s1, s2] * alpha
# lack-of-progress thresholds sit at the double-precision noise floor
_STALL_REL_DECREASE = 1e-12
_STEP_ZERO_TOL = 1e-16


@dataclass
class SpgResult:
    z_final: np.ndarray
    f_final: float
    iterations: int
    status: SpgStatus
    f_history: list


def initial_spectral_step(z0, g0, project) -> float:
    """Reciprocal of the unit projected-gradient step length, safeguarded."""
    step = project(z0 - g0) - z0
    ninf = float(np.max(np.abs(step))) if step.size else 0.0
    if ninf == 0.0:
        raise StationaryStartError("projected gradient step is zero at the start")
    return min(_LAMBDA_MAX, max(_LAMBDA_MIN, 1.0 / ninf))


def spg_minimize(f, g, project, z0, *, max_iter: int = 30000, success_f: float = 1e-7,
                 stall_window: int = 100, deadline: float = math.inf,
                 done=None) -> SpgResult:
    """Run SPG from z0 (assumed feasible).

    Stops: f <= `success_f` (SUCCESS_TOLERANCE); `stall_window` steps in a
    row without relative progress, a zero step or a failed line search
    (STALLED); `max_iter` iterations (MAX_ITER). The first accepted iterate
    z with `done(z)` true ends the run as SOLVE_CRITERION and is returned as
    it is: under the nonmonotone line search the lowest-f iterate seen need
    not satisfy `done`. Every other stop returns the lowest-f iterate seen.
    A nonfinite f or g, or g at a nonsmooth point, ends it as
    NUMERICAL_FAILURE; an iteration that would start after `deadline` (a
    time.monotonic() value) ends it as TIME_LIMIT. No array passed to f, g
    or done is written into afterwards."""

    def grad(x):
        try:
            gx = g(x)
        except NonsmoothPointError:
            return None
        return gx if np.isfinite(gx).all() else None

    z = np.asarray(z0, dtype=float).copy()
    fz = f(z)
    if not math.isfinite(fz):
        return SpgResult(z, fz, 0, SpgStatus.NUMERICAL_FAILURE, [fz])

    best_z, best_f = z, fz
    history = deque([fz], maxlen=_MEMORY)
    if fz <= success_f:
        return SpgResult(best_z, best_f, 0, SpgStatus.SUCCESS_TOLERANCE, list(history))

    gz = grad(z)
    if gz is None:
        return SpgResult(best_z, best_f, 0, SpgStatus.NUMERICAL_FAILURE, list(history))
    try:
        lam = initial_spectral_step(z, gz, project)
    except StationaryStartError:
        return SpgResult(best_z, best_f, 0, SpgStatus.STALLED, list(history))

    status = SpgStatus.MAX_ITER
    stall_count = 0
    k = 0
    while k < max_iter:
        if time.monotonic() > deadline:
            status = SpgStatus.TIME_LIMIT
            break
        k += 1
        direction = project(z - lam * gz) - z
        if np.maximum.reduce(np.abs(direction)) <= _STEP_ZERO_TOL:
            status = SpgStatus.STALLED
            break

        gd = float(np.dot(gz, direction))
        fmax = max(history)
        alpha = 1.0
        z_new = None
        while True:
            trial = z + alpha * direction
            f_trial = f(trial)
            if not math.isfinite(f_trial):
                return SpgResult(best_z, best_f, k, SpgStatus.NUMERICAL_FAILURE,
                                 list(history))
            if f_trial <= fmax + _GAMMA * alpha * gd:
                z_new, f_new = trial, f_trial
                break
            # safeguarded quadratic interpolation
            denom = f_trial - fz - alpha * gd
            if denom > 0.0:
                alpha_q = -0.5 * alpha * alpha * gd / denom
                alpha = min(_SIGMA2 * alpha, max(_SIGMA1 * alpha, alpha_q))
            else:
                alpha *= 0.5
            if alpha < 1e-20:
                z_new = None
                break
        if z_new is None:
            status = SpgStatus.STALLED
            break

        g_new = grad(z_new)
        if g_new is None:
            return SpgResult(best_z, best_f, k, SpgStatus.NUMERICAL_FAILURE,
                             list(history))
        s = z_new - z
        y = g_new - gz
        sy = float(np.dot(s, y))
        if sy <= 0.0:
            lam = _LAMBDA_MAX
        else:
            lam = min(_LAMBDA_MAX, max(_LAMBDA_MIN, float(np.dot(s, s)) / sy))

        decrease = fz - f_new
        if decrease <= _STALL_REL_DECREASE * max(1.0, abs(fz)):
            stall_count += 1
        else:
            stall_count = 0

        z, fz, gz = z_new, f_new, g_new
        history.append(fz)
        if fz < best_f:
            best_f, best_z = fz, z
        if fz <= success_f:
            status = SpgStatus.SUCCESS_TOLERANCE
            break
        if done is not None and done(z):
            return SpgResult(z, fz, k, SpgStatus.SOLVE_CRITERION, list(history))
        if stall_count >= stall_window:
            status = SpgStatus.STALLED
            break

    return SpgResult(best_z, best_f, k, status, list(history))
