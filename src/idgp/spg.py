"""Spectral Projected Gradient method with nonmonotone line search.

Minimizes a smooth function over a closed convex set given via its
projection operator. Used here on the stress objective, whose feasible
set is free coordinates times a per-edge distance box. The spectral step
alternates the two Barzilai-Borwein lengths, the long s's/s'y and the short
s'y/y'y (the ABB rule of Dai & Fletcher, Numer. Math. 100, 2005).
"""

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np


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
# lack of progress: a step lowering f by at most 1e-12 * max(1, |f|), so the test
# is absolute below f = 1 (about 1e-7 relative at the f ~ 1e-5 where stalled
# refinements end); a step below 1e-16 in every coordinate
_STALL_REL_DECREASE = 1e-12
_STEP_ZERO_TOL = 1e-16


@dataclass
class SpgResult:
    z_final: np.ndarray
    f_final: float
    iterations: int
    status: SpgStatus


def initial_spectral_step(z0, g0, project):
    """Reciprocal of the unit projected-gradient step length, safeguarded, or
    None where that step is zero (z0 is stationary)."""
    step = project(z0 - g0) - z0
    ninf = float(np.max(np.abs(step))) if step.size else 0.0
    return min(_LAMBDA_MAX, max(_LAMBDA_MIN, 1.0 / ninf)) if ninf else None


def spg_minimize(f, g, project, z0, *, max_iter: int = 30000, success_f: float = 1e-7,
                 stall_window: int = 100, deadline: float = math.inf,
                 done=None) -> SpgResult:
    """Run SPG from z0 (assumed feasible).

    Each iteration projects z - lam * g(z). After an accepted iterate k with
    s = z_k - z_{k-1}, y = g_k - g_{k-1} and s'y > 0, the next lam is
    BB1 = s's/s'y for odd k and BB2 = s'y/y'y for even k (Dai & Fletcher's
    alternating step), clamped to [1e-30, 1e30]; s'y <= 0, or y'y = 0, gives
    1e30.

    Stops: f <= `success_f` (SUCCESS_TOLERANCE); `stall_window` accepted
    steps in a row that each lower f by at most 1e-12 * max(1, |f|), a zero
    step (at z0: `initial_spectral_step` gives None; 0 iterations) or a
    failed line search (STALLED); `max_iter` iterations (MAX_ITER). The
    first accepted iterate z with `done(z)` true ends the run as
    SOLVE_CRITERION and is returned as it is: under the nonmonotone line
    search the lowest-f iterate seen need not satisfy `done`. Every other
    stop returns the lowest-f iterate seen. A nonfinite f or g ends it as
    NUMERICAL_FAILURE, so a g undefined at z should return NaN there. An
    iteration that would start after `deadline` (a time.monotonic() value)
    ends it as TIME_LIMIT. No array passed to f, g or done is written into
    afterwards."""

    def grad(x):
        gx = g(x)
        return gx if np.isfinite(gx).all() else None

    z = np.asarray(z0, dtype=float).copy()
    fz = f(z)
    if not math.isfinite(fz):
        return SpgResult(z, fz, 0, SpgStatus.NUMERICAL_FAILURE)

    best_z, best_f = z, fz
    history = deque([fz], maxlen=_MEMORY)
    if fz <= success_f:
        return SpgResult(best_z, best_f, 0, SpgStatus.SUCCESS_TOLERANCE)

    gz = grad(z)
    if gz is None:
        return SpgResult(best_z, best_f, 0, SpgStatus.NUMERICAL_FAILURE)
    lam = initial_spectral_step(z, gz, project)
    if lam is None:
        return SpgResult(best_z, best_f, 0, SpgStatus.STALLED)

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
            # 1.0 * x == x, so the full step skips the multiply
            trial = z + direction if alpha == 1.0 else z + alpha * direction
            f_trial = f(trial)
            if not math.isfinite(f_trial):
                return SpgResult(best_z, best_f, k, SpgStatus.NUMERICAL_FAILURE)
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
            return SpgResult(best_z, best_f, k, SpgStatus.NUMERICAL_FAILURE)
        s = z_new - z
        y = g_new - gz
        sy = float(np.dot(s, y))
        # BB1 after an odd k, BB2 after an even one; y'y can underflow to 0 while s'y > 0
        num, den = (float(np.dot(s, s)), sy) if k % 2 else (sy, float(np.dot(y, y)))
        if sy <= 0.0 or den == 0.0:
            lam = _LAMBDA_MAX
        else:
            lam = min(_LAMBDA_MAX, max(_LAMBDA_MIN, num / den))

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
            return SpgResult(z, fz, k, SpgStatus.SOLVE_CRITERION)
        if stall_count >= stall_window:
            status = SpgStatus.STALLED
            break

    return SpgResult(best_z, best_f, k, status)
