"""Spectral Projected Gradient method with nonmonotone line search.

Minimizes a smooth function over a closed convex set given via its
projection operator. Used here on the stress objective, whose feasible
set is free coordinates times a per-edge distance box.
"""

import math
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


@dataclass(frozen=True)
class SpgParams:
    gamma: float = 1e-4
    memory: int = 10
    lambda_min: float = 1e-30
    lambda_max: float = 1e30
    sigma1: float = 0.1
    sigma2: float = 0.9
    max_iter: int = 30000
    success_f: float = 1e-7
    stall_window: int = 100
    # lack-of-progress thresholds sit at the double-precision noise floor
    stall_rel_decrease: float = 1e-12
    step_zero_tol: float = 1e-16

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 < self.sigma1 < self.sigma2 < 1.0):
            raise ValueError("need 0 < sigma1 < sigma2 < 1")
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise ValueError("need 0 < lambda_min <= lambda_max")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")


@dataclass
class SpgResult:
    z_final: np.ndarray
    f_final: float
    iterations: int
    status: SpgStatus
    f_history: list


def initial_spectral_step(z0, g0, project, params: SpgParams = SpgParams()) -> float:
    """Reciprocal of the unit projected-gradient step length, safeguarded."""
    step = project(z0 - g0) - z0
    ninf = float(np.max(np.abs(step))) if step.size else 0.0
    if ninf == 0.0:
        raise StationaryStartError("projected gradient step is zero at the start")
    return min(params.lambda_max, max(params.lambda_min, 1.0 / ninf))


def spg_minimize(f, g, project, z0, params: SpgParams = SpgParams()) -> SpgResult:
    """Run SPG from z0 (assumed feasible); returns the best iterate seen.
    A nonfinite f or g, or g at a nonsmooth point, ends it as NUMERICAL_FAILURE."""

    def grad(x):
        try:
            gx = g(x)
        except NonsmoothPointError:
            return None
        return gx if np.all(np.isfinite(gx)) else None

    z = np.asarray(z0, dtype=float).copy()
    fz = f(z)
    if not math.isfinite(fz):
        return SpgResult(z, fz, 0, SpgStatus.NUMERICAL_FAILURE, [fz])

    best_z, best_f = z.copy(), fz
    history = deque([fz], maxlen=params.memory)
    if fz <= params.success_f:
        return SpgResult(best_z, best_f, 0, SpgStatus.SUCCESS_TOLERANCE, list(history))

    gz = grad(z)
    if gz is None:
        return SpgResult(best_z, best_f, 0, SpgStatus.NUMERICAL_FAILURE, list(history))
    try:
        lam = initial_spectral_step(z, gz, project, params)
    except StationaryStartError:
        return SpgResult(best_z, best_f, 0, SpgStatus.STALLED, list(history))

    status = SpgStatus.MAX_ITER
    stall_count = 0
    k = 0
    while k < params.max_iter:
        k += 1
        direction = project(z - lam * gz) - z
        if float(np.max(np.abs(direction))) <= params.step_zero_tol:
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
            if f_trial <= fmax + params.gamma * alpha * gd:
                z_new, f_new = trial, f_trial
                break
            # safeguarded quadratic interpolation
            denom = f_trial - fz - alpha * gd
            if denom > 0.0:
                alpha_q = -0.5 * alpha * alpha * gd / denom
                alpha = min(params.sigma2 * alpha, max(params.sigma1 * alpha, alpha_q))
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
            lam = params.lambda_max
        else:
            lam = min(params.lambda_max,
                      max(params.lambda_min, float(np.dot(s, s)) / sy))

        decrease = fz - f_new
        if decrease <= params.stall_rel_decrease * max(1.0, abs(fz)):
            stall_count += 1
        else:
            stall_count = 0

        z, fz, gz = z_new, f_new, g_new
        history.append(fz)
        if fz < best_f:
            best_f, best_z = fz, z.copy()
        if fz <= params.success_f:
            status = SpgStatus.SUCCESS_TOLERANCE
            break
        if stall_count >= params.stall_window:
            status = SpgStatus.STALLED
            break

    return SpgResult(best_z, best_f, k, status, list(history))
