"""Reference implementations the optimized code is checked against: scalar
per-edge loops for the array code of `idgp.metrics` and
`idgp.model.CompiledInstance`, column gathers for the flat-index edge kernel
of `idgp.metrics`, and numpy vector ops for the scalar-float
`idgp.geometry.local_frame`."""

import numpy as np

from idgp.geometry import _COLLINEAR_TOL
from idgp.metrics import _SMOOTHNESS_TOL
from idgp.model import DegenerateGeometryError, NonsmoothPointError


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
    """Stress weights: equal, discretization edges doubled, sum normalized to 1."""
    raw = {key: 2.0 if e.is_discretization else 1.0 for key, e in inst.edges.items()}
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
