"""Feasibility metrics and the stress model over a CompiledInstance's edges."""

import numpy as np

from .model import CompiledInstance

_SMOOTHNESS_TOL = 1e-12


def _edge_lengths(flat: np.ndarray, ci: CompiledInstance):
    """Edge vectors x_i - x_j (3 x m) and their lengths, gathered from the
    row-major flattened 3 x n coordinates (or a z that starts with them)."""
    diff = flat.take(ci.ii3)
    diff -= flat.take(ci.jj3)
    sq = diff * diff
    return diff, np.sqrt(sq[0] + sq[1] + sq[2])


def _violations(r: np.ndarray, lower, upper) -> np.ndarray:
    """Normalized interval violation of edge lengths r; zero iff satisfied."""
    v = np.maximum((lower - r) / lower, (r - upper) / upper)
    return np.maximum(0.0, v, out=v)


def _residuals(X: np.ndarray, ci: CompiledInstance) -> np.ndarray:
    """Normalized interval violation per edge of the 3 x n coordinates X; zero
    iff the edge is satisfied."""
    _, r = _edge_lengths(X.ravel(), ci)
    return _violations(r, ci.lower, ci.upper)


def solved(res: np.ndarray, eps_mde: float, eps_lde: float) -> bool:
    """The solve criterion MDE <= eps_mde or LDE <= eps_lde on the residuals
    `res`, as `mde_global` and `lde_global` reduce them."""
    return bool(np.add.reduce(res) / res.size <= eps_mde
                or np.maximum.reduce(res) <= eps_lde)


def lde_global(X: np.ndarray, ci: CompiledInstance) -> float:
    return float(np.maximum.reduce(_residuals(X, ci)))


def mde_global(X: np.ndarray, ci: CompiledInstance) -> float:
    return float(np.add.reduce(_residuals(X, ci)) / ci.ii.size)


class StressProblem:
    """Weighted half sum of squared gaps between realized and auxiliary distances.

    Packs (X, d) into one flat vector z = [X.ravel(), d]; the feasible set
    is free on the coordinate block and a box on the distance block.

    The edge vectors, lengths r and gaps r - d of the last z seen are kept,
    keyed on the identity of the array, so `gradient(z)` right after
    `objective(z)` does not recompute them. Callers must therefore not write
    into an array after passing it to `objective` or `gradient`; SPG never
    does.
    """

    def __init__(self, ci: CompiledInstance):
        self.ci = ci
        self.n = ci.n
        self.m = ci.ii.size
        self.w, self.lower, self.upper = ci.w, ci.lower, ci.upper
        self._ii3, self._jj3 = ci.ii3.ravel(), ci.jj3.ravel()
        self._z = self._z_edges = None

    def pack(self, coords: np.ndarray, d: np.ndarray) -> np.ndarray:
        return np.concatenate([coords.ravel(), d])

    def unpack(self, z: np.ndarray):
        nc = 3 * self.n
        return z[:nc].reshape(3, self.n), z[nc:]

    def _edges(self, z: np.ndarray):
        """Edge vectors, lengths r and gaps r - d of z."""
        if z is not self._z:
            diff, r = _edge_lengths(z, self.ci)
            self._z, self._z_edges = z, (diff, r, r - z[3 * self.n:])
        return self._z_edges

    def init_d(self, coords: np.ndarray) -> np.ndarray:
        """Realized distances projected onto their intervals (per-edge optimal d)."""
        _, r = _edge_lengths(coords.ravel(), self.ci)
        return np.clip(r, self.lower, self.upper)

    def solved(self, z: np.ndarray, eps_mde: float, eps_lde: float) -> bool:
        """The solve criterion `solved` on z's coordinate block."""
        return solved(_violations(self._edges(z)[1], self.lower, self.upper), eps_mde, eps_lde)

    def project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        d = out[3 * self.n:]  # np.clip's max then min, without its wrapper
        np.minimum(np.maximum(d, self.lower, out=d), self.upper, out=d)
        return out

    def objective(self, z: np.ndarray) -> float:
        _, _, gap = self._edges(z)
        return float(0.5 * np.add.reduce(self.w * (gap * gap)))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """The gradient at z, or all NaN where an edge's endpoints coincide
        (r <= 1e-12), at which the stress is not differentiable."""
        diff, r, gap = self._edges(z)
        nc = 3 * self.n
        if r.size and np.minimum.reduce(r) <= _SMOOTHNESS_TOL:
            return np.full(nc + self.m, np.nan)
        t = self.w * gap
        unit = (diff * (t / r)).ravel()
        out = np.empty(nc + self.m)
        np.subtract(np.bincount(self._ii3, weights=unit, minlength=nc),
                    np.bincount(self._jj3, weights=unit, minlength=nc), out=out[:nc])
        np.negative(t, out=out[nc:])
        return out
