"""Feasibility metrics and the stress model over a CompiledInstance's edges."""

import numpy as np

from .model import CompiledInstance, NonsmoothPointError, as_coords

_SMOOTHNESS_TOL = 1e-12


def _residuals(X, ci: CompiledInstance) -> np.ndarray:
    """Normalized interval violation per edge; zero iff the edge is satisfied."""
    coords = as_coords(X)
    diff = coords[:, ci.ii] - coords[:, ci.jj]
    r = np.sqrt((diff * diff).sum(axis=0))
    return np.maximum(0.0, np.maximum((ci.lower - r) / ci.lower,
                                      (r - ci.upper) / ci.upper))


def lde_global(X, ci: CompiledInstance) -> float:
    return float(_residuals(X, ci).max())


def mde_global(X, ci: CompiledInstance) -> float:
    return float(_residuals(X, ci).mean())


class StressProblem:
    """Weighted half sum of squared gaps between realized and auxiliary distances.

    Packs (X, d) into one flat vector z = [X.ravel(), d]; the feasible set
    is free on the coordinate block and a box on the distance block.
    """

    def __init__(self, ci: CompiledInstance):
        self.n = ci.n
        self.m = ci.ii.size
        self.ii, self.jj, self.w = ci.ii, ci.jj, ci.w
        self.lower, self.upper = ci.lower, ci.upper

    def pack(self, coords: np.ndarray, d: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(coords, dtype=float).ravel(), d])

    def unpack(self, z: np.ndarray):
        nc = 3 * self.n
        return z[:nc].reshape(3, self.n), z[nc:]

    def init_d(self, coords: np.ndarray) -> np.ndarray:
        """Realized distances projected onto their intervals (per-edge optimal d)."""
        diff = coords[:, self.ii] - coords[:, self.jj]
        r = np.sqrt((diff * diff).sum(axis=0))
        return np.clip(r, self.lower, self.upper)

    def project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        nc = 3 * self.n
        np.clip(out[nc:], self.lower, self.upper, out=out[nc:])
        return out

    def objective(self, z: np.ndarray) -> float:
        coords, d = self.unpack(z)
        diff = coords[:, self.ii] - coords[:, self.jj]
        r = np.sqrt((diff * diff).sum(axis=0))
        return float(0.5 * np.sum(self.w * (r - d) ** 2))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        coords, d = self.unpack(z)
        diff = coords[:, self.ii] - coords[:, self.jj]
        r = np.sqrt((diff * diff).sum(axis=0))
        if np.any(r <= _SMOOTHNESS_TOL):
            raise NonsmoothPointError("coincident endpoints on an edge")
        t = self.w * (r - d)
        unit = diff * (t / r)
        gX = np.zeros((3, self.n))
        for row in range(3):
            gX[row] = (np.bincount(self.ii, weights=unit[row], minlength=self.n)
                       - np.bincount(self.jj, weights=unit[row], minlength=self.n))
        return np.concatenate([gX.ravel(), -t])
