"""The benchmark's own arithmetic: output check, determinism digest and the
statistics it reports. Independent of the solver's metric code on purpose,
so a solver bug in LDE/MDE cannot hide behind the same bug here."""

import hashlib
import math
import statistics

import numpy as np


class EdgeArrays:
    """Interval edges of a parsed instance as flat arrays (0-based ends)."""

    def __init__(self, inst):
        keys = sorted(inst.edges)
        self.n = inst.n
        self.i = np.array([i - 1 for i, _ in keys], dtype=np.int64)
        self.j = np.array([j - 1 for _, j in keys], dtype=np.int64)
        self.lower = np.array([inst.edges[k].lower for k in keys])
        self.upper = np.array([inst.edges[k].upper for k in keys])

    @property
    def m(self) -> int:
        return self.i.size


def lde_mde(coords, edges: EdgeArrays):
    """Largest and mean normalized interval violation of a 3 x n conformation."""
    d = coords[:, edges.i] - coords[:, edges.j]
    r = np.sqrt(np.einsum("ij,ij->j", d, d))
    v = np.maximum(0.0, np.maximum((edges.lower - r) / edges.lower,
                                   (r - edges.upper) / edges.upper))
    return float(v.max()), float(v.mean())


def check_report(rep, edges: EdgeArrays, eps_mde: float, eps_lde: float,
                 rtol: float = 1e-9):
    """Check one solver report against the instance. Returns (lde, mde,
    solved) as recomputed here; raises ValueError describing any mismatch."""
    coords = np.asarray(rep.conformation.coords)
    if coords.shape != (3, edges.n):
        raise ValueError(f"conformation shape {coords.shape}, expected (3, {edges.n})")
    if not np.all(np.isfinite(coords)):
        raise ValueError("non-finite coordinates")
    lde, mde = lde_mde(coords, edges)
    for name, mine, theirs in (("LDE", lde, rep.lde), ("MDE", mde, rep.mde)):
        if not math.isclose(mine, theirs, rel_tol=rtol, abs_tol=1e-15):
            raise ValueError(f"{name} reported {theirs!r}, recomputed {mine!r}")
    solved = mde <= eps_mde or lde <= eps_lde
    if solved != (rep.status == "Solved"):
        raise ValueError(f"status {rep.status} but recomputed LDE {lde:.3e}, "
                         f"MDE {mde:.3e}")
    return lde, mde, solved


def run_digest(rep, greedy_calls: int, spg_iterations: int) -> str:
    """Hash of everything a seeded run must repeat exactly."""
    key = "|".join((rep.status, str(rep.trials), str(rep.pool_size),
                    float(rep.lde).hex(), float(rep.mde).hex(),
                    str(greedy_calls), str(spg_iterations)))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def combined_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def median(values) -> float:
    return float(statistics.median(values))


def fraction(flags) -> float:
    """Share of true flags; an empty list is an error, not 0."""
    flags = list(flags)
    if not flags:
        raise ValueError("fraction of an empty list")
    return sum(1 for f in flags if f) / len(flags)
