"""Interval distance geometry solver: angle-guided greedy construction,
sign-consistent improvement, and multistart SPG refinement."""

from .model import (
    AtomRecord,
    Conformation,
    EdgeConstraint,
    Instance,
    SolverParams,
    TorsionDomain,
)
from .search import MultistartReport, multistart_solve

__all__ = [
    "AtomRecord",
    "Conformation",
    "EdgeConstraint",
    "Instance",
    "MultistartReport",
    "SolverParams",
    "TorsionDomain",
    "multistart_solve",
]
