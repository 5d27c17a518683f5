import math

import numpy as np
import pytest

from idgp import geometry, io
from idgp.model import AtomRecord, EdgeConstraint, Instance
from tests.oracles import pair_distance


def build_chain(taus, d=1.52, theta=1.91):
    """Coordinates of a chain with uniform lengths/angles and given torsions."""
    n = len(taus) + 3
    X = np.empty((3, n))
    x1, x2, x3 = geometry.place_first_three(d, d, theta)
    X[:, 0], X[:, 1], X[:, 2] = x1, x2, x3
    for k, tau in enumerate(taus, start=4):
        X[:, k - 1] = geometry.place_atom(X[:, k - 4], X[:, k - 3], X[:, k - 2],
                                          d, theta, tau)
    return X


def one_edge_instance(lower, upper):
    """Two atoms joined by one interval edge; compilable, though not a chain."""
    atoms = [AtomRecord(1, "A", 1), AtomRecord(2, "B", 1)]
    edges = {(1, 2): EdgeConstraint(1, 2, lower, upper)}
    return Instance(atoms=atoms, edges=edges)


def exact_edge(coords, i, j):
    d = pair_distance(coords, i, j)
    return EdgeConstraint(i, j, d, d)


def interval_edge(coords, i, j, half):
    d = pair_distance(coords, i, j)
    return EdgeConstraint(i, j, max(0.1, d - half), d + half)


def toy_edges(coords, extras=((1, 8), (2, 10), (3, 9)), tors_half=0.15,
              extra_half=0.5):
    """Edge pattern of a 10-atom instance: exact one/two-apart distances,
    interval three-apart distances, plus long-range interval extras."""
    n = coords.shape[1]
    edges = []
    for i in range(2, n + 1):
        edges.append(exact_edge(coords, i - 1, i))
    for i in range(3, n + 1):
        edges.append(exact_edge(coords, i - 2, i))
    for i in range(4, n + 1):
        edges.append(interval_edge(coords, i - 3, i, tors_half))
    for (i, j) in extras:
        edges.append(interval_edge(coords, i, j, extra_half))
    return edges


@pytest.fixture
def toy():
    """10-atom instance mirroring the introductory example pattern."""
    atoms, coords = io.synthetic_backbone(2, seed=5)
    inst = io.build_instance(atoms, toy_edges(coords))
    return inst, coords


@pytest.fixture
def toy_file(toy, tmp_path):
    inst, _ = toy
    path = tmp_path / "toy.inst"
    io.write_instance(inst, path)
    return path


@pytest.fixture(scope="session")
def hard():
    """20-atom instance with hydrogen contacts too tight for the greedy
    construction alone; every candidate keeps a nonzero residual."""
    atoms, coords = io.synthetic_backbone(4, seed=0)
    inst = io.generate_instance(atoms, coords, hh_width_adjacent=0.5,
                                hh_width_other=1.0,
                                include_torsion_annotations=False)
    return inst, coords
