import numpy as np
import pytest

from idgp import metrics
from idgp.model import CompiledInstance
from tests import oracles
from tests.conftest import one_edge_instance


def finite_difference_gradient(f, z, h=1e-6):
    g = np.empty_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        g[k] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def one_edge_problem(lower, upper):
    return metrics.StressProblem(CompiledInstance.of(one_edge_instance(lower, upper)))


class TestPairDistance:
    # realized distances as the stress model measures them: projected onto
    # an interval wide enough to leave them unchanged
    def test_known_value(self):
        coords = np.array([[0.0, 3.0], [0.0, 4.0], [0.0, 0.0]])
        assert one_edge_problem(0.1, 100.0).init_d(coords)[0] == 5.0

    def test_symmetric(self):
        coords = np.random.default_rng(0).normal(size=(3, 2))
        prob = one_edge_problem(1e-3, 100.0)
        assert prob.init_d(coords)[0] == prob.init_d(coords[:, ::-1])[0]


class TestEdgeResidual:
    # the residual of a one-edge instance is its LDE
    def test_zero_inside_interval(self):
        coords = np.array([[0.0, 1.5], [0.0, 0.0], [0.0, 0.0]])
        ci = CompiledInstance.of(one_edge_instance(1.0, 2.0))
        assert metrics.lde_global(coords, ci) == 0.0

    def test_lower_violation(self):
        # r = 0.5 against [1, 2]: (1 - 0.5)/1 = 0.5
        coords = np.array([[0.0, 0.5], [0.0, 0.0], [0.0, 0.0]])
        ci = CompiledInstance.of(one_edge_instance(1.0, 2.0))
        assert metrics.lde_global(coords, ci) == pytest.approx(0.5)

    def test_upper_violation(self):
        # r = 3 against [1, 2]: (3 - 2)/2 = 0.5
        coords = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
        ci = CompiledInstance.of(one_edge_instance(1.0, 2.0))
        assert metrics.lde_global(coords, ci) == pytest.approx(0.5)


class TestGlobalMetrics:
    def test_reference_is_exactly_feasible(self, toy):
        inst, coords = toy
        ci = CompiledInstance.of(inst)
        assert metrics.lde_global(coords, ci) == 0.0
        assert metrics.mde_global(coords, ci) == 0.0

    def test_mde_is_mean_of_residuals(self, toy):
        inst, coords = toy
        ci = CompiledInstance.of(inst)
        perturbed = coords + 0.05 * np.random.default_rng(1).normal(size=coords.shape)
        residuals = [oracles.edge_residual(perturbed, e) for e in inst.edges.values()]
        assert metrics.lde_global(perturbed, ci) == pytest.approx(max(residuals))
        assert metrics.mde_global(perturbed, ci) == pytest.approx(
            sum(residuals) / len(residuals))

    def test_lde_local_uses_back_edges_only(self, toy):
        # the local LDE of atom i, as greedy construction scores it, reads
        # the CSR row of i: edges (j, i) with j < i
        inst, coords = toy
        ci = CompiledInstance.of(inst)
        perturbed = coords.copy()
        perturbed[:, 9] += 5.0  # wreck atom 10 only

        def lde_local(i):
            rows = slice(ci.back_ptr[i - 1], ci.back_ptr[i])
            r = np.linalg.norm(perturbed[:, ci.back_col[rows]] - perturbed[:, [i - 1]],
                               axis=0)
            lo, up = ci.back_lower[rows], ci.back_upper[rows]
            return float(np.maximum(0.0, np.maximum((lo - r) / lo, (r - up) / up)).max())

        assert lde_local(4) == 0.0
        assert lde_local(10) > 0.0
        assert lde_local(10) == pytest.approx(max(
            oracles.edge_residual(perturbed, e) for e in inst.edges.values() if e.j == 10))


class TestEdgeWeights:
    def test_normalized_and_doubled(self, toy):
        inst, _ = toy
        ci = CompiledInstance.of(inst)
        keys = sorted(inst.edges)
        assert ci.w.sum() == pytest.approx(1.0)
        disc = next(k for k, (i, j) in enumerate(keys) if j - i <= 3)
        other = next(k for k, (i, j) in enumerate(keys) if j - i > 3)
        assert ci.w[disc] == pytest.approx(2.0 * ci.w[other])
        assert dict(zip(keys, ci.w)) == pytest.approx(oracles.edge_weights(inst))


class TestStress:
    def test_two_atom_value(self):
        # one edge, weight 1, realized r = 3, target d = 2: 0.5 * 1^2
        prob = one_edge_problem(1.0, 3.0)
        coords = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
        assert prob.objective(prob.pack(coords, np.array([2.0]))) == 0.5

    def test_zero_at_projected_distances(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        assert prob.objective(prob.pack(coords, prob.init_d(coords))) == 0.0

    def test_gradient_matches_finite_differences(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        rng = np.random.default_rng(2)
        X = coords + 0.3 * rng.normal(size=coords.shape)
        z = prob.pack(X, prob.lower + rng.uniform(0, 1e-3, prob.m))
        analytic = prob.gradient(z)
        fd = finite_difference_gradient(prob.objective, z)
        assert np.linalg.norm(analytic - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_coincident_atoms_give_nan(self):
        prob = one_edge_problem(1.0, 1.0)
        g = prob.gradient(prob.pack(np.zeros((3, 2)), np.array([1.0])))
        assert g.shape == (7,) and np.isnan(g).all()


class TestInitDistanceVariables:
    def test_projects_onto_intervals(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        rng = np.random.default_rng(3)
        X = coords + 0.5 * rng.normal(size=coords.shape)
        d = prob.init_d(X)
        for k, key in enumerate(sorted(inst.edges)):
            e = inst.edges[key]
            assert e.lower <= d[k] <= e.upper
            r = oracles.pair_distance(X, e.i, e.j)
            if e.lower <= r <= e.upper:
                assert d[k] == r


class TestStressProblem:
    def test_pack_unpack_round_trip(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        d = prob.init_d(coords)
        X2, d2 = prob.unpack(prob.pack(coords, d))
        np.testing.assert_array_equal(X2, coords)
        np.testing.assert_array_equal(d2, d)

    def test_objective_matches_dict_stress(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        rng = np.random.default_rng(4)
        X = coords + 0.3 * rng.normal(size=coords.shape)
        d = prob.init_d(X)
        keys = sorted(inst.edges)
        d_dict = dict(zip(keys, d))
        w = oracles.edge_weights(inst)
        assert prob.objective(prob.pack(X, d)) == pytest.approx(
            oracles.stress(X, d_dict, w), rel=1e-14)

    def test_gradient_matches_dict_gradient(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        rng = np.random.default_rng(5)
        X = coords + 0.3 * rng.normal(size=coords.shape)
        d = prob.init_d(X)
        keys = sorted(inst.edges)
        w = oracles.edge_weights(inst)
        gX, gd = oracles.stress_gradient(X, dict(zip(keys, d)), w)
        expected = np.concatenate([gX.ravel(), [gd[k] for k in keys]])
        np.testing.assert_allclose(prob.gradient(prob.pack(X, d)), expected,
                                   atol=1e-14)

    def test_project_clips_distance_block_only(self, toy):
        inst, coords = toy
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        z = prob.pack(coords * 100.0, np.zeros(prob.m))
        p = prob.project(z)
        np.testing.assert_array_equal(p[:3 * inst.n], z[:3 * inst.n])
        np.testing.assert_array_equal(p[3 * inst.n:], prob.lower)
