import inspect
import math

import numpy as np
import pytest

from idgp import metrics
from idgp.model import AtomRecord, CompiledInstance, EdgeConstraint, Instance
from idgp.spg import (
    SpgStatus,
    StationaryStartError,
    initial_spectral_step,
    spg_minimize,
)


def box_projection(lo, hi):
    return lambda z: np.clip(z, lo, hi)


class TestParams:
    def test_defaults(self):
        p = inspect.signature(spg_minimize).parameters
        assert p["max_iter"].default == 30000 and p["success_f"].default == 1e-7


class TestInitialStep:
    def test_reciprocal_of_projected_step(self):
        z0 = np.array([0.0, 0.0])
        g0 = np.array([0.25, -0.1])
        lam = initial_spectral_step(z0, g0, lambda z: z)
        assert lam == pytest.approx(4.0)

    def test_safeguarded(self):
        z0 = np.zeros(1)
        lam = initial_spectral_step(z0, np.array([1e40]), lambda z: z)
        assert lam == 1e-30

    def test_stationary_raises(self):
        z0 = np.array([0.5])
        with pytest.raises(StationaryStartError):
            initial_spectral_step(z0, np.array([0.0]), lambda z: z)


class TestConvexQuadratic:
    def test_unconstrained_minimum_inside_box(self):
        c = np.array([0.2, -0.3, 0.5])
        f = lambda z: 0.5 * float((z - c) @ (z - c))
        g = lambda z: z - c
        res = spg_minimize(f, g, box_projection(-1.0, 1.0), np.zeros(3))
        assert res.status is SpgStatus.SUCCESS_TOLERANCE
        assert res.f_final <= 1e-7
        assert res.iterations <= 100
        np.testing.assert_allclose(res.z_final, c, atol=1e-3)

    def test_active_box_constraint(self):
        # center outside the box: minimizer is the box corner nearest c
        c = np.array([2.0, -3.0])
        f = lambda z: 0.5 * float((z - c) @ (z - c))
        g = lambda z: z - c
        f_opt = f(np.array([1.0, -1.0]))
        res = spg_minimize(f, g, box_projection(-1.0, 1.0), np.zeros(2),
                           success_f=f_opt + 1e-10)
        assert res.f_final == pytest.approx(f_opt, abs=1e-9)
        np.testing.assert_allclose(res.z_final, [1.0, -1.0], atol=1e-6)

    def test_iterates_respect_box_exactly(self):
        lo, hi = -1.0, 1.0
        c = np.array([2.0, -3.0, 0.4])
        seen = []

        def f(z):
            seen.append(z.copy())
            return 0.5 * float((z - c) @ (z - c))

        g = lambda z: z - c
        spg_minimize(f, g, box_projection(lo, hi),
                     np.zeros(3), success_f=1e-12, max_iter=200)
        assert seen
        for z in seen:
            assert np.all(z >= lo) and np.all(z <= hi)

    def test_ill_conditioned_quadratic(self):
        diag = np.array([1.0, 10.0, 100.0, 1000.0])
        f = lambda z: 0.5 * float(z @ (diag * z))
        g = lambda z: diag * z
        res = spg_minimize(f, g, lambda z: z, np.ones(4),
                           max_iter=5000)
        assert res.f_final <= 1e-7


class TestEdgeCases:
    def test_immediate_success(self):
        res = spg_minimize(lambda z: 0.0, lambda z: np.zeros(1),
                           lambda z: z, np.zeros(1))
        assert res.status is SpgStatus.SUCCESS_TOLERANCE
        assert res.iterations == 0

    def test_stationary_start_stalls(self):
        # projected gradient vanishes but f above tolerance
        f = lambda z: 1.0 + 0.5 * float(z @ z)
        g = lambda z: z
        res = spg_minimize(f, g, lambda z: z, np.zeros(2))
        assert res.status is SpgStatus.STALLED

    def test_nonfinite_objective_reported(self):
        res = spg_minimize(lambda z: math.nan, lambda z: np.zeros(1),
                           lambda z: z, np.zeros(1))
        assert res.status is SpgStatus.NUMERICAL_FAILURE

    def test_best_point_returned(self):
        # nonmonotone search may accept increases; the result is the best seen
        f = lambda z: float(np.sin(5 * z[0]) + 0.1 * z[0] ** 2) + 1.5
        g = lambda z: np.array([5 * math.cos(5 * z[0]) + 0.2 * z[0]])
        res = spg_minimize(f, g, box_projection(-2.0, 2.0), np.array([0.3]),
                           max_iter=500)
        assert res.f_final <= min(res.f_history) + 1e-15

    def test_max_iter_status(self):
        diag = np.array([1.0, 1e6])
        f = lambda z: 0.5 * float(z @ (diag * z))
        g = lambda z: diag * z
        res = spg_minimize(f, g, lambda z: z, np.ones(2),
                           max_iter=2, success_f=1e-30)
        assert res.status is SpgStatus.MAX_ITER
        assert res.iterations == 2

    @pytest.mark.parametrize("window", [3, 5, 8])
    def test_stall_window_ends_run(self, window):
        # each step lowers f by far less than the relative stall threshold
        diag = np.array([1e-14, 2e-14, 3e-14])
        f = lambda z: 1.0 + 0.5 * float(z @ (diag * z))
        g = lambda z: diag * z
        res = spg_minimize(f, g, lambda z: z, np.ones(3),
                           stall_window=window)
        assert res.status is SpgStatus.STALLED
        assert res.iterations == window

    def test_past_deadline_is_time_limit(self):
        diag = np.array([1.0, 10.0])
        f = lambda z: 0.5 * float(z @ (diag * z))
        g = lambda z: diag * z
        res = spg_minimize(f, g, lambda z: z, np.ones(2), deadline=-math.inf)
        assert res.status is SpgStatus.TIME_LIMIT
        assert res.iterations == 0
        np.testing.assert_array_equal(res.z_final, np.ones(2))


class TestTwoAtomStress:
    def _problem(self):
        atoms = [AtomRecord(1, "A", 1), AtomRecord(2, "B", 1)]
        edges = {(1, 2): EdgeConstraint(1, 2, 2.0, 2.0)}
        inst = Instance(atoms=atoms, edges=edges)
        return metrics.StressProblem(CompiledInstance.of(inst))

    def test_reaches_tolerance_quickly(self):
        prob = self._problem()
        X0 = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
        z0 = prob.pack(X0, prob.init_d(X0))
        res = spg_minimize(prob.objective, prob.gradient, prob.project, z0)
        assert res.status is SpgStatus.SUCCESS_TOLERANCE
        assert res.f_final <= 1e-7
        assert res.iterations <= 100
        X, d = prob.unpack(res.z_final)
        r = float(np.linalg.norm(X[:, 0] - X[:, 1]))
        assert r == pytest.approx(2.0, abs=1e-3)
        assert d[0] == pytest.approx(2.0)

    def test_nonsmooth_start_is_numerical_failure(self):
        # coincident atoms: the gradient is undefined at the start
        prob = self._problem()
        z0 = prob.pack(np.zeros((3, 2)), np.array([2.0]))
        res = spg_minimize(prob.objective, prob.gradient, prob.project, z0)
        assert res.status is SpgStatus.NUMERICAL_FAILURE
        assert res.iterations == 0
        np.testing.assert_array_equal(res.z_final, z0)
        assert res.f_final == prob.objective(z0)


def _wavy():
    """A 1-D objective on [-2, 2] whose nonmonotone SPG path from 0.3 climbs
    from f = 1.13 (z = -0.08) to f = 2.44 (z = -2) at its fourth step."""
    f = lambda z: float(np.sin(5 * z[0]) + 0.1 * z[0] ** 2) + 1.5
    g = lambda z: np.array([5 * math.cos(5 * z[0]) + 0.2 * z[0]])
    return f, g, box_projection(-2.0, 2.0), np.array([0.3])


def _at_wall(z):
    return z[0] <= -1.9


def _diagonal(diag, offset=0.0):
    diag = np.array(diag)
    return lambda z: offset + 0.5 * float(z @ (diag * z)), lambda z: diag * z


# (f, g, project, z0, keyword arguments) ending in each stop of the tests above
_STOPS = {
    "max_iter": (*_diagonal([1.0, 1e6]), lambda z: z, np.ones(2),
                 dict(max_iter=2, success_f=1e-30)),
    "nonmonotone_stall": (*_wavy(), dict(max_iter=500)),
    "stall_window": (*_diagonal([1e-14, 2e-14, 3e-14], offset=1.0), lambda z: z,
                     np.ones(3), dict(stall_window=5)),
    "tolerance": (*_diagonal([1.0, 10.0, 100.0, 1000.0]), lambda z: z, np.ones(4),
                  dict(max_iter=5000)),
}


class TestDone:
    def test_done_ends_run_with_solve_criterion(self):
        f, g, project, z0 = _wavy()
        res = spg_minimize(f, g, project, z0, max_iter=500, done=_at_wall)
        assert res.status is SpgStatus.SOLVE_CRITERION
        # the iterate that met `done`, though an earlier one had lower f
        assert _at_wall(res.z_final)
        assert res.f_final == f(res.z_final) > min(res.f_history)

    def test_stops_at_first_accepted_iterate_meeting_done(self):
        # SPG evaluates g at z0 and then once at each accepted iterate
        f, g, project, z0 = _wavy()
        accepted = []

        def g_recording(z):
            accepted.append(z.copy())
            return g(z)

        spg_minimize(f, g_recording, project, z0, max_iter=500)
        first = next(k for k, z in enumerate(accepted) if k > 0 and _at_wall(z))
        res = spg_minimize(f, g, project, z0, max_iter=500, done=_at_wall)
        assert res.iterations == first
        np.testing.assert_array_equal(res.z_final, accepted[first])

    @pytest.mark.parametrize("name", sorted(_STOPS))
    def test_done_never_true_changes_nothing(self, name):
        f, g, project, z0, kwargs = _STOPS[name]
        base = spg_minimize(f, g, project, z0, **kwargs)
        res = spg_minimize(f, g, project, z0, **kwargs, done=lambda z: False)
        assert (res.status, res.iterations, res.f_final, res.f_history) == \
               (base.status, base.iterations, base.f_final, base.f_history)
        np.testing.assert_array_equal(res.z_final, base.z_final)
