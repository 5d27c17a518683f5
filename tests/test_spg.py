import inspect
import math

import numpy as np
import pytest

from idgp import metrics
from idgp.model import AtomRecord, CompiledInstance, EdgeConstraint, Instance
from idgp.spg import (
    _LAMBDA_MAX,
    _MEMORY,
    SpgStatus,
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

    def test_stationary_start_gives_none(self):
        z0 = np.array([0.5])
        assert initial_spectral_step(z0, np.array([0.0]), lambda z: z) is None
        # a gradient the projection cancels: the step is zero too
        assert initial_spectral_step(z0, np.array([-1.0]), box_projection(0.0, 0.5)) is None


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


class TestSpectralStep:
    def test_alternates_bb1_after_odd_and_bb2_after_even_iterations(self):
        # distinct curvatures keep s off the eigenvectors, so s's/s'y > s'y/y'y
        f, g = _diagonal([1.0, 3.0, 7.0, 20.0])
        g_recording, accepted = _recording(g)
        project, args = _recording(lambda z: z)
        res = spg_minimize(f, g_recording, project, np.ones(4), max_iter=12, success_f=0.0)
        assert res.iterations == 12
        zs, gs = np.array(accepted), np.array([g(z) for z in accepted])
        # args[0] is initial_spectral_step's z0 - g0; iteration k projects args[k]
        for k in range(2, 13):
            z, gz = zs[k - 1], gs[k - 1]
            lam = float((z - args[k]) @ gz / (gz @ gz))
            s, y = zs[k - 1] - zs[k - 2], gs[k - 1] - gs[k - 2]
            bb1, bb2 = (s @ s) / (s @ y), (s @ y) / (y @ y)
            assert bb1 > bb2 * (1 + 1e-6)
            assert lam == pytest.approx(bb1 if (k - 1) % 2 else bb2, rel=1e-9)

    def test_bb2_with_underflowing_yy_takes_lambda_max(self):
        # g0 = g1, so s'y = 0 after iteration 1 and iteration 2 steps with lam =
        # 1e30: s = (1e-10, 1e-132). g2 then gives y = (0, 1e-162): s'y = 1e-294 > 0
        # but y'y underflows to 0.0 at the BB2 step of iteration 2
        gs = [np.array([-1e-40, -1e-162])] * 2 + [np.array([-1e-40, 0.0])] * 2
        calls = iter(range(100))
        f = lambda z: 10.0 - next(calls)  # every trial point is accepted
        g = lambda z: gs.pop(0)
        project, args = _recording(lambda z: z)
        res = spg_minimize(f, g, project, np.zeros(2), max_iter=3, success_f=0.0)
        assert res.iterations == 3
        # identity projection and every full step accepted: z_k = args[k]
        s, y = args[2] - args[1], np.array([0.0, 1e-162])
        assert float(s @ y) > 0.0 and float(y @ y) == 0.0
        assert (args[3] - args[2])[0] / 1e-40 == pytest.approx(_LAMBDA_MAX, rel=1e-9)


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
        assert res.iterations == 0

    def test_nonfinite_objective_reported(self):
        res = spg_minimize(lambda z: math.nan, lambda z: np.zeros(1),
                           lambda z: z, np.zeros(1))
        assert res.status is SpgStatus.NUMERICAL_FAILURE

    def test_nonfinite_objective_at_a_trial_point_reported(self):
        values = iter([2.0, math.nan])  # f at z0, then at the first trial point
        res = spg_minimize(lambda z: next(values), lambda z: np.ones(1),
                           lambda z: z, np.ones(1))
        assert res.status is SpgStatus.NUMERICAL_FAILURE
        assert res.iterations == 1
        assert res.f_final == 2.0 and res.z_final.tolist() == [1.0]

    def test_uphill_direction_halves_the_step_until_stalled(self):
        # from a start outside the box the projected direction climbs (g'd = 1),
        # so no interpolation applies: the step halves to below 1e-20
        trials = []

        def f(z):
            trials.append(z[0])
            return 1e-6 - 0.5 * z[0]

        res = spg_minimize(f, lambda z: np.array([-1.0]), box_projection(-3.0, -1.0),
                           np.zeros(1), success_f=0.0)
        assert res.status is SpgStatus.STALLED
        assert res.iterations == 1 and res.z_final.tolist() == [0.0]
        assert trials[1:] == [-0.5 ** k for k in range(len(trials) - 1)]
        # the last trial's step, halved, is the first below 1e-20
        assert 0.5 ** (len(trials) - 1) < 1e-20 <= 0.5 ** (len(trials) - 2)

    def test_nonfinite_gradient_at_an_accepted_iterate_reported(self):
        # the first step is accepted; the gradient there is NaN, and that
        # iterate, the lowest-f one, is returned
        grads = iter([np.ones(1), np.array([math.nan])])
        res = spg_minimize(lambda z: 1.0 + 0.5 * float(z @ z), lambda z: next(grads),
                           lambda z: z, np.ones(1))
        assert res.status is SpgStatus.NUMERICAL_FAILURE
        assert res.iterations == 1
        assert res.f_final == 1.0 and res.z_final.tolist() == [0.0]

    def test_best_point_returned(self):
        # nonmonotone search may accept increases; the result is the best seen
        f, g, project, z0 = _wavy()
        done, accepted = _iterates(z0)
        res = spg_minimize(f, g, project, z0, max_iter=500, done=done)
        assert len(accepted) > _MEMORY + 1
        assert res.f_final == min(map(f, accepted))

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
        g_recording, accepted = _recording(g)
        res = spg_minimize(f, g_recording, lambda z: z, np.ones(2), deadline=-math.inf)
        assert res.status is SpgStatus.TIME_LIMIT
        assert res.iterations == 0 and accepted == []
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

    def _coincident(self, **kwargs):
        # bounds of 1e-13 pull the atoms together: the first step swaps them
        # and is rejected, and its interpolated half step, accepted, makes
        # them coincide (f ~ 5e-27), where the gradient is NaN
        atoms = [AtomRecord(1, "A", 1), AtomRecord(2, "B", 1)]
        inst = Instance(atoms=atoms, edges={(1, 2): EdgeConstraint(1, 2, 1e-13, 1e-13)})
        prob = metrics.StressProblem(CompiledInstance.of(inst))
        X0 = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        z0 = prob.pack(X0, prob.init_d(X0))
        res = spg_minimize(prob.objective, prob.gradient, prob.project, z0, **kwargs)
        assert res.iterations == 1
        assert res.z_final[:2].tolist() == [0.5, 0.5]
        assert res.f_final == prob.objective(res.z_final)
        return res

    def test_coincident_iterate_meets_tolerance(self):
        # f is tested before g, so the NaN gradient there is never evaluated
        assert self._coincident().status is SpgStatus.SUCCESS_TOLERANCE

    def test_coincident_iterate_is_numerical_failure(self):
        res = self._coincident(success_f=1e-30)
        assert res.status is SpgStatus.NUMERICAL_FAILURE


def _wavy():
    """A 1-D objective on [-2, 2] whose nonmonotone SPG path from 0.3 climbs
    from f = 1.13 (z = -0.08) to f = 2.44 (z = -2) at its fourth step."""
    f = lambda z: float(np.sin(5 * z[0]) + 0.1 * z[0] ** 2) + 1.5
    g = lambda z: np.array([5 * math.cos(5 * z[0]) + 0.2 * z[0]])
    return f, g, box_projection(-2.0, 2.0), np.array([0.3])


def _recording(g):
    """g, and the list of the points it was called at: SPG evaluates g once in
    each iteration, at the iterate it starts from (z0 first), so not at an
    iterate where a stop test ends the run; it projects once before its first
    iteration and then once in each."""
    accepted = []

    def g_recording(z):
        accepted.append(z.copy())
        return g(z)

    return g_recording, accepted


def _iterates(z0):
    """A `done` that is never true, and the list [z0, then every accepted
    iterate it is asked about]: every accepted iterate, the one that ends the
    run too, on a run whose f stays above `success_f`."""
    accepted = [z0]

    def done(z):
        accepted.append(z.copy())
        return False

    return done, accepted


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
    "time_limit": (*_diagonal([1.0, 10.0]), lambda z: z, np.ones(2),
                   dict(deadline=-math.inf)),
    "tolerance": (*_diagonal([1.0, 10.0, 100.0, 1000.0]), lambda z: z, np.ones(4),
                  dict(max_iter=5000)),
}


class TestDone:
    def test_done_ends_run_with_solve_criterion(self):
        f, g, project, z0 = _wavy()
        g_recording, accepted = _recording(g)
        res = spg_minimize(f, g_recording, project, z0, max_iter=500, done=_at_wall)
        assert res.status is SpgStatus.SOLVE_CRITERION
        assert len(accepted) == res.iterations
        # the iterate that met `done`, though an earlier one had lower f
        assert _at_wall(res.z_final)
        assert res.f_final == f(res.z_final) > min(map(f, accepted))

    def test_stops_at_first_accepted_iterate_meeting_done(self):
        f, g, project, z0 = _wavy()
        done, accepted = _iterates(z0)
        spg_minimize(f, g, project, z0, max_iter=500, done=done)
        first = next(k for k, z in enumerate(accepted) if k > 0 and _at_wall(z))
        res = spg_minimize(f, g, project, z0, max_iter=500, done=_at_wall)
        assert res.iterations == first
        np.testing.assert_array_equal(res.z_final, accepted[first])

    @pytest.mark.parametrize("name", sorted(_STOPS))
    def test_done_never_true_changes_nothing(self, name):
        f, g, project, z0, kwargs = _STOPS[name]
        g_base, base_accepted = _recording(g)
        g_res, res_accepted = _recording(g)
        base = spg_minimize(f, g_base, project, z0, **kwargs)
        res = spg_minimize(f, g_res, project, z0, **kwargs, done=lambda z: False)
        assert (res.status, res.iterations, res.f_final) == \
               (base.status, base.iterations, base.f_final)
        np.testing.assert_array_equal(res.z_final, base.z_final)
        np.testing.assert_array_equal(res_accepted, base_accepted)
        # g once per iteration, so not at an iterate a stop test ends the run at
        assert len(res_accepted) == res.iterations
