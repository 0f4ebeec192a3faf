import numpy as np
import pytest

from gridtrade import (IntegrationError, IntegratorConfig, Scenario,
                       ScenarioError, integrate, run_scenario)
from gridtrade.scenarios import ring4_dict


def exp_decay(t, y, ctx):
    return -y


class TestRk4:
    def test_exponential_accuracy(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=1.0,
                               sample_period=1.0)
        traj = integrate(exp_decay, np.array([1.0]), cfg)
        assert abs(traj.y[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_fourth_order_scaling(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=1.0,
                                   sample_period=1.0)
            traj = integrate(exp_decay, np.array([1.0]), cfg)
            errors.append(abs(traj.y[-1, 0] - np.exp(-1.0)))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 8.0 <= r1 <= 32.0
        assert 8.0 <= r2 <= 32.0

    def test_samples_on_boundaries(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=0.5,
                               sample_period=0.1)
        traj = integrate(exp_decay, np.array([1.0]), cfg)
        assert np.allclose(traj.t, np.arange(6) * 0.1, atol=1e-12)

    def test_time_argument_advances(self):
        seen = []

        def rhs(t, y, ctx):
            seen.append(t)
            return np.zeros_like(y)

        cfg = IntegratorConfig(method="rk4", dt=0.25, t_end=0.5,
                               sample_period=0.25)
        integrate(rhs, np.array([0.0]), cfg)
        # stages at t, t+dt/2 (twice), t+dt for each step
        assert seen[0] == 0.0 and seen[3] == 0.25
        assert seen[4] == 0.25 and seen[-1] == 0.5


class TestEvents:
    def test_parameter_swap_and_duplicate_row(self):
        def rhs(t, y, ctx):
            return np.array([ctx])

        cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=1.0,
                               sample_period=0.1)
        traj = integrate(rhs, np.array([0.0]), cfg,
                         events=[(0.5, +1.0)],
                         ctx=-1.0, on_event=lambda ctx, pay: pay)
        at_event = np.where(np.isclose(traj.t, 0.5))[0]
        assert len(at_event) == 2  # pre- and post-swap rows
        k0, k1 = at_event
        assert np.array_equal(traj.y[k0], traj.y[k1])
        assert traj.epoch[k0] == 0 and traj.epoch[k1] == 1
        assert traj.y[k0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert traj.y[-1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_event_validation(self):
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0,
                               sample_period=0.1)
        with pytest.raises(ValueError, match="sample grid"):
            integrate(exp_decay, np.ones(1), cfg, events=[(0.55, None)])
        with pytest.raises(ValueError, match="increasing"):
            integrate(exp_decay, np.ones(1), cfg,
                      events=[(0.5, None), (0.5, None)])
        with pytest.raises(ValueError, match="lie in"):
            integrate(exp_decay, np.ones(1), cfg, events=[(2.0, None)])

    @pytest.mark.parametrize("method", ["rk4"])
    def test_t_end_off_sample_grid(self, method):
        cfg = IntegratorConfig(method=method, dt=0.01, t_end=1.06,
                               sample_period=0.1)
        with pytest.raises(ValueError, match="t_end 1.06 not on the sample "
                                             "grid"):
            integrate(exp_decay, np.ones(1), cfg)

    def test_step_grid_validation(self):
        cfg = IntegratorConfig(method="rk4", dt=0.3, t_end=1.0,
                               sample_period=1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            integrate(exp_decay, np.ones(1), cfg)


class TestConfig:
    def test_removed_method_refused(self):
        with pytest.raises(ValueError, match="unknown method 'rk45'"):
            IntegratorConfig(method="rk45")


class TestNonFinite:
    def test_abort_with_last_good_sample(self):
        def blow_up(t, y, ctx):
            return y * y

        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=5.0,
                               sample_period=0.05)
        with pytest.raises(IntegrationError) as ei:
            integrate(blow_up, np.array([1.0]), cfg)
        err = ei.value
        assert err.t_last is not None
        assert np.isfinite(err.y_last).all()
        assert err.trajectory.n_samples >= 1

    def test_t_end_zero(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=0.0,
                               sample_period=0.1)
        traj = integrate(exp_decay, np.array([2.0]), cfg)
        assert traj.n_samples == 1
        assert traj.t[0] == 0.0


class TestDeterminism:
    def test_bitwise_repeatability(self):
        def rhs(t, y, ctx):
            return np.sin(y) - 0.3 * y

        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.2,
                               sample_period=0.02)
        a = integrate(rhs, np.array([0.7, -0.2]), cfg)
        b = integrate(rhs, np.array([0.7, -0.2]), cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.t, b.t)


def _one_event_run(method, event_time):
    """Rows of a 4 ms run on a 1 ms sample grid with one event: the
    generic ``integrate`` or one of ``run_scenario``'s methods on ring4."""
    if method == "integrate":
        cfg = IntegratorConfig(method="rk4", dt=1e-5, t_end=0.004,
                               sample_period=0.001)
        return integrate(exp_decay, np.ones(1), cfg,
                         events=[(event_time, None)])
    scn = Scenario.from_dict(ring4_dict(
        integrator={"method": method, "dt": 1e-5, "t_end": 0.004},
        events=[{"time": event_time, "d_IL": 1.0}],
        output={"sample_period": 0.001},
        initial={"plant": "zeros", "controller": "zeros"}))
    traj, _, _ = run_scenario(scn)
    return traj


class TestOneRunner:
    """``integrate`` and every ``run_scenario`` method share one runner."""

    @pytest.mark.parametrize("method", ["integrate", "rk4", "pwa"])
    def test_same_rows_and_grid_errors(self, method):
        ref = _one_event_run("integrate", 0.002)
        assert ref.t == pytest.approx([0.0, 1e-3, 2e-3, 2e-3, 3e-3, 4e-3],
                                      abs=1e-15)
        traj = _one_event_run(method, 0.002)
        assert np.array_equal(traj.t, ref.t)
        assert traj.epoch.tolist() == [0, 0, 0, 1, 1, 1]
        with pytest.raises(ValueError) as ei:
            _one_event_run(method, 0.0015)
        err = ei.value
        msg = err.errors[0] if isinstance(err, ScenarioError) else str(err)
        assert msg == "event time 0.0015 not on the sample grid"
