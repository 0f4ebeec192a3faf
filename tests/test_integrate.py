import numpy as np
import pytest

from gridtrade import (IntegrationError, IntegratorConfig, Scenario,
                       ScenarioError, pwa, run_scenario)
from gridtrade.integrate import grid_errors, run_eras

from conftest import ring4_dict, rk4_run

DECAY = [[-1.0]], [0.0]      # dy/dt = -y


class TestRk4:
    def test_exponential_accuracy(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=1.0,
                               sample_period=1.0)
        traj = rk4_run(*DECAY, [1.0], cfg)
        assert abs(traj.y[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_fourth_order_scaling(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=1.0,
                                   sample_period=1.0)
            traj = rk4_run(*DECAY, [1.0], cfg)
            errors.append(abs(traj.y[-1, 0] - np.exp(-1.0)))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 8.0 <= r1 <= 32.0
        assert 8.0 <= r2 <= 32.0

    def test_samples_on_boundaries(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=0.5,
                               sample_period=0.1)
        traj = rk4_run(*DECAY, [1.0], cfg)
        assert np.allclose(traj.t, np.arange(6) * 0.1, atol=1e-12)


class TestEvents:
    def test_parameter_swap_and_duplicate_row(self):
        cfg = IntegratorConfig(method="rk4", dt=0.05, t_end=1.0,
                               sample_period=0.1)
        traj = rk4_run([[0.0]], [-1.0], [0.0], cfg, events=[(0.5, [1.0])])
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
        assert grid_errors(cfg, [0.55]) == [
            "event time 0.55 not on the sample grid"]
        assert grid_errors(cfg, [0.5, 0.5]) == [
            "event times must be strictly increasing"]
        assert grid_errors(cfg, [2.0]) == [
            "event times must lie in (0, t_end]"]

    @pytest.mark.parametrize("method", ["rk4"])
    def test_t_end_off_sample_grid(self, method):
        cfg = IntegratorConfig(method=method, dt=0.01, t_end=1.06,
                               sample_period=0.1)
        assert grid_errors(cfg, []) == [
            "t_end 1.06 not on the sample grid (sample_period 0.1)"]

    def test_step_grid_validation(self):
        cfg = IntegratorConfig(method="rk4", dt=0.3, t_end=1.0,
                               sample_period=1.0)
        assert grid_errors(cfg, []) == [
            "sample_period must be an integer multiple of dt"]


class TestConfig:
    def test_removed_method_refused(self):
        with pytest.raises(ValueError, match="unknown method 'rk45'"):
            IntegratorConfig(method="rk45")

    @pytest.mark.parametrize("field", ["dt", "t_end", "sample_period"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match="dt, sample_period and t_end "
                                             "must be finite"):
            IntegratorConfig(**{field: value})


class TestNonFinite:
    def test_abort_with_last_good_sample(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=5.0,
                               sample_period=0.05)
        with pytest.raises(IntegrationError) as ei:
            rk4_run([[1e3]], [0.0], [1.0], cfg)     # grows 644x per step
        err = ei.value
        assert err.t_last is not None
        assert np.isfinite(err.y_last).all()
        assert err.trajectory.n_samples >= 1

    def test_t_end_zero(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=0.0,
                               sample_period=0.1)
        traj = rk4_run(*DECAY, [2.0], cfg)
        assert traj.n_samples == 1
        assert traj.t[0] == 0.0

    def test_non_finite_start_refused(self):
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0,
                               sample_period=0.1)

        def advance(era, y, n_samples):
            raise AssertionError("advanced from a non-finite state")

        with pytest.raises(IntegrationError,
                           match="initial state is not finite") as ei:
            run_eras([1.0, np.nan], cfg, [], advance)
        err = ei.value
        assert err.t_last == 0.0
        assert err.trajectory.t.tolist() == [0.0]
        assert np.array_equal(err.y_last, [1.0, np.nan], equal_nan=True)

    def test_error_from_advance_keeps_rows(self, monkeypatch):
        """y' = -1 from 1.5 meets its penalized bound 0 at t = 1.5, in the
        era after the event at t = 1, and no switch is allowed: the error
        carries the rows of era 0 and the event row."""
        monkeypatch.setattr(pwa, "MAX_SWITCHES", 0)
        flow = pwa.PiecewiseAffineFlow([[0.0]], [-1.0], [0], [0.0], [10.0],
                                       [2.0])
        cfg = IntegratorConfig(method="pwa", dt=1e-3, t_end=2.0,
                               sample_period=1.0)

        def advance(era, y, n_samples):
            return flow.propagate(y, n_samples, cfg.sample_period, cfg.dt)

        with pytest.raises(IntegrationError, match="regime switches") as ei:
            run_eras([1.5], cfg, [1.0], advance)
        err = ei.value
        assert isinstance(err.__cause__, IntegrationError)
        assert err.trajectory.t.tolist() == [0.0, 1.0, 1.0]
        assert err.trajectory.epoch.tolist() == [0, 0, 1]
        assert err.t_last == 1.0
        assert err.y_last == pytest.approx([0.5], abs=1e-12)
        assert flow.switches == 1


class TestDeterminism:
    def test_bitwise_repeatability(self):
        M, c = [[-0.3, 1.0], [-1.0, -0.3]], [0.1, -0.2]
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.2,
                               sample_period=0.02)
        a = rk4_run(M, c, [0.7, -0.2], cfg)
        b = rk4_run(M, c, [0.7, -0.2], cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.t, b.t)


def _one_event_run(method, event_time):
    """Rows of a 4 ms run on a 1 ms sample grid with one event:
    ``rk4_affine`` on dy/dt = -y or one of ``run_scenario``'s methods on
    ring4."""
    if method == "rk4_affine":
        cfg = IntegratorConfig(method="rk4", dt=1e-5, t_end=0.004,
                               sample_period=0.001)
        return rk4_run(*DECAY, [1.0], cfg, events=[(event_time, [0.0])])
    scn = Scenario.from_dict(ring4_dict(
        integrator={"method": method, "dt": 1e-5, "t_end": 0.004},
        events=[{"time": event_time, "d_IL": 1.0}],
        output={"sample_period": 0.001},
        initial={"plant": "zeros", "controller": "zeros"}))
    traj, _, _ = run_scenario(scn)
    return traj


class TestOneRunner:
    """A bare ``rk4_affine`` run and every ``run_scenario`` method share
    one runner."""

    @pytest.mark.parametrize("method", ["rk4_affine", "rk4", "pwa"])
    def test_same_rows_and_grid_errors(self, method):
        ref = _one_event_run("rk4_affine", 0.002)
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
