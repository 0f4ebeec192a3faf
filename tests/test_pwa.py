"""Exact piecewise-affine propagation with Filippov sliding (``pwa``)."""

import weakref

import numpy as np
import pytest

import gridtrade as gt
from gridtrade import pwa
from gridtrade.engine import ClosedLoop, Scenario, run_scenario, write_csv

from conftest import regime_names, ring4_dict


@pytest.fixture(scope="module")
def ref_loop(ref_game, ref_cp):
    return ClosedLoop(ref_game, ref_cp)


@pytest.fixture(scope="module")
def y0(ref_loop, ref_game, ref_solution):
    """Reference start: grid at the game's equilibrium, controller at zero."""
    plant = gt.PlantState(*ref_game.layout.split(ref_solution.x_star))
    return ref_loop.pack(plant, gt.ControllerState.zeros(ref_game))


def _rk4(loop, y, dt, t_end, sample_period):
    per = round(sample_period / dt)
    n = round(t_end / sample_period)
    out = np.empty((n, loop.size))
    loop.run_segment(y.copy(), dt, n * per, per, out)
    return out


class TestFilippovRegimes:
    """Hand-solvable flows: dy/dt = M y + c with the first entry penalized."""

    def test_slides_when_penalty_suffices(self):
        # y' = -1 reaches the bound 0 at t = 1; a force of 2 holds it there
        flow = pwa.PiecewiseAffineFlow([[0.0]], [-1.0], [0], [0.0], [10.0],
                                       [2.0])
        out, _ = flow.propagate(np.array([1.0]), 3, 1.0, 1e-3)
        assert out[:, 0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert flow.switches == 1
        assert regime_names(flow, out[-1]) == ("lower-sliding",)

    def test_crosses_when_penalty_too_small(self):
        # a force of 0.5 only slows the descent to y' = -0.5 below the bound
        flow = pwa.PiecewiseAffineFlow([[0.0]], [-1.0], [0], [0.0], [10.0],
                                       [0.5])
        out, _ = flow.propagate(np.array([1.0]), 3, 1.0, 1e-3)
        assert out[:, 0] == pytest.approx([0.0, -0.5, -1.0], abs=1e-9)
        assert regime_names(flow, out[-1]) == ("below",)

    def test_leaves_the_bound_when_the_drift_turns(self):
        # y1' = y2, y2' = 1 from (0, -1): slides until t = 1, then
        # y1 = (t - 1)^2 / 2 in the interior
        flow = pwa.PiecewiseAffineFlow([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0],
                                       [0], [0.0], [10.0], [5.0])
        out, _ = flow.propagate(np.array([0.0, -1.0]), 3, 1.0, 1e-3)
        assert out[:, 0] == pytest.approx([0.0, 0.5, 2.0], abs=1e-9)
        assert regime_names(flow, out[-1]) == ("interior",)

    def test_upper_face_mirrors_lower(self):
        flow = pwa.PiecewiseAffineFlow([[0.0]], [1.0], [0], [-10.0], [0.0],
                                       [2.0])
        out, _ = flow.propagate(np.array([-1.0]), 2, 1.0, 1e-3)
        assert out[:, 0] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert regime_names(flow, out[-1]) == ("upper-sliding",)

    def test_switch_budget(self, monkeypatch):
        # an undamped oscillator crosses a weakly penalized box four times
        # per period; the run stops once the budget is spent
        monkeypatch.setattr(pwa, "MAX_SWITCHES", 10)
        flow = pwa.PiecewiseAffineFlow([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
                                       [0], [-0.5], [0.5], [1e-3])
        with pytest.raises(gt.IntegrationError, match="regime switches"):
            flow.propagate(np.array([0.0, 1.0]), 20, 1.0, 1e-3)

    def test_stops_at_first_non_finite_sample(self):
        # y1' = 100 y1 overflows between t = 7 s and t = 8 s; the
        # penalized y2 rests inside its box
        flow = pwa.PiecewiseAffineFlow([[100.0, 0.0], [0.0, 0.0]],
                                       [0.0, 0.0], [1], [-1.0], [1.0], [1.0])
        out, y = flow.propagate(np.array([1.0, 0.0]), 20, 1.0, 1e-3)
        assert len(out) == 8
        assert np.isfinite(out[:7]).all()
        assert out[6, 0] == pytest.approx(np.exp(700.0), rel=1e-9)
        assert not np.isfinite(out[7]).all()
        assert y.tobytes() == out[7].tobytes()
        assert flow.switches == 0


class TestAgreementWithRk4:
    def test_switch_free_window(self, ref_loop, y0):
        """First 0.1 s: all four voltage copies sit below their bound with
        the penalty saturated, so no regime switches."""
        flow = ref_loop.flow()
        exact, _ = flow.propagate(y0, 100, 1e-3, 1e-5)
        assert flow.switches == 0
        rk4 = _rk4(ref_loop, y0, 1e-5, 0.1, 1e-3)
        assert np.abs(exact - rk4).max() <= 1e-9 * np.abs(rk4).max()

    @pytest.mark.slow
    def test_rk4_converges_while_sliding(self, ref_loop, y0):
        """By t = 1 s the four voltage copies slide on 377 V, where RK4
        chatters; its error against the exact flow shrinks as dt halves
        (8.4e-3, 3.1e-3, 1.8e-3 at t = 1 s)."""
        flow = ref_loop.flow()
        exact, _ = flow.propagate(y0, 1000, 1e-3, 1e-5)
        names = regime_names(flow, exact[-1])
        assert names[:4] == ("lower-sliding",) * 4
        errors = [np.abs(_rk4(ref_loop, y0, dt, 1.0, 1.0)[-1]
                         - exact[-1]).max()
                  for dt in (2e-5, 1e-5, 5e-6)]
        assert errors[0] > errors[1] > errors[2]

    def test_independent_of_first_step(self, ref_loop, y0):
        a, _ = ref_loop.flow().propagate(y0, 1000, 1e-3, 1e-5)
        b, _ = ref_loop.flow().propagate(y0, 1000, 1e-3, 1e-6)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path, ref_solution, ref_game):
        I, V, Il = ref_game.layout.split(ref_solution.x_star)
        d = ring4_dict(
            integrator={"method": "pwa", "dt": "1e-5 s", "t_end": "1 s"},
            events=[{"time": "0.5 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}],
            initial={"plant": {"I": list(I), "V": list(V), "I_l": list(Il)},
                     "controller": "zeros"})
        paths = []
        for name in ("a.csv", "b.csv"):
            scn = Scenario.from_dict(d)
            traj, diag, _ = run_scenario(scn)
            paths.append(tmp_path / name)
            write_csv(paths[-1], traj, diag, scn.games[0])
        assert traj.n_samples == 1002
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestLongRun:
    @pytest.mark.parametrize("epoch", [0, 1])
    def test_ends_on_closed_loop_attractor(self, long_run, ref_game,
                                           ref_post_game, ref_cp, epoch):
        g = (ref_game, ref_post_game)[epoch]
        traj = long_run["traj"]
        y = traj.y[traj.epoch == epoch][-1]
        eq = gt.closed_loop_equilibrium(g, ref_cp)
        loop = ClosedLoop(g, ref_cp)
        names = regime_names(loop.flow(), y)
        assert names == eq.regimes
        assert names[4:] == ("interior",) * 4
        plant, cs = loop.unpack(y)
        assert np.abs(cs.xhat - eq.x_star).max() < 1e-6
        assert np.abs(plant.to_vector() - eq.plant.to_vector()).max() < 1e-6
        assert gt.kkt_residual(cs, g, ref_cp).max < 1e-6

    def test_residual_settles_in_both_eras(self, long_run):
        report = long_run["report"]
        assert all(c["time"] is not None for c in report["convergence_times"])
        assert report["residuals"]["pre_event_final"]["kkt_max"] < 1e-6
        assert report["residuals"]["final"]["kkt_max"] < 1e-6


class TestHeldPattern:
    """A flow holds one record, for the pattern in force: its generator,
    switch checks and maps."""

    def test_one_record_per_visit(self, ref_loop, y0, monkeypatch):
        """One record per pattern visit, one generator per record, one
        exponential per map held; a record is gone before the next one
        is built, so the new maps can reuse its memory."""
        built, patterns, systems, expms, steps = [], [], [], [], set()

        class Recorded(pwa._Regime):
            def __init__(self, *args):
                assert all(r() is None for r in built)
                super().__init__(*args)
                self.visit = len(built)
                built.append(weakref.ref(self))
                patterns.append(self.pattern)

            def advance(self, h, y):
                steps.add((self.visit, h))
                return super().advance(h, y)

        def system(flow, pattern):
            systems.append(pattern)
            return real_system(flow, pattern)

        def expm(a):
            expms.append(a.shape)
            return real_expm(a)

        real_system, real_expm = pwa.PiecewiseAffineFlow._system, pwa.expm
        monkeypatch.setattr(pwa.PiecewiseAffineFlow, "_system", system)
        monkeypatch.setattr(pwa, "_Regime", Recorded)
        monkeypatch.setattr(pwa, "expm", expm)
        flow = ref_loop.flow()
        _, y = flow.propagate(y0, 300, 1e-3, 1e-5)
        # by t = 0.3 s the four voltage copies have reached their bound
        assert flow.switches >= 1
        assert len(patterns) == flow.switches + 1
        assert systems == patterns
        assert all(a != b for a, b in zip(patterns, patterns[1:]))
        held = [v for v in vars(flow).values()
                if isinstance(v, (dict, pwa._Regime))]
        assert held == [built[-1]()]
        assert patterns[-1] == flow.classify(y)[0]
        assert len(expms) == len(steps) > len(held[0].maps) > 1

    def test_reentered_pattern_rebuilt_bit_for_bit(self, ref_loop, y0):
        flow = ref_loop.flow()
        pattern, _ = flow.classify(y0)
        first = flow._regime(pattern)
        exact, y = flow.propagate(y0, 300, 1e-3, 1e-5)
        assert flow.switches >= 1 and flow._held is not first
        again = flow._regime(pattern)
        assert again is not first and flow._held is again
        for name in ("aug", "S", "beta", "floor"):
            assert getattr(again, name).tobytes() == \
                getattr(first, name).tobytes()
        for h, E in first.maps.items():
            again.advance(h, y)
            assert again.maps[h].tobytes() == E.tobytes()
        assert len(again.maps) == len(first.maps) > 1


class TestGuards:
    def test_event_off_sample_grid(self):
        with pytest.raises(gt.ScenarioError, match="sample grid"):
            Scenario.from_dict(ring4_dict(
                integrator={"method": "pwa", "dt": "1e-5 s",
                            "t_end": "0.01 s"},
                events=[{"time": 0.0015, "d_IL": 1.0}],
                initial={"plant": "zeros", "controller": "zeros"}))
