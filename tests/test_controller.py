from dataclasses import fields, replace

import numpy as np
import pytest

import gridtrade as gt
from gridtrade import ControllerParams, ControllerState, consensus_errors, \
    controller_rhs, fast_equilibrium, kkt_residual
from gridtrade._kernels import affine_probe
from gridtrade.controller import lyapunov_diagnostics
from gridtrade.engine import StateLayout
from gridtrade.topology import laplacian

from conftest import make_pair_game, ring_scenario, rk4_run

CP = ControllerParams(eps_fast=0.01, eps_u=0.1)


class TestControllerState:
    def test_vector_roundtrip(self, ref_game):
        rng = np.random.default_rng(2)
        v = rng.normal(size=ControllerState.zeros(ref_game).to_vector().size)
        cs = ControllerState.from_vector(v, ref_game)
        assert np.array_equal(cs.to_vector(), v)
        assert cs.lam.shape == (4, 8)

    def test_zeros_shape(self, ref_game):
        cs = ControllerState.zeros(ref_game)
        # 3n + (2n+m) + 2n(n+m) + n for n = m = 4
        assert cs.to_vector().size == 92


class TestControllerRhs:
    def test_zero_state_pattern(self, pair_game):
        """Zero references, zero state: only the load terms drive."""
        cs = ControllerState.zeros(pair_game)
        d = controller_rhs(cs, np.zeros(2), pair_game, CP)
        assert np.array_equal(d.u, np.zeros(2))
        assert np.array_equal(d.gamma, np.zeros(2))
        assert np.array_equal(d.upsilon, np.zeros(2))
        assert np.array_equal(d.xhat, np.zeros(pair_game.layout.size))
        con = pair_game.constraints
        r = pair_game.weights.r
        for i in range(2):
            own_load = np.zeros(3)
            own_load[i] = con.s_A_full[i]
            assert np.allclose(d.lam[i], -r[i] * own_load, atol=0)

    def test_symmetric_agents(self):
        g = make_pair_game(I_L=(2.0, 2.0))
        cs = ControllerState.zeros(g)
        cs.u[:] = 0.3
        cs.gamma[:] = 0.1
        cs.upsilon[:] = 2.0
        cs.xhat[g.layout.ix_I] = 1.0
        d = controller_rhs(cs, np.full(2, 1.0), g, CP)
        assert d.u[0] == pytest.approx(d.u[1], abs=1e-14)
        assert d.gamma[0] == pytest.approx(d.gamma[1], abs=1e-14)
        assert d.upsilon[0] == pytest.approx(d.upsilon[1], abs=1e-14)
        lay = g.layout
        assert d.xhat[lay.ix_I[0]] == pytest.approx(d.xhat[lay.ix_I[1]],
                                                    abs=1e-12)
        assert d.xhat[lay.ix_V[0]] == pytest.approx(d.xhat[lay.ix_V[1]],
                                                    abs=1e-12)
        # constraint drives mirror each other up to node relabeling
        assert d.lam[0][0] == pytest.approx(d.lam[1][1], abs=1e-12)

    def test_vanishes_at_interior_attractor(self, wide_box_game):
        eq = gt.closed_loop_equilibrium(wide_box_game, CP)
        d = controller_rhs(eq.controller, eq.plant.I, wide_box_game, CP)
        assert np.abs(d.to_vector()).max() < 1e-8

    def test_vanishes_at_reference_attractor_smooth_rows(self, ref_game,
                                                         ref_cp,
                                                         ref_attractor):
        eq = ref_attractor
        d = controller_rhs(eq.controller, eq.plant.I, ref_game, ref_cp)
        vec = d.to_vector()
        lay = ref_game.layout
        sliding = [i for i, reg in enumerate(eq.regimes)
                   if reg == "lower-sliding"]
        mask = np.ones(vec.size, dtype=bool)
        base = 3 * ref_game.n
        for i in sliding:
            mask[base + lay.ix_V[i]] = False
        assert np.abs(vec[mask]).max() < 1e-8
        assert sliding == [3]  # agent 4 rides its lower voltage bound


class TestFastEquilibrium:
    def test_sum_estimate(self, ref_game):
        ups, _ = fast_equilibrium(np.array([1.0, 2.0, 3.0, 4.0]),
                                  ref_game.topo)
        assert np.allclose(ups, 10.0, atol=0)

    def test_balanced_input(self, ref_game):
        ups, nu = fast_equilibrium(np.full(4, 2.5), ref_game.topo)
        assert np.allclose(ups, 10.0, atol=0)
        assert np.allclose(nu, 0.0, atol=1e-12)

    def test_zeroes_fast_dynamics(self, ref_game):
        rng = np.random.default_rng(4)
        for _ in range(5):
            Ihat = rng.normal(scale=30, size=4)
            ups, nu = fast_equilibrium(Ihat, ref_game.topo)
            cs = ControllerState.zeros(ref_game)
            cs.upsilon = ups
            cs.nu = nu
            cs.xhat[ref_game.layout.ix_I] = Ihat
            d = controller_rhs(cs, np.zeros(4), ref_game, CP)
            assert np.abs(d.upsilon).max() < 1e-10
            assert np.abs(d.nu).max() < 1e-10
            assert abs(nu.sum()) < 1e-10

    def test_convergence_within_fast_horizon(self, ref_game):
        """Frozen decisions: the estimator contracts to its fixed point."""
        g = ref_game
        topo = g.topo
        Lap = laplacian(topo)
        rng = np.random.default_rng(6)
        Ihat = rng.uniform(0, 50, 4)
        ups_star, nu_star = fast_equilibrium(Ihat, topo)
        eps = CP.eps_fast

        def rhs(y):
            ups, nu = y[:4], y[4:]
            d_ups = (-ups - Lap @ ups - Lap @ nu + 4 * Ihat) / eps
            d_nu = (Lap @ ups) / eps
            return np.concatenate([d_ups, d_nu])

        nu0 = rng.normal(size=4)
        nu0 -= nu0.mean()
        y0 = np.concatenate([rng.normal(scale=20, size=4), nu0])
        cfg = gt.IntegratorConfig(method="rk4", dt=1e-5,
                                  t_end=50 * eps, sample_period=50 * eps)
        traj = rk4_run(*affine_probe(rhs, 8), y0, cfg)
        err = np.abs(traj.y[-1] - np.concatenate([ups_star, nu_star])).max()
        assert err < 1e-6


class TestKktResidual:
    def test_zero_at_reference_attractor(self, ref_game, ref_cp,
                                         ref_attractor):
        res = kkt_residual(ref_attractor.controller, ref_game, ref_cp)
        assert res.max < 1e-6
        assert res.lines.shape == (7,)

    def test_zero_state_pattern(self, pair_game):
        cs = ControllerState.zeros(pair_game)
        res = kkt_residual(cs, pair_game, CP)
        r = pair_game.weights.r
        expected6 = max(abs(r[i] * pair_game.constraints.s_A_full[i])
                        for i in range(2))
        assert res.lines[5] == pytest.approx(expected6, abs=1e-14)
        for k in (0, 1, 2, 3, 4, 6):
            assert res.lines[k] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("case", ["ring4", "pair"])
    def test_lines_are_the_dynamics(self, case, ref_game, ref_cp, pair_game):
        """At random states, the residual's lines are the controller's
        own equations with the measured current replaced by the decision
        copy's: lines 3, 5, 6 and 7 bit for bit, lines 1-2 as eps_fast
        times the estimator derivatives within 1 ulp."""
        g, cp = (ref_game, ref_cp) if case == "ring4" else (pair_game, CP)
        rng = np.random.default_rng(21)
        size = ControllerState.zeros(g).to_vector().size
        for _ in range(20):
            cs = ControllerState.from_vector(
                rng.normal(scale=10.0 ** rng.integers(-2, 4), size=size), g)
            lines = kkt_residual(cs, g, cp).lines
            d = controller_rhs(cs, cs.xhat[g.layout.ix_I], g, cp)
            for k, rate in ((2, d.u), (4, d.gamma), (5, d.lam),
                            (6, d.theta)):
                assert lines[k] == np.abs(rate).max()
            for k, rate in ((0, d.upsilon), (1, d.nu)):
                scaled = np.abs(cp.eps_fast * rate).max()
                assert abs(lines[k] - scaled) <= np.spacing(lines[k])

    def test_multiplier_perturbation_scales_linearly(self, ref_game,
                                                     ref_cp,
                                                     ref_attractor):
        base = ref_attractor.controller
        results = []
        for delta in (1e-4, 1e-3, 1e-2):
            lam = base.lam.copy()
            lam[0, 0] += delta
            results.append(kkt_residual(replace(base, lam=lam), ref_game,
                                        ref_cp).max)
        assert results[1] / results[0] == pytest.approx(10.0, rel=0.2)
        assert results[2] / results[1] == pytest.approx(10.0, rel=0.2)


class TestConsensusErrors:
    def test_zero_spread(self, ref_game):
        cs = ControllerState.zeros(ref_game)
        cs.upsilon[:] = 3.0
        cs.lam[:] = 1.0 / ref_game.weights.r[:, None]
        ups_spread, lam_spread = consensus_errors(cs, ref_game)
        assert ups_spread == 0.0
        assert lam_spread < 1e-15

    def test_estimate_spread(self, ref_game):
        cs = ControllerState.zeros(ref_game)
        cs.upsilon = np.array([1.0, 2.0, 1.0, 1.0])
        ups_spread, _ = consensus_errors(cs, ref_game)
        assert ups_spread == pytest.approx(1.0)

    def test_small_at_reference_attractor(self, ref_game, ref_attractor):
        ups_spread, lam_spread = consensus_errors(ref_attractor.controller,
                                                  ref_game)
        assert ups_spread < 1e-9
        assert lam_spread < 1e-9

    def test_matches_pairwise_spread(self, ref_game):
        """Column max minus min equals the largest pairwise difference
        bit for bit: rounding a subtraction is monotone."""
        rng = np.random.default_rng(3)
        cs = ControllerState.zeros(ref_game)
        for _ in range(20):
            cs.lam = rng.normal(scale=10.0 ** rng.integers(-3, 4),
                                size=cs.lam.shape)
            rl = ref_game.weights.r[:, None] * cs.lam
            pairwise = max(np.abs(rl[i] - rl[j]).max()
                           for i in range(4) for j in range(i + 1, 4))
            assert consensus_errors(cs, ref_game)[1] == pairwise


class TestRowBlocks:
    """A block of flat states, one per row, gives every row the bits that
    row gives alone: the unpacked blocks, the KKT lines, the consensus
    spreads and the energy pair.  A run's diagnostics take a load era's
    rows in one call."""

    @staticmethod
    def results(lay, g, y):
        plant, cs = lay.unpack(y)
        return ([getattr(plant, f.name) for f in fields(plant)]
                + [getattr(cs, f.name) for f in fields(cs)]
                + [kkt_residual(cs, g, CP).lines, *consensus_errors(cs, g),
                   *lyapunov_diagnostics(plant, cs, g, CP)])

    def assert_rows(self, lay, g, Y):
        block = self.results(lay, g, Y)
        alone = [self.results(lay, g, y) for y in Y]
        for k, b in enumerate(block):
            stacked = np.stack([np.asarray(a[k]) for a in alone])
            assert b.shape == stacked.shape
            assert b.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    @pytest.mark.parametrize("era", [0, 1])
    def test_ring4_eras(self, ref_scenario, era, reduced):
        """Random rows, the era's attractor (penalties on their kinks) and
        the attractor nudged off it."""
        g = ref_scenario.games[era]
        lay = StateLayout(g, reduced)
        eq = gt.closed_loop_equilibrium(g, CP)
        y_eq = lay.pack(eq.plant, eq.controller)
        rng = np.random.default_rng(40 + era)
        Y = np.vstack([rng.normal(scale=100.0, size=(6, lay.size)), y_eq,
                       y_eq + rng.normal(scale=1e-3, size=lay.size)])
        self.assert_rows(lay, g, Y)

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    def test_ring16(self, reduced):
        """At n = 16 the estimate sums 16 currents, where a block's sum
        would add in another order unless each row is summed alone."""
        g = ring_scenario(16).games[0]
        lay = StateLayout(g, reduced)
        Y = np.random.default_rng(42).normal(scale=100.0, size=(7, lay.size))
        self.assert_rows(lay, g, Y)


class TestConservation:
    def test_rhs_level_invariants(self, ref_game):
        rng = np.random.default_rng(8)
        size = ControllerState.zeros(ref_game).to_vector().size
        for _ in range(5):
            cs = ControllerState.from_vector(
                rng.normal(scale=200, size=size), ref_game)
            d = controller_rhs(cs, rng.normal(size=4), ref_game, CP)
            scale = max(1.0, np.abs(cs.upsilon).max(), np.abs(cs.lam).max())
            assert abs(d.nu.sum()) < 1e-10 * scale
            assert np.abs(d.theta.sum(axis=0)).max() < 1e-10 * scale


class TestControllerParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            ControllerParams(eps_fast=0.0)
        with pytest.raises(ValueError):
            ControllerParams(eps_u=-1.0)

    @pytest.mark.parametrize("field", ["eps_fast", "eps_u"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match="controller time-scale "
                                             "constants must be finite"):
            ControllerParams(**{field: value})
