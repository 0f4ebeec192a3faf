import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import gridtrade as gt
from gridtrade.cli import penalty_certificate
from gridtrade.game import (cost, local_gradient, penalty_subgradient,
                            pseudo_gradient)

from conftest import make_pair_game, make_single_game, subgradient_selection


class TestConstraints:
    def test_single_node(self):
        g = make_single_game(Z_L=1.0, I_L=2.0)
        con = g.constraints
        assert np.array_equal(con.A_full, [[1.0, -1.0]])
        assert np.array_equal(con.s_A_full, [2.0])

    def test_block_reassembly(self, ref_game):
        con = ref_game.constraints
        lay = ref_game.layout
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(scale=50, size=lay.size)
            rows = con.agent_rows(x)
            assert rows.shape == (4, 8)
            full = con.A_full @ x - con.s_A_full
            assert np.allclose(rows.sum(axis=0), full, rtol=0, atol=1e-10)

    def test_load_split_sums(self, ref_game):
        """At x = 0 each agent's row carries only its own load."""
        con = ref_game.constraints
        own = np.zeros((4, 8))
        own[np.arange(4), np.arange(4)] = ref_game.plant.I_L
        assert np.array_equal(-con.agent_rows(0.0), own)
        assert np.array_equal(-con.agent_rows(0.0).sum(axis=0),
                              con.s_A_full)

    def test_local_balance_selector(self, ref_game):
        lay = ref_game.layout
        con = ref_game.constraints
        rng = np.random.default_rng(19)
        x = rng.normal(size=lay.size)
        I, V, _ = lay.split(x)
        for i in range(4):
            blk = lay.block(i + 1)
            di = con.D_stack[blk] @ x[blk]
            assert di == pytest.approx(
                V[i] + ref_game.plant.R[i] * I[i], abs=1e-14)

    @pytest.mark.parametrize("game", ["ref_game", "pair_game"])
    def test_agent_cols_adjoint_of_rows(self, game, request):
        """<agent_rows(x) + own loads, lam> = <x, agent_cols(lam)>, and
        agent_cols is block i of A_full^T lam_i."""
        g = request.getfixturevalue(game)
        con = g.constraints
        lay = g.layout
        rng = np.random.default_rng(29)
        load = -con.agent_rows(0.0)
        for _ in range(5):
            x = rng.normal(scale=50, size=lay.size)
            lam = rng.normal(size=(g.n, g.n + g.m))
            lhs = np.sum((con.agent_rows(x) + load) * lam)
            rhs = x @ con.agent_cols(lam)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)
            for i in range(g.n):
                blk = lay.block(i + 1)
                assert np.allclose(con.agent_cols(lam)[blk],
                                   con.A_full[:, blk].T @ lam[i],
                                   rtol=1e-14, atol=1e-12)

    def test_feasibility_at_oracle(self, ref_game, ref_solution):
        con = ref_game.constraints
        resid = con.A_full @ ref_solution.x_star - con.s_A_full
        assert np.abs(resid).max() < 1e-6


class TestCost:
    def test_zero_at_references(self, ref_game):
        lay = ref_game.layout
        for i in range(1, 5):
            x_i = ref_game.x_ref[lay.block(i)].copy()
            c = cost(ref_game, i, ref_game.plant.u_ref[i - 1], x_i, 0.0)
            assert c == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_input_term(self):
        g = make_single_game(alpha=(1.0, 1.0, 1.0))
        x_ref = g.x_ref[g.layout.block(1)]
        assert cost(g, 1, 1.0, x_ref, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_reference_trading_example(self, ref_game):
        # agent 1 selling 10 A at aggregate 40 A, state otherwise at refs
        x1 = np.array([10.0, 380.0, 0.0, 0.0])
        c = cost(ref_game, 1, 0.0, x1, 40.0)
        f1 = 0.5 * 10.6569 * 10.0 ** 2
        f2 = -(5.0 - 0.01 * 40.0) * 380.0 * 10.0
        assert f2 == pytest.approx(-17480.0, abs=1e-9)
        assert c == pytest.approx(f1 + f2, abs=1e-9)
        assert c == pytest.approx(-16947.155, abs=1e-9)


class TestPenaltySubgradient:
    BOX = dict(lo=377.0, hi=383.0, rho=1200.0)

    def test_interior(self):
        assert penalty_subgradient(380.0, **self.BOX) == (0.0, 0.0)

    def test_below(self):
        assert penalty_subgradient(376.0, **self.BOX) == (
            -1200.0, -1200.0)

    def test_upper_kink_interval_and_selection(self):
        iv = penalty_subgradient(383.0, **self.BOX)
        assert iv == (0.0, 1200.0)
        assert subgradient_selection(iv) == 0.0

    def test_lower_kink(self):
        assert penalty_subgradient(377.0, **self.BOX) == (-1200.0, 0.0)

    def test_above(self):
        assert penalty_subgradient(384.0, **self.BOX) == (1200.0, 1200.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            penalty_subgradient(0.0, lo=1.0, hi=1.0, rho=1.0)
        with pytest.raises(ValueError):
            penalty_subgradient(0.0, lo=0.0, hi=1.0, rho=0.0)

    def test_matches_finite_differences_away_from_kinks(self):
        lo, hi, rho = -2.0, 3.0, 7.5
        h = 1e-6

        def pen(v):
            return rho * (max(lo - v, 0.0) + max(v - hi, 0.0))

        rng = np.random.default_rng(23)
        count = 0
        while count < 100:
            v = rng.uniform(-5.0, 6.0)
            if min(abs(v - lo), abs(v - hi)) <= 1e-3:
                continue
            count += 1
            fd = (pen(v + h) - pen(v - h)) / (2 * h)
            sel = subgradient_selection(
                penalty_subgradient(v, lo, hi, rho))
            assert abs(fd - sel) <= 1e-6 * max(1.0, abs(sel))


def _fd_own_gradient(g, u, x, i, h=1e-6):
    """Central differences of r_i f_i in agent i's own coordinates."""
    lay = g.layout
    agg = x[lay.ix_I].sum()
    r_i = g.weights.r[i - 1]
    blk = lay.block(i)
    out = np.zeros(1 + int(lay.dims[i - 1]))

    def f(u_i, x_i):
        agg_i = agg - x[lay.ix_I[i - 1]] + x_i[0]
        return cost(g, i, u_i, x_i, agg_i)

    x_i0 = x[blk].copy()
    out[0] = r_i * (f(u[i - 1] + h, x_i0) - f(u[i - 1] - h, x_i0)) / (2 * h)
    for j in range(int(lay.dims[i - 1])):
        xp = x_i0.copy()
        xm = x_i0.copy()
        xp[j] += h
        xm[j] -= h
        out[1 + j] = r_i * (f(u[i - 1], xp) - f(u[i - 1], xm)) / (2 * h)
    return out


class TestPseudoGradient:
    def _random_feasible(self, g, rng):
        lay = g.layout
        u = rng.uniform(300, 400, g.n)
        x = np.zeros(lay.size)
        x[lay.ix_I] = rng.uniform(0, 60, g.n)
        x[lay.ix_V] = rng.uniform(g.plant.V_min + 0.1, g.plant.V_max - 0.1)
        x[lay.ix_line] = rng.uniform(g.plant.Il_min + 0.1,
                                     g.plant.Il_max - 0.1)
        return u, x

    def test_matches_finite_differences(self, ref_game):
        g = ref_game
        rng = np.random.default_rng(29)
        for _ in range(100):
            u, x = self._random_feasible(g, rng)
            an = pseudo_gradient(g, u, x)
            fd = np.concatenate([_fd_own_gradient(g, u, x, i)
                                 for i in range(1, g.n + 1)])
            assert np.abs(fd - an).max() <= 1e-6 * max(
                1.0, np.abs(an).max())

    def test_reference_point_block_structure(self):
        # price chosen so the aggregate term vanishes at the references
        topo = gt.MicrogridTopology(1, [], [])
        dgu = gt.DguParams(R=0.5, L=1.0, C=1.0, Z_L=1.0, I_L=5.0,
                           V_min=-10.0, V_max=10.0, V_ref=2.0, I_ref=100.0,
                           u_ref=3.0)
        g = gt.build_game(topo, gt.PlantParams([dgu], []),
                          gt.PriceParams(1.0, 0.01),
                          gt.ObjectiveWeights([2.0], [1.5], [3.0], [0.7],
                                              [[]]),
                          gt.PenaltyParams([10.0], []), validate=False)
        lay = g.layout
        u = np.array([3.0])
        x = g.x_ref.copy()
        pg = pseudo_gradient(g, u, x)
        # l - p_r * I_ref = 1 - 0.01*100 = 0: the price term vanishes
        assert pg[0] == pytest.approx(0.0, abs=1e-12)          # u entry
        assert pg[2] == pytest.approx(0.0, abs=1e-12)          # V entry
        expected_I = 2.0 * 2.0 * (0.01 * 100.0 - (1.0 - 0.01 * 100.0))
        assert pg[1] == pytest.approx(expected_I, abs=1e-10)

    def test_symmetric_agents_symmetric_blocks(self, pair_game):
        g = pair_game
        lay = g.layout
        u = np.array([0.4, 0.4])
        x = np.zeros(lay.size)
        x[lay.ix_I] = 1.5
        x[lay.ix_V] = 0.2
        pg = pseudo_gradient(g, u, x)
        blk1 = pg[0:4]   # agent 1: (u, I, V, Il)
        blk2 = pg[4:7]   # agent 2: (u, I, V)
        assert np.allclose(blk1[:3], blk2[:3], atol=1e-14)

    def test_jacobian_positive_definite(self, ref_game):
        g = ref_game
        lay = g.layout
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(10):
            u, x = self._random_feasible(g, rng)
            base = pseudo_gradient(g, u, x)
            dim = g.n + lay.size
            J = np.empty((dim, dim))
            col = 0
            for i in range(g.n):
                up = u.copy()
                up[i] += h
                J[:, col] = (pseudo_gradient(g, up, x) - base) / h
                col += 1
                for j in range(int(lay.dims[i])):
                    xp = x.copy()
                    xp[int(lay.offsets[i]) + j] += h
                    J[:, col] = (pseudo_gradient(g, u, xp) - base) / h
                    col += 1
            mineig = np.linalg.eigvalsh(0.5 * (J + J.T)).min()
            assert mineig > 0.0


class TestLocalGradient:
    def test_interval_collapses_in_smooth_region(self, ref_game):
        g = ref_game
        lay = g.layout
        x = g.x_ref.copy()
        x[lay.ix_V] = 380.0
        lo, hi = gt.game.local_gradient_interval(g, x, np.zeros(g.n))
        assert np.array_equal(lo, hi)
        sel = local_gradient(g, x, np.zeros(g.n))
        assert np.allclose(sel, lo, atol=0)

    def test_penalty_enters_selection(self, ref_game):
        g = ref_game
        lay = g.layout
        x = g.x_ref.copy()
        x[lay.ix_V[0]] = 376.0       # below the box
        with_pen = local_gradient(g, x, np.zeros(g.n))
        without = local_gradient(g, x, np.zeros(g.n), with_penalty=False)
        diff = with_pen - without
        assert diff[lay.ix_V[0]] == pytest.approx(-1200.0)
        assert np.count_nonzero(diff) == 1


    def test_interval_matches_per_entry_subgradient(self, ref_game):
        """The one pass over ``g.boxes`` gives ``penalty_subgradient``'s
        interval on every penalized entry, at random points and at points
        within (and just beyond) the 1e-9 kink tolerance of each bound."""
        g = ref_game
        b = g.boxes
        ups = np.full(g.n, 40.0)
        rng = np.random.default_rng(31)
        points = []
        for _ in range(20):
            x = g.x_ref + rng.normal(scale=2.0, size=g.layout.size)
            x[b.pos] = rng.uniform(b.lo - 5.0, b.hi + 5.0)
            points.append(x)
        for k in range(b.pos.size):
            for bound in (b.lo[k], b.hi[k]):
                for off in (-2e-9, -1e-9, -4e-10, 0.0, 4e-10, 1e-9, 2e-9):
                    x = g.x_ref.copy()
                    x[b.pos[k]] = bound + off
                    points.append(x)
        for x in points:
            lo, hi = gt.game.local_gradient_interval(g, x, ups)
            exp_lo = local_gradient(g, x, ups, with_penalty=False)
            exp_hi = exp_lo.copy()
            for k, pos in enumerate(b.pos):
                v = x[pos]
                if abs(v - b.lo[k]) <= 1e-9:
                    v = b.lo[k]
                elif abs(v - b.hi[k]) <= 1e-9:
                    v = b.hi[k]
                a, c = penalty_subgradient(v, b.lo[k], b.hi[k], b.rho[k])
                exp_lo[pos] += a
                exp_hi[pos] += c
            assert np.array_equal(lo, exp_lo)
            assert np.array_equal(hi, exp_hi)


class TestPenaltyBoxes:
    def test_reference_description(self, ref_game):
        g = ref_game
        b = g.boxes
        lay = g.layout
        p = g.plant
        assert np.array_equal(b.pos, np.concatenate([lay.ix_V, lay.ix_line]))
        assert np.array_equal(b.lo, np.concatenate([p.V_min, p.Il_min]))
        assert np.array_equal(b.hi, np.concatenate([p.V_max, p.Il_max]))
        assert np.array_equal(b.rho, np.concatenate([g.penalties.rho_V,
                                                     g.rho_Il_edge]))
        r = np.concatenate([g.weights.r, g.r_edge])
        assert np.array_equal(b.force, r * b.rho)
        assert not any(a.flags.writeable
                       for a in (b.pos, b.lo, b.hi, b.rho, b.force))

    def test_single_node_has_voltage_box_only(self):
        g = make_single_game()
        assert np.array_equal(g.boxes.pos, [1])


class TestAssumptionChecks:
    def test_price_margin_reference_value(self, ref_scenario):
        margin = gt.check_price_margin(ref_scenario.plant, 5.0, 0.01)
        expected = 5.0 - 0.01 * (383 / 16 + 30 + 383 / 50 + 15
                                 + 383 / 16 + 30 + 383 / 20 + 26)
        assert margin == pytest.approx(expected, abs=1e-12)
        assert margin == pytest.approx(3.24315, abs=1e-9)

    def test_price_margin_degenerate_sensitivity(self, ref_scenario):
        assert gt.check_price_margin(ref_scenario.plant, 5.0, 0.0) == 5.0

    def test_price_margin_after_load_step(self, ref_scenario):
        stepped = gt.apply_load_step(ref_scenario.plant, 3.0, 3.0)
        margin = gt.check_price_margin(stepped, 5.0, 0.01)
        assert margin > 0
        assert margin == pytest.approx(3.21399, abs=1e-4)

    def test_monotonicity_margin_values(self, ref_scenario):
        m = gt.check_monotonicity(ref_scenario.weights, 0.01,
                                 ref_scenario.plant.V_ref)
        r = ref_scenario.weights.r
        expected_1 = (2 * 1.0060 * 10.6569 + 2 * 1.0060 * 0.01 * 380
                      - 0.01 * 380 * r.sum())
        assert m[0] == pytest.approx(expected_1, abs=1e-10)
        assert m[0] == pytest.approx(13.35, abs=1e-2)
        assert (m > 0).all()

    def test_monotonicity_zero_sensitivity(self, ref_scenario):
        m = gt.check_monotonicity(ref_scenario.weights, 0.0,
                                 ref_scenario.plant.V_ref)
        w = ref_scenario.weights
        assert np.allclose(m, 2 * w.r * w.alpha_I, atol=0)

    def test_monotonicity_six_agents_middle_term_vanishes(self):
        w = gt.ObjectiveWeights([1.0] * 6, [1.0] * 6, [2.0] * 6, [1.0] * 6,
                                [[]] * 6)
        V_ref = np.full(6, 10.0)
        m = gt.check_monotonicity(w, 0.05, V_ref)
        expected = 2 * 2.0 - np.sum(0.05 * 10.0 * np.ones(6))
        assert np.allclose(m, expected, atol=1e-14)

    def test_game_build_rejects_bad_price_margin(self, ref_scenario):
        with pytest.raises(ValueError, match="price margin"):
            gt.build_game(ref_scenario.topo, ref_scenario.plant,
                          gt.PriceParams(5.0, 1.0), ref_scenario.weights,
                          ref_scenario.penalties)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            gt.ObjectiveWeights([1.0], [0.0], [1.0], [1.0], [[]])
        with pytest.raises(ValueError):
            gt.PenaltyParams([0.0], [])
        with pytest.raises(ValueError):
            gt.PriceParams(0.0, 1.0)


class TestPenaltyCertificate:
    """``gridtrade validate``'s statement of penalty adequacy, box by box
    in ``g.boxes`` order (V1..Vn, then the lines)."""

    @pytest.mark.parametrize("era, need, force", [(0, 1935.7, 745.6),
                                                  (1, 1916.9, 726.9)])
    def test_reference_eras(self, era, need, force, ref_game, ref_post_game,
                            ref_cp):
        """DGU 1's lower voltage bound needs more force than its penalty's
        cap r_1 rho_V, so the attractor saturates it; DGU 4's slides on
        its bound; every other box is inactive and interior."""
        g = (ref_game, ref_post_game)[era]
        _, att, needs, bad, _ = penalty_certificate(g, ref_cp)
        assert needs[0] == pytest.approx(need, abs=0.05)
        assert g.boxes.force[0] == pytest.approx(1207.2, abs=0.05)
        assert att.regimes == ("below", "interior", "interior",
                               "lower-sliding") + ("interior",) * 4
        assert abs(att.forces[3]) == pytest.approx(force, abs=0.05)
        assert (needs[1:] == 0).all()
        assert bad.tolist() == [True] + [False] * 7

    def test_tiny_penalty_flagged(self):
        g = make_pair_game(rho_V=1e-9)
        _, att, need, bad, _ = penalty_certificate(g, gt.ControllerParams())
        assert need[1] == pytest.approx(2.41, abs=0.005)
        assert att.regimes[:2] == ("below", "below")
        assert bad.tolist() == [True, True, False]

    def test_sufficient_penalty_not_flagged(self):
        _, _, need, bad, _ = penalty_certificate(make_pair_game(),
                                                 gt.ControllerParams())
        assert need[1] == pytest.approx(2.41, abs=0.005)
        assert not bad.any()


class TestExactPenalty:
    def test_scalar_coincidence_when_large_enough(self):
        # box-constrained minimiser vs penalised minimiser of a quadratic
        alpha, target, lo, hi = 2.0, 4.0, -1.0, 3.0
        rho = 5.0  # > alpha * (target - hi) = 2
        boxed = np.clip(target, lo, hi)

        def penalized(v):
            return (0.5 * alpha * (v - target) ** 2
                    + rho * (max(lo - v, 0.0) + max(v - hi, 0.0)))

        res = minimize_scalar(penalized, bounds=(-10, 10), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(res.x - boxed) < 1e-4

    def test_scalar_divergence_when_too_small(self):
        alpha, target, lo, hi = 2.0, 4.0, -1.0, 3.0
        rho = 1.0  # < alpha * (target - hi)

        def penalized(v):
            return (0.5 * alpha * (v - target) ** 2
                    + rho * (max(lo - v, 0.0) + max(v - hi, 0.0)))

        res = minimize_scalar(penalized, bounds=(-10, 10), method="bounded",
                              options={"xatol": 1e-10})
        assert res.x > hi + 1e-3   # penalty saturates, minimiser escapes
