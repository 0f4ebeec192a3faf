"""Acceptance checks for the reference four-DGU ring experiment.

Each test prints one PASS/FAIL line.  The paper promises asymptotic
convergence, not a settling time, so closed-loop convergence (AC2's
residual and box clauses), oracle equivalence (AC3) and consensus (AC4)
are judged on a long-horizon run of the same ``ring4`` scenario
(``long_run`` in conftest.py): same plant, weights, penalties,
controller, zero controller start and load step, with the step at
t = 1e6 s, t_end = 2e6 s, 1000 s samples and the exact piecewise-affine
propagator (``pwa``).  The 10 s RK4 reference run cannot show
convergence:

* from t ~ 0.29 s all four decision-copy voltages slide on the 377 V
  bound, and in that regime pattern the slowest non-conserved modes of
  the closed loop decay at 1.6e-5, 2.7e-5 and 4.8e-5 /s;
* RK4 chatters around the penalty kink, so its reported residual (578
  at t = 5- s, 507 at t = 10 s) is KKT line 4 (the penalized
  stationarity) at about the size of the penalty force; in the exact
  solution line 4 is below 1 there and the residual is the unfinished
  transient in lines 3 (81, 20) and 5 (34, 9).

On the long run the residual drops below 1e-3 in both eras and ends
near 2e-9; AC4 passes.  Two causes remain and the thresholds stay
strict:

* the voltage penalty (1200) is below the force DGU 1's lower bound
  needs at the game's equilibrium (1936, i.e. 1924 per unit weight), so
  the penalized attractor saturates that penalty and holds V1 at
  376.934 V before and 376.917 V after the step: AC2's box clause fails
  by 0.066 / 0.083 V and AC3 fails with relative gaps of 0.89 in x and
  1.37 in the weighted multipliers;
* AC2's runtime clause times the 10 s RK4 reference run, nearly all of
  it one million numpy RK4 steps, against its 60 s bound: 32.5-44.6 s
  in recent runs on a 2-core machine, 65.2 s in one on a shared host.

`test_oracle.py::TestClosedLoopEquilibrium` pins the attractor.
"""

import time

import numpy as np
import pytest

import gridtrade as gt
from gridtrade.engine import ClosedLoop, Scenario, StateLayout, run_scenario
from gridtrade.game import cost, pseudo_gradient, penalty_subgradient
from gridtrade.integrate import IntegratorConfig

from conftest import ring4_dict, rk4_run, subgradient_selection

KKT_THR = 1e-3


def _report(tag, ok, detail=""):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def timed_ref_run(ref_run):
    return ref_run


class TestAcceptance:
    def test_ac1_assumption_validation(self, ref_scenario):
        t0 = time.monotonic()
        margin1 = gt.check_price_margin(ref_scenario.plant, 5.0, 0.01)
        margins3 = gt.check_monotonicity(ref_scenario.weights, 0.01,
                                        ref_scenario.plant.V_ref)
        elapsed = time.monotonic() - t0
        ok = (abs(margin1 - 3.244) < 1e-3
              and abs(margins3[0] - 13.35) < 1e-2
              and bool((margins3 > 0).all())
              and elapsed < 1.0)
        assert _report(
            "AC1", ok,
            f"price margin {margin1:.5f} (~3.244), first monotonicity "
            f"margin {margins3[0]:.4f} (~13.35), all positive, "
            f"{elapsed * 1e3:.1f} ms")

    def test_ac2_closed_loop_convergence(self, long_run, ref_run):
        """Residual and boxes are judged on the long-horizon run, the
        runtime on the 10 s reference run.  Known to fail: DGU 1's
        saturated voltage penalty leaves V1 below its box at both
        attractors, and the reference run takes 67-82 s, not < 60 s."""
        report = long_run["report"]
        conv = report["convergence_times"]
        runtime = ref_run["runtime"]
        pre_t = conv[0]["time"]
        post_t = conv[1]["time"]
        pre_final = report["residuals"]["pre_event_final"]
        final = report["residuals"]["final"]
        boxes_ok = (pre_final["V_violation"] <= 1e-6
                    and pre_final["Il_violation"] <= 1e-6
                    and final["V_violation"] <= 1e-6
                    and final["Il_violation"] <= 1e-6)
        ok = (pre_t is not None and post_t is not None and boxes_ok
              and runtime < 60.0)
        assert _report(
            "AC2", ok,
            f"long run convergence (thr {KKT_THR:g}): pre={pre_t}, "
            f"post={post_t}; residual at the step: "
            f"{pre_final['kkt_max']:.3g}, at the end: "
            f"{final['kkt_max']:.3g}; box violations pre/final V: "
            f"{pre_final['V_violation']:.3g}/{final['V_violation']:.3g}; "
            f"reference run runtime {runtime:.1f} s (<60)")

    def test_ac3_oracle_equivalence(self, long_run, ref_post_game):
        """Judged at the end of the long-horizon run, which sits on the
        penalized attractor.  Known to fail: with DGU 1's voltage penalty
        saturated, that attractor is not the game's equilibrium."""
        traj = long_run["traj"]
        scn = long_run["scenario"]
        g_post = ref_post_game
        loop = ClosedLoop(g_post, scn.controller)
        _, cs = loop.unpack(traj.y[-1])
        sol = gt.solve_vi(g_post)
        rel_u = np.abs(cs.u - sol.u_star) / np.maximum(np.abs(sol.u_star), 1.0)
        rel_x = np.abs(cs.xhat - sol.x_star) / np.maximum(
            np.abs(sol.x_star), 1.0)
        rl = g_post.weights.r[:, None] * cs.lam
        rel_lam = np.abs(rl - sol.lambda_star) / np.maximum(
            np.abs(sol.lambda_star), 1.0)
        ok = (rel_u.max() < 1e-2 and rel_x.max() < 1e-2
              and rel_lam.max() < 1e-2)
        assert _report(
            "AC3", ok,
            f"relative gaps vs oracle: u {rel_u.max():.3g}, "
            f"x {rel_x.max():.3g}, weighted multipliers {rel_lam.max():.3g} "
            f"(all must be < 1e-2)")

    def test_ac4_consensus(self, long_run, ref_post_game):
        """Judged at the end of the long-horizon run."""
        traj = long_run["traj"]
        scn = long_run["scenario"]
        loop = ClosedLoop(ref_post_game, scn.controller)
        _, cs = loop.unpack(traj.y[-1])
        ups_spread, lam_spread = gt.consensus_errors(cs, ref_post_game)
        track = np.abs(cs.upsilon
                       - cs.xhat[ref_post_game.layout.ix_I].sum()).max()
        ok = ups_spread < 1e-4 and track < 1e-3 and lam_spread < 1e-4
        assert _report(
            "AC4", ok,
            f"estimate spread {ups_spread:.3g} (<1e-4), tracking error "
            f"{track:.3g} (<1e-3), weighted multiplier spread "
            f"{lam_spread:.3g} (<1e-4)")

    def test_ac5_conservation(self, ref_run):
        cons = ref_run["report"]["conservation"]
        ok = cons["nu_drift"] < 1e-9 and cons["theta_drift"] < 1e-9
        assert _report(
            "AC5", ok,
            f"per-second drift: sum(nu) {cons['nu_drift']:.3g}, "
            f"sum(theta) {cons['theta_drift']:.3g} (both <1e-9)")

    @pytest.mark.slow
    def test_ac6_singular_perturbation(self):
        def slow_coords(traj, reduced):
            """The reduced model's blocks, read through either layout."""
            lay, slow = (StateLayout(red.games[0], r) for r in (reduced, True))
            at = {**lay.plant, **lay.ctrl}
            return np.hstack([traj.y[:, at[k]]
                              for k in {**slow.plant, **slow.ctrl}])

        base = dict(integrator={"method": "rk4", "dt": "1e-5 s",
                                "t_end": "1 s"}, events=[],
                    output={"sample_period": "1e-3 s"})
        red = Scenario.from_dict(ring4_dict(**base))
        traj_red, _, _ = run_scenario(red, reduced=True)
        gaps = {}
        for eps in (1e-3, 1e-4):
            scn = Scenario.from_dict(ring4_dict(
                controller={"eps_fast": eps, "eps_u": 0.1}, **base))
            traj, _, _ = run_scenario(scn)
            a = slow_coords(traj, False)
            b = slow_coords(traj_red, True)
            gaps[eps] = np.abs(a - b).max()
        ratio = gaps[1e-3] / gaps[1e-4]
        ok = ratio >= 5.0
        assert _report(
            "AC6", ok,
            f"slow-state gap {gaps[1e-3]:.3g} at eps=1e-3 vs "
            f"{gaps[1e-4]:.3g} at eps=1e-4; ratio {ratio:.1f} (>=5)")

    def test_ac7_numerical_calculus(self, ref_game):
        g = ref_game
        lay = g.layout
        rng = np.random.default_rng(41)
        h = 1e-6

        def random_feasible():
            u = rng.uniform(300, 400, g.n)
            x = np.zeros(lay.size)
            x[lay.ix_I] = rng.uniform(0, 60, g.n)
            x[lay.ix_V] = rng.uniform(377.1, 382.9, g.n)
            x[lay.ix_line] = rng.uniform(-19.9, 19.9, g.m)
            return u, x

        worst_grad = 0.0
        for _ in range(100):
            u, x = random_feasible()
            an = pseudo_gradient(g, u, x)
            fd = np.empty_like(an)
            col = 0
            for i in range(1, g.n + 1):
                r_i = g.weights.r[i - 1]
                blk = lay.block(i)
                agg_rest = x[lay.ix_I].sum() - x[lay.ix_I[i - 1]]

                def f(u_i, x_i):
                    return cost(g, i, u_i, x_i, agg_rest + x_i[0])

                fd[col] = r_i * (f(u[i - 1] + h, x[blk])
                                 - f(u[i - 1] - h, x[blk])) / (2 * h)
                col += 1
                for j in range(int(lay.dims[i - 1])):
                    xp, xm = x[blk].copy(), x[blk].copy()
                    xp[j] += h
                    xm[j] -= h
                    fd[col] = r_i * (f(u[i - 1], xp)
                                     - f(u[i - 1], xm)) / (2 * h)
                    col += 1
            worst_grad = max(worst_grad,
                             np.abs(fd - an).max() / max(1.0,
                                                         np.abs(an).max()))
        grad_ok = worst_grad <= 1e-6

        lo_b, hi_b, rho = 377.0, 383.0, 1200.0

        def pen(v):
            return rho * (max(lo_b - v, 0.0) + max(v - hi_b, 0.0))

        worst_sub = 0.0
        count = 0
        while count < 100:
            v = rng.uniform(370.0, 390.0)
            if min(abs(v - lo_b), abs(v - hi_b)) <= 1e-3:
                continue
            count += 1
            fd = (pen(v + h) - pen(v - h)) / (2 * h)
            sel = subgradient_selection(
                penalty_subgradient(v, lo_b, hi_b, rho))
            worst_sub = max(worst_sub, abs(fd - sel) / max(1.0, abs(sel)))
        sub_ok = worst_sub <= 1e-6

        min_eig = np.inf
        for _ in range(10):
            u, x = random_feasible()
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
            min_eig = min(min_eig,
                          float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()))
        jac_ok = min_eig > 0.0

        ok = grad_ok and sub_ok and jac_ok
        assert _report(
            "AC7", ok,
            f"gradient FD mismatch {worst_grad:.2e} (<1e-6), subgradient FD "
            f"mismatch {worst_sub:.2e} (<1e-6), min Jacobian eigenvalue "
            f"{min_eig:.4f} (>0)")

    def test_ac8_integrator_order(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=1.0,
                                   sample_period=1.0)
            traj = rk4_run([[-1.0]], [0.0], [1.0], cfg)     # dy/dt = -y
            errors.append(abs(traj.y[-1, 0] - np.exp(-1.0)))
        r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
        ok = 8.0 <= r1 <= 32.0 and 8.0 <= r2 <= 32.0
        assert _report(
            "AC8", ok,
            f"global error ratios per halving: {r1:.1f}, {r2:.1f} "
            f"(dt^4 scaling allows [8, 32])")

    def test_ac9_determinism(self, ref_run, tmp_path):
        scn = Scenario.from_dict(ring4_dict())
        run_scenario(scn, outdir=str(tmp_path))
        first = (ref_run["outdir"] / "timeseries.csv").read_bytes()
        second = (tmp_path / "timeseries.csv").read_bytes()
        ok = first == second
        assert _report(
            "AC9", ok,
            f"repeated full runs byte-identical: {ok} "
            f"({len(first)} bytes)")
