import copy
import importlib.util
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridtrade as gt
from gridtrade import ControllerParams, _kernels, closed_loop_equilibrium, \
    engine, oracle, solve_vi
from gridtrade.controller import ControllerState, \
    boundary_layer_energy_matrix, controller_rhs, lyapunov_diagnostics
from gridtrade.engine import ClosedLoop
from gridtrade.integrate import Trajectory
from gridtrade.oracle import _Vi, _solve_extragradient
from gridtrade.plant import PlantState
from gridtrade.pwa import (ABOVE, BELOW, INTERIOR, LOWER, UPPER,
                           saturated_force)

from conftest import make_single_game, regime_names, ring_scenario

CP = ControllerParams(0.01, 0.1)
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def scaled_game(scn, factor):
    w = scn.weights
    weights = gt.ObjectiveWeights(w.r * factor, w.alpha_u, w.alpha_I,
                                  w.alpha_V, [a.copy() for a in w.alpha_Il])
    return gt.build_game(scn.topo, scn.plant, scn.price, weights,
                         scn.penalties, validate=False)


def hand_layout(g):
    """Positions of u and x in the joint vector, placed agent by agent:
    (u_i, I_i, V_i, lines_i) per agent."""
    lay = g.layout
    zu = []
    zx = np.zeros(lay.size, dtype=int)
    pos = 0
    for i in range(g.n):
        zu.append(pos)
        pos += 1
        for j in range(int(lay.dims[i])):
            zx[int(lay.offsets[i]) + j] = pos
            pos += 1
    return np.array(zu), zx


class TestSolveVi:
    def test_single_agent_closed_form(self):
        # one DGU, no lines: on the feasible line x = (I, Z(I-IL)),
        # u = V + R I, the equilibrium current solves a scalar equation.
        Z, IL, R = 2.0, 3.0, 0.5
        aU, aI, aV = 1.3, 2.0, 0.7
        l, p_r = 2.0, 1e-2
        Vr, Ir, ur = 1.5, 0.5, 0.2
        g = make_single_game(Z_L=Z, I_L=IL, R=R, alpha=(aU, aI, aV),
                             l=l, p_r=p_r, refs=(Ir, Vr, ur))
        # dh/dI = aU(Z(I-IL)+RI-ur)(Z+R) + aI(I-Ir) + aV(Z(I-IL)-Vr)Z
        #         - l*Vr + 2 p_r Vr I = 0, linear in I
        coef = aU * (Z + R) ** 2 + aI + aV * Z ** 2 + 2 * p_r * Vr
        const = (-aU * (Z + R) * (Z * IL + ur) * -1.0  # expanded below
                 )
        # assemble constants explicitly
        const = (aU * (Z + R) * (-Z * IL - ur) + aI * (-Ir)
                 + aV * Z * (-Z * IL - Vr) - l * Vr)
        I_star = -const / coef
        V_star = Z * (I_star - IL)
        u_star = V_star + R * I_star
        sol = solve_vi(g)
        assert sol.method == "active_set" and sol.converged
        assert sol.u_star[0] == pytest.approx(u_star, abs=1e-8)
        assert sol.x_star[0] == pytest.approx(I_star, abs=1e-8)
        assert sol.x_star[1] == pytest.approx(V_star, abs=1e-8)

    def test_wide_boxes_match_hand_assembled_kkt(self, wide_box_game):
        """Independent dense assembly of the stationarity system."""
        g = wide_box_game
        lay = g.layout
        w = g.weights
        p = g.plant
        n, m = g.n, g.m
        nz = n + lay.size
        # build G, g0 by hand
        G = np.zeros((nz, nz))
        g0 = np.zeros(nz)
        zu, zx = hand_layout(g)
        for i in range(n):
            G[zu[i], zu[i]] = w.r[i] * w.alpha_u[i]
            g0[zu[i]] = -w.r[i] * w.alpha_u[i] * p.u_ref[i]
        for i in range(n):
            for j in range(n):
                G[zx[lay.ix_I[i]], zx[lay.ix_I[j]]] = \
                    w.r[i] * g.price.p_r * p.V_ref[i]
            G[zx[lay.ix_I[i]], zx[lay.ix_I[i]]] += \
                w.r[i] * (w.alpha_I[i] + g.price.p_r * p.V_ref[i])
            g0[zx[lay.ix_I[i]]] = w.r[i] * (-w.alpha_I[i] * p.I_ref[i]
                                            - p.V_ref[i] * g.price.l)
            G[zx[lay.ix_V[i]], zx[lay.ix_V[i]]] = w.r[i] * w.alpha_V[i]
            g0[zx[lay.ix_V[i]]] = -w.r[i] * w.alpha_V[i] * p.V_ref[i]
        for k in range(m):
            pos_k = zx[lay.ix_line[k]]
            G[pos_k, pos_k] = g.r_edge[k] * g.alpha_Il_edge[k]
            g0[pos_k] = -g.r_edge[k] * g.alpha_Il_edge[k] * p.Il_ref[k]
        Mc = np.zeros((n + m + n, nz))
        Mc[:n + m, zx] = g.constraints.A_full
        for i in range(n):
            Mc[n + m + i, zx[lay.block(i + 1)]] = \
                g.constraints.D_stack[lay.block(i + 1)]
            Mc[n + m + i, zu[i]] = -1.0
        cc = np.concatenate([g.constraints.s_A_full, np.zeros(n)])
        k = Mc.shape[0]
        K = np.block([[G, Mc.T], [Mc, np.zeros((k, k))]])
        sol_lin = np.linalg.solve(K, np.concatenate([-g0, cc]))
        z = sol_lin[:nz]
        sol = solve_vi(g)
        assert np.abs(sol.u_star - z[zu]).max() < 1e-8
        assert np.abs(sol.x_star - z[zx]).max() < 1e-8
        assert np.abs(sol.lambda_star - sol_lin[nz:nz + n + m]).max() < 1e-6

    def test_reference_scenario_boxes(self, ref_solution, ref_game):
        lay = ref_game.layout
        I, V, Il = lay.split(ref_solution.x_star)
        assert (V >= 377.0 - 1e-9).all() and (V <= 383.0 + 1e-9).all()
        assert (np.abs(Il) <= 20.0 + 1e-9).all()
        assert V[0] == pytest.approx(377.0, abs=1e-9)  # lower bound active
        assert V[1] > 377.0 + 1e-3                     # others interior

    def test_post_step_boxes(self, ref_post_game):
        sol = solve_vi(ref_post_game)
        lay = ref_post_game.layout
        I, V, Il = lay.split(sol.x_star)
        assert sol.converged
        assert (V >= 377.0 - 1e-9).all() and (V <= 383.0 + 1e-9).all()
        assert (np.abs(Il) <= 20.0 + 1e-9).all()

    @pytest.mark.slow
    def test_deterministic(self, ref_game, ref_extragradient):
        a = ref_extragradient
        b = _solve_extragradient(_Vi(ref_game))
        assert np.array_equal(a.u_star, b.u_star)
        assert np.array_equal(a.x_star, b.x_star)
        assert a.iterations == b.iterations

    def test_iteration_budget_flag(self, ref_game):
        sol = _solve_extragradient(_Vi(ref_game), tol=1e-300, max_iter=5)
        assert not sol.converged
        assert sol.iterations == 5
        assert np.isfinite(sol.u_star).all()

    def test_uniform_weight_scaling_invariance(self, ref_scenario,
                                               ref_solution):
        g3 = scaled_game(ref_scenario, 3.0)
        sol3 = solve_vi(g3)
        assert np.abs(sol3.u_star - ref_solution.u_star).max() < 1e-6
        assert np.abs(sol3.x_star - ref_solution.x_star).max() < 1e-6
        ratio = sol3.lambda_star / ref_solution.lambda_star
        assert np.allclose(ratio, 3.0, rtol=1e-6)

    def test_residual_history_monotone_after_burn_in(self,
                                                     ref_extragradient):
        hist = np.array(ref_extragradient.history[10:])
        assert ((hist[1:] - hist[:-1]) <= 1e-12 + 1e-6 * hist[:-1]).all()

    def test_empty_feasible_set_diagnosed(self, ref_scenario):
        # disjoint voltage windows force line currents beyond their box
        scn = ref_scenario
        dgus = list(scn.plant.dgus)
        from dataclasses import replace

        dgus[1] = replace(dgus[1], V_min=500.0, V_max=510.0, V_ref=505.0)
        plant = gt.PlantParams(dgus, scn.plant.lines)
        g = gt.build_game(scn.topo, plant, scn.price, scn.weights,
                          scn.penalties, validate=False)
        with pytest.raises(RuntimeError, match="empty"):
            solve_vi(g)


def ring_game(n, heads=None):
    return ring_scenario(n, heads).games[0]


class TestVi:
    """The oracle's one assembly of the game: closed-form index arrays,
    join/split and read-only arrays."""

    @staticmethod
    def check_layout(g):
        vi = _Vi(g)
        zu, zx = hand_layout(g)
        assert np.array_equal(vi.z_of_u, zu)
        assert np.array_equal(vi.z_of_x, zx)
        assert np.array_equal(np.sort(np.concatenate([zu, zx])),
                              np.arange(vi.size))
        rng = np.random.default_rng(g.n)
        u, x = rng.normal(size=g.n), rng.normal(size=g.layout.size)
        z = vi.join(u, x)
        su, sx = vi.split(z)
        assert np.array_equal(su, u) and np.array_equal(sx, x)
        assert np.array_equal(vi.join(su, sx), z)

    @pytest.mark.parametrize("case", ["ring4", "ring16"])
    def test_index_arrays_match_hand_layout(self, case, ref_game):
        """ring4: agent 1 manages two lines, agent 4 none."""
        g = ref_game if case == "ring4" else ring_game(16)
        if case == "ring4":
            assert list(g.layout.dims) == [4, 3, 3, 2]
        self.check_layout(g)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n, max_size=n)))
    def test_index_arrays_any_partition(self, heads):
        self.check_layout(ring_game(len(heads), heads))

    def test_arrays_read_only(self, ref_game):
        vi = _Vi(ref_game)
        for name in ("z_of_u", "z_of_x", "M", "c", "lo", "hi", "box", "G",
                     "g0", "start"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(vi, name)[0] = 0


class TestGameMap:
    @pytest.mark.parametrize("era", ["ref_game", "ref_post_game", "ring16"])
    def test_probe_matches_pseudo_gradient(self, era, request):
        """``G z + g0`` is the weighted game map :func:`pseudo_gradient`
        evaluates agent by agent, constant term included."""
        g = ring_game(16) if era == "ring16" else request.getfixturevalue(era)
        vi = _Vi(g)
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = rng.normal(scale=300, size=vi.size)
            ref = gt.pseudo_gradient(g, *vi.split(z))
            assert np.abs(vi.G @ z + vi.g0 - ref).max() \
                <= 1e-12 * np.abs(ref).max()


class TestActiveSet:
    @pytest.mark.parametrize("era", ["ref_game", "ref_post_game"])
    def test_matches_extragradient_bitwise(self, era, request):
        g = request.getfixturevalue(era)
        a = solve_vi(g)
        b = (request.getfixturevalue("ref_extragradient")
             if era == "ref_game" else _solve_extragradient(_Vi(g)))
        assert a.method == "active_set" and a.iterations == 0
        assert b.method == "extragradient"
        assert np.array_equal(a.u_star, b.u_star)
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.lambda_star, b.lambda_star)

    def test_certificate_residual(self, ref_game, ref_solution):
        """The reported residual is the certificate's: the larger of the
        balance gap and the stationarity residual."""
        rec = ref_solution.recovery
        vi = _Vi(ref_game)
        gap = np.abs(vi.M @ vi.join(ref_solution.u_star, ref_solution.x_star)
                     - vi.c).max()
        assert ref_solution.method == "active_set" and ref_solution.converged
        assert ref_solution.residual == max(gap, rec.residual)
        assert rec.residual <= 1e-9 * rec.scale

    def test_falls_back_when_uncertified(self, ref_game, ref_solution,
                                         monkeypatch):
        from gridtrade import oracle

        monkeypatch.setattr(oracle, "_active_set",
                            lambda vi, cp=None, z=None: None)
        sol = solve_vi(ref_game)
        assert sol.method == "extragradient"
        assert sol.iterations > 0
        assert np.abs(sol.u_star - ref_solution.u_star).max() < 1e-8
        assert np.abs(sol.x_star - ref_solution.x_star).max() < 1e-8

    def test_ring16_certified(self):
        g = ring_game(16)
        sol = solve_vi(g)
        assert sol.method == "active_set" and sol.converged
        rec = sol.recovery
        assert rec.residual <= 1e-9 * rec.scale
        assert (rec.active_lower | rec.active_upper).any()
        vi = _Vi(g)
        z = vi.join(sol.u_star, sol.x_star)
        assert np.abs(vi.M @ z - vi.c).max() < 1e-8
        assert (z >= vi.lo - 1e-9).all() and (z <= vi.hi + 1e-9).all()


def eager_face_solve(G, g0, M, c, lo, hi, cap, state):
    """One face of :func:`eager_active_set`, its KKT matrix built anew."""
    shift = g0 - saturated_force(state, cap)
    pins = np.flatnonzero((state == LOWER) | (state == UPPER))
    nz, nc = g0.size, c.size
    K = np.zeros((nz + nc + pins.size,) * 2)
    K[:nz, :nz] = G
    K[nz:nz + nc, :nz] = M
    K[:nz, nz:nz + nc] = M.T
    rows = nz + nc + np.arange(pins.size)
    K[rows, pins] = K[pins, rows] = 1.0
    sol = np.linalg.solve(K, np.concatenate(
        [-shift, c, np.where(state[pins] == LOWER, lo[pins], hi[pins])]))
    return sol[:nz], sol[nz:nz + nc], sol[nz + nc:]


def eager_active_set(vi, cp=None, z=None):
    """The reference active set: a fresh KKT matrix per face and every
    switching rule scored on every entry each round."""
    M, c, lo, hi, G, g0 = vi.M, vi.c, vi.lo, vi.hi, vi.G, vi.g0
    cap = np.full(vi.size, np.inf)
    if cp is not None:
        G = G.copy()
        G[vi.z_of_u, vi.z_of_x[vi.g.layout.ix_I]] += cp.eps_u
        cap[vi.box] = vi.g.boxes.force
    if z is None:
        z = vi.start
    state = np.where(z - lo <= 1e-4, LOWER,
                     np.where(hi - z <= 1e-4, UPPER, INTERIOR))
    none = np.full(vi.size, -np.inf)
    for _ in range(max(40, 2 * vi.size)):
        try:
            zf, mu, pin_forces = eager_face_solve(G, g0, M, c, lo, hi, cap,
                                                  state)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(zf).all() and np.isfinite(pin_forces).all()):
            return None
        lower = state == LOWER
        pinned = lower | (state == UPPER)
        force = saturated_force(state, -cap)
        force[pinned] = pin_forces
        inward = np.where(lower, -force, force)
        rules = (
            (np.where(pinned, -inward, none), 1e-9,
             np.full(vi.size, INTERIOR)),
            (np.where(pinned, inward - cap, none), 1e-9,
             np.where(lower, BELOW, ABOVE)),
            (np.where(state == BELOW, zf - lo,
                      np.where(state == ABOVE, hi - zf, none)),
             1e-12, np.where(state == BELOW, LOWER, UPPER)),
            (np.where(state == INTERIOR, np.maximum(lo - zf, zf - hi), none),
             1e-12, np.where(zf < lo, LOWER, UPPER)),
        )
        for score, tol, target in rules:
            j = int(np.argmax(score))
            if score[j] > tol:
                state[j] = target[j]
                break
        else:
            return zf, mu, state, force
    return None


def assert_same_faces(g, cp, z=None):
    """The active set and :func:`eager_active_set` end on the same face
    with the same bits: z, the balance multipliers, the regime per entry
    and the force per entry."""
    vi = _Vi(g)
    got = oracle._active_set(vi, cp, z)
    want = eager_active_set(vi, cp, z)
    assert (got is None) == (want is None)
    for a, b in zip(got or (), want or ()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return want


def ring_tree_scenario(n, seed):
    """The benchmark's seeded ring of ``n`` DGUs (``bench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return gt.Scenario.from_dict(workloads.ring_tree(n, seed))


class TestActiveSetFaces:
    """The active set assembles its KKT block once and tests one rule at a
    time; it keeps the faces of the eager one above, bit for bit."""

    @pytest.mark.parametrize("era", ["ref_game", "ref_post_game"])
    @pytest.mark.parametrize("capped", [False, True])
    def test_ring4_eras(self, era, capped, ref_cp, request):
        g = request.getfixturevalue(era)
        cp = ref_cp if capped else None
        face = assert_same_faces(g, cp)
        assert face is not None
        # a warm start on the face found: the start pins its entries
        assert_same_faces(g, cp, face[0])

    def test_ring16(self):
        scn = ring_tree_scenario(16, 0)
        for g in scn.games:
            for cp in (None, scn.controller):
                assert assert_same_faces(g, cp) is not None

    @settings(max_examples=12, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 2**16))
    def test_drawn_rings(self, n, seed):
        scn = ring_tree_scenario(n, seed)
        for g in scn.games:
            for cp in (None, scn.controller):
                assert_same_faces(g, cp)


def project(vi, z0):
    """Dykstra's projection of ``z0`` onto the feasible set of ``vi``, as
    ``_solve_extragradient`` makes it."""
    P = vi.M.T @ np.linalg.inv(vi.M @ vi.M.T)
    return _kernels.dykstra_project(P, vi.M, vi.c, vi.lo, vi.hi, z0,
                                    *oracle._DYKSTRA_STOP)


class TestProjector:
    def test_idempotent_on_feasible_point(self, ref_game, ref_solution):
        vi = _Vi(ref_game)
        z = vi.join(ref_solution.u_star, ref_solution.x_star)
        assert np.abs(project(vi, z) - z).max() < 1e-10

    def test_projection_feasible(self, ref_game):
        vi = _Vi(ref_game)
        rng = np.random.default_rng(9)
        z = project(vi, rng.normal(scale=500, size=vi.size))
        assert (z >= vi.lo - 1e-9).all() and (z <= vi.hi + 1e-9).all()
        assert np.abs(vi.M @ z - vi.c).max() < 1e-8


class TestOneBoxDescription:
    @pytest.mark.parametrize("reduced", [False, True])
    def test_consumers_index_the_game_boxes(self, ref_game, ref_cp, reduced,
                                            monkeypatch):
        """ClosedLoop's penalized rows, the oracle's box bounds and the
        closed-loop active set's caps all read ``g.boxes``."""
        g = ref_game
        b = g.boxes
        loop = ClosedLoop(g, ref_cp, reduced=reduced)
        cs = ControllerState.zeros(g)
        cs.xhat = np.arange(1.0, g.layout.size + 1.0)
        y = loop.pack(PlantState.zeros(g.n, g.m), cs)
        assert np.array_equal(y[loop.psrc], b.pos + 1.0)
        assert not {"plo", "phi", "force"} & set(vars(loop))

        vi = _Vi(g)
        caps = []
        face_system = oracle._face_system

        def spy(vi, cp=None):
            K, rhs, cap = face_system(vi, cp)
            caps.append(cap.copy())
            return K, rhs, cap

        monkeypatch.setattr(oracle, "_face_system", spy)
        eq = closed_loop_equilibrium(g, ref_cp)
        assert len(caps) == 1
        boxed = np.zeros(g.layout.size, dtype=bool)
        boxed[b.pos] = True
        for arr, inside in ((vi.lo, b.lo), (vi.hi, b.hi), (caps[0], b.force)):
            u_part, x_part = vi.split(arr)
            assert np.isinf(u_part).all() and np.isinf(x_part[~boxed]).all()
            assert np.array_equal(x_part[b.pos], inside)
        assert len(eq.regimes) == b.pos.size
        below = np.array([r == "below" for r in eq.regimes])
        assert below.any()
        assert np.array_equal(eq.forces[below], -b.force[below])

    def test_diagnostics_index_the_game_boxes(self, ref_game, ref_cp):
        """The report's V and I_l violations measure against ``g.boxes``
        (voltages first, then lines): on a copy of the game whose boxes,
        and not its plant, are narrowed, states inside the plant's
        bounds violate them."""
        g = copy.copy(ref_game)
        b = ref_game.boxes
        g.boxes = replace(b, lo=b.lo + 2.0, hi=b.hi - 3.0)
        lay = engine.StateLayout(g)
        p = g.plant
        rng = np.random.default_rng(7)
        V = rng.uniform(p.V_min, p.V_max, (6, g.n))
        Il = rng.uniform(p.Il_min, p.Il_max, (6, g.m))
        y = np.zeros((6, lay.size))
        y[:, lay.plant["V"]], y[:, lay.plant["I_l"]] = V, Il
        traj = Trajectory(np.arange(6.0), y, np.zeros(6, dtype=int))
        diag = engine._diagnostics(traj, [g], ref_cp, lay)
        for col, v, at in ((-2, V, slice(None, g.n)),
                           (-1, Il, slice(g.n, None))):
            want = (np.maximum(g.boxes.lo[at] - v, 0).max(-1)
                    + np.maximum(v - g.boxes.hi[at], 0).max(-1))
            assert want.tobytes() == diag[:, col].tobytes()
            assert want.max() > 0


class TestOneOwner:
    """Each value of the oracle's results is held once; the other names
    read through to it, and a solve assembles its game once."""

    def test_result_fields(self):
        assert [f.name for f in fields(oracle.ClosedLoopEquilibrium)] == [
            "lambda_shared", "regimes", "forces", "controller", "plant"]
        assert [f.name for f in fields(oracle.EquilibriumSolution)] == [
            "u_star", "x_star", "iterations", "residual", "converged",
            "method", "recovery", "history"]

    def test_attractor_reads_its_controller(self, ref_attractor):
        att = ref_attractor
        assert att.u_star is att.controller.u
        assert att.x_star is att.controller.xhat
        assert att.gamma is att.controller.gamma

    def test_solution_reads_its_recovery(self, ref_solution):
        sol = ref_solution
        assert sol.lambda_star is sol.recovery.lambda_shared
        assert sol.gamma_star is sol.recovery.gamma

    def test_one_assembly_when_falling_back(self, monkeypatch):
        """With the active set made to fail, the extragradient fallback
        solves the ``_Vi`` that ``solve_vi`` built."""
        built = []

        def counted(g):
            built.append(g)
            return _Vi(g)

        monkeypatch.setattr(oracle, "_active_set",
                            lambda vi, cp=None, z=None: None)
        monkeypatch.setattr(oracle, "_Vi", counted)
        sol = solve_vi(make_single_game())
        assert sol.method == "extragradient" and sol.converged
        assert len(built) == 1


class TestRecoverMultipliers:
    def test_interior_exact(self, wide_box_game):
        sol = solve_vi(wide_box_game)
        rec = sol.recovery
        assert rec.residual < 1e-8
        assert not rec.rank_deficient
        assert rec.box_forces.size == 0

    def test_gamma_formula(self, ref_solution, ref_game):
        w = ref_game.weights
        expected = -w.r * w.alpha_u * (ref_solution.u_star
                                       - ref_game.plant.u_ref)
        assert np.abs(ref_solution.gamma_star - expected).max() < 1e-8

    def test_degenerate_game_zero_multipliers(self):
        # references feasible and no trading term: nothing to price
        R, Z, IL = 0.5, 1.0, 2.0
        g = make_single_game(Z_L=Z, I_L=IL, R=R, alpha=(1.0, 1.0, 1.0),
                             l=1.0, p_r=1e-3,
                             refs=(IL, 0.0, R * IL))  # V_ref=0 kills trading
        sol = solve_vi(g)
        assert sol.method == "active_set"
        assert np.abs(sol.lambda_star).max() < 1e-7
        assert np.abs(sol.gamma_star).max() < 1e-7

    def test_reference_scenario_rank_and_force(self, ref_solution,
                                               ref_game):
        rec = ref_solution.recovery
        assert rec.rank == ref_game.n + ref_game.m
        assert not rec.rank_deficient
        assert rec.residual < 1e-8
        # the single active bound needs more force than the penalty offers
        assert rec.box_forces.size == 1
        cap = ref_game.weights.r[0] * ref_game.penalties.rho_V[0]
        assert rec.box_forces[0] > cap


class TestClosedLoopEquilibrium:
    def test_reference_regimes(self, ref_attractor, ref_game):
        eq = ref_attractor
        # voltages of DGUs 1-4, then the four lines
        assert eq.regimes == ("below", "interior", "interior",
                              "lower-sliding") + ("interior",) * 4
        lay = ref_game.layout
        V = eq.x_star[lay.ix_V]
        assert V[0] < 377.0          # saturated penalty cannot hold the box
        assert V[3] == 377.0
        cap = ref_game.weights.r * ref_game.penalties.rho_V
        assert eq.forces[0] == -cap[0]
        assert -cap[3] <= eq.forces[3] <= 0.0
        assert (eq.forces[[1, 2, 4, 5, 6, 7]] == 0.0).all()

    def test_matches_oracle_when_penalties_suffice(self, ref_scenario,
                                                   ref_solution):
        """With the voltage penalty above the required force no penalty
        saturates and the attractor lands near the projected equilibrium.
        The remaining gap (about 1 % relative in x) is the bias of the
        measured-current coupling eps_u = 0.1; see
        test_matches_oracle_as_eps_u_vanishes."""
        scn = ref_scenario
        pen = gt.PenaltyParams([2500.0] * 4, scn.penalties.rho_Il)
        g = gt.build_game(scn.topo, scn.plant, scn.price, scn.weights, pen)
        eq = closed_loop_equilibrium(g, CP)
        assert not {"below", "above"} & set(eq.regimes)
        gap_u = np.abs(eq.u_star - ref_solution.u_star).max()
        gap_x = np.abs(eq.x_star - ref_solution.x_star).max()
        assert gap_u < 0.05
        assert gap_x < 0.15

    def test_matches_oracle_as_eps_u_vanishes(self, ref_scenario,
                                              ref_solution):
        """The controller's voltage row carries the game's weight r_i, so
        with sufficient penalties the attractor converges to the oracle
        as eps_u -> 0 (without r_i it missed by 5.4 % in x)."""
        scn = ref_scenario
        pen = gt.PenaltyParams([2500.0] * 4, scn.penalties.rho_Il)
        g = gt.build_game(scn.topo, scn.plant, scn.price, scn.weights, pen)
        eq = closed_loop_equilibrium(g, ControllerParams(0.01, 1e-6))

        def rel(a, b):
            return (np.abs(a - b) / np.maximum(np.abs(b), 1.0)).max()

        assert rel(eq.u_star, ref_solution.u_star) <= 1e-6
        assert rel(eq.x_star, ref_solution.x_star) <= 1e-6
        assert rel(eq.lambda_shared, ref_solution.lambda_star) <= 1e-6

    def test_plant_state_consistency(self, ref_attractor, ref_scenario):
        eq = ref_attractor
        d = gt.plant_rhs(eq.plant, eq.u_star, ref_scenario.plant,
                         ref_scenario.topo)
        p = ref_scenario.plant
        balance = np.concatenate([d.I * p.L, d.V * p.C, d.I_l * p.L_l])
        assert np.abs(balance).max() < 1e-8


def assert_filippov_equilibrium(g, cp):
    """The attractor, packed into the closed loop, is a Filippov
    equilibrium of the penalized flow: the flow classifies every
    penalized entry in the regime the oracle names, every row but the
    sliding ones is at rest, and each sliding row's equivalent force
    (``-(M y + c)`` on a lower face, ``M y + c`` on an upper one) is the
    box force the oracle reports and lies in [0, r rho]."""
    eq = closed_loop_equilibrium(g, cp)
    loop = ClosedLoop(g, cp)
    y = loop.pack(eq.plant, eq.controller)
    assert regime_names(loop.flow(), y) == eq.regimes
    sliding = np.array([r.endswith("-sliding") for r in eq.regimes])
    rows = loop.psrc[sliding]
    rest = np.ones(y.size, dtype=bool)
    rest[rows] = False
    tol = 1e-9 * np.abs(y).max()
    b = g.boxes
    rhs = _kernels.affine_rhs(loop.M, loop.c, loop.psrc, b.lo, b.hi, b.force)
    assert np.abs(rhs(y)[rest]).max() <= tol
    upper = np.array([r == "upper-sliding" for r in eq.regimes])[sliding]
    held = np.where(upper, 1.0, -1.0) * (loop.M[rows] @ y + loop.c[rows])
    cap = b.force[sliding]
    assert (held >= -tol).all() and (held <= cap + tol).all()
    assert (np.abs(held - np.abs(eq.forces[sliding])) <= tol).all()
    return eq


class TestFilippovCertificate:
    @pytest.mark.parametrize("era", ["ref_game", "ref_post_game"])
    def test_reference_eras(self, era, ref_cp, request):
        eq = assert_filippov_equilibrium(request.getfixturevalue(era), ref_cp)
        assert "below" in eq.regimes     # DGU 1's penalty saturates

    @pytest.mark.parametrize("eps_u", [0.1, 1e-6])
    def test_sufficient_penalty(self, ref_scenario, eps_u):
        scn = ref_scenario
        pen = gt.PenaltyParams([2500.0] * 4, scn.penalties.rho_Il)
        g = gt.build_game(scn.topo, scn.plant, scn.price, scn.weights, pen)
        eq = assert_filippov_equilibrium(g, ControllerParams(0.01, eps_u))
        assert not {"below", "above"} & set(eq.regimes)

    @pytest.mark.parametrize("era", [0, 1])
    def test_ring16(self, era):
        scn = ring_scenario(16)
        plant = scn.plant if era == 0 else gt.apply_load_step(scn.plant,
                                                              3.0, 3.0)
        eq = assert_filippov_equilibrium(scn.game(plant), scn.controller)
        assert len(eq.regimes) == 32

    @settings(max_examples=20, deadline=None)
    @given(rho_V=st.lists(st.floats(300.0, 5000.0), min_size=4, max_size=4),
           eps_u=st.floats(1e-6, 0.5))
    def test_random_penalties_and_coupling(self, ref_scenario, rho_V, eps_u):
        scn = ref_scenario
        pen = gt.PenaltyParams(rho_V, scn.penalties.rho_Il)
        g = gt.build_game(scn.topo, scn.plant, scn.price, scn.weights, pen,
                          validate=False)
        assert_filippov_equilibrium(g, ControllerParams(0.01, eps_u))


def random_state(g, seed):
    """A controller and grid state of ``g`` with entries of scale 100."""
    rng = np.random.default_rng(seed)
    size = ControllerState.zeros(g).to_vector().size
    cs = ControllerState.from_vector(rng.normal(scale=100, size=size), g)
    plant = PlantState(*np.split(rng.normal(scale=100, size=2 * g.n + g.m),
                                 [g.n, 2 * g.n]))
    return plant, cs


class TestReducedModel:
    """The reduced model the simulator runs: ``ClosedLoop(reduced=True)``."""

    def test_zero_at_interior_attractor(self, wide_box_game):
        eq = closed_loop_equilibrium(wide_box_game, CP)
        loop = ClosedLoop(wide_box_game, CP, reduced=True)
        dy = loop.rhs_reference(loop.pack(eq.plant, eq.controller))
        assert np.abs(dy).max() < 1e-7

    def test_substitution_identity(self, ref_game):
        """Reduced slow rows equal the full rows with the estimator at QSS."""
        plant, cs = random_state(ref_game, 12)
        loop = ClosedLoop(ref_game, CP, reduced=True)
        d_red = loop.rhs_reference(loop.pack(plant, cs))
        ups = np.full(4, cs.xhat[ref_game.layout.ix_I].sum())
        qss = replace(cs, upsilon=ups)
        d_full = controller_rhs(qss, plant.I, ref_game, CP)
        assert list(loop.ctrl) == ["u", "xhat", "lam", "theta", "gamma"]
        for name, rows in loop.ctrl.items():
            assert np.array_equal(d_red[rows], getattr(d_full, name).ravel())


class TestLyapunovDiagnostics:
    def test_zero_at_interior_attractor(self, wide_box_game):
        eq = closed_loop_equilibrium(wide_box_game, CP)
        E_b, E_r = lyapunov_diagnostics(eq.plant, eq.controller,
                                        wide_box_game, CP)
        assert E_b == pytest.approx(0.0, abs=1e-9)
        assert E_r == pytest.approx(0.0, abs=1e-9)

    def test_energy_matrix_psd(self, ref_game):
        Q = boundary_layer_energy_matrix(ref_game.comm_topo)
        assert np.linalg.eigvalsh(Q).min() > -1e-12

    def test_nonnegative_on_random_states(self, ref_game):
        rng = np.random.default_rng(14)
        Q = boundary_layer_energy_matrix(ref_game.comm_topo)
        for _ in range(50):
            s = rng.normal(scale=100, size=8)
            assert s @ Q @ s >= -1e-9

    def test_slow_residual_is_reduced_model(self, ref_game):
        """E_r is the grid's derivative energy plus the slow rows of the
        reduced model's right-hand side, squared and over 2 eps_u."""
        plant, cs = random_state(ref_game, 15)
        loop = ClosedLoop(ref_game, CP, reduced=True)
        dy = loop.rhs_reference(loop.pack(plant, cs))
        p = ref_game.plant
        dI, dV, dIl = (dy[loop.plant[k]] for k in ("I", "V", "I_l"))
        slow = dy[loop.ctrl["u"].start:]
        expected = 0.5 * (dI @ (p.L * dI) + dIl @ (p.L_l * dIl)
                          + dV @ (p.C * dV)) + 0.5 / CP.eps_u * (slow @ slow)
        _, E_r = lyapunov_diagnostics(plant, cs, ref_game, CP)
        assert E_r == pytest.approx(expected, rel=1e-12)
