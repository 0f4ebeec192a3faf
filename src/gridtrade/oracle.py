"""Centralized equilibrium computation and run diagnostics.

Independent of the distributed controller: solves the trading game's
variational inequality over the coupled feasible set exactly by an
active-set iteration, certified by the recovered multipliers (with
extragradient iteration and Dykstra projections as the fallback and the
independent cross-check), and provides the quasi-steady-state (reduced)
dynamics and energy diagnostics used to certify simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from .controller import ControllerParams, ControllerState, controller_rhs, \
    fast_equilibrium
from .game import GameDefinition, local_gradient, pseudo_gradient
from .plant import PlantState, plant_rhs
from .topology import laplacian, laplacian_pinv


class _ZLayout:
    """Joint (u, x) vector in agent-major order: (u_i, I_i, V_i, lines_i)."""

    def __init__(self, g: GameDefinition):
        lay = g.layout
        self.size = g.n + lay.size
        self.z_of_u = np.zeros(g.n, dtype=int)
        self.z_of_x = np.zeros(lay.size, dtype=int)
        pos = 0
        for i in range(g.n):
            self.z_of_u[i] = pos
            pos += 1
            d = int(lay.dims[i])
            self.z_of_x[lay.offsets[i]:lay.offsets[i] + d] = np.arange(pos, pos + d)
            pos += d

    def join(self, u, x):
        z = np.zeros(self.size)
        z[self.z_of_u] = u
        z[self.z_of_x] = x
        return z

    def split(self, z):
        return z[self.z_of_u], z[self.z_of_x]


def _affine_rows(g: GameDefinition):
    """Equality constraints M z = c: coupling rows plus local balances."""
    zl = _ZLayout(g)
    lay = g.layout
    con = g.constraints
    M = np.zeros((g.n + g.m + g.n, zl.size))
    M[:g.n + g.m, zl.z_of_x] = con.A_full
    for i in range(g.n):
        M[g.n + g.m + i, zl.z_of_x[lay.block(i + 1)]] = con.D[i]
        M[g.n + g.m + i, zl.z_of_u[i]] = -1.0
    c = np.concatenate([con.s_A_full, np.zeros(g.n)])
    return zl, M, c


def _box_bounds(g: GameDefinition, zl: _ZLayout):
    lo = np.full(zl.size, -np.inf)
    hi = np.full(zl.size, np.inf)
    lay = g.layout
    lo[zl.z_of_x[lay.ix_V]] = g.plant.V_min
    hi[zl.z_of_x[lay.ix_V]] = g.plant.V_max
    if g.m:
        lo[zl.z_of_x[lay.ix_line]] = g.plant.Il_min
        hi[zl.z_of_x[lay.ix_line]] = g.plant.Il_max
    return lo, hi


class FeasibleSetProjector:
    """Dykstra alternating projection onto {M z = c} intersected with a box.

    Alternates exact affine projections with box clips, carrying the
    usual correction vectors; iterate increments below ``tol`` stop the
    loop.  The returned point satisfies the box exactly and the affine
    set to projection accuracy.
    """

    def __init__(self, M, c, lo, hi, max_alternations=200000, tol=1e-12,
                 feas_tol=1e-9):
        self.M = np.ascontiguousarray(M)
        self.c = np.ascontiguousarray(c)
        self.lo = np.ascontiguousarray(lo)
        self.hi = np.ascontiguousarray(hi)
        self.max_alternations = max_alternations
        self.tol = tol
        self.feas_tol = feas_tol
        self._gram_inv = np.linalg.inv(M @ M.T)
        self._P = np.ascontiguousarray(self.M.T @ self._gram_inv)

    def project_affine(self, z):
        return z - self._P @ (self.M @ z - self.c)

    def project(self, z0):
        return _kernels.dykstra_project(self._P, self.M, self.c, self.lo,
                                        self.hi, z0, self.max_alternations,
                                        self.tol, self.feas_tol)


@dataclass
class MultiplierRecovery:
    """Least-squares fit of the stationarity system at a candidate point."""

    lambda_shared: np.ndarray
    gamma: np.ndarray
    residual: float
    rank: int
    rank_deficient: bool
    active_lower: np.ndarray
    active_upper: np.ndarray
    box_forces: np.ndarray        # stationarity gap on active rows
    scale: float                  # max(1, |stationarity right-hand side|)


@dataclass
class EquilibriumSolution:
    """Weighted equilibrium of the trading game.

    ``lambda_star`` is the shared value of ``r_i lambda_i``;
    per-agent multipliers are ``lambda_star / r_i``.  ``method`` names
    the path that answered, ``"active_set"`` or ``"extragradient"``;
    ``iterations`` counts extragradient iterations (0 on the active-set
    path).  ``residual`` is the extragradient fixed-point residual, or on
    the active-set path the certificate's: the larger of the balance gap
    and the stationarity residual.
    """

    u_star: np.ndarray
    x_star: np.ndarray
    lambda_star: np.ndarray
    gamma_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    method: str
    recovery: MultiplierRecovery = None
    history: list = None


def _lipschitz_estimate(G, iters=50, seed=0):
    """Power-iteration estimate of the spectral norm of G."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=G.shape[1])
    v /= np.linalg.norm(v)
    S = G.T @ G
    est = 0.0
    for _ in range(iters):
        w = S @ v
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0
        v = w / est
    return float(np.sqrt(est))


def _pseudo_gradient_z(g: GameDefinition, zl: _ZLayout):
    def F(z):
        u, x = zl.split(z)
        return pseudo_gradient(g, u, x)
    return F


def game_map_matrix(g: GameDefinition) -> np.ndarray:
    """Matrix of the affine game map over the joint vector (u_i, x_i per
    agent, as in the oracle's layout), exact from unit-vector probes."""
    zl = _ZLayout(g)
    F = _pseudo_gradient_z(g, zl)
    G = np.empty((zl.size, zl.size))
    F0 = F(np.zeros(zl.size))
    e = np.zeros(zl.size)
    for j in range(zl.size):
        e[j] = 1.0
        G[:, j] = F(e) - F0
        e[j] = 0.0
    return G


def solve_vi(g: GameDefinition) -> EquilibriumSolution:
    """Equilibrium of the game's variational inequality, with its
    recovered multipliers.

    The weighted game map is affine and the feasible set is a polyhedron
    (affine balances intersected with the voltage/line boxes), so the
    finite active-set iteration of :func:`_active_set_polish`, started
    from the reference point clipped into the boxes, solves it exactly
    (Facchinei & Pang, *Finite-Dimensional Variational Inequalities and
    Complementarity Problems*, 2003).  The answer is returned only when
    :func:`_certified` accepts it; otherwise the solve falls back to
    :func:`_solve_extragradient`, which raises RuntimeError when the
    feasible set is empty.  Deterministic.
    """
    zl, M, c = _affine_rows(g)
    lo, hi = _box_bounds(g, zl)
    start = np.clip(zl.join(g.plant.u_ref, g.x_ref), lo, hi)
    sol = _certified(g, zl, M, c, lo, hi,
                     _active_set_polish(g, zl, start, lo, hi))
    return sol if sol is not None else _solve_extragradient(g)


def _solve_extragradient(g: GameDefinition, tol: float = 1e-9,
                         max_iter: int = 50000, recover: bool = True,
                         return_history: bool = False
                         ) -> EquilibriumSolution:
    """Extragradient solution of the game's variational inequality:
    :func:`solve_vi`'s fallback and the independent cross-check of its
    active-set path.

    Projects onto the coupled feasible set with Dykstra's alternating
    scheme; the step size is 0.5 over a power-iteration Lipschitz
    estimate of the weighted game map.  Terminates when the fixed-point
    residual ``|z - P(z - tau F(z))|_inf`` drops below ``tol`` (or after
    ``max_iter`` iterations), then refines the final face with
    :func:`_active_set_polish`.  Raises RuntimeError when the feasible
    set is empty; deterministic.
    """
    zl, M, c = _affine_rows(g)
    lo, hi = _box_bounds(g, zl)
    proj = FeasibleSetProjector(M, c, lo, hi)
    probe = proj.project(np.clip(zl.join(g.plant.u_ref, g.x_ref), lo, hi))
    gap = float(np.abs(M @ probe - c).max())
    if gap > 1e-6:
        raise RuntimeError(
            f"alternating projection cannot reach the constraint "
            f"intersection (gap {gap:.3g}); the coupled feasible set "
            f"appears to be empty")
    F = _pseudo_gradient_z(g, zl)
    lip = _lipschitz_estimate(game_map_matrix(g))
    tau = 0.5 / lip if lip > 0 else 1.0

    z = probe
    residual = np.inf
    history = [] if return_history else None
    it = 0
    for it in range(1, max_iter + 1):
        z_half = proj.project(z - tau * F(z))
        residual = float(np.abs(z - z_half).max())
        if history is not None:
            history.append(residual)
        if residual < tol:
            break
        z = proj.project(z - tau * F(z_half))
    converged = residual < tol
    z = _active_set_polish(g, zl, z, lo, hi)
    u, x = zl.split(z)
    sol = EquilibriumSolution(u, x, np.zeros(g.n + g.m), np.zeros(g.n),
                              it, residual, converged, "extragradient",
                              history=history)
    if recover:
        rec = recover_multipliers(sol, g)
        sol.lambda_star = rec.lambda_shared
        sol.gamma_star = rec.gamma
        sol.recovery = rec
    return sol


def _certified(g, zl, M, c, lo, hi, z):
    """Certified solution at ``z``, or None when the certificate fails.

    Primal: the balances hold to 1e-8 and every box holds up to the
    rounding of a pinned entry (1e-12 relative to the bound; the pinned
    solve places ring4's active voltage 1.1e-13 below 377 V).  Dual: the
    recovered multipliers leave a stationarity residual of at most 1e-9
    relative to max(1, the size of the stationarity right-hand side), and
    every active box's force points into the box.
    """
    gap = float(np.abs(M @ z - c).max())
    if not gap <= 1e-8 \
            or (z < lo - 1e-12 * np.maximum(1.0, np.abs(lo))).any() \
            or (z > hi + 1e-12 * np.maximum(1.0, np.abs(hi))).any():
        return None
    u, x = zl.split(z)
    sol = EquilibriumSolution(u, x, np.zeros(g.n + g.m), np.zeros(g.n), 0,
                              gap, True, "active_set")
    rec = recover_multipliers(sol, g)
    tol = 1e-9 * rec.scale
    active = rec.active_lower | rec.active_upper
    lower = rec.active_lower[active]
    if not (rec.residual <= tol and (rec.box_forces[lower] >= -tol).all()
            and (rec.box_forces[~lower] <= tol).all()):
        return None
    sol.lambda_star = rec.lambda_shared
    sol.gamma_star = rec.gamma
    sol.recovery = rec
    sol.residual = max(gap, rec.residual)
    return sol


def _active_set_polish(g, zl, z, lo, hi, detect_tol=1e-4, max_rounds=40):
    """Exact refinement of an approximate solution over the box faces.

    Starting from the bounds the iterate touches, alternately solves the
    equality-pinned stationarity system, drops pins whose force points
    the wrong way and adds bounds the free solve violates, until the
    point is primal and dual feasible.  Falls back to the raw iterate if
    no consistent face is found within ``max_rounds``.
    """
    x_of_z = {int(zj): xi for xi, zj in enumerate(zl.z_of_x)}
    cand = {}
    for j in range(len(z)):
        if np.isfinite(lo[j]) and z[j] - lo[j] <= detect_tol:
            cand[j] = ("lo", lo[j])
        elif np.isfinite(hi[j]) and hi[j] - z[j] <= detect_tol:
            cand[j] = ("hi", hi[j])
    active = dict(cand)
    for _ in range(max_rounds):
        pins = tuple((x_of_z[j], b) for j, (_, b) in sorted(active.items()))
        try:
            u, x, lam, gamma, forces = _equality_kkt(g, None, pinned=pins)
        except np.linalg.LinAlgError:
            return z
        znew = zl.join(u, x)
        keys = sorted(active)
        worst_key, worst_val = None, -1e-9
        for idx, j in enumerate(keys):
            side = active[j][0]
            bad = forces[idx] if side == "lo" else -forces[idx]
            if bad > worst_val:
                worst_key, worst_val = j, bad
        if worst_val > 1e-9:
            del active[worst_key]
            continue
        viol_j, viol_amt = None, 1e-12
        for j in range(len(znew)):
            if j in active:
                continue
            if np.isfinite(lo[j]) and lo[j] - znew[j] > viol_amt:
                viol_j, viol_amt = j, lo[j] - znew[j]
                side = ("lo", lo[j])
            if np.isfinite(hi[j]) and znew[j] - hi[j] > viol_amt:
                viol_j, viol_amt = j, znew[j] - hi[j]
                side = ("hi", hi[j])
        if viol_j is None:
            return znew
        active[viol_j] = side
    return z


def recover_multipliers(sol: EquilibriumSolution, g: GameDefinition,
                        active_tol: float = 1e-6) -> MultiplierRecovery:
    """Multipliers certifying a candidate equilibrium.

    The local-equality multipliers come directly from the voltage-dynamics
    stationarity, ``gamma_i = -r_i alpha_u (u_i - u_ref_i)``; the shared
    coupling multiplier solves the decision-block stationarity in least
    squares over the rows whose box constraint is inactive.  Active rows
    report their residual stationarity gap as the implied box force.
    """
    lay = g.layout
    w = g.weights
    p = g.plant
    u, x = np.asarray(sol.u_star), np.asarray(sol.x_star)
    gamma = -w.r * w.alpha_u * (u - p.u_ref)

    agg = np.full(g.n, x[lay.ix_I].sum())
    smooth = local_gradient(g, x, agg, with_penalty=False)
    r_row = w.r[lay.agent_of_pos]
    rhs = -r_row * smooth + gamma[lay.agent_of_pos] * g.constraints.D_stack

    lo_b = np.full(lay.size, -np.inf)
    hi_b = np.full(lay.size, np.inf)
    lo_b[lay.ix_V] = p.V_min
    hi_b[lay.ix_V] = p.V_max
    if g.m:
        lo_b[lay.ix_line] = p.Il_min
        hi_b[lay.ix_line] = p.Il_max
    active_lower = np.abs(x - lo_b) <= active_tol
    active_upper = np.abs(x - hi_b) <= active_tol
    inactive = ~(active_lower | active_upper)

    AT = g.constraints.A_full.T
    sol_ls, _, rank, _ = np.linalg.lstsq(AT[inactive], rhs[inactive], rcond=None)
    lam = sol_ls
    fit = AT @ lam - rhs
    residual = float(np.abs(fit[inactive]).max()) if inactive.any() else 0.0
    box_forces = fit[~inactive] if (~inactive).any() else np.zeros(0)
    return MultiplierRecovery(lam, gamma, residual, int(rank),
                              rank < g.n + g.m, active_lower, active_upper,
                              box_forces, max(1.0, float(np.abs(rhs).max())))


def affine_kkt_solve(g: GameDefinition, pinned=()):
    """Direct linear equilibrium solve ignoring the boxes.

    Stationarity of the weighted game map plus the affine balances, with
    optional pinned decision entries (``(x_position, value)`` pairs).
    Valid whenever no box is active (or the active set is supplied as
    pins); serves as the independent cross-check for the iterative
    solver.  Returns (u, x, lambda_shared, gamma, pin_forces).
    """
    return _equality_kkt(g, None, pinned=pinned, saturated=())


def _equality_kkt(g: GameDefinition, cp, pinned=(), saturated=()):
    """Equality-constrained stationarity solve.

    The voltage-dynamics row is the trading game's r_i a_u (u_i - u_ref);
    with cp given it also carries the controller's eps_u I_i coupling
    (measured current equal to the decision copy's at equilibrium).
    ``saturated``: (x_position, force) pairs adding a constant to the
    stationarity row (saturated penalty branches).
    """
    zl, M, c = _affine_rows(g)
    lay = g.layout
    w = g.weights
    nz = zl.size
    G = np.zeros((nz, nz))
    g0 = np.zeros(nz)
    agg0 = local_gradient(g, np.zeros(lay.size), np.zeros(g.n),
                          with_penalty=False)
    # decision-block rows: r_i * smooth gradient (affine in x)
    e = np.zeros(lay.size)
    for j in range(lay.size):
        e[j] = 1.0
        col = local_gradient(g, e, np.full(g.n, e[lay.ix_I].sum()),
                             with_penalty=False) - agg0
        G[zl.z_of_x, zl.z_of_x[j]] = w.r[lay.agent_of_pos] * col
        e[j] = 0.0
    g0[zl.z_of_x] = w.r[lay.agent_of_pos] * agg0
    G[zl.z_of_u, zl.z_of_u] = w.r * w.alpha_u
    g0[zl.z_of_u] = -w.r * w.alpha_u * g.plant.u_ref
    if cp is not None:
        for i in range(g.n):
            G[zl.z_of_u[i], zl.z_of_x[lay.ix_I[i]]] += cp.eps_u
    for pos, force in saturated:
        g0[zl.z_of_x[pos]] += force

    rows = [M]
    vals = [c]
    for pos, value in pinned:
        row = np.zeros((1, nz))
        row[0, zl.z_of_x[pos]] = 1.0
        rows.append(row)
        vals.append(np.array([float(value)]))
    Meq = np.vstack(rows)
    ceq = np.concatenate(vals)
    k = Meq.shape[0]
    K = np.block([[G, Meq.T], [Meq, np.zeros((k, k))]])
    sol = np.linalg.solve(K, np.concatenate([-g0, ceq]))
    z = sol[:nz]
    mults = sol[nz:]
    u, x = zl.split(z)
    lam = mults[:g.n + g.m]
    gamma = mults[g.n + g.m:g.n + g.m + g.n]
    pin_forces = mults[g.n + g.m + g.n:]
    return u, x, lam, gamma, pin_forces


@dataclass
class ClosedLoopEquilibrium:
    """Exact attractor of the penalized closed loop (piecewise-affine solve).

    ``regimes[i]`` is the voltage-penalty branch of agent i:
    'interior', 'kink' (exactly on the lower bound, holding force within
    the penalty's range) or 'saturated' (below the bound, penalty maxed
    out).  ``controller`` bundles the stacked controller state including
    recovered multiplier rows; ``plant`` the matching grid state.
    """

    u_star: np.ndarray
    x_star: np.ndarray
    lambda_shared: np.ndarray
    gamma: np.ndarray
    regimes: tuple
    kink_forces: dict
    controller: ControllerState
    plant: PlantState


def closed_loop_equilibrium(g: GameDefinition, cp: ControllerParams,
                            check_lines: bool = True) -> ClosedLoopEquilibrium:
    """Enumerate voltage-penalty regimes to find the controller attractor.

    Each agent's voltage can end up interior, exactly on its lower bound
    (sliding) or below it with the penalty saturated; the consistent
    combination is unique for a strictly monotone game.  Line penalties
    are verified inactive.  Raises RuntimeError when no consistent
    regime exists within those cases.
    """
    lay = g.layout
    w = g.weights
    p = g.plant
    for regimes in product(("interior", "kink", "saturated"), repeat=g.n):
        pinned = []
        saturated = []
        for i, reg in enumerate(regimes):
            pos = int(lay.ix_V[i])
            if reg == "kink":
                pinned.append((pos, p.V_min[i]))
            elif reg == "saturated":
                saturated.append((pos, -w.r[i] * g.penalties.rho_V[i]))
        try:
            u, x, lam, gamma, forces = _equality_kkt(
                g, cp, pinned=tuple(pinned), saturated=tuple(saturated))
        except np.linalg.LinAlgError:
            continue
        ok = True
        kf = {}
        kidx = 0
        for i, reg in enumerate(regimes):
            v = x[lay.ix_V[i]]
            cap = w.r[i] * g.penalties.rho_V[i]
            if reg == "interior":
                ok &= p.V_min[i] + 1e-12 < v < p.V_max[i] - 1e-12
            elif reg == "saturated":
                ok &= v < p.V_min[i] - 1e-12
            else:
                force = forces[kidx]
                kidx += 1
                ok &= -cap - 1e-9 <= force <= 1e-9
                kf[i + 1] = float(force)
        if check_lines and g.m:
            Il = x[lay.ix_line]
            ok &= bool((Il > p.Il_min + 1e-9).all() and (Il < p.Il_max - 1e-9).all())
        if not ok:
            continue
        for i, reg in enumerate(regimes):  # place pinned entries exactly
            if reg == "kink":
                x[lay.ix_V[i]] = p.V_min[i]
        Ihat = x[lay.ix_I]
        ups, nu = fast_equilibrium(Ihat, g.comm_topo)
        lam_rows = np.outer(1.0 / w.r, lam)
        feas = np.zeros((g.n, g.n + g.m))
        con = g.constraints
        for i in range(g.n):
            feas[i] = con.A_blocks[i] @ x[lay.block(i + 1)] - con.s_A_blocks[i]
        theta = laplacian_pinv(g.comm_topo) @ feas
        cs = ControllerState(ups, nu, u.copy(), x.copy(), lam_rows, theta,
                             gamma.copy())
        plant = PlantState(Ihat.copy(), x[lay.ix_V].copy(),
                           x[lay.ix_line].copy())
        return ClosedLoopEquilibrium(u, x, lam, gamma, regimes, kf, cs, plant)
    raise RuntimeError("no consistent penalty regime found for the closed loop")


def reduced_model_rhs(plant_state: PlantState, cs: ControllerState,
                      g: GameDefinition, cp: ControllerParams):
    """Slow dynamics with the consensus estimator at quasi-steady state.

    The per-agent aggregate estimate is replaced by the decision copies'
    current sum; estimator states are carried along with zero derivative.
    Returns (plant derivative, controller derivative).
    """
    lay = g.layout
    Ihat = cs.xhat[lay.ix_I]
    qss = cs.copy()
    qss.upsilon = np.full(g.n, Ihat.sum())
    d_cs = controller_rhs(qss, plant_state.I, g, cp)
    d_cs.upsilon = np.zeros(g.n)
    d_cs.nu = np.zeros(g.n)
    d_plant = plant_rhs(plant_state, cs.u, g.plant, g.topo)
    return d_plant, d_cs


def boundary_layer_energy_matrix(g: GameDefinition) -> np.ndarray:
    """Quadratic form of the estimator-error energy; PSD by construction."""
    Lap = laplacian(g.comm_topo)
    n = g.n
    sigma = float(np.linalg.norm(Lap, 2))
    Q = sigma * np.eye(2 * n)
    Q[:n, :n] += 0.5 * (np.eye(n) + Lap)
    Q[:n, n:] += 0.5 * Lap
    Q[n:, :n] += 0.5 * Lap
    return Q


def lyapunov_diagnostics(plant_state: PlantState, cs: ControllerState,
                         g: GameDefinition, cp: ControllerParams):
    """Energy pair (E_b, E_r) certifying a sampled closed-loop state.

    E_b measures the consensus estimator's distance from quasi-steady
    state through a fixed PSD form; E_r combines the grid's derivative
    energy with the squared slow-dynamics residual.
    """
    lay = g.layout
    Ihat = cs.xhat[lay.ix_I]
    ups_star, nu_star = fast_equilibrium(Ihat, g.comm_topo)
    s_b = np.concatenate([cs.upsilon - ups_star, cs.nu - nu_star])
    Q = boundary_layer_energy_matrix(g)
    E_b = float(s_b @ (Q @ s_b))

    d_plant, d_slow = reduced_model_rhs(plant_state, cs, g, cp)
    p = g.plant
    deriv_energy = 0.5 * (d_plant.I @ (p.L * d_plant.I)
                          + d_plant.I_l @ (p.L_l * d_plant.I_l)
                          + d_plant.V @ (p.C * d_plant.V))
    g_d = np.concatenate([d_slow.u, d_slow.xhat, d_slow.lam.ravel(),
                          d_slow.theta.ravel(), d_slow.gamma])
    E_r = float(deriv_energy + (0.5 / cp.eps_u) * (g_d @ g_d))
    return E_b, E_r
