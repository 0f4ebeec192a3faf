"""Centralized equilibrium computation and run diagnostics.

Independent of the distributed controller.  One active-set iteration
over the box entries (free, pinned on a bound, or saturated outside it
with its penalty's force) serves both equilibria the package needs: the
trading game's variational inequality over the coupled feasible set,
certified by the recovered multipliers (with extragradient iteration and
Dykstra projections as the fallback and the independent cross-check),
and the attractor of the penalized closed loop.  Also provides the
quasi-steady-state (reduced) dynamics and energy diagnostics used to
certify simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .controller import ControllerParams, ControllerState, controller_rhs, \
    fast_equilibrium
from .game import GameDefinition, local_gradient
from .plant import PlantState, plant_rhs
from .pwa import ABOVE, BELOW, INTERIOR, LOWER, REGIME_NAMES, UPPER
from .topology import MicrogridTopology, laplacian, laplacian_pinv


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
    con = g.constraints
    local = g.n + g.m          # row of agent 1's local balance
    M = np.zeros((local + g.n, zl.size))
    M[:local, zl.z_of_x] = con.A_full
    M[local + g.layout.agent_of_pos, zl.z_of_x] = con.D_stack
    M[local + np.arange(g.n), zl.z_of_u] = -1.0
    c = np.concatenate([con.s_A_full, np.zeros(g.n)])
    return zl, M, c


def _box_bounds(g: GameDefinition, zl: _ZLayout):
    lo = np.full(zl.size, -np.inf)
    hi = np.full(zl.size, np.inf)
    box = zl.z_of_x[g.boxes.pos]
    lo[box] = g.boxes.lo
    hi[box] = g.boxes.hi
    return lo, hi


# Dykstra stops after 200000 alternations or on an iterate increment
# below 1e-12 with an affine gap below 1e-9
_DYKSTRA_STOP = (200000, 1e-12, 1e-9)


class FeasibleSetProjector:
    """Dykstra alternating projection onto {M z = c} intersected with a box.

    Alternates exact affine projections with box clips, carrying the
    usual correction vectors; small iterate increments (``_DYKSTRA_STOP``)
    stop the loop.  The returned point satisfies the box exactly and the
    affine set to projection accuracy.
    """

    def __init__(self, M, c, lo, hi):
        self.M = np.ascontiguousarray(M)
        self.c = np.ascontiguousarray(c)
        self.lo = np.ascontiguousarray(lo)
        self.hi = np.ascontiguousarray(hi)
        self._gram_inv = np.linalg.inv(M @ M.T)
        self._P = np.ascontiguousarray(self.M.T @ self._gram_inv)

    def project(self, z0):
        return _kernels.dykstra_project(self._P, self.M, self.c, self.lo,
                                        self.hi, z0, *_DYKSTRA_STOP)


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


def _game_map(g: GameDefinition, zl: _ZLayout):
    """The affine weighted game map as ``z -> G z + g0`` (no penalties).

    Decision-block rows are r_i times the smooth local gradient, probed
    with :func:`_kernels.affine_probe`; the voltage-dynamics rows are
    r_i a_u (u_i - u_ref).
    """
    lay = g.layout
    w = g.weights
    Gx, gx = _kernels.affine_probe(
        lambda x: local_gradient(g, x, np.full(g.n, x[lay.ix_I].sum()),
                                 with_penalty=False), lay.size)
    r_row = w.r[lay.agent_of_pos]
    G = np.zeros((zl.size, zl.size))
    g0 = np.zeros(zl.size)
    G[np.ix_(zl.z_of_x, zl.z_of_x)] = r_row[:, None] * Gx
    g0[zl.z_of_x] = r_row * gx
    G[zl.z_of_u, zl.z_of_u] = w.r * w.alpha_u
    g0[zl.z_of_u] = -w.r * w.alpha_u * g.plant.u_ref
    return G, g0


def game_map_matrix(g: GameDefinition) -> np.ndarray:
    """Matrix of the affine game map over the joint vector (u_i, x_i per
    agent, as in the oracle's layout)."""
    return _game_map(g, _ZLayout(g))[0]


def solve_vi(g: GameDefinition) -> EquilibriumSolution:
    """Equilibrium of the game's variational inequality, with its
    recovered multipliers.

    The weighted game map is affine and the feasible set is a polyhedron
    (affine balances intersected with the voltage/line boxes), so the
    finite active-set iteration of :func:`_active_set`, started from the
    reference point clipped into the boxes, solves it exactly (Facchinei
    & Pang, *Finite-Dimensional Variational Inequalities and
    Complementarity Problems*, 2003).  The answer is returned only when
    :func:`_certified` accepts it; otherwise the solve falls back to
    :func:`_solve_extragradient`, which raises RuntimeError when the
    feasible set is empty.  Deterministic.
    """
    face = _active_set(g)
    sol = None if face is None else _certified(g, face[0])
    return sol if sol is not None else _solve_extragradient(g)


def _solve_extragradient(g: GameDefinition, tol: float = 1e-9,
                         max_iter: int = 50000, return_history: bool = False
                         ) -> EquilibriumSolution:
    """Extragradient solution of the game's variational inequality:
    :func:`solve_vi`'s fallback and the independent cross-check of its
    active-set path.

    Iterates the weighted game map ``F(z) = G z + g0`` of
    :func:`_game_map` and projects onto the coupled feasible set with
    Dykstra's alternating scheme; the step size is 0.5 over ``|G|_2``,
    the map's Lipschitz constant.  Terminates when the fixed-point
    residual ``|z - P(z - tau F(z))|_inf`` drops below ``tol`` (or after
    ``max_iter`` iterations), then refines the final face with
    :func:`_active_set` (keeping the raw iterate when that finds no
    consistent face) and recovers its multipliers.  Raises RuntimeError
    when the feasible set is empty; deterministic.
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
    G, g0 = _game_map(g, zl)
    # |G|_2 > 0: the u rows carry r_i alpha_u,i > 0
    tau = 0.5 / np.linalg.norm(G, 2)

    z = probe
    residual = np.inf
    history = [] if return_history else None
    it = 0
    for it in range(1, max_iter + 1):
        z_half = proj.project(z - tau * (G @ z + g0))
        residual = float(np.abs(z - z_half).max())
        if history is not None:
            history.append(residual)
        if residual < tol:
            break
        z = proj.project(z - tau * (G @ z_half + g0))
    converged = residual < tol
    face = _active_set(g, z=z)
    u, x = zl.split(z if face is None else face[0])
    sol = EquilibriumSolution(u, x, np.zeros(g.n + g.m), np.zeros(g.n),
                              it, residual, converged, "extragradient",
                              history=history)
    rec = recover_multipliers(sol, g)
    sol.lambda_star = rec.lambda_shared
    sol.gamma_star = rec.gamma
    sol.recovery = rec
    return sol


def _certified(g, z):
    """Certified solution at ``z``, or None when the certificate fails.

    Primal: the balances hold to 1e-8 and every box holds up to the
    rounding of a pinned entry (1e-12 relative to the bound; the pinned
    solve places ring4's active voltage 1.1e-13 below 377 V).  Dual: the
    recovered multipliers leave a stationarity residual of at most 1e-9
    relative to max(1, the size of the stationarity right-hand side), and
    every active box's force points into the box.
    """
    zl, M, c = _affine_rows(g)
    lo, hi = _box_bounds(g, zl)
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


def _face_solve(G, g0, M, c, lo, hi, cap, state):
    """Solve ``G z + g0 + M^T mu + pin forces = 0``, ``M z = c`` on one
    face: ``state`` (a :mod:`pwa` regime per entry) pins LOWER/UPPER
    entries to their bound and adds -cap (BELOW) or +cap (ABOVE) to
    saturated rows.  Returns (z, mu, pin forces in entry order)."""
    shift = g0.copy()
    below, above = state == BELOW, state == ABOVE
    shift[below] -= cap[below]
    shift[above] += cap[above]
    pins = np.flatnonzero((state == LOWER) | (state == UPPER))
    E = np.zeros((pins.size, g0.size))
    E[np.arange(pins.size), pins] = 1.0
    Meq = np.vstack([M, E])
    ceq = np.concatenate([c, np.where(state[pins] == LOWER, lo[pins],
                                      hi[pins])])
    k = Meq.shape[0]
    K = np.block([[G, Meq.T], [Meq, np.zeros((k, k))]])
    sol = np.linalg.solve(K, np.concatenate([-shift, ceq]))
    nz, nc = g0.size, c.size
    return sol[:nz], sol[nz:nz + nc], sol[nz + nc:]


def _active_set(g: GameDefinition, cp: ControllerParams = None, z=None):
    """Primal-dual active-set solve over the box faces (Hintermüller,
    Ito & Kunisch, SIAM J. Optim. 13(3), 2002).

    Without ``cp``: the game's variational inequality, every box holding
    any force.  With ``cp``: the penalized closed loop's attractor; the
    voltage rows carry the controller's eps_u I_i coupling and a box
    holds at most its penalty's force, r_i rho_V (voltage) or r_edge
    rho_Il (line), beyond which the entry leaves and the penalty
    saturates.  From the bounds within 1e-4 of ``z`` (default: the
    reference point clipped into the boxes) each round solves the face
    and moves one entry, first rule that applies: free the most
    wrong-signed pin; saturate the pin most over its cap; re-pin the
    saturated entry furthest back inside; pin the most violated free
    entry.  Returns (z, balance multipliers, regime per entry, force per
    entry), or None on a singular or non-finite face or after
    max(40, 2 len(z)) rounds.
    """
    zl, M, c = _affine_rows(g)
    lo, hi = _box_bounds(g, zl)
    G, g0 = _game_map(g, zl)
    cap = np.full(zl.size, np.inf)
    if cp is not None:
        G[zl.z_of_u, zl.z_of_x[g.layout.ix_I]] += cp.eps_u
        cap[zl.z_of_x[g.boxes.pos]] = g.boxes.force
    if z is None:
        z = np.clip(zl.join(g.plant.u_ref, g.x_ref), lo, hi)
    state = np.where(z - lo <= 1e-4, LOWER,
                     np.where(hi - z <= 1e-4, UPPER, INTERIOR))
    none = np.full(zl.size, -np.inf)
    for _ in range(max(40, 2 * zl.size)):
        try:
            zf, mu, pin_forces = _face_solve(G, g0, M, c, lo, hi, cap, state)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(zf).all() and np.isfinite(pin_forces).all()):
            return None
        lower = state == LOWER
        pinned = lower | (state == UPPER)
        force = np.where(state == BELOW, -cap,
                         np.where(state == ABOVE, cap, 0.0))
        force[pinned] = pin_forces
        inward = np.where(lower, -force, force)
        rules = (
            (np.where(pinned, -inward, none), 1e-9,
             np.full(zl.size, INTERIOR)),
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


_ACTIVE_TOL = 1e-6   # distance from a bound at which a box row is active


def recover_multipliers(sol: EquilibriumSolution,
                        g: GameDefinition) -> MultiplierRecovery:
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

    b = g.boxes
    v = x[b.pos]
    active_lower = np.zeros(lay.size, dtype=bool)
    active_upper = np.zeros(lay.size, dtype=bool)
    active_lower[b.pos] = np.abs(v - b.lo) <= _ACTIVE_TOL
    active_upper[b.pos] = np.abs(v - b.hi) <= _ACTIVE_TOL
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


@dataclass
class ClosedLoopEquilibrium:
    """Exact attractor of the penalized closed loop.

    ``regimes`` and ``forces`` follow the penalized entries in
    ``g.boxes`` order (voltages by agent, then lines by edge), which is
    also ``ClosedLoop.psrc``'s.  ``regimes`` are :data:`pwa.REGIME_NAMES`;
    ``forces`` the force each box adds to its stationarity row: 0 inside,
    within [-cap, 0] sliding on a lower and [0, cap] on an upper bound,
    -cap below, +cap above (cap = ``g.boxes.force``).  ``controller``
    bundles the stacked controller state including recovered multiplier
    rows; ``plant`` the matching grid state.
    """

    u_star: np.ndarray
    x_star: np.ndarray
    lambda_shared: np.ndarray
    gamma: np.ndarray
    regimes: tuple
    forces: np.ndarray
    controller: ControllerState
    plant: PlantState


def closed_loop_equilibrium(g: GameDefinition,
                            cp: ControllerParams) -> ClosedLoopEquilibrium:
    """The controller's attractor, by :func:`_active_set` with ``cp``.

    Each voltage and line entry ends interior, sliding on a bound or
    beyond it with its penalty saturated; the consistent combination is
    unique for a strictly monotone game.  Raises RuntimeError when the
    active-set iteration finds none.
    """
    face = _active_set(g, cp)
    if face is None:
        raise RuntimeError(
            "no consistent penalty regime found for the closed loop")
    z, mu, state, force = face
    lay = g.layout
    w = g.weights
    zl = _ZLayout(g)
    lo, hi = _box_bounds(g, zl)
    z = np.where(state == LOWER, lo, np.where(state == UPPER, hi, z))
    u, x = zl.split(z)
    lam, gamma = mu[:g.n + g.m], mu[g.n + g.m:]
    box = zl.z_of_x[g.boxes.pos]
    regimes = tuple(REGIME_NAMES[s] for s in state[box])
    Ihat = x[lay.ix_I]
    ups, nu = fast_equilibrium(Ihat, g.comm_topo)
    lam_rows = np.outer(1.0 / w.r, lam)
    theta = laplacian_pinv(g.comm_topo) @ g.constraints.agent_rows(x)
    cs = ControllerState(ups, nu, u.copy(), x.copy(), lam_rows, theta,
                         gamma.copy())
    plant = PlantState(Ihat.copy(), x[lay.ix_V].copy(),
                       x[lay.ix_line].copy())
    return ClosedLoopEquilibrium(u, x, lam, gamma, regimes, force[box], cs,
                                 plant)


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
    """Quadratic form of the estimator-error energy; PSD by construction.
    Computed once per communication graph and read-only."""
    return _energy_form(g.comm_topo)


@lru_cache(maxsize=64)
def _energy_form(topo: MicrogridTopology) -> np.ndarray:
    Lap = laplacian(topo)
    n = topo.n
    sigma = float(np.linalg.norm(Lap, 2))
    Q = sigma * np.eye(2 * n)
    Q[:n, :n] += 0.5 * (np.eye(n) + Lap)
    Q[:n, n:] += 0.5 * Lap
    Q[n:, :n] += 0.5 * Lap
    Q.flags.writeable = False
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
