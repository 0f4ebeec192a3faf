"""Centralized equilibrium computation and run diagnostics.

Independent of the distributed controller.  One active-set iteration
over the box entries (free, pinned on a bound, or saturated outside it
with its penalty's force) serves both equilibria the package needs: the
trading game's variational inequality over the coupled feasible set,
certified by the recovered multipliers (with extragradient iteration and
Dykstra projections as the fallback and the independent cross-check),
and the attractor of the penalized closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .controller import ControllerParams, ControllerState, fast_equilibrium
from .game import GameDefinition, local_gradient
from .plant import PlantState
from .pwa import (ABOVE, BELOW, INTERIOR, LOWER, REGIME_NAMES, UPPER,
                  saturated_force)
from .topology import laplacian_pinv


class _Vi:
    """The game's variational inequality, assembled once per solve and
    read-only.

    The joint vector z is agent-major, (u_i, I_i, V_i, lines_i) per agent;
    ``z_of_u`` and ``z_of_x`` place u and the stacked decision vector x in
    it.  The feasible set is the balances ``M z = c`` (coupling rows, then
    the local balances) within the bounds ``lo``, ``hi``, finite only at
    ``box``, the boxed entries in ``g.boxes`` order.  ``G z + g0`` is the
    weighted game map without penalties: decision-block rows are r_i times
    the smooth local gradient, probed with :func:`_kernels.affine_probe`
    on blocks of unit rows, each row's aggregate its own sum of
    generated currents; the voltage-dynamics rows are r_i a_u
    (u_i - u_ref).  ``start`` is the
    reference point clipped into the bounds.
    """

    def __init__(self, g: GameDefinition):
        lay = g.layout
        w = g.weights
        con = g.constraints
        self.g = g
        self.size = size = g.n + lay.size
        agents = np.arange(g.n)
        self.z_of_u = z_of_u = lay.offsets[:-1] + agents
        self.z_of_x = z_of_x = np.arange(lay.size) + lay.agent_of_pos + 1
        local = g.n + g.m          # row of agent 1's local balance
        self.M = M = np.zeros((local + g.n, size))
        M[:local, z_of_x] = con.A_full
        M[local + lay.agent_of_pos, z_of_x] = con.D_stack
        M[local + agents, z_of_u] = -1.0
        self.c = np.concatenate([con.s_A_full, np.zeros(g.n)])
        self.box = box = z_of_x[g.boxes.pos]
        self.hi = hi = np.full(size, np.inf)
        self.lo = lo = -hi
        lo[box], hi[box] = g.boxes.lo, g.boxes.hi
        # the probe rows hold 0/1 entries, so their aggregates are exact;
        # each row's aggregate broadcasts over its agents
        Gx, gx = _kernels.affine_probe(
            lambda x: local_gradient(g, x, x[..., lay.ix_I].sum(
                -1, keepdims=True), with_penalty=False), lay.size)
        r_row = w.r[lay.agent_of_pos]
        r_au = w.r * w.alpha_u
        self.G = G = np.zeros((size, size))
        G[z_of_x[:, None], z_of_x] = r_row[:, None] * Gx
        G[z_of_u, z_of_u] = r_au
        self.g0 = self.join(-r_au * g.plant.u_ref, r_row * gx)
        self.start = self.join(g.plant.u_ref, g.x_ref).clip(lo, hi)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def join(self, u, x):
        z = np.zeros(self.size)
        z[self.z_of_u] = u
        z[self.z_of_x] = x
        return z

    def split(self, z):
        return z[self.z_of_u], z[self.z_of_x]


# Dykstra stops after 200000 alternations or on an iterate increment
# below 1e-12 with an affine gap below 1e-9
_DYKSTRA_STOP = (200000, 1e-12, 1e-9)


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
    per-agent multipliers are ``lambda_star / r_i``.  It and
    ``gamma_star`` read through to ``recovery``.  ``method`` names
    the path that answered, ``"active_set"`` or ``"extragradient"``;
    ``iterations`` counts extragradient iterations (0 on the active-set
    path).  ``residual`` is the extragradient fixed-point residual, or on
    the active-set path the certificate's: the larger of the balance gap
    and the stationarity residual.  ``history`` is the extragradient's
    fixed-point residual per iteration (None on the active-set path).
    """

    u_star: np.ndarray
    x_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    method: str
    recovery: MultiplierRecovery
    history: list = None

    lambda_star = property(lambda self: self.recovery.lambda_shared)
    gamma_star = property(lambda self: self.recovery.gamma)


def game_map_matrix(g: GameDefinition) -> np.ndarray:
    """Matrix of the affine game map over the joint vector (u_i, x_i per
    agent, as in the oracle's layout); read-only."""
    return _Vi(g).G


def solve_vi(g: GameDefinition) -> EquilibriumSolution:
    """Equilibrium of the game's variational inequality, with its
    recovered multipliers.

    The weighted game map is affine and the feasible set is a polyhedron
    (affine balances intersected with the voltage/line boxes), so the
    finite active-set iteration of :func:`_active_set`, started from the
    reference point clipped into the boxes, solves it exactly (Facchinei
    & Pang, *Finite-Dimensional Variational Inequalities and
    Complementarity Problems*, 2003).  The game is assembled once
    (:class:`_Vi`) for that iteration, :func:`_certified` and the
    fallback: when the certificate refuses the answer, the solve falls
    back to :func:`_solve_extragradient`, which raises RuntimeError when
    the feasible set is empty.  Deterministic.
    """
    vi = _Vi(g)
    face = _active_set(vi)
    sol = None if face is None else _certified(vi, face[0])
    return sol if sol is not None else _solve_extragradient(vi)


def _solve_extragradient(vi: _Vi, tol: float = 1e-9,
                         max_iter: int = 50000) -> EquilibriumSolution:
    """Extragradient solution of the assembled game ``vi``'s variational
    inequality: :func:`solve_vi`'s fallback and the independent
    cross-check of its active-set path.

    Iterates the weighted game map ``F(z) = G z + g0`` of :class:`_Vi`
    and projects onto the coupled feasible set with Dykstra's
    alternating scheme (:func:`_kernels.dykstra_project`, its affine
    step through ``P = M^T (M M^T)^-1``); the step size is 0.5 over
    ``|G|_2``, the map's Lipschitz constant.  Terminates when the
    fixed-point residual ``|z - project(z - tau F(z))|_inf`` drops below
    ``tol`` (or after ``max_iter`` iterations), then refines the final
    face with :func:`_active_set` (keeping the raw iterate when that
    finds no consistent face) and recovers its multipliers.  Raises
    RuntimeError when the feasible set is empty; deterministic.
    """
    M, c, G, g0 = vi.M, vi.c, vi.G, vi.g0
    P = M.T @ np.linalg.inv(M @ M.T)

    def project(z0):
        return _kernels.dykstra_project(P, M, c, vi.lo, vi.hi, z0,
                                        *_DYKSTRA_STOP)

    probe = project(vi.start)
    gap = float(np.abs(M @ probe - c).max())
    if gap > 1e-6:
        raise RuntimeError(
            f"alternating projection cannot reach the constraint "
            f"intersection (gap {gap:.3g}); the coupled feasible set "
            f"appears to be empty")
    # |G|_2 > 0: the u rows carry r_i alpha_u,i > 0
    tau = 0.5 / np.linalg.norm(G, 2)

    z = probe
    residual = np.inf
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        z_half = project(z - tau * (G @ z + g0))
        residual = float(np.abs(z - z_half).max())
        history.append(residual)
        if residual < tol:
            break
        z = project(z - tau * (G @ z_half + g0))
    converged = residual < tol
    face = _active_set(vi, z=z)
    u, x = vi.split(z if face is None else face[0])
    return EquilibriumSolution(u, x, it, residual, converged, "extragradient",
                               recover_multipliers(vi.g, u, x), history)


def _certified(vi: _Vi, z):
    """Certified solution at ``z`` of the assembled game ``vi``, or None
    when the certificate fails.

    Primal: the balances hold to 1e-8 and every box holds up to the
    rounding of a pinned entry (1e-12 relative to the bound; the pinned
    solve places ring4's active voltage 1.1e-13 below 377 V).  Dual: the
    recovered multipliers leave a stationarity residual of at most 1e-9
    relative to max(1, the size of the stationarity right-hand side), and
    every active box's force points into the box.
    """
    lo, hi = vi.lo, vi.hi
    gap = float(np.abs(vi.M @ z - vi.c).max())
    if not gap <= 1e-8 \
            or ((z < lo - 1e-12 * np.maximum(1.0, np.abs(lo)))
                | (z > hi + 1e-12 * np.maximum(1.0, np.abs(hi)))).any():
        return None
    u, x = vi.split(z)
    rec = recover_multipliers(vi.g, u, x)
    tol = 1e-9 * rec.scale
    # an active box's force points into the box: up on a lower bound
    lower = rec.active_lower[rec.active_lower | rec.active_upper]
    if not (rec.residual <= tol and (np.where(
            lower, -rec.box_forces, rec.box_forces) <= tol).all()):
        return None
    return EquilibriumSolution(u, x, 0, max(gap, rec.residual), True,
                               "active_set", rec)


def _face_system(vi: _Vi, cp: ControllerParams = None):
    """The KKT block of :func:`_active_set`'s faces, its constant
    right-hand side and each entry's cap, assembled once per solve.

    The block is ``[[G, M^T, E^T], [M, 0, 0], [E, 0, 0]]`` at its largest,
    E the unit rows of every boxed entry pinned (only those can be); its
    pin rows and columns start zero.  The right-hand side is
    ``(-g0, c, 0)``.  With ``cp`` the voltage rows of G carry the
    controller's eps_u I_i coupling and a box's cap is its penalty's
    force, ``g.boxes.force`` (inf off the boxes); without ``cp`` no box
    saturates and the caps are None.
    """
    nz = vi.size
    base = nz + vi.c.size
    K = np.zeros((base + vi.box.size,) * 2)
    K[:nz, :nz] = vi.G
    K[nz:base, :nz] = vi.M
    K[:nz, nz:base] = vi.M.T
    cap = None
    if cp is not None:
        K[vi.z_of_u, vi.z_of_x[vi.g.layout.ix_I]] += cp.eps_u
        cap = np.full(nz, np.inf)
        cap[vi.box] = vi.g.boxes.force
    return K, np.concatenate([-vi.g0, vi.c, np.zeros(vi.box.size)]), cap


def _worst(score, tol):
    """Index of the largest entry of ``score`` when it exceeds ``tol``,
    else None; the first such index on a tie."""
    if score.size:
        j = int(score.argmax())
        if score[j] > tol:
            return j
    return None


def _active_set(vi: _Vi, cp: ControllerParams = None, z=None):
    """Primal-dual active-set solve over the box faces (Hintermüller,
    Ito & Kunisch, SIAM J. Optim. 13(3), 2002) of the assembled game
    ``vi``.

    Without ``cp``: the game's variational inequality, every box holding
    any force.  With ``cp``: the penalized closed loop's attractor; the
    voltage rows carry the controller's eps_u I_i coupling and a box
    holds at most its penalty's force, r_i rho_V (voltage) or r_edge
    rho_Il (line), beyond which the entry leaves and the penalty
    saturates.  From the bounds within 1e-4 of ``z`` (default:
    ``vi.start``, the reference point clipped into the boxes) each round
    solves ``G z + g0 + M^T mu + pin forces = 0``, ``M z = c`` on one
    face (pinned entries at their bound, saturated rows given -cap below
    or +cap above) and moves one entry.

    The KKT block and its constant right-hand side are assembled once
    (:func:`_face_system`); a round writes only its pins' rows, columns
    and bounds, a move only its entry's right-hand side, and the face
    solves the leading block.  The rules are tested one at a time, in
    order, and the first that applies moves its entry: free the most
    wrong-signed pin; saturate the pin most over its cap; re-pin the
    saturated entry furthest back inside; pin the most violated free
    entry.  The middle two need caps, so they run only with ``cp``.
    Returns (z, balance multipliers, regime per entry, force per entry),
    or None on a singular or non-finite face or after max(40, 2 len(z))
    rounds.
    """
    lo, hi, g0, nz = vi.lo, vi.hi, vi.g0, vi.size
    base = nz + vi.c.size                # row of the first pin
    K, rhs, cap = _face_system(vi, cp)
    if z is None:
        z = vi.start
    state = np.where(z - lo <= 1e-4, LOWER,
                     np.where(hi - z <= 1e-4, UPPER, INTERIOR))
    # per entry: +1 at or beyond its lower bound, -1 at or beyond its
    # upper one, 0 inside (the start saturates no entry); that bound; the
    # force of a saturated penalty (+0.0 elsewhere)
    side = (INTERIOR - state).astype(float)
    bound = np.where(side < 0.0, hi, lo)
    pinned = side != 0.0
    saturated = np.zeros(nz, dtype=bool)
    sat_force = np.zeros(nz)

    def enter(j, s):
        """Entry j moves to regime s."""
        state[j] = s
        pinned[j] = s in (LOWER, UPPER)
        saturated[j] = s in (BELOW, ABOVE)
        side[j] = (s < INTERIOR) - (s > INTERIOR)
        bound[j] = hi[j] if s > INTERIOR else lo[j]
        if cap is not None:     # only capped boxes saturate
            # a saturated box's force on its stationarity row is the
            # flow's negated; negating cap, not the result, keeps a free
            # entry's +0.0
            sat_force[j] = saturated_force(s, -cap[j])
            rhs[j] = -(g0[j] - saturated_force(s, cap[j]))

    rows = np.arange(base, K.shape[0])
    for _ in range(max(40, 2 * nz)):
        pins = pinned.nonzero()[0]
        n = base + pins.size
        K[base:, :nz] = K[:nz, base:] = 0.0
        K[rows[:pins.size], pins] = K[pins, rows[:pins.size]] = 1.0
        rhs[base:n] = bound[pins]
        try:
            sol = np.linalg.solve(K[:n, :n], rhs[:n])
        except np.linalg.LinAlgError:
            return None
        zf, mu, pull = sol[:nz], sol[nz:base], sol[base:]
        if not (np.isfinite(zf).all() and np.isfinite(pull).all()):
            return None
        outward = pull * side[pins]      # each pin's force out of its box
        j = _worst(outward, 1e-9)
        if j is not None:
            enter(pins[j], INTERIOR)
            continue
        if cap is not None:
            j = _worst(-outward - cap[pins], 1e-9)
            if j is not None:
                enter(pins[j], BELOW if side[pins[j]] > 0 else ABOVE)
                continue
            sats = saturated.nonzero()[0]
            j = _worst((zf[sats] - bound[sats]) * side[sats], 1e-12)
            if j is not None:
                enter(sats[j], LOWER if side[sats[j]] > 0 else UPPER)
                continue
        out = np.maximum(lo - zf, zf - hi)
        out[state != INTERIOR] = -np.inf
        j = _worst(out, 1e-12)
        if j is not None:
            enter(j, LOWER if zf[j] < lo[j] else UPPER)
            continue
        force = sat_force.copy()
        force[pins] = pull
        return zf, mu, state, force
    return None


_ACTIVE_TOL = 1e-6   # distance from a bound at which a box row is active


def recover_multipliers(g: GameDefinition, u, x) -> MultiplierRecovery:
    """Multipliers certifying a candidate equilibrium (u, x) of ``g``.

    The local-equality multipliers come directly from the voltage-dynamics
    stationarity, ``gamma_i = -r_i alpha_u (u_i - u_ref_i)``; the shared
    coupling multiplier solves the decision-block stationarity in least
    squares over the rows whose box constraint is inactive.  Active rows
    report their residual stationarity gap as the implied box force.
    """
    lay = g.layout
    w = g.weights
    p = g.plant
    u, x = np.asarray(u), np.asarray(x)
    gamma = -w.r * w.alpha_u * (u - p.u_ref)

    # every agent's aggregate is the one sum of generated currents
    smooth = local_gradient(g, x, x[lay.ix_I].sum(), with_penalty=False)
    r_row = w.r[lay.agent_of_pos]
    rhs = -r_row * smooth + gamma[lay.agent_of_pos] * g.constraints.D_stack

    b = g.boxes
    v = x[b.pos]
    active_lower = np.zeros(lay.size, dtype=bool)
    active_upper = np.zeros(lay.size, dtype=bool)
    active_lower[b.pos] = np.abs(v - b.lo) <= _ACTIVE_TOL
    active_upper[b.pos] = np.abs(v - b.hi) <= _ACTIVE_TOL
    active = active_lower | active_upper
    inactive = ~active

    AT = g.constraints.A_full.T
    lam, _, rank, _ = np.linalg.lstsq(AT[inactive], rhs[inactive], rcond=None)
    fit = AT @ lam - rhs
    residual = float(np.abs(fit[inactive]).max()) if inactive.any() else 0.0
    box_forces = fit[active]
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
    rows; ``plant`` the matching grid state.  ``u_star``, ``x_star`` and
    ``gamma`` read through to ``controller``'s u, xhat and gamma.
    """

    lambda_shared: np.ndarray
    regimes: tuple
    forces: np.ndarray
    controller: ControllerState
    plant: PlantState

    u_star = property(lambda self: self.controller.u)
    x_star = property(lambda self: self.controller.xhat)
    gamma = property(lambda self: self.controller.gamma)


def closed_loop_equilibrium(g: GameDefinition,
                            cp: ControllerParams) -> ClosedLoopEquilibrium:
    """The controller's attractor, by :func:`_active_set` with ``cp``.

    Each voltage and line entry ends interior, sliding on a bound or
    beyond it with its penalty saturated; the consistent combination is
    unique for a strictly monotone game.  Raises RuntimeError when the
    active-set iteration finds none.
    """
    vi = _Vi(g)
    face = _active_set(vi, cp)
    if face is None:
        raise RuntimeError(
            "no consistent penalty regime found for the closed loop")
    z, mu, state, force = face
    lay = g.layout
    w = g.weights
    z = np.where(state == LOWER, vi.lo, np.where(state == UPPER, vi.hi, z))
    u, x = vi.split(z)
    lam, gamma = mu[:g.n + g.m], mu[g.n + g.m:]
    box = vi.box
    regimes = tuple(REGIME_NAMES[s] for s in state[box])
    Ihat = x[lay.ix_I]
    ups, nu = fast_equilibrium(Ihat, g.comm_topo)
    lam_rows = np.outer(1.0 / w.r, lam)
    theta = laplacian_pinv(g.comm_topo) @ g.constraints.agent_rows(x)
    cs = ControllerState(ups, nu, u, x, lam_rows, theta, gamma)
    plant = PlantState(Ihat, x[lay.ix_V], x[lay.ix_line])
    return ClosedLoopEquilibrium(lam, regimes, force[box], cs, plant)
