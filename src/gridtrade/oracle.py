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
        self.z_of_u = z_of_u = lay.offsets[:-1] + np.arange(g.n)
        self.z_of_x = z_of_x = np.arange(lay.size) + lay.agent_of_pos + 1
        local = g.n + g.m          # row of agent 1's local balance
        self.M = np.zeros((local + g.n, size))
        self.M[:local, z_of_x] = con.A_full
        self.M[local + lay.agent_of_pos, z_of_x] = con.D_stack
        self.M[local + np.arange(g.n), z_of_u] = -1.0
        self.c = np.concatenate([con.s_A_full, np.zeros(g.n)])
        self.box = z_of_x[g.boxes.pos]
        self.lo = np.full(size, -np.inf)
        self.hi = np.full(size, np.inf)
        self.lo[self.box] = g.boxes.lo
        self.hi[self.box] = g.boxes.hi
        # the probe rows hold 0/1 entries, so their aggregates are exact
        Gx, gx = _kernels.affine_probe(
            lambda x: local_gradient(g, x, np.broadcast_to(
                x[..., lay.ix_I].sum(-1)[..., None], x.shape[:-1] + (g.n,)),
                with_penalty=False), lay.size)
        r_row = w.r[lay.agent_of_pos]
        self.G = np.zeros((size, size))
        self.g0 = np.zeros(size)
        self.G[np.ix_(z_of_x, z_of_x)] = r_row[:, None] * Gx
        self.g0[z_of_x] = r_row * gx
        self.G[z_of_u, z_of_u] = w.r * w.alpha_u
        self.g0[z_of_u] = -w.r * w.alpha_u * g.plant.u_ref
        self.start = np.clip(self.join(g.plant.u_ref, g.x_ref), self.lo,
                             self.hi)
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
    per-agent multipliers are ``lambda_star / r_i``.  ``method`` names
    the path that answered, ``"active_set"`` or ``"extragradient"``;
    ``iterations`` counts extragradient iterations (0 on the active-set
    path).  ``residual`` is the extragradient fixed-point residual, or on
    the active-set path the certificate's: the larger of the balance gap
    and the stationarity residual.  ``history`` is the extragradient's
    fixed-point residual per iteration (None on the active-set path).
    """

    u_star: np.ndarray
    x_star: np.ndarray
    lambda_star: np.ndarray
    gamma_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    method: str
    recovery: MultiplierRecovery
    history: list = None


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
    (:class:`_Vi`) for that iteration and for :func:`_certified`; the
    answer is returned only when the certificate accepts it, otherwise
    the solve falls back to :func:`_solve_extragradient`, which raises
    RuntimeError when the feasible set is empty.  Deterministic.
    """
    vi = _Vi(g)
    face = _active_set(vi)
    sol = None if face is None else _certified(vi, face[0])
    return sol if sol is not None else _solve_extragradient(g)


def _solve_extragradient(g: GameDefinition, tol: float = 1e-9,
                         max_iter: int = 50000) -> EquilibriumSolution:
    """Extragradient solution of the game's variational inequality:
    :func:`solve_vi`'s fallback and the independent cross-check of its
    active-set path.

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
    vi = _Vi(g)
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
    rec = recover_multipliers(g, u, x)
    return EquilibriumSolution(u, x, rec.lambda_shared, rec.gamma, it,
                               residual, converged, "extragradient", rec,
                               history)


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
    g, lo, hi = vi.g, vi.lo, vi.hi
    gap = float(np.abs(vi.M @ z - vi.c).max())
    if not gap <= 1e-8 \
            or (z < lo - 1e-12 * np.maximum(1.0, np.abs(lo))).any() \
            or (z > hi + 1e-12 * np.maximum(1.0, np.abs(hi))).any():
        return None
    u, x = vi.split(z)
    rec = recover_multipliers(g, u, x)
    tol = 1e-9 * rec.scale
    active = rec.active_lower | rec.active_upper
    lower = rec.active_lower[active]
    if not (rec.residual <= tol and (rec.box_forces[lower] >= -tol).all()
            and (rec.box_forces[~lower] <= tol).all()):
        return None
    return EquilibriumSolution(u, x, rec.lambda_shared, rec.gamma, 0,
                               max(gap, rec.residual), True, "active_set",
                               rec)


def _face_solve(G, g0, M, c, lo, hi, cap, state):
    """Solve ``G z + g0 + M^T mu + pin forces = 0``, ``M z = c`` on one
    face: ``state`` (a :mod:`pwa` regime per entry) pins LOWER/UPPER
    entries to their bound and adds -cap (BELOW) or +cap (ABOVE) to
    saturated rows.  Returns (z, mu, pin forces in entry order)."""
    shift = g0 - saturated_force(state, cap)
    pins = np.flatnonzero((state == LOWER) | (state == UPPER))
    nz, nc = g0.size, c.size
    # the KKT matrix [[G, Meq^T], [Meq, 0]] with Meq = [M; unit rows at pins]
    K = np.zeros((nz + nc + pins.size,) * 2)
    K[:nz, :nz] = G
    K[nz:nz + nc, :nz] = M
    K[:nz, nz:nz + nc] = M.T
    rows = nz + nc + np.arange(pins.size)
    K[rows, pins] = K[pins, rows] = 1.0
    sol = np.linalg.solve(K, np.concatenate(
        [-shift, c, np.where(state[pins] == LOWER, lo[pins], hi[pins])]))
    return sol[:nz], sol[nz:nz + nc], sol[nz + nc:]


def _active_set(vi: _Vi, cp: ControllerParams = None, z=None):
    """Primal-dual active-set solve over the box faces (Hintermüller,
    Ito & Kunisch, SIAM J. Optim. 13(3), 2002) of the assembled game
    ``vi``.

    Without ``cp``: the game's variational inequality, every box holding
    any force.  With ``cp``: the penalized closed loop's attractor; the
    voltage rows carry the controller's eps_u I_i coupling (added to a
    copy of ``vi.G``) and a box holds at most its penalty's force, r_i
    rho_V (voltage) or r_edge rho_Il (line), beyond which the entry
    leaves and the penalty saturates.  From the bounds within 1e-4 of
    ``z`` (default: ``vi.start``, the reference point clipped into the
    boxes) each round solves the face and moves one entry, first rule
    that applies: free the most wrong-signed pin; saturate the pin most
    over its cap; re-pin the saturated entry furthest back inside; pin
    the most violated free entry.  Returns (z, balance multipliers,
    regime per entry, force per entry), or None on a singular or
    non-finite face or after max(40, 2 len(z)) rounds.
    """
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
            zf, mu, pin_forces = _face_solve(G, g0, M, c, lo, hi, cap, state)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(zf).all() and np.isfinite(pin_forces).all()):
            return None
        lower = state == LOWER
        pinned = lower | (state == UPPER)
        # a saturated box's force on its stationarity row is the flow's
        # negated; negating cap, not the result, keeps a free entry's +0.0
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
    cs = ControllerState(ups, nu, u.copy(), x.copy(), lam_rows, theta,
                         gamma.copy())
    plant = PlantState(Ihat.copy(), x[lay.ix_V].copy(),
                       x[lay.ix_line].copy())
    return ClosedLoopEquilibrium(u, x, lam, gamma, regimes, force[box], cs,
                                 plant)
