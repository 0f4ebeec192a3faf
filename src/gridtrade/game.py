"""Energy-trading game: objectives, constraints and optimality machinery.

Each DGU minimises a quadratic regulation cost plus a trading term that
sells its generated power at a price decreasing in the total generated
current (an aggregative coupling).  Coupling equality constraints encode
the network's steady-state current balance; box constraints on voltages
and line currents are enforced through exact (nonsmooth) penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import penalty_force
from .plant import PlantParams, frozen_copy
from .topology import AgentLayout, MicrogridTopology, incidence_matrix


@dataclass(frozen=True)
class PriceParams:
    """Affine price of power: base price ``l`` minus ``p_r`` per ampere sold."""

    l: float
    p_r: float

    def __post_init__(self):
        if self.l <= 0.0 or self.p_r <= 0.0:
            raise ValueError("price parameters must be > 0")


class ObjectiveWeights:
    """Per-agent cost weights, held as read-only copies.

    ``alpha_Il[i]`` is an array with one weight per line managed by agent
    i (ascending edge order), matching the agent's decision block.
    """

    def __init__(self, r, alpha_u, alpha_I, alpha_V, alpha_Il):
        self.r = frozen_copy(r)
        self.alpha_u = frozen_copy(alpha_u)
        self.alpha_I = frozen_copy(alpha_I)
        self.alpha_V = frozen_copy(alpha_V)
        self.alpha_Il = [frozen_copy(np.atleast_1d(a)) for a in alpha_Il]
        arrays = [self.r, self.alpha_u, self.alpha_I, self.alpha_V]
        if any((a <= 0).any() for a in arrays) or any(
                (a <= 0).any() for a in self.alpha_Il if a.size):
            raise ValueError("objective weights must be strictly positive")


@dataclass(eq=False)
class PenaltyParams:
    """Exact-penalty magnitudes for the voltage and line-current boxes
    (read-only copies)."""

    rho_V: np.ndarray
    rho_Il: np.ndarray

    def __post_init__(self):
        self.rho_V = frozen_copy(self.rho_V)
        self.rho_Il = frozen_copy(self.rho_Il)
        if (self.rho_V <= 0).any() or (self.rho_Il.size and (self.rho_Il <= 0).any()):
            raise ValueError("penalty parameters must be strictly positive")


class ConstraintData:
    """Coupling equality constraints ``A_full @ x = s_A_full``.

    Rows 1..n collect the nodal current balance (load currents on the
    right-hand side), rows n+1..n+m the line voltage balance.  Agent i
    owns the columns A_i of its decision block and its own load, row i
    of ``s_A_full``; :meth:`agent_rows` and :meth:`agent_cols` apply
    those blocks to all agents at once.  ``D_stack @ x`` restricted to
    block i is the local voltage balance V_i + R_i I_i.  Its arrays are
    read-only.
    """

    def __init__(self, topo: MicrogridTopology, params: PlantParams):
        layout = AgentLayout(topo)
        n, m = topo.n, topo.m
        B = incidence_matrix(topo)
        A = np.zeros((n + m, layout.size))
        for i in range(n):
            A[i, layout.ix_I[i]] = 1.0
            A[i, layout.ix_V[i]] = -1.0 / params.Z_L[i]
        for k in range(m):
            A[:n, layout.ix_line[k]] = B[:, k]
            A[n + k, layout.ix_line[k]] = params.R_l[k]
            h, t = topo.edges[k]
            A[n + k, layout.ix_V[h - 1]] += 1.0
            A[n + k, layout.ix_V[t - 1]] += -1.0
        self.A_full = A
        self.s_A_full = np.concatenate([params.I_L, np.zeros(m)])
        self.D_stack = np.zeros(layout.size)
        self.D_stack[layout.ix_I] = params.R
        self.D_stack[layout.ix_V] = 1.0
        self.layout = layout
        for a in (self.A_full, self.s_A_full, self.D_stack):
            a.flags.writeable = False

    def agent_rows(self, x) -> np.ndarray:
        """Rows ``A_i x_i - s_i`` of every agent, shape (..., n, n + m);
        they sum to ``A_full @ x - s_A_full``."""
        n = self.layout.topo.n
        # column i sums the products A x over agent i's block
        by_agent = np.add.reduceat(
            self.A_full * np.atleast_1d(x)[..., None, :],
            self.layout.offsets[:-1], axis=-1)
        by_agent[..., :n, :] -= np.diag(self.s_A_full[:n])
        return np.swapaxes(by_agent, -1, -2)

    def agent_cols(self, lam) -> np.ndarray:
        """``A_i^T lam_i`` of every agent, stacked in block order: entry j
        of ``A_full^T lam_i`` for every agent i, kept for the positions j
        of block i.  The adjoint of :meth:`agent_rows` without its load
        term."""
        lay = self.layout
        every = self.A_full.T @ np.swapaxes(lam, -1, -2)
        return every[..., np.arange(lay.size), lay.agent_of_pos]


@dataclass(frozen=True, eq=False)
class PenaltyBoxes:
    """The exactly penalized entries of the decision vector: voltages by
    agent, then line currents by edge.  ``pos`` are their positions in
    the agent-major vector, ``lo``/``hi`` their boxes, ``rho`` the
    penalty magnitudes and ``force = r rho`` (r of the entry's agent,
    the line's manager for a line) the penalty force on its row of the
    weighted dynamics."""

    pos: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rho: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        for a in (self.pos, self.lo, self.hi, self.rho, self.force):
            a.flags.writeable = False


class GameDefinition:
    """Immutable bundle of everything that defines one game instance.

    Built through :func:`build_game`; carries the topology, plant
    parameters, prices, weights, penalties, assembled constraints, the
    penalized boxes (``boxes``), the flat per-position weight and
    reference arrays used by the dynamics (read-only, as are the
    constraints', the layout's and the boxes'), and the margins
    ``price_margin`` and ``monotonicity``, positive if ``validate``.
    """

    def __init__(self, topo, plant, price, weights, penalties,
                 comm_topo=None, validate=True):
        self.topo = topo
        self.comm_topo = comm_topo if comm_topo is not None else topo
        if self.comm_topo.n != topo.n:
            raise ValueError("communication graph must have the same node set")
        self.plant = plant
        self.price = price
        self.weights = weights
        self.penalties = penalties
        self.constraints = ConstraintData(topo, plant)
        lay = self.constraints.layout
        self.layout = lay
        n, m = topo.n, topo.m
        if len(weights.r) != n or len(penalties.rho_V) != n:
            raise ValueError("weights/penalties must have one entry per agent")
        if len(penalties.rho_Il) != m:
            raise ValueError("rho_Il must have one entry per line")
        for i in range(n):
            if len(weights.alpha_Il[i]) != lay.dims[i] - 2:
                raise ValueError(
                    f"agent {i + 1}: alpha_Il must match its managed-line count")
        # flat per-edge views (ascending edge id)
        self.alpha_Il_edge = np.zeros(m)
        for i in range(n):
            for j, k in enumerate(lay.edge_lists[i]):
                self.alpha_Il_edge[k - 1] = weights.alpha_Il[i][j]
        self.r_edge = weights.r[lay.manager_of_edge] if m else np.zeros(0)
        self.rho_Il_edge = penalties.rho_Il
        self.x_ref = lay.stack(plant.I_ref, plant.V_ref, plant.Il_ref)
        for a in (self.alpha_Il_edge, self.r_edge, self.x_ref):
            a.flags.writeable = False
        rho = np.concatenate([penalties.rho_V, self.rho_Il_edge])
        self.boxes = PenaltyBoxes(
            np.concatenate([lay.ix_V, lay.ix_line]),
            np.concatenate([plant.V_min, plant.Il_min]),
            np.concatenate([plant.V_max, plant.Il_max]), rho,
            rho * np.concatenate([weights.r, self.r_edge]))
        self.price_margin = check_price_margin(plant, price.l, price.p_r)
        self.monotonicity = check_monotonicity(weights, price.p_r,
                                               plant.V_ref)
        self.monotonicity.flags.writeable = False
        if validate and self.price_margin <= 0.0:
            raise ValueError("price margin over peak feasible demand is "
                             f"{self.price_margin:.4f} <= 0")
        if validate and (self.monotonicity <= 0.0).any():
            raise ValueError("monotonicity margins must be positive, got "
                             f"{self.monotonicity}")

    V_box = property(lambda self: (self.boxes.lo[:self.n],
                                   self.boxes.hi[:self.n]))
    Il_box = property(lambda self: (self.boxes.lo[self.n:],
                                    self.boxes.hi[self.n:]))

    @property
    def n(self):
        return self.topo.n

    @property
    def m(self):
        return self.topo.m


def build_game(topo, plant, price, weights, penalties, comm_topo=None,
               validate=True) -> GameDefinition:
    """Validate and assemble a :class:`GameDefinition`."""
    return GameDefinition(topo, plant, price, weights, penalties,
                          comm_topo=comm_topo, validate=validate)


def cost(g: GameDefinition, i: int, u_i: float, x_i, aggregate_I: float) -> float:
    """Agent i's cost at its own decision given the aggregate current.

    Quadratic deviation from references plus the negated trading profit
    ``(l - p_r * aggregate) * V_ref_i * I_i`` (1-based agent id).
    """
    x_i = np.asarray(x_i, dtype=float)
    w = g.weights
    d = g.plant.dgus[i - 1]
    lay = g.layout
    ref = g.x_ref[lay.block(i)]
    ax = np.concatenate([[w.alpha_I[i - 1], w.alpha_V[i - 1]], w.alpha_Il[i - 1]])
    dev = x_i - ref
    f1 = 0.5 * w.alpha_u[i - 1] * (u_i - d.u_ref) ** 2 + 0.5 * dev @ (ax * dev)
    price = g.price.l - g.price.p_r * aggregate_I
    f2 = -price * d.V_ref * x_i[0]
    return f1 + f2


def penalty_subgradient(value: float, lo: float, hi: float, rho: float):
    """Subdifferential interval of the one-sided box penalty.

    Returns (lo, hi) of the interval; the minimum-norm element used in
    the dynamics is 0 at the kinks.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    if value < lo:
        return (-rho, -rho)
    if value == lo:
        return (-rho, 0.0)
    if value < hi:
        return (0.0, 0.0)
    if value == hi:
        return (0.0, rho)
    return (rho, rho)


def local_gradient(g: GameDefinition, x, upsilon, with_penalty=True):
    """Stacked per-agent own-cost gradients with the aggregate estimate.

    Entry layout matches the agent-major decision vector.  ``upsilon``
    is the per-agent estimate of the total generated current that
    replaces the true sum in each agent's trading term.  The nonsmooth
    penalty contributes its minimum-norm subgradient selection, the
    negated :func:`~gridtrade._kernels.penalty_force` with force rho.
    """
    x = np.asarray(x, dtype=float)
    upsilon = np.asarray(upsilon, dtype=float)
    lay = g.layout
    w = g.weights
    p = g.plant
    I, V, Il = lay.split(x)
    out = np.zeros(x.shape)
    price_est = g.price.l - g.price.p_r * upsilon
    out[..., lay.ix_I] = (w.alpha_I * (I - p.I_ref) - p.V_ref * price_est
                          + g.price.p_r * p.V_ref * I)
    out[..., lay.ix_V] = w.alpha_V * (V - p.V_ref)
    out[..., lay.ix_line] = g.alpha_Il_edge * (Il - p.Il_ref)
    if with_penalty:
        b = g.boxes
        out[..., b.pos] -= penalty_force(x[..., b.pos], b.lo, b.hi, b.rho)
    return out


_KINK_TOL = 1e-9     # distance from a bound that counts as on the kink


def local_gradient_interval(g: GameDefinition, x, upsilon):
    """Like :func:`local_gradient` but set-valued at the penalty kinks.

    Returns (lo, hi) arrays bounding the subdifferential of each stacked
    entry; entries without a penalty have lo == hi.  Values within
    ``_KINK_TOL`` of a bound count as sitting on the kink, absorbing
    floating-point placement of pinned solutions.
    """
    base = local_gradient(g, x, upsilon, with_penalty=False)
    b = g.boxes
    at = (..., b.pos)      # the penalized entries (of every row)
    v = np.asarray(x, dtype=float)[at]
    v = np.where(np.abs(v - b.lo) <= _KINK_TOL, b.lo,
                 np.where(np.abs(v - b.hi) <= _KINK_TOL, b.hi, v))
    # penalty_subgradient's interval, entry by entry
    lo, hi = base.copy(), base.copy()
    lo[at] += np.where(v <= b.lo, -b.rho, np.where(v <= b.hi, 0.0, b.rho))
    hi[at] += np.where(v < b.lo, -b.rho, np.where(v < b.hi, 0.0, b.rho))
    return lo, hi


def pseudo_gradient(g: GameDefinition, u, x) -> np.ndarray:
    """Weighted stack of own-cost gradients over (u_i, x_i) per agent.

    Smooth part only (no penalties); the aggregate is the true sum of
    generated currents.  Block i is
    ``r_i * [d/du_i; d/dI_i; d/dV_i; d/dI_l...] f_i``.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    lay = g.layout
    w = g.weights
    agg = x[lay.ix_I].sum()
    gx = local_gradient(g, x, np.full(g.n, agg), with_penalty=False)
    out = np.zeros(g.n + lay.size)
    pos = 0
    for i in range(g.n):
        blk = lay.block(i + 1)
        d = int(lay.dims[i])
        out[pos] = w.r[i] * w.alpha_u[i] * (u[i] - g.plant.u_ref[i])
        out[pos + 1:pos + 1 + d] = w.r[i] * gx[blk]
        pos += 1 + d
    return out


def check_price_margin(params: PlantParams, l: float, p_r: float) -> float:
    """Worst-case price margin ``l - p_r * sum(V_max/Z_L + I_L)``.

    Positive margin keeps the power price positive over the feasible
    operating region; nonpositive values invalidate the configuration.
    """
    return float(l - p_r * np.sum(params.V_max / params.Z_L + params.I_L))


def check_monotonicity(weights: ObjectiveWeights, p_r: float, V_ref) -> np.ndarray:
    """Per-agent strict-monotonicity margins of the weighted game map.

    ``2 r_i a_I,i + (6 - n) r_i p_r Vref_i - sum_j r_j p_r Vref_j`` must
    be positive for every agent.
    """
    V_ref = np.asarray(V_ref, dtype=float)
    r = weights.r
    n = len(r)
    total = np.sum(r * p_r * V_ref)
    return 2.0 * r * weights.alpha_I + (6 - n) * r * p_r * V_ref - total

