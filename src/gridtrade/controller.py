"""Distributed controller dynamics.

Per agent: a fast consensus estimator tracking the total generated
current, an integrator-style control voltage fed by the grid current, a
decision copy of the agent's physical block descending its penalized
cost, coupling-constraint multipliers driven toward weighted consensus,
auxiliary consensus multipliers and a local-equality multiplier.  The
functions below also take a block of states, one per row of each array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._kernels import matvec, rowdot
from .game import GameDefinition, local_gradient, local_gradient_interval
from .plant import PlantState, plant_rhs
from .topology import MicrogridTopology, laplacian, laplacian_pinv


@dataclass(frozen=True)
class ControllerParams:
    """Time-scale constants: eps_fast scales the consensus estimator,
    eps_u couples the measured grid current into the voltage dynamics."""

    eps_fast: float = 0.01
    eps_u: float = 0.1

    def __post_init__(self):
        if self.eps_fast <= 0.0 or self.eps_u <= 0.0:
            raise ValueError("controller time-scale constants must be > 0")
        if not np.isfinite([self.eps_fast, self.eps_u]).all():
            raise ValueError("controller time-scale constants must be finite")


@dataclass
class ControllerState:
    """Stacked controller state: the blocks below, in the order of the
    flat vector, with the shapes :meth:`shapes` gives.

    xhat is agent-major (the game's ``layout``); row i of lam and theta
    belongs to agent i.
    """

    upsilon: np.ndarray
    nu: np.ndarray
    u: np.ndarray
    xhat: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    @classmethod
    def shapes(cls, g: GameDefinition) -> dict:
        """Block name -> shape in field order; it and zeros read only n, m."""
        n, m = g.n, g.m
        return dict(zip((f.name for f in fields(cls)), (
            (n,), (n,), (n,), (2 * n + m,), (n, n + m), (n, n + m), (n,))))

    @classmethod
    def zeros(cls, g: GameDefinition):
        return cls(**{k: np.zeros(s) for k, s in cls.shapes(g).items()})

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f.name).reshape(
            *self.u.shape[:-1], -1) for f in fields(self)], -1)

    @classmethod
    def from_vector(cls, y, g: GameDefinition):
        shapes = cls.shapes(g)
        parts = np.split(np.asarray(y, dtype=float),
                         np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
        return cls(**{k: p.reshape(s)
                      for (k, s), p in zip(shapes.items(), parts)})


def _equations(cs: ControllerState, plant_I, g: GameDefinition,
               cp: ControllerParams):
    """The controller's equations at ``cs`` with the measured generated
    currents ``plant_I``, each stated once.

    Returns (the two estimator residuals, eps_fast times the derivatives
    of upsilon and nu; d_u; r_i A_i^T lam_i in block order; d_lam;
    d_theta; d_gamma).  The decision copy's own current estimate drives
    the consensus estimator and the local voltage balance.
    """
    lay = g.layout
    w = g.weights
    con = g.constraints
    Lap = laplacian(g.comm_topo)
    Ihat = cs.xhat[..., lay.ix_I]

    e_nu = matvec(Lap, cs.upsilon)
    e_ups = -cs.upsilon - e_nu - matvec(Lap, cs.nu) + g.n * Ihat
    d_u = -w.r * w.alpha_u * (cs.u - g.plant.u_ref) + cs.gamma \
        - cp.eps_u * np.asarray(plant_I, dtype=float)
    rAtLam = w.r[lay.agent_of_pos] * con.agent_cols(cs.lam)
    W = w.r[:, None] * cs.lam + cs.theta
    d_lam = w.r[:, None] * (con.agent_rows(cs.xhat) - Lap @ W)
    d_theta = Lap @ (w.r[:, None] * cs.lam)
    d_gamma = -cs.u + g.plant.R * Ihat + cs.xhat[..., lay.ix_V]
    return e_ups, e_nu, d_u, rAtLam, d_lam, d_theta, d_gamma


def controller_rhs(cs: ControllerState, plant_I, g: GameDefinition,
                   cp: ControllerParams) -> ControllerState:
    """Time derivative of the controller state.

    ``plant_I`` is the measured generated-current vector of the grid;
    the decision copy's own current estimate drives the consensus
    estimator.
    """
    e_ups, e_nu, d_u, rAtLam, d_lam, d_theta, d_gamma = \
        _equations(cs, plant_I, g, cp)
    lay = g.layout
    r_row = g.weights.r[lay.agent_of_pos]
    d_xhat = -r_row * local_gradient(g, cs.xhat, cs.upsilon) - rAtLam \
        - cs.gamma[..., lay.agent_of_pos] * g.constraints.D_stack
    return ControllerState(e_ups / cp.eps_fast, e_nu / cp.eps_fast, d_u,
                           d_xhat, d_lam, d_theta, d_gamma)


def fast_equilibrium(Ihat, topo):
    """Quasi-steady state of the consensus estimator.

    Every agent's estimate equals the sum of the inputs; the auxiliary
    state solves ``L nu = n Ihat - upsilon`` on the zero-mean subspace,
    which zeroes the estimator dynamics.
    """
    # in C order each row is summed as a lone vector is (pairwise)
    Ihat = np.ascontiguousarray(Ihat, dtype=float)
    ups = np.full(Ihat.shape, Ihat.sum(-1)[..., None])
    return ups, matvec(laplacian_pinv(topo), topo.n * Ihat - ups)


@dataclass
class KktResidual:
    """Per-equation residual norms of the distributed optimality system."""

    lines: np.ndarray   # (..., 7): inf-norm over agents/components per row

    @property
    def max(self):
        return self.lines.max(-1)


def kkt_residual(cs: ControllerState, g: GameDefinition,
                 cp: ControllerParams) -> KktResidual:
    """Distance of a controller state from the distributed optimality system.

    The controller's own equations (:func:`_equations`) with the current
    measurement replaced by the decision copy's, which coincides with it
    at any closed-loop equilibrium.  Lines 1-2: consensus-estimator
    stationarity; 3: voltage-dynamics stationarity; 4: penalized cost
    stationarity, measured as the distance from zero to the
    subdifferential interval; 5: local voltage balance; 6-7: multiplier
    feasibility and weighted consensus.
    """
    lay = g.layout
    e_ups, e_nu, d_u, rAtLam, d_lam, d_theta, d_gamma = \
        _equations(cs, cs.xhat[..., lay.ix_I], g, cp)
    lo, hi = local_gradient_interval(g, cs.xhat, cs.upsilon)
    r_row = g.weights.r[lay.agent_of_pos]
    shift = rAtLam + cs.gamma[..., lay.agent_of_pos] * g.constraints.D_stack
    set_lo = r_row * lo + shift
    set_hi = r_row * hi + shift
    l4 = np.where(set_lo > 0.0, set_lo, np.where(set_hi < 0.0, -set_hi, 0.0))
    lines = [np.abs(l).reshape(*cs.u.shape[:-1], -1).max(-1) for l in (
        e_ups, e_nu, d_u, l4, d_gamma, d_lam, d_theta)]
    return KktResidual(np.stack(lines, -1))


def consensus_errors(cs: ControllerState, g: GameDefinition):
    """(estimate spread, weighted multiplier spread), both inf-norms."""
    ups_spread = cs.upsilon.max(-1) - cs.upsilon.min(-1)
    rl = g.weights.r[:, None] * cs.lam
    lam_spread = (rl.max(-2) - rl.min(-2)).max(-1)
    return ups_spread, lam_spread


def boundary_layer_energy_matrix(topo: MicrogridTopology) -> np.ndarray:
    """Quadratic form of the estimator-error energy on the communication
    graph ``topo``; PSD by construction."""
    Lap = laplacian(topo)
    n = topo.n
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
    energy with the squared residual of the slow rows (u, xhat, lam,
    theta, gamma) with the estimator at quasi-steady state, the reduced
    model of the singular-perturbation argument.
    """
    ups_star, nu_star = fast_equilibrium(cs.xhat[..., g.layout.ix_I],
                                         g.comm_topo)
    s_b = np.concatenate([cs.upsilon - ups_star, cs.nu - nu_star], -1)
    Q = boundary_layer_energy_matrix(g.comm_topo)
    E_b = rowdot(s_b, matvec(Q, s_b))

    d_plant = plant_rhs(plant_state, cs.u, g.plant, g.topo)
    d = controller_rhs(replace(cs, upsilon=ups_star), plant_state.I, g, cp)
    p = g.plant
    deriv_energy = 0.5 * (rowdot(d_plant.I, p.L * d_plant.I)
                          + rowdot(d_plant.I_l, p.L_l * d_plant.I_l)
                          + rowdot(d_plant.V, p.C * d_plant.V))
    g_d = d.to_vector()[..., 2 * g.n:]      # the blocks after upsilon, nu
    return E_b, deriv_energy + (0.5 / cp.eps_u) * rowdot(g_d, g_d)
