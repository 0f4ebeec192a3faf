"""Physical DC microgrid model.

Linear RLC network per DGU (source filter, shunt capacitor, constant
impedance + constant current load) coupled through RL transmission
lines.  All quantities SI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ._kernels import matvec
from .topology import MicrogridTopology, incidence_matrix


def frozen_copy(a) -> np.ndarray:
    """A read-only float copy of ``a``, so that a record's numbers and
    what was built from them cannot part, and the caller's array stays
    writable."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class SingularSystemError(ValueError):
    """Steady-state system is numerically singular (degenerate parameters)."""


@dataclass(frozen=True)
class DguParams:
    """Per-DGU electrical parameters, references and voltage box."""

    R: float          # filter resistance [Ohm]
    L: float          # filter inductance [H]
    C: float          # shunt capacitance [F]
    Z_L: float        # constant impedance load [Ohm]
    I_L: float        # constant current load [A]
    V_min: float
    V_max: float
    V_ref: float
    I_ref: float = 0.0
    u_ref: float = 0.0

    def __post_init__(self):
        for name in ("R", "L", "C", "Z_L"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"DguParams.{name} must be > 0")
        if not self.V_min < self.V_max:
            raise ValueError("DguParams: V_min must be < V_max")


@dataclass(frozen=True)
class LineParams:
    """Per-line electrical parameters, reference and current box."""

    R: float          # line resistance [Ohm]
    L: float          # line inductance [H]
    Il_min: float
    Il_max: float
    Il_ref: float = 0.0

    def __post_init__(self):
        if self.R <= 0.0 or self.L <= 0.0:
            raise ValueError("LineParams: R and L must be > 0")
        if not self.Il_min < self.Il_max:
            raise ValueError("LineParams: Il_min must be < Il_max")


class PlantParams:
    """Parameter collection for the whole grid: each field of
    :class:`DguParams` as the read-only array of its value over ``dgus``,
    and each field of :class:`LineParams` over ``lines``, a line's ``R``
    and ``L`` as ``R_l`` and ``L_l``."""

    def __init__(self, dgus, lines):
        self.dgus = tuple(dgus)
        self.lines = tuple(lines)
        for records, cls in ((self.dgus, DguParams), (self.lines, LineParams)):
            for f in fields(cls):
                name = f.name + "_l" if cls is LineParams and \
                    f.name in ("R", "L") else f.name
                setattr(self, name, frozen_copy(
                    [getattr(r, f.name) for r in records]))

    @property
    def n(self):
        return len(self.dgus)

    @property
    def m(self):
        return len(self.lines)


@dataclass
class PlantState:
    """Generated currents, load voltages and line currents."""

    I: np.ndarray
    V: np.ndarray
    I_l: np.ndarray

    def __post_init__(self):
        self.I = np.atleast_1d(np.asarray(self.I, dtype=float))
        self.V = np.atleast_1d(np.asarray(self.V, dtype=float))
        self.I_l = np.atleast_1d(np.asarray(self.I_l, dtype=float))

    @classmethod
    def zeros(cls, n, m):
        return cls(np.zeros(n), np.zeros(n), np.zeros(m))

    def to_vector(self):
        return np.concatenate([self.I, self.V, self.I_l])

    @classmethod
    def from_vector(cls, y, n, m):
        return cls(y[:n], y[n:2 * n], y[2 * n:2 * n + m])


def plant_rhs(state: PlantState, u, params: PlantParams,
              topo: MicrogridTopology) -> PlantState:
    """Time derivative of the grid state under control voltages ``u``.

    Kirchhoff balance of the filter, shunt and line branches:
    ``L dI = -V - R I + u``, ``C dV = I + B I_l - V/Z_L - I_L``,
    ``L_l dI_l = -R_l I_l - B^T V``.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (params.n,):
        raise ValueError(f"u must have shape (..., {params.n})")
    B = incidence_matrix(topo)
    dI = (-state.V - params.R * state.I + u) / params.L
    dV = (state.I + matvec(B, state.I_l) - state.V / params.Z_L
          - params.I_L) / params.C
    dIl = (-params.R_l * state.I_l - matvec(B.T, state.V)) / params.L_l
    return PlantState(dI, dV, dIl)


def steady_state_matrix(params: PlantParams, topo: MicrogridTopology):
    """Coefficient matrix S and input map of the steady-state system.

    S @ (I, V, I_l) = (-u, I_L, 0) characterises all equilibria.
    """
    n, m = params.n, params.m
    B = incidence_matrix(topo)
    S = np.zeros((2 * n + m, 2 * n + m))
    S[:n, :n] = -np.diag(params.R)
    S[:n, n:2 * n] = -np.eye(n)
    S[n:2 * n, :n] = np.eye(n)
    S[n:2 * n, n:2 * n] = -np.diag(1.0 / params.Z_L)
    S[n:2 * n, 2 * n:] = B
    S[2 * n:, n:2 * n] = -B.T
    S[2 * n:, 2 * n:] = -np.diag(params.R_l)
    return S


_COND_LIMIT = 1e12   # steady-state conditioning beyond which it is singular


def plant_equilibrium(u, params: PlantParams,
                      topo: MicrogridTopology) -> PlantState:
    """Unique steady state for the given control voltages.

    Solves the linear steady-state system; raises
    :class:`SingularSystemError` when its conditioning exceeds
    ``_COND_LIMIT`` (degenerate parameters).
    """
    u = np.asarray(u, dtype=float)
    n, m = params.n, params.m
    S = steady_state_matrix(params, topo)
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"steady-state system conditioning {cond:.2e} exceeds {_COND_LIMIT:.0e}")
    rhs = np.concatenate([-u, params.I_L, np.zeros(m)])
    y = np.linalg.solve(S, rhs)
    resid = np.linalg.norm(S @ y - rhs) / max(1.0, np.linalg.norm(rhs))
    if resid > 1e-10:
        raise SingularSystemError(f"steady-state solve residual {resid:.2e}")
    return PlantState.from_vector(y, n, m)


def apply_load_step(params: PlantParams, d_IL: float, d_ZL: float) -> PlantParams:
    """New parameters with every load reduced by (d_IL, d_ZL).

    ``I_L <- I_L - d_IL`` and ``Z_L <- Z_L - d_ZL`` per DGU; everything
    else unchanged.  Raises if any resulting impedance is nonpositive.
    """
    new_dgus = []
    for k, d in enumerate(params.dgus):
        z = d.Z_L - d_ZL
        if z <= 0.0:
            raise ValueError(f"load step drives Z_L of DGU {k + 1} to {z} <= 0")
        new_dgus.append(replace(d, Z_L=z, I_L=d.I_L - d_IL))
    return PlantParams(new_dgus, params.lines)
