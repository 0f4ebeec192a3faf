"""Microgrid graph structure.

The electrical network is a connected undirected graph: nodes are
generation units (DGUs), edges are transmission lines.  Every line is
managed by exactly one of its endpoint DGUs, which gives the agent-major
layout of the stacked decision vector used throughout the package:
agent i owns the block (I_i, V_i, line currents of its managed lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class MicrogridTopology:
    """Connected undirected graph with a fixed edge orientation.

    Parameters
    ----------
    n : int
        Number of DGUs (nodes), 1-based ids ``1..n``.
    edges : sequence of (head, tail)
        One entry per line, 1-based node ids.  Orientation is arbitrary
        but fixed; only consistent signs matter downstream.
    managers : sequence of int
        Managing DGU per line (1-based), same order as ``edges``.  The
        manager must be one of the line's endpoints and the managed-line
        sets must partition the edge set.
    """

    n: int
    edges: tuple
    managers: tuple

    def __init__(self, n, edges, managers):
        object.__setattr__(self, "n", whole_number(n, "n"))
        object.__setattr__(self, "edges", edge_pairs(edges))
        object.__setattr__(self, "managers", tuple(
            whole_number(a, f"edge {k}: manager")
            for k, a in enumerate(managers, start=1)))
        self._validate()

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def managed_lines(self) -> dict:
        """Map node-id -> sorted tuple of managed edge ids (1-based)."""
        out = {i: [] for i in range(1, self.n + 1)}
        for k, a in enumerate(self.managers, start=1):
            out[a].append(k)
        return {i: tuple(sorted(v)) for i, v in out.items()}

    def _validate(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        if len(self.managers) != len(self.edges):
            raise ValueError("managers must have one entry per edge")
        for k, (h, t) in enumerate(self.edges, start=1):
            if not (1 <= h <= self.n and 1 <= t <= self.n) or h == t:
                raise ValueError(f"edge {k}: invalid endpoints ({h}, {t})")
            if self.managers[k - 1] not in (h, t):
                raise ValueError(
                    f"edge {k}: manager {self.managers[k - 1]} is not an endpoint"
                )
        if not _connected(self.n, self.edges):
            raise ValueError("graph is not connected")


def edge_pairs(edges):
    """``edges`` as (head, tail) pairs of whole numbers; an edge that is
    not a two-entry list or tuple is refused, naming the edge."""
    pairs = []
    for k, edge in enumerate(edges, start=1):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValueError(f"edge {k}: expected [head, tail], got {edge!r}")
        pairs.append(tuple(whole_number(v, f"edge {k}: endpoint")
                           for v in edge))
    return tuple(pairs)


def whole_number(value, what):
    """``int(value)`` of a number or numeric text; anything else, a bool
    or a number with a fraction is refused, naming ``what``."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or isinstance(value, bool) or (
            not isinstance(value, str) and i != value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return i


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for h, t in edges:
        adj[h - 1].append(t - 1)
        adj[t - 1].append(h - 1)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@lru_cache(maxsize=64)
def incidence_matrix(topo: MicrogridTopology) -> np.ndarray:
    """Oriented node-edge incidence matrix, shape (n, m).

    Column k carries +1 at the head and -1 at the tail of edge k, so
    ``B @ I_l`` maps line currents to nodal injections and ``B.T @ V``
    to line voltage drops.  Cached per topology; the array is read-only.
    """
    B = np.zeros((topo.n, topo.m))
    for k, (h, t) in enumerate(topo.edges):
        B[h - 1, k] = 1.0
        B[t - 1, k] = -1.0
    B.flags.writeable = False
    return B


@lru_cache(maxsize=64)
def laplacian(topo: MicrogridTopology) -> np.ndarray:
    """Unweighted graph Laplacian ``B @ B.T``; PSD with kernel span{1}."""
    L = incidence_matrix(topo) @ incidence_matrix(topo).T
    L.flags.writeable = False
    return L


@lru_cache(maxsize=64)
def laplacian_pinv(topo: MicrogridTopology) -> np.ndarray:
    """Moore-Penrose inverse of the Laplacian (zero-mean solver)."""
    P = np.linalg.pinv(laplacian(topo))
    P.flags.writeable = False
    return P


class AgentLayout:
    """Index bookkeeping for the agent-major stacked decision vector.

    Agent i's block is (I_i, V_i, I_l of managed lines in ascending edge
    order); blocks are concatenated in agent order.  Total length 2n + m.
    The index arrays are read-only.
    """

    def __init__(self, topo: MicrogridTopology):
        self.topo = topo
        n, m = topo.n, topo.m
        managed = topo.managed_lines
        self.edge_lists = [managed[i] for i in range(1, n + 1)]
        self.dims = np.array([2 + len(e) for e in self.edge_lists])
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.size = int(self.offsets[-1])
        self.ix_I = self.offsets[:-1].astype(int)
        self.ix_V = self.ix_I + 1
        self.ix_line = np.zeros(m, dtype=int)  # x-position of edge k (0-based k)
        for i, edges in enumerate(self.edge_lists):
            for j, k in enumerate(edges):
                self.ix_line[k - 1] = self.offsets[i] + 2 + j
        self.agent_of_pos = np.repeat(np.arange(n), self.dims)
        self.manager_of_edge = np.array(topo.managers) - 1
        for a in (self.dims, self.offsets, self.ix_I, self.ix_V, self.ix_line,
                  self.agent_of_pos, self.manager_of_edge):
            a.flags.writeable = False

    def block(self, i: int) -> slice:
        """Slice of agent i's block (1-based agent id)."""
        return slice(int(self.offsets[i - 1]), int(self.offsets[i]))

    def stack(self, I, V, I_l) -> np.ndarray:
        """Assemble an agent-major vector from species-major components."""
        x = np.zeros(self.size)
        x[self.ix_I] = I
        x[self.ix_V] = V
        if self.topo.m:
            x[self.ix_line] = I_l
        return x

    def split(self, x):
        """Inverse of :meth:`stack` along the last axis: (I, V, I_l)."""
        x = np.asarray(x)
        return x[..., self.ix_I], x[..., self.ix_V], x[..., self.ix_line]
