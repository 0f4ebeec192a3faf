"""Correctness checks of the workloads' outputs, each with a self-test.

Every check compares an output with a property the method must have or
with a computation that does not go through the path under test: the
grid's balances are recomputed here from the scenario's numbers by
Kirchhoff's laws, the game's stationarity from its cost gradients, rk4
rows from the exact ``pwa`` flow, settled states from the oracle's
``closed_loop_equilibrium``.  A check raises :class:`CheckError`.  Each
self-test corrupts a copy of a real output and requires the check to
raise on it, so a check that accepts anything shows as a failure.
"""

from __future__ import annotations

import copy
import csv
import io

import numpy as np


class CheckError(AssertionError):
    """An output failed a correctness check."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


class StateLayout:
    """Slices of the closed-loop state vector of an n-DGU, m-line grid:
    plant (I, V, I_l), then the controller's upsilon, nu, u, xhat
    (agent-major decision copy), lambda and theta (n rows of n + m) and
    gamma."""

    def __init__(self, n, m):
        self.n, self.m = n, m
        sizes = (("I", n), ("V", n), ("Il", m), ("upsilon", n), ("nu", n),
                 ("u", n), ("xhat", 2 * n + m), ("lam", n * (n + m)),
                 ("theta", n * (n + m)), ("gamma", n))
        pos = 0
        for name, size in sizes:
            setattr(self, name, slice(pos, pos + size))
            pos += size


# -- grid and game, recomputed from the scenario's numbers -------------------
class Grid:
    """The numbers of one load-step era, read from a parsed scenario."""

    def __init__(self, scn, era):
        p = scn.plant
        d_IL = sum(ev.d_IL for ev in scn.events[:era])
        d_ZL = sum(ev.d_ZL for ev in scn.events[:era])
        self.n, self.m = p.n, p.m
        self.R = p.R
        self.Z_L = p.Z_L - d_ZL
        self.I_L = p.I_L - d_IL
        self.R_l = p.R_l
        self.V_min, self.V_max, self.V_ref = p.V_min, p.V_max, p.V_ref
        self.I_ref, self.u_ref = p.I_ref, p.u_ref
        self.Il_min, self.Il_max, self.Il_ref = p.Il_min, p.Il_max, p.Il_ref
        self.edges = [(h - 1, t - 1) for h, t in scn.topo.edges]
        self.manager = [a - 1 for a in scn.topo.managers]
        w = scn.weights
        self.r, self.alpha_u = w.r, w.alpha_u
        self.alpha_I, self.alpha_V = w.alpha_I, w.alpha_V
        self.alpha_Il = np.zeros(self.m)
        for i in range(self.n):
            own = sorted(k for k, a in enumerate(self.manager) if a == i)
            for j, k in enumerate(own):
                self.alpha_Il[k] = w.alpha_Il[i][j]
        self.l, self.p_r = scn.price.l, scn.price.p_r

    def node_balance(self, I, V, Il):
        """Current into each node: source, lines, minus both loads [A]."""
        out = I - V / self.Z_L - self.I_L
        for k, (h, t) in enumerate(self.edges):
            out[h] += Il[k]
            out[t] -= Il[k]
        return out

    def line_balance(self, V, Il):
        """Voltage around each line: R_l I_l + V_head - V_tail [V]."""
        return np.array([self.R_l[k] * Il[k] + V[h] - V[t]
                         for k, (h, t) in enumerate(self.edges)])

    def plant_residual(self, I, V, Il, u):
        """Kirchhoff residuals of the grid's dynamics under voltages u:
        filter [V], node [A] and line [V]."""
        return (u - V - self.R * I, self.node_balance(I, V, Il),
                -self.line_balance(V, Il))

    def stationarity(self, u, I, V, Il, lam, gamma):
        """Weighted stationarity gaps of the game at (u, x; lambda, gamma).

        Per decision entry: r_i times agent i's cost gradient plus the
        coupling force (A^T lambda) minus gamma_i times the local voltage
        balance's coefficient.  Returns the u rows and the I, V and I_l
        rows; zero on free entries, and a box force (>= 0 on a lower
        bound, <= 0 on an upper one) on active ones.
        """
        n = self.n
        price = self.l - self.p_r * I.sum()
        gI = (self.alpha_I * (I - self.I_ref) - self.V_ref * price
              + self.p_r * self.V_ref * I)
        gV = self.alpha_V * (V - self.V_ref)
        gIl = self.alpha_Il * (Il - self.Il_ref)
        atl_V = -lam[:n] / self.Z_L
        atl_Il = self.R_l * lam[n:]
        for k, (h, t) in enumerate(self.edges):
            atl_V[h] += lam[n + k]
            atl_V[t] -= lam[n + k]
            atl_Il[k] += lam[h] - lam[t]
        r_line = self.r[self.manager]
        s_u = self.r * self.alpha_u * (u - self.u_ref) + gamma
        s_I = self.r * gI + lam[:n] - gamma * self.R
        s_V = self.r * gV + atl_V - gamma
        s_Il = r_line * gIl + atl_Il
        return s_u, s_I, s_V, s_Il


# -- (a) rows ------------------------------------------------------------------
def check_rows(t, y, lay: StateLayout):
    """Every row finite; sum(nu) and the agent sum of theta as in row 0,
    up to a relative drift of 1e-9 per second of simulated time (at least
    one second), the rate ``RunReport``'s conservation check allows."""
    _require(np.isfinite(y).all(),
             f"non-finite entries in rows "
             f"{np.flatnonzero(~np.isfinite(y).all(axis=1))[:5].tolist()}")
    nu = y[:, lay.nu].sum(axis=1)
    theta = y[:, lay.theta].reshape(len(y), lay.n, -1).sum(axis=1)
    scale = 1.0 + max(np.abs(y[:, lay.nu]).max(), np.abs(y[:, lay.theta]).max())
    drift = np.maximum(np.abs(nu - nu[0]), np.abs(theta - theta[0]).max(axis=1))
    rate = drift / (scale * np.maximum(t, 1.0))
    k = int(rate.argmax())
    _require(rate[k] <= 1e-9,
             f"sum(nu) or sum(theta) drifts by {drift[k]:.3g} at t = {t[k]:g} "
             f"(scale {scale:.3g})")
    return float(rate[k])


def selftest_rows(t, y, lay):
    scale = 1.0 + np.abs(y).max()
    k = min(1, len(y) - 1)
    bad = y.copy()
    bad[len(y) // 2, lay.I.start] = np.nan
    yield "non-finite row", t, bad, lay
    bad = y.copy()
    bad[k, lay.nu.start] += 1e-6 * scale * max(1.0, t[k])
    yield "nu not conserved", t, bad, lay
    bad = y.copy()
    bad[k, lay.theta.start] += 1e-6 * scale * max(1.0, t[k])
    yield "theta not conserved", t, bad, lay


# -- (b) rk4 against the exact flow ---------------------------------------------
def check_prefix(rk4_rows, exact_rows, switches):
    """rk4 rows on a switch-free prefix agree with the exact ``pwa`` flow
    to 1e-9 relative."""
    _require(switches == 0, f"prefix not switch-free ({switches} switches)")
    _require(rk4_rows.shape == exact_rows.shape,
             f"prefix shapes {rk4_rows.shape} vs {exact_rows.shape}")
    rel = np.abs(rk4_rows - exact_rows).max() / np.abs(exact_rows).max()
    _require(rel <= 1e-9, f"rk4 differs from the exact flow by {rel:.3g} "
                          f"relative on the switch-free prefix")
    return rel


def selftest_prefix(rk4_rows, exact_rows, switches):
    bad = rk4_rows.copy()
    bad[len(bad) // 2, 0] += 1e-7 * np.abs(exact_rows).max()
    yield "perturbed prefix row", bad, exact_rows, switches
    yield "prefix with a switch", rk4_rows, exact_rows, 1


# -- (c) ring4-simulate: start and CSV ------------------------------------------
def check_start_equilibrium(y0, lay, grid: Grid, u_star):
    """The t = 0 row is a grid equilibrium under u*, by Kirchhoff's laws."""
    res = grid.plant_residual(y0[lay.I], y0[lay.V], y0[lay.Il],
                              np.asarray(u_star))
    worst = max(np.abs(r).max() for r in res)
    _require(worst <= 1e-8, f"t = 0 row is not a grid equilibrium under u* "
                            f"(Kirchhoff residual {worst:.3g})")
    return worst


def selftest_start_equilibrium(y0, lay, grid, u_star):
    bad = y0.copy()
    bad[lay.V.start] += 1e-6
    yield "shifted voltage", bad, lay, grid, u_star
    yield "shifted u*", y0, lay, grid, np.asarray(u_star) + 1e-6


def check_csv(text, header, t, y, diag, expected_rows):
    """The CSV holds the ``csv_header`` columns and reads back to the
    in-memory trajectory and diagnostics, with the expected row count."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == list(header), "CSV header differs")
    body = rows[1:]
    _require(len(body) == expected_rows,
             f"CSV has {len(body)} rows, expected {expected_rows}")
    _require(len(t) == expected_rows,
             f"trajectory has {len(t)} rows, expected {expected_rows}")
    data = np.array(body, dtype=float)
    want = np.column_stack([t, y, diag])
    _require(data.shape == want.shape and np.array_equal(data, want),
             "CSV values differ from the in-memory trajectory")


def selftest_csv(text, header, t, y, diag, expected_rows):
    lines = text.splitlines(keepends=True)
    yield ("dropped row", "".join(lines[:-1]), header, t, y, diag,
           expected_rows)
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9 * (1.0 + abs(float(cells[3]))))
    yield ("changed value", "".join(lines[:2] + [",".join(cells)] + lines[3:]),
           header, t, y, diag, expected_rows)
    yield ("renamed column", text.replace("plant.V.2", "plant.V.x", 1), header,
           t, y, diag, expected_rows)


# -- (d) equilibria --------------------------------------------------------------
def check_equilibrium(grid: Grid, u, I, V, Il, lam, gamma):
    """Feasible (balances and boxes) and certified by its multipliers
    (small stationarity gap on free entries, box forces of the right sign
    on active ones)."""
    u, I, V, Il = (np.asarray(a, dtype=float) for a in (u, I, V, Il))
    lam, gamma = np.asarray(lam, dtype=float), np.asarray(gamma, dtype=float)
    node = np.abs(grid.node_balance(I, V, Il)).max()
    line = np.abs(grid.line_balance(V, Il)).max() if grid.m else 0.0
    local = np.abs(u - V - grid.R * I).max()
    _require(max(node, line, local) <= 1e-8,
             f"balances violated: node {node:.3g} A, line {line:.3g} V, "
             f"local {local:.3g} V")
    box_tol = 1e-9
    _require((V >= grid.V_min - box_tol).all()
             and (V <= grid.V_max + box_tol).all(), "voltage outside its box")
    _require((Il >= grid.Il_min - box_tol).all()
             and (Il <= grid.Il_max + box_tol).all(),
             "line current outside its box")
    s_u, s_I, s_V, s_Il = grid.stationarity(u, I, V, Il, lam, gamma)
    scale = 1.0 + np.abs(grid.r * grid.V_ref * grid.l).max()
    tol = 1e-9 * scale
    act_lo = np.concatenate([V - grid.V_min, Il - grid.Il_min]) <= 1e-6
    act_hi = np.concatenate([grid.V_max - V, grid.Il_max - Il]) <= 1e-6
    s_box = np.concatenate([s_V, s_Il])
    free = np.concatenate([s_u, s_I, s_box[~(act_lo | act_hi)]])
    gap = np.abs(free).max()
    _require(gap <= tol, f"stationarity gap {gap:.3g} on free entries "
                         f"(tolerance {tol:.3g})")
    _require((s_box[act_lo] >= -tol).all() and (s_box[act_hi] <= tol).all(),
             "box force of the wrong sign on an active bound")
    return gap / scale


def selftest_equilibrium(grid, u, I, V, Il, lam, gamma):
    I, V, lam = (np.asarray(a, dtype=float) for a in (I, V, lam))
    yield ("shifted current", grid, u, I + 1e-6, V, Il, lam, gamma)
    yield ("shifted multiplier", grid, u, I, V, Il, lam + 1e-3, gamma)
    tight = copy.copy(grid)
    tight.V_min = np.maximum(grid.V_min, V + 1e-6)
    yield ("voltage below a tightened box", tight, u, I, V, Il, lam, gamma)
    lo_active = np.flatnonzero(V - grid.V_min <= 1e-6)
    if lo_active.size:
        # read an active lower face as an upper one: its force (>= 0)
        # then points out of the box
        flipped = copy.copy(grid)
        flipped.V_max = grid.V_max.copy()
        flipped.V_min = grid.V_min.copy()
        i = lo_active[0]
        flipped.V_max[i] = V[i]
        flipped.V_min[i] = V[i] - (grid.V_max[i] - grid.V_min[i])
        yield ("lower-face force on an upper face", flipped, u, I, V, Il, lam,
               gamma)


# -- (e) ring4-settle --------------------------------------------------------------
def check_settled(y_end, lay, r, eq, kkt):
    """An era's final state: KKT residual below 1e-3 and the state within
    1e-6 of the closed-loop attractor ``eq`` (plant, u, decision copy and
    the weighted multipliers r_i lambda_i)."""
    _require(kkt < 1e-3, f"KKT residual {kkt:.3g} not below 1e-3")
    lam = y_end[lay.lam].reshape(lay.n, -1)
    parts = {
        "plant": (y_end[lay.I.start:lay.Il.stop],
                  eq.plant.to_vector()),
        "u": (y_end[lay.u], eq.u_star),
        "xhat": (y_end[lay.xhat], eq.x_star),
        "r*lambda": (r[:, None] * lam, np.broadcast_to(eq.lambda_shared,
                                                       lam.shape)),
    }
    worst = 0.0
    for name, (got, want) in parts.items():
        err = np.abs(got - want).max()
        _require(err <= 1e-6, f"final {name} is {err:.3g} away from the "
                              f"closed-loop attractor")
        worst = max(worst, err)
    return worst


def selftest_settled(y_end, lay, r, eq, kkt):
    bad = y_end.copy()
    bad[lay.xhat.start + 1] += 1e-5
    yield "shifted decision copy", bad, lay, r, eq, kkt
    bad = y_end.copy()
    bad[lay.V.start] -= 1e-5
    yield "shifted voltage", bad, lay, r, eq, kkt
    yield "unsettled residual", y_end, lay, r, eq, 2e-3


def run_selftests(check, selftest, *args):
    """Names of the corruptions ``check`` accepted (empty when it rejects
    every corrupted copy of ``args``)."""
    accepted = []
    for name, *bad in selftest(*args):
        try:
            check(*bad)
        except CheckError:
            continue
        accepted.append(f"{check.__name__}: {name}")
    return accepted
