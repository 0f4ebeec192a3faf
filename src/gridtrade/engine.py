"""Scenario ingestion, closed-loop assembly, simulation runs and reports.

A scenario file is a JSON tree with explicit unit suffixes.  Each section
is read from the type it builds, whose declaration gives its keys and
defaults; any other key is refused.  Parsing checks the tree once, time
grid included (``integrate.grid_errors``), and keeps the game of every
load era on the frozen :class:`Scenario`.  The closed loop (grid +
controller) is affine apart from the box penalties, so the engine probes
the exact system matrix of each load era when that era starts
(``_kernels.affine_probe``) and propagates it with
``_kernels.rk4_affine``, the package's one RK4, or exactly, regime by
regime (``pwa``); ``integrate.run_eras`` emits the sampled rows for
both.  Only one era's dense operator is alive at a time: N² doubles for
N = 4n² + 10n states, 11.2 MB at n = 16 and 51.8 MB at n = 24.
Diagnostics are evaluated on the sampled rows.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import _kernels
from .controller import (ControllerParams, ControllerState, consensus_errors,
                         controller_rhs, fast_equilibrium, kkt_residual)
from .game import (GameDefinition, ObjectiveWeights, PenaltyParams,
                   PriceParams, build_game, check_price_margin,
                   check_monotonicity)
from .integrate import IntegratorConfig, Trajectory, grid_errors, run_eras
from .oracle import lyapunov_diagnostics, reduced_model_rhs, solve_vi
from .plant import (DguParams, LineParams, PlantParams, PlantState,
                    apply_load_step, plant_rhs)
from .pwa import PiecewiseAffineFlow
from .topology import MicrogridTopology, whole_number


class ScenarioError(ValueError):
    """Scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario:\n" + "\n".join(
            f"  - {e}" for e in self.errors))


_UNIT_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-zµ]*)\s*$")
_BASE_UNITS = ("ohm", "v", "a", "h", "f", "s")
_PREFIXES = {"": 1.0, "m": 1e-3, "u": 1e-6, "µ": 1e-6, "n": 1e-9, "k": 1e3}
# the top-level keys of a scenario file
_SECTIONS = ("name", "topology", "dgus", "lines", "price", "weights",
             "penalties", "controller", "integrator", "output", "events",
             "initial")
# the keys of a weights[i] record and of penalties: their builders' parameters
_WEIGHT_KEYS = tuple(inspect.signature(ObjectiveWeights).parameters)
_PENALTY_KEYS = tuple(inspect.signature(PenaltyParams).parameters)
_KINDS = {dict: "a JSON object", list: "a JSON list", str: "text"}


def parse_quantity(value) -> float:
    """Finite number in SI units from a bare number or a string like
    ``"20 mOhm"``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        q = float(value) if abs(value) <= sys.float_info.max else math.inf
    else:
        m = _UNIT_RE.match(str(value))
        if not m:
            raise ValueError(f"cannot parse quantity {value!r}")
        q, unit = float(m.group(1)), m.group(2)
        if unit:
            for base in _BASE_UNITS:
                prefix = unit[: len(unit) - len(base)]
                if unit.lower().endswith(base) and prefix in _PREFIXES:
                    q *= _PREFIXES[prefix]
                    break
            else:
                raise ValueError(f"unknown unit suffix {unit!r} in {value!r}")
    if not math.isfinite(q):
        raise ValueError(f"quantity {value!r} is not finite")
    return q


def _json(node, kind, where, errors):
    """``node`` when it is a ``kind`` (dict, list or str), else None and
    an error."""
    if isinstance(node, kind):
        return node
    errors.append(f"{where}: expected {_KINDS[kind]}, got "
                  f"{type(node).__name__}")
    return None


def _keys(node, where, errors, required=(), optional=()):
    """``node`` when it is a JSON object, else None; each key of
    ``required`` it lacks and each key it holds that neither tuple names
    goes in ``errors``."""
    if _json(node, dict, where, errors) is not None:
        errors += [f"{where}: missing field {k!r}" for k in required
                   if k not in node]
        errors += [f"{where}: unknown key {k!r}" for k in node
                   if k not in required and k not in optional]
        return node


def _record(cls, node, where, errors, names=None, **known):
    """The dataclass ``cls`` read from the JSON object ``node``, or None.

    ``node`` may hold the keys in ``names`` (default: every field not in
    ``known``); the fields among them are read, a ``float`` one with
    :func:`parse_quantity` and any other as it is, and an absent one
    takes its default.  ``known`` gives fields read elsewhere.  A node
    that is not an object, a missing required field, an undeclared key,
    an unreadable value or a value ``cls`` refuses goes in ``errors`` as
    ``<where>: …``.
    """
    own = [f for f in fields(cls) if f.name not in known
           and (names is None or f.name in names)]
    required = [f.name for f in own if f.default is MISSING]
    if _keys(node, where, errors, required,
             names or [f.name for f in own]) is None:
        return None
    count = len(errors)
    values = dict(known)
    for f in (f for f in own if f.name in node):
        try:
            values[f.name] = parse_quantity(node[f.name]) \
                if f.type in ("float", float) else node[f.name]
        except ValueError as e:
            errors.append(f"{where}.{f.name}: {e}")
    if len(errors) > count or any(k not in node for k in required):
        return None
    try:
        return cls(**values)
    except (ValueError, TypeError, OverflowError) as e:
        errors.append(f"{where}: {e}")
        return None


def _blocks(node, zero, where, errors):
    """The blocks of the JSON object ``node`` as flat float arrays, named
    and sized as the array fields of the state ``zero``; an undeclared
    block, an unreadable value or a wrong size goes in ``errors``."""
    blocks = {}
    for key, val in node.items():
        if key not in {f.name for f in fields(zero)}:
            errors.append(f"{where}: unknown block {key!r}")
            continue
        try:
            arr = np.array([parse_quantity(v) for v in
                            np.array(val, dtype=object).ravel()])
        except (ValueError, TypeError) as e:
            errors.append(f"{where}.{key}: {e}")
            continue
        size = getattr(zero, key).size
        if arr.size == size:
            blocks[key] = arr
        else:
            errors.append(f"{where}.{key}: expected {size} values, got "
                          f"{arr.size}")
    return blocks


@dataclass(frozen=True)
class Event:
    """Load step at ``time``: every DGU's I_L drops by ``d_IL`` and its
    Z_L by ``d_ZL`` (``plant.apply_load_step``)."""

    time: float
    d_IL: float = 0.0
    d_ZL: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Validated experiment description: build inputs for one run, and
    ``games``, every load era's game (era 0 first), built when checked."""

    name: str
    topo: MicrogridTopology
    comm_topo: object
    plant: PlantParams
    price: PriceParams
    weights: ObjectiveWeights
    penalties: PenaltyParams
    controller: ControllerParams
    integrator: IntegratorConfig
    events: tuple
    initial_plant: object      # "equilibrium" | "zeros" | PlantState
    initial_controller: object  # "zeros" | ControllerState fields dict
    games: tuple

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))

    @classmethod
    def from_dict(cls, d):
        errors = []
        if _keys(d, "scenario", errors, optional=_SECTIONS) is None:
            raise ScenarioError(errors)
        name = _json(d.get("name", "scenario"), str, "name", errors)

        def records(cls, key):
            return [_record(cls, rec, f"{key}[{i}]", errors) for i, rec
                    in enumerate(_json(d.get(key, []), list, key, errors)
                                 or [], 1)]

        dgus, lines = records(DguParams, "dgus"), records(LineParams, "lines")
        # counts first: the graph's checks take time and memory in n
        tnode = d.get("topology", {})
        try:
            n, m = whole_number(tnode["n"], "n"), len(tnode["edges"])
        except (KeyError, TypeError, ValueError, OverflowError):
            n, m = len(dgus), len(lines)    # the topology record says why
        if len(dgus) != n:
            errors.append(f"expected {n} dgu records, got {len(dgus)}")
        if len(lines) != m:
            errors.append(f"expected {m} line records, got {len(lines)}")
        topo = comm_topo = None
        if len(dgus) == n and len(lines) == m:
            topo = _record(MicrogridTopology, tnode, "topology", errors,
                           names=[f.name for f in fields(MicrogridTopology)]
                           + ["comm_edges"])
        if topo is not None and (ce := tnode.get("comm_edges")):
            try:
                comm_topo = MicrogridTopology(topo.n, ce, [h for h, _ in ce])
            except (ValueError, TypeError, OverflowError) as e:
                errors.append(f"topology.comm_edges: {e}")
        price = _record(PriceParams, d.get("price", {}), "price", errors)

        weights = penalties = None
        wnode = _json(d.get("weights", []), list, "weights", errors) or []
        if len(wnode) != n:
            errors.append("weights: need one record per agent")
        elif topo is not None:
            cols, managed = {k: [] for k in _WEIGHT_KEYS}, topo.managed_lines
            count = len(errors)
            for i, rec in enumerate(wnode, start=1):
                rec = _keys(rec, f"weights[{i}]", errors, _WEIGHT_KEYS) or {}
                for k in (k for k in _WEIGHT_KEYS if k in rec):
                    a = rec[k]
                    try:
                        if k != "alpha_Il":
                            cols[k].append(parse_quantity(a))
                        elif isinstance(a, list):
                            cols[k].append([parse_quantity(v) for v in a])
                        else:       # one weight for every managed line
                            cols[k].append([parse_quantity(a)]
                                           * len(managed[i]))
                    except ValueError as e:
                        errors.append(f"weights[{i}].{k}: {e}")
            if len(errors) == count:
                try:
                    weights = ObjectiveWeights(**cols)
                except ValueError as e:
                    errors.append(f"weights: {e}")
        count = len(errors)
        pnode = _keys(d.get("penalties", {}), "penalties", errors,
                      _PENALTY_KEYS) or {}
        rho = {}
        for k in (k for k in _PENALTY_KEYS if k in pnode):
            try:
                rho[k] = [parse_quantity(v) for v in _json(
                    pnode[k], list, f"penalties.{k}", errors) or []]
            except ValueError as e:
                errors.append(f"penalties.{k}: {e}")
        if len(errors) == count:
            try:
                penalties = PenaltyParams(**rho)
            except ValueError as e:
                errors.append(f"penalties: {e}")

        ctrl = _record(ControllerParams, d.get("controller", {}),
                       "controller", errors)
        out = _record(IntegratorConfig, d.get("output", {}), "output", errors,
                      names=("sample_period",)) or IntegratorConfig()
        integ = _record(IntegratorConfig, d.get("integrator", {}),
                        "integrator", errors, sample_period=out.sample_period)
        events = records(Event, "events")
        if integ is not None:
            errors += grid_errors(integ, [ev.time for ev in events if ev],
                                  _stability_limit(ln for ln in lines if ln))

        init = _keys(d.get("initial", {}), "initial", errors,
                     optional=("plant", "controller")) or {}
        initial_plant = init.get("plant", "equilibrium")
        initial_controller = init.get("controller", "zeros")
        if isinstance(initial_plant, dict):
            if topo is not None:
                # a block left out reads as empty, so its size is refused
                zero = PlantState.zeros(topo.n, topo.m)
                blocks = _blocks({f.name: [] for f in fields(zero)}
                                 | initial_plant, zero, "initial.plant",
                                 errors)
                if len(blocks) == len(fields(zero)):
                    initial_plant = PlantState(**blocks)
        elif initial_plant not in ("equilibrium", "zeros"):
            errors.append(f"initial.plant: unknown mode {initial_plant!r}")
        if isinstance(initial_controller, dict):
            if topo is not None:
                # ControllerState.zeros reads only the sizes n and m
                initial_controller = _blocks(
                    initial_controller, ControllerState.zeros(topo),
                    "initial.controller", errors)
                if abs(np.sum(initial_controller.get("nu", 0.0))) > 1e-12:
                    errors.append("initial.controller: nu must sum to zero")
        elif initial_controller != "zeros":
            errors.append(
                f"initial.controller: unknown mode {initial_controller!r}")

        plant = None
        games = []
        if not errors:
            plant = PlantParams(dgus, lines)
            try:
                games.append(build_game(topo, plant, price, weights,
                                        penalties, comm_topo=comm_topo))
            except ValueError as e:
                errors.append(str(e))
            # every load era's game must pass the same checks as era 0's
            stepped = plant
            for j, ev in enumerate(events, start=1):
                try:
                    stepped = apply_load_step(stepped, ev.d_IL, ev.d_ZL)
                    games.append(build_game(topo, stepped, price, weights,
                                            penalties, comm_topo=comm_topo))
                except ValueError as e:
                    errors.append(f"events[{j}]: {e}")
                    break
        if errors:
            raise ScenarioError(errors)
        return cls(name, topo, comm_topo, plant, price, weights, penalties,
                   ctrl, integ, tuple(events), initial_plant,
                   initial_controller, tuple(games))

    def game(self, plant_params=None) -> GameDefinition:
        """Era 0's game, or a new game of this scenario on ``plant_params``."""
        if plant_params is None:
            return self.games[0]
        return build_game(self.topo, plant_params, self.price, self.weights,
                          self.penalties, comm_topo=self.comm_topo)


class ClosedLoop:
    """Stacked grid + controller system in one flat vector.

    Layout: plant (I, V, I_l) followed by the controller vector.  The
    dynamics are affine in the state except for the penalty branches on
    the decision copies of voltages and line currents, so the system is
    represented as ``M y + c`` plus a sparse piecewise correction, probed
    exactly from the reference right-hand side.
    """

    def __init__(self, g: GameDefinition, cp: ControllerParams,
                 reduced: bool = False):
        self.g = g
        self.cp = cp
        self.reduced = reduced
        n, m = g.n, g.m
        self.size = _pack(PlantState.zeros(n, m), ControllerState.zeros(g),
                          reduced).size
        # the penalized entries are the boxes' positions in the decision copy
        xhat = 2 * n + m + (n if reduced else 3 * n)
        self.psrc = (xhat + g.boxes.pos).astype(np.int64)
        self.plo, self.phi, self.force = g.boxes.lo, g.boxes.hi, g.boxes.force
        self._assemble()

    # -- packing ---------------------------------------------------------
    def pack(self, plant: PlantState, cs: ControllerState) -> np.ndarray:
        return _pack(plant, cs, self.reduced)

    def unpack(self, y):
        return _unpack(y, self.g, self.reduced)

    # -- reference (readable) dynamics ------------------------------------
    def rhs_reference(self, y):
        plant, cs = self.unpack(y)
        d_plant = plant_rhs(plant, cs.u, self.g.plant, self.g.topo)
        if self.reduced:
            _, d_cs = reduced_model_rhs(plant, cs, self.g, self.cp)
            d_vec = d_cs.to_vector()[2 * self.g.n:]
        else:
            d_cs = controller_rhs(cs, plant.I, self.g, self.cp)
            d_vec = d_cs.to_vector()
        return np.concatenate([d_plant.to_vector(), d_vec])

    # -- affine + penalty representation -----------------------------------
    def _assemble(self):
        def smooth(y):
            dy = self.rhs_reference(y)
            dy[self.psrc] -= _kernels.penalty_force(
                y[self.psrc], self.plo, self.phi, self.force)
            return dy

        self.M, self.c = _kernels.affine_probe(smooth, self.size)
        # the right-hand side rk4_affine steps: M y + c plus the penalties
        self.rhs_fast = _kernels.affine_rhs(self.M, self.c, self.psrc,
                                            self.plo, self.phi, self.force)

    def flow(self) -> PiecewiseAffineFlow:
        """Exact regime-aware propagator of this loop (``pwa`` method)."""
        return PiecewiseAffineFlow(self.M, self.c, self.psrc, self.plo,
                                   self.phi, self.force)

    def run_segment(self, y, dt, steps, sample_every, out):
        return _kernels.rk4_affine(self.M, self.c, y, self.psrc, self.plo,
                                   self.phi, self.force, dt, steps,
                                   sample_every, out)


def _pack(plant: PlantState, cs: ControllerState, reduced) -> np.ndarray:
    """Flat closed-loop state; the reduced model drops upsilon and nu."""
    cv = cs.to_vector()
    if reduced:
        cv = cv[2 * cs.upsilon.size:]
    return np.concatenate([plant.to_vector(), cv])


def _unpack(y, g: GameDefinition, reduced):
    """Plant and controller states of a flat closed-loop state of game
    ``g``; the reduced model's upsilon and nu are their quasi-steady
    values."""
    n, m = g.n, g.m
    plant = PlantState.from_vector(y[:2 * n + m], n, m)
    cv = y[2 * n + m:]
    if reduced:
        ups, nu = fast_equilibrium(cv[n:n + 2 * n + m][g.layout.ix_I],
                                   g.comm_topo)
        cv = np.concatenate([ups, nu, cv])
    return plant, ControllerState.from_vector(cv, g)


@dataclass
class RunReport:
    """Summary of one simulation run; every number comes from a sample."""

    scenario: str
    kkt_threshold: float
    final_kkt: dict
    consensus: dict
    convergence_times: list
    assumption_margins: dict
    violations: dict
    lyapunov: dict
    conservation: dict
    flags: dict
    checks: dict
    config: dict
    equilibrium: dict = None

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "residuals": self.final_kkt,
            "consensus": self.consensus,
            "convergence_times": self.convergence_times,
            "margins": self.assumption_margins,
            "violations": self.violations,
            "lyapunov": self.lyapunov,
            "conservation": self.conservation,
            "flags": self.flags,
            "checks": self.checks,
            "config": self.config,
            "equilibrium": self.equilibrium or {},
        }


KKT_THRESHOLD = 1e-3
_DIAG_COLUMNS = ("kkt_max", "kkt_line1", "kkt_line2", "kkt_line3", "kkt_line4",
                 "kkt_line5", "kkt_line6", "kkt_line7", "upsilon_spread",
                 "rlambda_spread", "E_b", "E_r", "V_violation", "Il_violation")


def csv_header(g: GameDefinition, reduced=False):
    n, m = g.n, g.m
    cols = ["time"]
    cols += [f"plant.I.{i}" for i in range(1, n + 1)]
    cols += [f"plant.V.{i}" for i in range(1, n + 1)]
    cols += [f"plant.Il.{k}" for k in range(1, m + 1)]
    if not reduced:
        cols += [f"ctrl.upsilon.{i}" for i in range(1, n + 1)]
        cols += [f"ctrl.nu.{i}" for i in range(1, n + 1)]
    cols += [f"ctrl.u.{i}" for i in range(1, n + 1)]
    lay = g.layout
    for i in range(1, n + 1):
        cols += [f"ctrl.xhat.{i}.{j}" for j in range(1, int(lay.dims[i - 1]) + 1)]
    for name in ("lambda", "theta"):
        for i in range(1, n + 1):
            cols += [f"ctrl.{name}.{i}.{j}" for j in range(1, n + m + 1)]
    cols += [f"ctrl.gamma.{i}" for i in range(1, n + 1)]
    cols += [f"diag.{c}" for c in _DIAG_COLUMNS]
    return cols


def _stability_limit(lines):
    # explicit-method bound set by the fastest line time constant
    return 2.0 * min((l.L / l.R for l in lines), default=np.inf)


def run_scenario(scenario: Scenario, outdir=None, reduced=False):
    """Simulate the scenario; returns (trajectory, diagnostics, report).

    Writes ``timeseries.csv`` and ``summary.json`` into ``outdir`` when
    given.  ``reduced=True`` integrates the quasi-steady-state model
    (no consensus-estimator states).  The time grid is checked again
    before any solve: a replaced ``integrator`` was not checked on parsing.
    """
    import os

    cfg = scenario.integrator
    times = [ev.time for ev in scenario.events]
    errors = grid_errors(cfg, times, _stability_limit(scenario.plant.lines))
    if errors:
        raise ScenarioError(errors)
    games = scenario.games
    cp = scenario.controller
    solved = {}       # era -> solve_vi solution, shared with the export

    # initial state
    g0 = games[0]
    if scenario.initial_plant == "equilibrium":
        solved[0] = solve_vi(g0)
        I0, V0, Il0 = g0.layout.split(solved[0].x_star)
        plant0 = PlantState(I0, V0, Il0)
    elif scenario.initial_plant == "zeros":
        plant0 = PlantState.zeros(g0.n, g0.m)
    else:
        plant0 = scenario.initial_plant
    cs0 = ControllerState.zeros(g0)
    if isinstance(scenario.initial_controller, dict):
        for key, val in scenario.initial_controller.items():
            shape = getattr(cs0, key).shape
            setattr(cs0, key, np.asarray(val, dtype=float).reshape(shape))

    y = _pack(plant0, cs0, reduced)

    # Each era's dense operator is assembled when the era starts, and the
    # previous one is released first: one M (N^2 doubles) alive at a time.
    live = {}

    def loop_of(era):
        if era not in live:
            live.clear()
            live[era] = ClosedLoop(games[era], cp, reduced=reduced)
        return live[era]

    if cfg.method == "rk4":
        per = round(cfg.sample_period / cfg.dt)

        def advance(era, y, n_samples):
            loop = loop_of(era)
            out = np.empty((n_samples, loop.size))
            ns, _ = loop.run_segment(y, cfg.dt, n_samples * per, per, out)
            return out[:ns], y
    else:
        def advance(era, y, n_samples):
            return loop_of(era).flow().propagate(y, n_samples,
                                                 cfg.sample_period, cfg.dt)
    traj = run_eras(y, cfg, times, advance)
    diag = _diagnostics(traj, games, cp, reduced)
    report = _build_report(scenario, traj, diag, reduced)
    if outdir is not None:
        report.equilibrium = _equilibrium_export(games, solved)
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "timeseries.csv"), traj, diag,
                  games[0], reduced=reduced)
        with open(os.path.join(outdir, "summary.json"), "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    return traj, diag, report


def _diagnostics(traj: Trajectory, games, cp, reduced):
    rows = np.zeros((traj.n_samples, len(_DIAG_COLUMNS)))
    for k in range(traj.n_samples):
        g = games[traj.epoch[k]]
        plant, cs = _unpack(traj.y[k], g, reduced)
        res = kkt_residual(cs, g, cp)
        ups_spread, lam_spread = consensus_errors(cs, g)
        E_b, E_r = lyapunov_diagnostics(plant, cs, g, cp)
        v_viol = float(np.maximum(g.plant.V_min - plant.V, 0).max()
                       + np.maximum(plant.V - g.plant.V_max, 0).max())
        il_viol = 0.0
        if g.m:
            il_viol = float(np.maximum(g.plant.Il_min - plant.I_l, 0).max()
                            + np.maximum(plant.I_l - g.plant.Il_max, 0).max())
        rows[k] = [res.max, *res.lines, ups_spread, lam_spread, E_b, E_r,
                   v_viol, il_viol]
    return rows


def _equilibrium_export(games, solved):
    """Centralized equilibrium per load-step era, for the summary file;
    eras already in ``solved`` are not solved again."""
    out = {}
    for e, g in enumerate(games):
        try:
            sol = solved[e] if e in solved else solve_vi(g)
            I, V, Il = g.layout.split(sol.x_star)
            out[f"epoch{e}"] = {
                "u_star": sol.u_star.tolist(),
                "I_star": I.tolist(),
                "V_star": V.tolist(),
                "Il_star": Il.tolist(),
                "lambda_shared": sol.lambda_star.tolist(),
                "gamma": sol.gamma_star.tolist(),
                "converged": bool(sol.converged),
                "residual": float(sol.residual),
                "method": sol.method,
            }
        except RuntimeError as err:
            out[f"epoch{e}"] = {"error": str(err)}
    return out


def _convergence_time(t, kkt, threshold):
    """Earliest sample time after which the residual stays below threshold."""
    if len(t) == 0:
        return None
    below = kkt < threshold
    if not below[-1]:
        return None
    idx = len(below) - 1
    while idx > 0 and below[idx - 1]:
        idx -= 1
    return float(t[idx])


def _build_report(scenario, traj, diag, reduced):
    cfg, games, cp = scenario.integrator, scenario.games, scenario.controller
    seg_bounds = [0.0] + [ev.time for ev in scenario.events] + [cfg.t_end]
    conv = []
    for e in range(len(games)):
        mask = traj.epoch == e
        conv.append({
            "segment": [seg_bounds[e], seg_bounds[e + 1]],
            "time": _convergence_time(traj.t[mask], diag[mask, 0],
                                      KKT_THRESHOLD),
        })
    margins = {}
    for e, g in enumerate(games):
        margins[f"epoch{e}"] = {
            "price_margin": check_price_margin(g.plant, g.price.l, g.price.p_r),
            "monotonicity": list(check_monotonicity(g.weights, g.price.p_r,
                                                   g.plant.V_ref)),
        }
    n, m = games[0].n, games[0].m
    conservation = {"nu_drift": 0.0, "theta_drift": 0.0}
    if traj.n_samples > 1 and not reduced:
        npl = 2 * n + m
        nu_sums = traj.y[:, npl + n:npl + 2 * n].sum(axis=1)
        th_start = npl + 3 * n + (2 * n + m) + n * (n + m)
        th = traj.y[:, th_start:th_start + n * (n + m)]
        th_sums = th.reshape(len(traj.t), n, -1).sum(axis=1)
        tline = np.maximum(traj.t, 1.0)
        conservation["nu_drift"] = float(
            (np.abs(nu_sums - nu_sums[0]) / tline).max())
        conservation["theta_drift"] = float(
            (np.abs(th_sums - th_sums[0]).max(axis=1) / tline).max())
    final = {name: float(v) for name, v in zip(_DIAG_COLUMNS, diag[-1])}
    pre_mask = traj.epoch == 0
    pre_final = {name: float(v)
                 for name, v in zip(_DIAG_COLUMNS, diag[pre_mask][-1])} \
        if pre_mask.any() else {}
    report = RunReport(
        scenario=scenario.name,
        kkt_threshold=KKT_THRESHOLD,
        final_kkt={"final": final, "pre_event_final": pre_final},
        consensus={"upsilon_spread": final["upsilon_spread"],
                   "rlambda_spread": final["rlambda_spread"]},
        convergence_times=conv,
        assumption_margins=margins,
        violations={"V_max": float(diag[:, -2].max()),
                    "Il_max": float(diag[:, -1].max())},
        lyapunov={"E_b_first": float(diag[0, -4]), "E_b_last": float(diag[-1, -4]),
                  "E_r_first": float(diag[0, -3]), "E_r_last": float(diag[-1, -3])},
        conservation=conservation,
        flags={
            "price_parameters": {"l": scenario.price.l, "p_r": scenario.price.p_r,
                                 "note": "base price l, sensitivity p_r"},
            "load_step_semantics":
                "Z_L and I_L reduced by the configured absolute amounts",
            "u_ref_nonzero": bool(np.any(scenario.plant.u_ref != 0.0)),
        },
        checks={},
        config={"dt": cfg.dt, "t_end": cfg.t_end, "method": cfg.method,
                "sample_period": cfg.sample_period,
                "eps_fast": cp.eps_fast, "eps_u": cp.eps_u,
                "events": [[ev.time, ev.d_IL, ev.d_ZL]
                           for ev in scenario.events]},
    )
    checks = report.checks
    checks["converged_all_segments"] = all(
        c["time"] is not None for c in conv)
    checks["boxes_at_equilibria"] = bool(
        pre_final.get("V_violation", 1.0) <= 1e-6
        and pre_final.get("Il_violation", 1.0) <= 1e-6
        and final["V_violation"] <= 1e-6 and final["Il_violation"] <= 1e-6)
    checks["upsilon_consensus"] = final["upsilon_spread"] < 1e-4
    checks["lambda_consensus"] = final["rlambda_spread"] < 1e-4
    checks["conservation"] = (conservation["nu_drift"] < 1e-9
                              and conservation["theta_drift"] < 1e-9)
    return report


def write_csv(path, traj: Trajectory, diag, g: GameDefinition, reduced=False):
    """Deterministic CSV: fixed header, 17-significant-digit floats."""
    cols = csv_header(g, reduced=reduced)
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for k in range(traj.n_samples):
            f.write(fmt % (traj.t[k], *traj.y[k].tolist(), *diag[k].tolist()))
