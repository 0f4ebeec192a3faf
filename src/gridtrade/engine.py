"""Scenario ingestion, closed-loop assembly, simulation runs and reports.

A scenario file is a JSON tree with explicit unit suffixes.  Each section
is read from the type it builds, whose declaration gives its keys and
defaults; any other key is refused.  Parsing lists every problem, time
grid included (``integrate.grid_errors``); a :class:`Scenario`, checked
wherever it is made, holds each load era's game.  The closed loop (grid +
controller) is affine apart from the box penalties, so the engine probes
the exact system matrix of each load era when that era starts
(``_kernels.affine_probe``) and propagates it with
``_kernels.rk4_affine``, the package's one RK4, or exactly, regime by
regime (``pwa``); ``integrate.run_eras`` emits the sampled rows for
both.  Only one era's dense operator is alive at a time: N² doubles for
N = 4n² + 10n states, 11.2 MB at n = 16 and 51.8 MB at n = 24.
Diagnostics take a load era's sampled rows in one call each.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import _kernels
from .controller import (ControllerParams, ControllerState, consensus_errors,
                         controller_rhs, fast_equilibrium, kkt_residual,
                         lyapunov_diagnostics)
from .game import (GameDefinition, ObjectiveWeights, PenaltyParams,
                   PriceParams, build_game)
from .integrate import (IntegrationError, IntegratorConfig, Trajectory,
                        grid_errors, run_eras)
from .oracle import solve_vi
from .plant import (DguParams, LineParams, PlantParams, PlantState,
                    apply_load_step, plant_rhs)
from .pwa import PiecewiseAffineFlow
from .topology import MicrogridTopology, edge_pairs, whole_number


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
# the keys of a weights[i] record: its builder's parameters
_WEIGHT_KEYS = tuple(inspect.signature(ObjectiveWeights).parameters)
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
    :func:`parse_quantity`, an ``np.ndarray`` one as a JSON list of
    quantities and any other as it is, and an absent one takes its
    default.  ``known`` gives fields read elsewhere.  A node that is not
    an object, a missing required field, an undeclared key, an
    unreadable value or a value ``cls`` refuses goes in ``errors`` as
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
        val = node[f.name]
        try:
            if f.type in ("np.ndarray", np.ndarray):
                val = [parse_quantity(v) for v in _json(
                    val, list, f"{where}.{f.name}", errors) or []]
            values[f.name] = parse_quantity(val) \
                if f.type in ("float", float) else val
        except ValueError as e:
            errors.append(f"{where}.{f.name}: {e}")
    if len(errors) > count or any(k not in node for k in required):
        return None
    try:
        return cls(**values)
    except (ValueError, TypeError, OverflowError) as e:
        errors.append(f"{where}: {e}")
        return None


def _state(node, zero, where, errors):
    """The state the JSON ``node`` gives: ``zero`` for ``"zeros"``, ``zero``
    with an object's blocks (in ``zero``'s shapes where the size fits),
    else ``node``; an undeclared block or an unreadable value is an error."""
    if not isinstance(node, dict):
        return zero if node == "zeros" else node
    blocks = {}
    for key, val in node.items():
        if (like := vars(zero).get(key)) is None:
            errors.append(f"{where}: unknown block {key!r}")
            continue
        try:
            arr = np.array([parse_quantity(v) for v in
                            np.array(val, dtype=object).ravel()])
        except (ValueError, TypeError) as e:
            errors.append(f"{where}.{key}: {e}")
            continue
        blocks[key] = arr.reshape(like.shape) if arr.size == like.size else arr
    return replace(zero, **blocks)


def _initial_errors(plant, ctrl, topo):
    """Every rule on an initial state: the plant is ``"equilibrium"`` or
    a :class:`PlantState`, the controller a :class:`ControllerState`, each
    block has the size, then the shape, that ``topo``'s n and m give it,
    and nu sums to zero as at the equilibrium (to 1e-12 max(1, sum
    |nu_i|)): the dynamics keep it."""
    errors = []
    if not (type(plant) is PlantState
            or isinstance(plant, str) and plant == "equilibrium"):
        errors.append(f"initial.plant: unknown mode {plant!r}")
    if type(ctrl) is not ControllerState:
        errors.append(f"initial.controller: unknown mode {ctrl!r}")
    for where, state, zero in (
            ("initial.plant", plant, PlantState.zeros(topo.n, topo.m)),
            ("initial.controller", ctrl, ControllerState.zeros(topo))):
        for k, like in vars(zero).items() if type(state) is type(zero) else ():
            got = getattr(state, k)
            if got.size != like.size:
                errors.append(f"{where}.{k}: expected {like.size} values, "
                              f"got {got.size}")
            elif got.shape != like.shape:
                errors.append(f"{where}.{k}: expected shape {like.shape}, "
                              f"got {got.shape}")
            elif k == "nu" and abs(sum(got.tolist())) > 1e-12 * max(
                    1, sum(abs(got).tolist())):     # inf and nan add quietly
                errors.append(f"{where}: nu must sum to zero")
    return errors


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
    ``games``, every load era's game (era 0 first), built when checked;
    era 0's inputs are views of ``games[0]``.  Its events, time grid and
    initial state are checked wherever it is made (parsing, ``replace``)."""

    name: str
    controller: ControllerParams
    integrator: IntegratorConfig
    events: tuple
    initial_plant: object      # "equilibrium" | PlantState
    initial_controller: ControllerState
    games: tuple

    topo = property(lambda self: self.games[0].topo)
    comm_topo = property(lambda self: self.games[0].comm_topo)
    plant = property(lambda self: self.games[0].plant)
    price = property(lambda self: self.games[0].price)
    weights = property(lambda self: self.games[0].weights)
    penalties = property(lambda self: self.games[0].penalties)

    def __post_init__(self):
        # a replaced ``events`` must still be the steps between ``games``
        if len(self.games) != len(self.events) + 1:
            raise ScenarioError([f"events: {len(self.events)} load steps "
                                 f"for {len(self.games)} load eras"])
        for j, (ev, g, h) in enumerate(zip(self.events, self.games,
                                           self.games[1:]), 1):
            if not (np.array_equal(h.plant.Z_L, g.plant.Z_L - ev.d_ZL) and
                    np.array_equal(h.plant.I_L, g.plant.I_L - ev.d_IL)):
                raise ScenarioError([f"events[{j}]: the step does not lead "
                                     f"to the game of load era {j}"])
        if errors := grid_errors(self.integrator,
                                 [ev.time for ev in self.events],
                                 _stability_limit(self.plant.lines)) \
                + _initial_errors(self.initial_plant,
                                  self.initial_controller, self.topo):
            raise ScenarioError(errors)

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
                pairs = edge_pairs(ce)
                comm_topo = MicrogridTopology(topo.n, pairs,
                                              [h for h, _ in pairs])
            except (ValueError, TypeError, OverflowError) as e:
                errors.append(f"topology.comm_edges: {e}")
        price = _record(PriceParams, d.get("price", {}), "price", errors)

        weights = None
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
        penalties = _record(PenaltyParams, d.get("penalties", {}),
                            "penalties", errors)
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
        plant0 = init.get("plant", "equilibrium")
        ctrl0 = init.get("controller", "zeros")
        if topo is not None:
            if isinstance(plant0, dict):
                # a block left out reads as empty, so its size is refused
                plant0 = {f.name: [] for f in fields(PlantState)} | plant0
            plant0 = _state(plant0, PlantState.zeros(topo.n, topo.m),
                            "initial.plant", errors)
            ctrl0 = _state(ctrl0, ControllerState.zeros(topo),
                           "initial.controller", errors)
            errors += _initial_errors(plant0, ctrl0, topo)

        games = []
        if not errors:
            stepped = PlantParams(dgus, lines)
            # every load era's game must pass the same checks as era 0's;
            # the first era that fails is the one reported
            for j, ev in enumerate([None, *events]):
                try:
                    if ev is not None:
                        stepped = apply_load_step(stepped, ev.d_IL, ev.d_ZL)
                    games.append(build_game(topo, stepped, price, weights,
                                            penalties, comm_topo=comm_topo))
                except ValueError as e:
                    errors.append(f"events[{j}]: {e}" if j else str(e))
                    break
        if errors:
            raise ScenarioError(errors)
        return cls(name, ctrl, integ, tuple(events), plant0, ctrl0,
                   tuple(games))

    def game(self, plant_params=None) -> GameDefinition:
        """Era 0's game, or a game of era 0's inputs on ``plant_params``."""
        if plant_params is None:
            return self.games[0]
        return build_game(self.topo, plant_params, self.price, self.weights,
                          self.penalties, comm_topo=self.comm_topo)


class StateLayout:
    """The flat closed-loop state of game ``g``: the plant's blocks,
    then the controller's, each in its class's field order.  The reduced
    model leaves out upsilon and nu and holds them at their quasi-steady
    values (:func:`controller.fast_equilibrium`).

    ``plant`` and ``ctrl`` map each block's name to its slice, ``shapes``
    to its shape; ``psrc`` are the penalized rows.  A scenario's load
    eras share one layout: it reads only sizes, topologies and boxes.
    """

    def __init__(self, g: GameDefinition, reduced: bool = False):
        self.g, self.reduced = g, reduced
        self.plant, self.ctrl, self.shapes = {}, {}, {}
        start = 0
        for blocks, zero in ((self.plant, PlantState.zeros(g.n, g.m)),
                             (self.ctrl, ControllerState.zeros(g))):
            for f in fields(zero):
                if not (reduced and f.name in ("upsilon", "nu")):
                    a = getattr(zero, f.name)
                    blocks[f.name] = slice(start, start + a.size)
                    self.shapes[f.name] = a.shape
                    start += a.size
        self.size = start
        self.psrc = (self.ctrl["xhat"].start + g.boxes.pos).astype(np.int64)

    def pack(self, plant: PlantState, cs: ControllerState) -> np.ndarray:
        """The flat state(s) of ``plant`` and ``cs``, whose blocks share
        a leading axis of rows or have none."""
        lead = plant.I.shape[:-1]
        return np.concatenate(
            [getattr(plant, k) for k in self.plant]
            + [getattr(cs, k).reshape(lead + (-1,)) for k in self.ctrl],
            axis=-1)

    def unpack(self, y):
        """Plant and controller states of the flat state(s) ``y``, as
        views into it apart from the reduced model's upsilon and nu."""
        plant, ctrl = ({k: y[..., s].reshape(y.shape[:-1] + self.shapes[k])
                        for k, s in blocks.items()}
                       for blocks in (self.plant, self.ctrl))
        if self.reduced:
            ctrl["upsilon"], ctrl["nu"] = fast_equilibrium(
                ctrl["xhat"][..., self.g.layout.ix_I], self.g.comm_topo)
        return PlantState(**plant), ControllerState(**ctrl)


class ClosedLoop(StateLayout):
    """Stacked grid + controller system in one flat vector.

    The dynamics are affine in the state except for the penalty branches
    on the decision copies of voltages and line currents, so the system
    is represented as ``M y + c`` plus a sparse piecewise correction,
    probed exactly from the reference right-hand side, which maps a
    block of unit-vector rows in one call (:func:`_kernels.affine_probe`).
    """

    def __init__(self, g: GameDefinition, cp: ControllerParams,
                 reduced: bool = False):
        super().__init__(g, reduced)
        self.cp = cp
        self.plo, self.phi, self.force = g.boxes.lo, g.boxes.hi, g.boxes.force

        def smooth(y):
            dy = self.rhs_reference(y)
            dy[..., self.psrc] -= _kernels.penalty_force(
                y[..., self.psrc], self.plo, self.phi, self.force)
            return dy

        self.M, self.c = _kernels.affine_probe(smooth, self.size)

    def rhs_reference(self, y):
        plant, cs = self.unpack(y)
        return self.pack(plant_rhs(plant, cs.u, self.g.plant, self.g.topo),
                         controller_rhs(cs, plant.I, self.g, self.cp))

    def flow(self) -> PiecewiseAffineFlow:
        """Exact regime-aware propagator of this loop (``pwa`` method)."""
        return PiecewiseAffineFlow(self.M, self.c, self.psrc, self.plo,
                                   self.phi, self.force)

    def run_segment(self, y, dt, steps, sample_every, out):
        """:func:`_kernels.rk4_affine` on this loop: advances ``y`` in
        place and returns the number of samples written to ``out``."""
        return _kernels.rk4_affine(self.M, self.c, y, self.psrc, self.plo,
                                   self.phi, self.force, dt, steps,
                                   sample_every, out)


KKT_THRESHOLD = 1e-3
_DIAG_COLUMNS = ("kkt_max", "kkt_line1", "kkt_line2", "kkt_line3", "kkt_line4",
                 "kkt_line5", "kkt_line6", "kkt_line7", "upsilon_spread",
                 "rlambda_spread", "E_b", "E_r", "V_violation", "Il_violation")
# the estimator's columns, 0 by construction in the reduced model
_ESTIMATOR_COLUMNS = ("kkt_line1", "kkt_line2", "upsilon_spread", "E_b")
_CSV_NAMES = {"I_l": "Il", "lam": "lambda"}     # blocks the CSV renames


def csv_header(g: GameDefinition, reduced=False):
    """Time, the flat state's entries by 1-based index (xhat's by agent
    and entry), then the diagnostics."""
    lay = StateLayout(g, reduced)
    cols = ["time"]
    for prefix, blocks in (("plant", lay.plant), ("ctrl", lay.ctrl)):
        for k in blocks:
            if k == "xhat":
                agent = g.layout.agent_of_pos
                index = zip(agent, np.arange(agent.size)
                            - g.layout.offsets[agent])
            else:
                index = np.ndindex(lay.shapes[k])
            cols += [f"{prefix}.{_CSV_NAMES.get(k, k)}."
                     + ".".join(str(i + 1) for i in ix) for ix in index]
    return cols + [f"diag.{c}" for c in _DIAG_COLUMNS]


def _stability_limit(lines):
    # explicit-method bound set by the fastest line time constant
    return 2.0 * min((l.L / l.R for l in lines), default=np.inf)


def run_scenario(scenario: Scenario, outdir=None, reduced=False):
    """Simulate the scenario; returns (trajectory, diagnostics, report),
    the report being the tree ``summary.json`` holds.

    Writes ``timeseries.csv`` and ``summary.json`` into ``outdir`` when
    given, making it before any solve; only then does the report carry
    the centralized ``equilibrium`` of each era.  ``reduced=True``
    integrates the quasi-steady-state model (upsilon and nu held
    quasi-steady).  The scenario was checked in full where it was made.
    """
    import os

    cfg = scenario.integrator
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    games = scenario.games
    cp = scenario.controller
    solved = {}       # era -> solve_vi solution, shared with the export

    g0, plant0 = games[0], scenario.initial_plant
    if plant0 == "equilibrium":
        solved[0] = solve_vi(g0)
        plant0 = PlantState(*g0.layout.split(solved[0].x_star))
    lay = StateLayout(g0, reduced)
    y = lay.pack(plant0, scenario.initial_controller)

    def advance(era, y, n_samples):
        # the era's M (N^2 doubles) lives in this call only: the previous
        # era's is freed on return, so one is alive at a time
        loop = ClosedLoop(games[era], cp, reduced=reduced)
        if cfg.method == "pwa":
            return loop.flow().propagate(y, n_samples, cfg.sample_period,
                                         cfg.dt)
        per = round(cfg.sample_period / cfg.dt)
        out = np.empty((n_samples, loop.size))
        return out[:loop.run_segment(y, cfg.dt, n_samples * per, per, out)], y

    traj = run_eras(y, cfg, [ev.time for ev in scenario.events], advance)
    # a finite state can still overflow the energies; that fails the run
    with np.errstate(over="ignore", invalid="ignore"):
        diag = _diagnostics(traj, games, cp, lay)
    bad = ~np.isfinite(diag)
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=1))[0])
        cols = ", ".join(c for c, b in zip(_DIAG_COLUMNS, bad.any(axis=0))
                         if b)
        raise IntegrationError(f"non-finite diagnostics {cols}, first at "
                               f"t={traj.t[k]:.6g}", traj.t[k], traj.y[k])
    report = _build_report(scenario, traj, diag, lay)
    if outdir is not None:
        report["equilibrium"] = _equilibrium_export(games, solved)
        summary = json.dumps(report, indent=2, sort_keys=True,
                             allow_nan=False)
        write_csv(os.path.join(outdir, "timeseries.csv"), traj, diag,
                  games[0], reduced=reduced)
        with open(os.path.join(outdir, "summary.json"), "w") as f:
            f.write(summary + "\n")
    return traj, diag, report


def _diagnostics(traj: Trajectory, games, cp, lay: StateLayout):
    """The ``_DIAG_COLUMNS`` of every row, one call each per load era."""
    rows = np.zeros((traj.n_samples, len(_DIAG_COLUMNS)))
    for e, g in enumerate(games):
        era = traj.epoch == e
        plant, cs = lay.unpack(traj.y[era])
        lines = kkt_residual(cs, g, cp).lines
        viol = [np.maximum(lo - v, 0).max(-1, initial=0.0)
                + np.maximum(v - hi, 0).max(-1, initial=0.0)
                for v, lo, hi in ((plant.V, g.plant.V_min, g.plant.V_max),
                                  (plant.I_l, g.plant.Il_min, g.plant.Il_max))]
        rows[era] = np.column_stack(
            [lines.max(-1), lines, *consensus_errors(cs, g),
             *lyapunov_diagnostics(plant, cs, g, cp), *viol])
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
    above = np.flatnonzero(kkt >= threshold)
    k = above[-1] + 1 if above.size else 0
    return float(t[k]) if k < len(t) else None


def _build_report(scenario, traj, diag, lay: StateLayout):
    """The tree ``summary.json`` holds, ``equilibrium`` left empty.  A
    reduced run gives its estimator columns (``_ESTIMATOR_COLUMNS``) and
    the check on them as None: they are 0 there by construction."""
    cfg, games, cp = scenario.integrator, scenario.games, scenario.controller
    col = {k: None if lay.reduced and k in _ESTIMATOR_COLUMNS else v
           for k, v in zip(_DIAG_COLUMNS, diag.T)}
    seg_bounds = [0.0] + [ev.time for ev in scenario.events] + [cfg.t_end]
    conv = []
    for e in range(len(games)):
        mask = traj.epoch == e
        conv.append({
            "segment": [seg_bounds[e], seg_bounds[e + 1]],
            "time": _convergence_time(traj.t[mask], col["kkt_max"][mask],
                                      KKT_THRESHOLD),
        })
    margins = {f"epoch{e}": {"price_margin": g.price_margin,
                             "monotonicity": list(g.monotonicity)}
               for e, g in enumerate(games)}
    # per-second drift of the agent sums the dynamics conserve
    conservation = {"nu_drift": None, "theta_drift": 0.0}
    for k in ("nu", "theta"):
        if k in lay.ctrl:
            sums = traj.y[:, lay.ctrl[k]].reshape(
                traj.n_samples, *lay.shapes[k]).sum(axis=1)
            drift = np.abs(sums - sums[0]).reshape(traj.n_samples, -1)
            conservation[f"{k}_drift"] = float(
                (drift.max(axis=1) / np.maximum(traj.t, 1.0)).max())

    def row(i):
        return {k: None if v is None else float(v[i]) for k, v in col.items()}

    # every era holds a row: era 0 its start, each later one its event's
    first, final = row(0), row(-1)
    pre_final = row(np.flatnonzero(traj.epoch == 0)[-1])
    ups = final["upsilon_spread"]
    return {
        "scenario": scenario.name,
        "residuals": {"final": final, "pre_event_final": pre_final},
        "consensus": {"upsilon_spread": ups,
                      "rlambda_spread": final["rlambda_spread"]},
        "convergence_times": conv,
        "margins": margins,
        "violations": {"V_max": float(col["V_violation"].max()),
                       "Il_max": float(col["Il_violation"].max())},
        "lyapunov": {f"{k}_{at}": r[k] for k in ("E_b", "E_r")
                     for at, r in (("first", first), ("last", final))},
        "conservation": conservation,
        "flags": {
            "price_parameters": {"l": scenario.price.l, "p_r": scenario.price.p_r,
                                 "note": "base price l, sensitivity p_r"},
            "load_step_semantics":
                "Z_L and I_L reduced by the configured absolute amounts",
            "u_ref_nonzero": bool(np.any(scenario.plant.u_ref != 0.0)),
        },
        "checks": {
            "converged_all_segments": all(c["time"] is not None for c in conv),
            "boxes_at_equilibria": bool(
                pre_final["V_violation"] <= 1e-6
                and pre_final["Il_violation"] <= 1e-6
                and final["V_violation"] <= 1e-6
                and final["Il_violation"] <= 1e-6),
            "upsilon_consensus": None if ups is None else ups < 1e-4,
            "lambda_consensus": final["rlambda_spread"] < 1e-4,
            "conservation": all(v < 1e-9 for v in conservation.values()
                                if v is not None),
        },
        "config": {"dt": cfg.dt, "t_end": cfg.t_end, "method": cfg.method,
                   "sample_period": cfg.sample_period,
                   "eps_fast": cp.eps_fast, "eps_u": cp.eps_u,
                   "events": [[ev.time, ev.d_IL, ev.d_ZL]
                              for ev in scenario.events]},
        "equilibrium": {},
    }


def write_csv(path, traj: Trajectory, diag, g: GameDefinition, reduced=False):
    """Deterministic CSV: fixed header, 17-significant-digit floats."""
    cols = csv_header(g, reduced=reduced)
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for k in range(traj.n_samples):
            f.write(fmt % (traj.t[k], *traj.y[k].tolist(), *diag[k].tolist()))
