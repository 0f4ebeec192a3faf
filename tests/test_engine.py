import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gridtrade as gt
from gridtrade import _kernels, engine, oracle
from gridtrade.engine import (ClosedLoop, ScenarioError, Scenario, csv_header,
                              parse_quantity, run_scenario)
from gridtrade.controller import consensus_errors, controller_rhs, \
    kkt_residual, lyapunov_diagnostics

from conftest import RING4_FILE, ring4_dict, ring_scenario, rk4_run


class TestUnits:
    @pytest.mark.parametrize("text,value", [
        ("20 mOhm", 0.02), ("2.1 uH", 2.1e-6), ("1.8 mH", 1.8e-3),
        ("2.2 mF", 2.2e-3), ("380 V", 380.0), ("-20 A", -20.0),
        ("16 Ohm", 16.0), ("5e-3 s", 5e-3), ("1e-5", 1e-5), (42, 42.0),
        ("3 kV", 3000.0), ("2.5µH", 2.5e-6),
    ])
    def test_parse(self, text, value):
        assert parse_quantity(text) == pytest.approx(value, rel=1e-12)

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown unit"):
            parse_quantity("3 furlongs")
        with pytest.raises(ValueError, match="cannot parse"):
            parse_quantity("abc")

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, "1e999 V", "1e308 kV", 10 ** 400])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            parse_quantity(value)

    def test_bool_refused(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_quantity(True)


class TestScenarioValidation:
    def test_reference_scenario_loads(self):
        scn = Scenario.from_file(RING4_FILE)
        assert scn.topo.n == 4 and scn.topo.m == 4
        assert scn.plant.Z_L[1] == 50.0
        assert scn.integrator.dt == 1e-5
        assert scn.events[0].time == 5.0

    def test_errors_collected_exhaustively(self):
        d = ring4_dict()
        d["price"]["l"] = -1.0
        d["dgus"][0]["Z_L"] = "banana"
        del d["dgus"][1]["R"]
        d["events"] = [{"time": "5 s"}, {"time": "4 s"}]
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        msg = str(ei.value)
        assert "price" in msg
        assert "dgus[1]" in msg
        assert "dgus[2]" in msg
        assert "increasing" in msg

    def test_assumption_violation_rejected(self):
        d = ring4_dict()
        d["price"] = {"l": 0.01, "p_r": 5.0}
        with pytest.raises(ScenarioError, match="price margin"):
            Scenario.from_dict(d)

    def test_event_beyond_horizon_rejected(self):
        d = ring4_dict(integrator={"method": "rk4", "dt": "1e-5 s",
                                   "t_end": "2 s"})
        with pytest.raises(ScenarioError, match=r"event times must lie in "
                                                r"\(0, t_end\]"):
            Scenario.from_dict(d)

    def test_negative_event_time_outside_horizon(self):
        d = ring4_dict(events=[{"time": "-1 ms", "d_IL": "1 A"}])
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == ["event times must lie in (0, t_end]"]

    @pytest.mark.parametrize("value", [[], "rk4", [1]])
    @pytest.mark.parametrize("section", [None, "topology", "integrator",
                                         "controller", "output", "initial"])
    def test_non_object_section_rejected(self, section, value):
        if section is None:
            d = value
        else:
            d = ring4_dict()
            d[section] = value
            d["dgus"][0]["Z_L"] = "banana"
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        errors = ei.value.errors
        assert f"{section or 'scenario'}: expected a JSON object, got " \
            f"{type(value).__name__}" in errors
        if section is not None:     # the other errors are still collected
            assert any(e.startswith("dgus[1]") for e in errors)

    def test_load_step_to_nonpositive_impedance_rejected(self):
        d = ring4_dict()
        d["events"] = [{"time": "2 s", "d_ZL": "1 Ohm"},
                       {"time": "5 s", "d_ZL": "15 Ohm"}]
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            "events[2]: load step drives Z_L of DGU 1 to 0.0 <= 0"]

    @pytest.mark.parametrize("step, margin", [
        ({"d_IL": "-500 A"}, -16.7569), ({"d_ZL": "15.9 Ohm"}, -73.6565)])
    def test_later_era_game_validated(self, step, margin):
        d = ring4_dict()
        d["events"] = [dict(step, time="0.001 s")]
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            f"events[1]: price margin over peak feasible demand is "
            f"{margin:.4f} <= 0"]

    def test_era0_game_error_reported_once(self):
        """A game that fails in era 0 is not built again for the events,
        so no event is blamed for it."""
        d = ring4_dict(penalties={"rho_V": [1200, 1200]})
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            "weights/penalties must have one entry per agent"]

    @pytest.mark.parametrize("key, size", [
        ("upsilon", 4), ("nu", 4), ("u", 4), ("gamma", 4), ("xhat", 12),
        ("lam", 32), ("theta", 32)])
    def test_initial_controller_lengths_checked(self, key, size):
        d = ring4_dict(initial={"plant": "zeros",
                                "controller": {key: [0] * (size - 1)}})
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            f"initial.controller.{key}: expected {size} values, "
            f"got {size - 1}"]

    def test_initial_controller_errors_collected(self):
        d = ring4_dict(initial={"plant": "zeros", "controller": {
            "ups": [0] * 4, "nu": [1, 0, 0, 0], "u": [0] * 3,
            "lam": np.zeros((4, 8)).tolist(), "gamma": ["x"] * 4}})
        d["price"]["l"] = -1.0
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        errors = ei.value.errors
        assert "initial.controller: unknown block 'ups'" in errors
        assert "initial.controller: nu must sum to zero" in errors
        assert "initial.controller.u: expected 4 values, got 3" in errors
        assert any(e.startswith("initial.controller.gamma: ")
                   for e in errors)
        assert any(e.startswith("price: ") for e in errors)
        assert len(errors) == 5

    def test_nu_sum_judged_to_its_scale(self):
        """nu typed to sum to zero is accepted at any magnitude: these
        entries' float sum is 3.6e-12, not 0."""
        nu = [-2756.0, 12940.6, 10067.2, -20251.8]
        assert abs(np.sum(nu)) > 1e-12
        scn = Scenario.from_dict(ring4_dict(
            initial={"plant": "zeros", "controller": {"nu": nu}}))
        assert scn.initial_controller.nu.tolist() == nu

    @pytest.mark.parametrize("key", ["I", "V", "I_l"])
    def test_initial_plant_lengths_checked(self, key):
        plant = {"I": [0] * 4, "V": [0] * 4, "I_l": [0] * 4}
        plant[key] = plant[key][:3]
        d = ring4_dict(initial={"plant": plant, "controller": "zeros"})
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            f"initial.plant.{key}: expected 4 values, got 3"]


    @pytest.mark.parametrize("section, key, value, message", [
        ("integrator", "dt", math.nan,
         "integrator.dt: quantity nan is not finite"),
        ("integrator", "t_end", math.inf,
         "integrator.t_end: quantity inf is not finite"),
        ("price", "l", "-inf", "price.l: cannot parse quantity '-inf'")])
    def test_non_finite_value_refused(self, section, key, value, message):
        d = ring4_dict()
        d[section][key] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]

    @pytest.mark.parametrize("section, key", [
        ("dgus", "R"), ("dgus", "C"), ("lines", "R")])
    def test_nan_parameter_refused(self, section, key):
        d = ring4_dict()
        d[section][1][key] = math.nan
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            f"{section}[2].{key}: quantity nan is not finite"]

    @pytest.mark.parametrize("key, value, message", [
        ("n", 4.7, "topology: n must be a whole number, got 4.7"),
        ("n", True, "topology: n must be a whole number, got True"),
        ("edges", [[1.9, 2.2], [2, 3], [3, 4], [4, 1]],
         "topology: edge 1: endpoint must be a whole number, got 1.9"),
        ("comm_edges", [[1, 2.5], [2, 3], [3, 4]],
         "topology.comm_edges: edge 1: endpoint must be a whole number, "
         "got 2.5")])
    def test_fractional_or_boolean_id_refused(self, key, value, message):
        d = ring4_dict()
        d["topology"][key] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]

    @pytest.mark.parametrize("key, value, message", [
        ("n", "four", "topology: n must be a whole number, got 'four'"),
        ("n", None, "topology: n must be a whole number, got None"),
        ("n", json.loads("1e400"),      # JSON reads it as inf
         "topology: n must be a whole number, got inf"),
        ("edges", 5, "topology.edges: expected a JSON list, got int"),
        ("managers", 5, "topology.managers: expected a JSON list, got int"),
        ("comm_edges", [], "topology.comm_edges: graph is not connected")]
        + [("comm_edges", v, "topology.comm_edges: expected a JSON list, "
            f"got {type(v).__name__}") for v in (0, "", {}, None)])
    def test_topology_value_named(self, key, value, message):
        """The topology's own messages, not those of ``int()`` or of
        iterating a number; a ``comm_edges`` key is read whatever its
        value, so an empty or non-list one is refused, not replaced by
        the physical graph."""
        d = ring4_dict()
        d["topology"][key] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]

    @pytest.mark.parametrize("n", ["4", np.int64(4), 4.0])
    def test_node_count_as_text_or_numpy_integer(self, n):
        d = ring4_dict()
        d["topology"]["n"] = n
        assert Scenario.from_dict(d).topo.n == 4

    def test_empty_comm_edges_on_one_node(self):
        """On one DGU, ``[]`` is the one-node communication graph."""
        d = ring4_dict()
        d["topology"] = {"n": 1, "edges": [], "managers": [],
                         "comm_edges": []}
        for key in ("dgus", "weights"):
            d[key] = d[key][:1]
        d["lines"] = []
        d["penalties"] = {"rho_V": [1200], "rho_Il": []}
        scn = Scenario.from_dict(d)
        assert scn.comm_topo.n == 1 and scn.comm_topo.m == 0
        assert scn.comm_topo is not scn.topo

    @pytest.mark.parametrize("key, where", [
        ("edges", "topology"), ("comm_edges", "topology.comm_edges")])
    @pytest.mark.parametrize("edge", ["12", [1, 2, 3], 5, [1]])
    def test_edge_not_a_pair_refused(self, key, where, edge):
        """A two-character string is not read as an edge, and the other
        malformed edges are named rather than left to Python's unpacking
        message."""
        d = ring4_dict()
        d["topology"][key] = [edge, [2, 3], [3, 4], [4, 1]]
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            f"{where}: edge 1: expected [head, tail], got {edge!r}"]

    def test_record_count_named_before_graph(self):
        d = ring4_dict()
        d["topology"]["n"] = 100000
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == ["expected 100000 dgu records, got 4",
                                   "weights: need one record per agent"]

    @pytest.mark.parametrize("path, value, message", [
        (("dgus",), 5, "dgus: expected a JSON list, got int"),
        (("lines",), {}, "lines: expected a JSON list, got dict"),
        (("events",), 5, "events: expected a JSON list, got int"),
        (("weights",), "w", "weights: expected a JSON list, got str"),
        (("penalties", "rho_V"), 5,
         "penalties.rho_V: expected a JSON list, got int"),
        (("penalties", "rho_Il"), "1000",
         "penalties.rho_Il: expected a JSON list, got str"),
        (("name",), [1], "name: expected text, got list")])
    def test_wrong_json_type_refused(self, path, value, message):
        d = ring4_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert message in ei.value.errors

    def test_missing_fields_and_keys_named(self):
        d = ring4_dict()
        del d["dgus"][2]["L"], d["price"]["p_r"]
        d["weights"][3]["alpha"] = d["weights"][3].pop("alpha_V")
        d["initial"]["plant"] = {"I": [0] * 4, "V": [0] * 4, "Il": [0] * 4}
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            "dgus[3]: missing field 'L'",
            "price: missing field 'p_r'",
            "weights[4]: missing field 'alpha_V'",
            "weights[4]: unknown key 'alpha'",
            "initial.plant: unknown block 'Il'",
            "initial.plant.I_l: expected 4 values, got 0"]

    def test_tiny_sample_period_off_grid(self):
        d = ring4_dict(output={"sample_period": 1e-308})
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [
            "t_end 10.0 not on the sample grid (sample_period 1e-308)",
            "event time 5.0 not on the sample grid"]

    @pytest.mark.parametrize("key, value, message", [
        ("rho_V", [1200, "x", 1200, 1200],
         "penalties.rho_V: cannot parse quantity 'x'"),
        ("rho_Il", [1000, 0, 1000, 1000],
         "penalties: penalty parameters must be strictly positive"),
        ("rho_Il", None, "penalties: missing field 'rho_Il'")])
    def test_penalty_entry_refused(self, key, value, message):
        d = ring4_dict()
        if value is None:
            del d["penalties"][key]
        else:
            d["penalties"][key] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]

    def test_events_frozen(self):
        scn = Scenario.from_file(RING4_FILE)
        assert scn.events[0] == engine.Event(5.0, 3.0, 3.0)
        with pytest.raises(FrozenInstanceError):
            scn.events[0].time = 1.0

    @pytest.mark.parametrize("events, message", [
        ((), "events: 0 load steps for 2 load eras"),
        ((engine.Event(0.005, 10.0, 0.0),),
         "events[1]: the step does not lead to the game of load era 1")])
    def test_replaced_events_must_match_games(self, events, message):
        """``games`` holds the eras the parsed events cut the run into;
        events replaced without them are refused rather than run on the
        old eras' games."""
        scn = Scenario.from_dict(ring4_dict(
            integrator={"t_end": "0.01 s"},
            events=[{"time": "0.005 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}]))
        with pytest.raises(ScenarioError) as ei:
            replace(scn, events=events)
        assert ei.value.errors == [message]

    def test_scenario_fields(self):
        assert [f.name for f in fields(Scenario)] == [
            "name", "controller", "integrator", "events", "initial_plant",
            "initial_controller", "games"]

    @pytest.mark.parametrize("name", ["topo", "comm_topo", "plant", "price",
                                      "weights", "penalties"])
    def test_era0_inputs_are_views_of_games(self, name):
        """Era 0's inputs are held once, by ``games[0]``: they read
        through to it and cannot be replaced apart from it (a replaced
        ``price`` would be reported while the parsed game runs)."""
        scn = Scenario.from_file(RING4_FILE)
        assert getattr(scn, name) is getattr(scn.games[0], name)
        value = gt.PriceParams(l=10.0, p_r=scn.price.p_r) \
            if name == "price" else getattr(scn, name)
        with pytest.raises(TypeError):
            replace(scn, **{name: value})

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_malformed_tree_gives_scenario_error(self, data):
        """Renaming, deleting or replacing parts of the reference tree
        either parses or raises ScenarioError, nothing else."""
        d = ring4_dict()
        for _ in range(data.draw(st.integers(1, 3))):
            path = _draw_path(data, d)
            if not path:
                d = data.draw(_JSON_VALUES)
                continue
            parent, key = _node(d, path[:-1]), path[-1]
            action = data.draw(st.sampled_from(["replace", "delete",
                                                "rename"]))
            if action == "replace":
                parent[key] = data.draw(_JSON_VALUES)
            elif action == "delete" or isinstance(parent, list):
                del parent[key]
            else:
                new = data.draw(st.sampled_from([key[:-1], key + "s"])
                                | st.text(max_size=6))
                parent[new] = parent.pop(key)
        try:
            scn = Scenario.from_dict(d)
        except ScenarioError as e:
            assert e.errors and all(isinstance(m, str) for m in e.errors)
        else:
            assert isinstance(scn, Scenario)


# Random JSON values: small numbers only, since topology.n sizes arrays.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-1e3, 1e3)
    | st.sampled_from([math.nan, math.inf, -math.inf, "3 mH", "-20 A",
                       "1e-5 s", "rk4", "zeros", "equilibrium"])
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)


def _draw_path(data, node):
    """A path into a JSON tree: one step into the root, and each further
    step with probability 1/2, so a section is as likely as all its
    leaves."""
    path = ()
    while isinstance(node, (dict, list)) and node and (
            not path or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


def _node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@pytest.fixture(scope="module")
def ring4_2ms():
    """ring4 on a 2 ms rk4 horizon without events."""
    return Scenario.from_dict(ring4_dict(
        integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.002 s"},
        events=[]))


class TestReadOnlyGame:
    """A parsed game's numbers cannot be written, so the caches built
    from them (``g.boxes``, ``g.x_ref``, the margins) cannot part from
    them."""

    @pytest.mark.parametrize("read", [
        lambda scn: scn.plant.V_min, lambda scn: scn.plant.R_l,
        lambda scn: scn.weights.r, lambda scn: scn.weights.alpha_Il[0],
        lambda scn: scn.penalties.rho_V,
        lambda scn: scn.games[1].constraints.A_full,
        lambda scn: scn.games[1].constraints.s_A_full,
        lambda scn: scn.games[1].constraints.D_stack,
        lambda scn: scn.games[1].x_ref,
        lambda scn: scn.games[1].alpha_Il_edge,
        lambda scn: scn.games[1].r_edge,
        lambda scn: scn.games[1].monotonicity,
        lambda scn: scn.games[1].layout.dims,
        lambda scn: scn.games[1].layout.offsets,
        lambda scn: scn.games[1].layout.ix_I,
        lambda scn: scn.games[1].layout.ix_V,
        lambda scn: scn.games[1].layout.ix_line,
        lambda scn: scn.games[1].layout.agent_of_pos,
        lambda scn: scn.games[1].layout.manager_of_edge],
        ids=["V_min", "R_l", "r", "alpha_Il", "rho_V", "A_full", "s_A_full",
             "D_stack", "x_ref", "alpha_Il_edge", "r_edge", "monotonicity",
             "dims", "offsets", "ix_I", "ix_V", "ix_line", "agent_of_pos",
             "manager_of_edge"])
    def test_arrays_read_only(self, ref_scenario, read):
        a = read(ref_scenario)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 390.0

    def test_caller_arrays_stay_writable(self, ref_scenario):
        """Each record holds its own copy; the caller's array is neither
        frozen nor shared."""
        w = ref_scenario.weights
        r, rho = w.r.copy(), np.full(4, 1200.0)
        weights = gt.ObjectiveWeights(r, w.alpha_u, w.alpha_I, w.alpha_V,
                                      w.alpha_Il)
        pen = gt.PenaltyParams(rho, np.full(4, 1000.0))
        r[0] = rho[0] = 1.0
        assert weights.r[0] == w.r[0] and pen.rho_V[0] == 1200.0


class TestReplacedInitialState:
    """A Scenario made by ``dataclasses.replace`` is held to the same
    initial-state rules as a parsed one, with the same messages."""

    @pytest.mark.parametrize("field, make, message", [
        ("initial_plant", lambda g: "equilibrum",
         "initial.plant: unknown mode 'equilibrum'"),
        ("initial_controller",
         lambda g: replace(gt.ControllerState.zeros(g), nu=np.ones(4)),
         "initial.controller: nu must sum to zero"),
        ("initial_controller",
         lambda g: replace(gt.ControllerState.zeros(g), upsilon=np.zeros(3)),
         "initial.controller.upsilon: expected 4 values, got 3"),
        ("initial_plant",
         lambda g: gt.PlantState(np.zeros(4), np.zeros(4), np.zeros(3)),
         "initial.plant.I_l: expected 4 values, got 3"),
        ("initial_plant",
         lambda g: gt.PlantState(np.zeros((2, 2)), np.zeros(4), np.zeros(4)),
         "initial.plant.I: expected shape (4,), got (2, 2)")],
        ids=["misspelt-mode", "nu-sum", "upsilon-size", "I_l-size",
             "I-shape"])
    def test_refused_at_replace(self, ring4_2ms, field, make, message):
        with pytest.raises(ScenarioError) as ei:
            replace(ring4_2ms, **{field: make(ring4_2ms.games[0])})
        assert ei.value.errors == [message]

    def test_valid_states_run_as_parsed(self, ring4_2ms):
        """Era 0's equilibrium and a controller state, given as objects,
        run as the file's ``"equilibrium"`` and controller blocks do; a
        block the file gives flat is held in its declared shape."""
        g = ring4_2ms.games[0]
        plant = gt.PlantState(*g.layout.split(oracle.solve_vi(g).x_star))
        lam = np.arange(32.0)
        ctrl = replace(gt.ControllerState.zeros(g), upsilon=[1, 2, 3, 4],
                       lam=lam.reshape(4, 8))
        parsed = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.002 s"},
            events=[], initial={"plant": "equilibrium", "controller": {
                "upsilon": [1, 2, 3, 4], "lam": lam.tolist()}}))
        assert parsed.initial_controller.lam.shape == (4, 8)
        ref, _, _ = run_scenario(parsed)
        traj, _, _ = run_scenario(replace(ring4_2ms, initial_plant=plant,
                                          initial_controller=ctrl))
        assert traj.y.tobytes() == ref.y.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_state_gives_scenario_error(self, ring4_2ms, data):
        """Replacing either initial state by a drawn mode, or by a state
        of either class with drawn block sizes and values, gives a
        ScenarioError or a Scenario whose state packs into the run's
        first row, nothing else."""
        g = ring4_2ms.games[0]
        field = data.draw(st.sampled_from(["initial_plant",
                                           "initial_controller"]))
        zero = data.draw(st.sampled_from([gt.PlantState.zeros(g.n, g.m),
                                          gt.ControllerState.zeros(g)]))
        if data.draw(st.booleans(), label="mode"):
            value = data.draw(_JSON_VALUES
                              | st.builds(np.zeros, st.integers(0, 5)))
        else:
            blocks = {}
            for k, v in vars(zero).items():
                n = data.draw(st.sampled_from([v.size, v.size - 1,
                                               v.size + 1, 0]))
                blocks[k] = data.draw(st.lists(
                    st.floats(), min_size=n, max_size=n), label=k)
            value = type(zero)(**blocks)
        try:
            scn = replace(ring4_2ms, **{field: value})
        except ScenarioError as e:
            assert e.errors and all(isinstance(m, str) for m in e.errors)
        else:
            plant = scn.initial_plant
            if isinstance(plant, str):
                plant = gt.PlantState.zeros(g.n, g.m)
            lay = engine.StateLayout(g)
            assert lay.pack(plant, scn.initial_controller).shape == \
                (lay.size,)


@pytest.fixture(scope="module")
def short_scenario_dict():
    return ring4_dict(
        integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.02 s"},
        events=[],
        output={"sample_period": "1e-3 s"},
        initial={"plant": "equilibrium", "controller": "zeros"},
    )


class TestClosedLoopAssembly:
    def test_fast_path_matches_reference(self, ref_scenario):
        g = ref_scenario.games[0]
        loop = ClosedLoop(g, ref_scenario.controller)
        b = g.boxes
        rhs = _kernels.affine_rhs(loop.M, loop.c, loop.psrc, b.lo, b.hi,
                                  b.force)
        rng = np.random.default_rng(33)
        for _ in range(8):
            y = rng.normal(scale=300, size=loop.size)
            fast = rhs(y)
            ref = loop.rhs_reference(y)
            assert np.allclose(fast, ref, rtol=1e-12,
                               atol=1e-9 * max(1, np.abs(ref).max()))

    def test_reduced_fast_path_matches_reference(self, ref_scenario):
        g = ref_scenario.games[0]
        loop = ClosedLoop(g, ref_scenario.controller, reduced=True)
        b = g.boxes
        rhs = _kernels.affine_rhs(loop.M, loop.c, loop.psrc, b.lo, b.hi,
                                  b.force)
        rng = np.random.default_rng(34)
        for _ in range(5):
            y = rng.normal(scale=300, size=loop.size)
            fast = rhs(y)
            ref = loop.rhs_reference(y)
            assert np.allclose(fast, ref, rtol=1e-12,
                               atol=1e-9 * max(1, np.abs(ref).max()))

    def test_rk4_step_is_rhs_fast_step(self, ref_scenario, ref_attractor):
        """One rk4_affine step is the textbook RK4 step of affine_rhs on
        the loop, bit for bit, from the attractor, where V_1's penalty
        pushes."""
        g = ref_scenario.games[0]
        loop = ClosedLoop(g, ref_scenario.controller)
        y0 = loop.pack(ref_attractor.plant, ref_attractor.controller)
        b = g.boxes
        assert _kernels.penalty_force(y0[loop.psrc], b.lo, b.hi,
                                      b.force).any()
        dt = 1e-5
        f = _kernels.affine_rhs(loop.M, loop.c, loop.psrc, b.lo, b.hi,
                                b.force)
        k1 = f(y0)
        k2 = f(y0 + 0.5 * dt * k1)
        k3 = f(y0 + 0.5 * dt * k2)
        k4 = f(y0 + dt * k3)
        hand = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y, out = y0.copy(), np.empty((1, loop.size))
        assert loop.run_segment(y, dt, 1, 1, out) == 1
        assert y.tobytes() == hand.tobytes() == out[0].tobytes()
        assert y.tobytes() != y0.tobytes()

    def test_pack_unpack_roundtrip(self, ref_scenario):
        g = ref_scenario.games[0]
        rng = np.random.default_rng(35)
        for reduced in (False, True):
            loop = ClosedLoop(g, ref_scenario.controller, reduced=reduced)
            y = rng.normal(size=loop.size)
            plant, cs = loop.unpack(y)
            assert np.array_equal(loop.pack(plant, cs), y)


def column_probe(f, size):
    """(M, c) of the affine ``f`` read off one vector at a time: ``f`` at 0
    and at each unit vector, the reference of ``_kernels.affine_probe``."""
    c = f(np.zeros(size))
    M = np.empty((c.size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        M[:, j] = f(e) - c
        e[j] = 0.0
    return M, c


class TestBlockProbe:
    """``affine_probe`` reads blocks of unit vectors in one call each and
    gives the bits of the one-vector-at-a-time probe."""

    @staticmethod
    def assert_same(got, ref):
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("size", [1, 5, 16, 17, 104])
    def test_sizes_around_the_block(self, size):
        """Sizes below, at, just past and not a multiple of the block."""
        rng = np.random.default_rng(size)
        A, b = rng.normal(size=(size, size)), rng.normal(size=size)
        calls = []

        def f(y):
            calls.append(y.shape)
            return _kernels.matvec(A, y) + b

        got = _kernels.affine_probe(f, size)
        assert len(calls) == -(-size // _kernels._PROBE_BLOCK)
        self.assert_same(got, column_probe(f, size))

    @staticmethod
    def loop_map(loop):
        """The map the loop probes: its right-hand side without the
        penalty correction, on one flat state."""
        b = loop.g.boxes

        def smooth(y):
            dy = loop.rhs_reference(y)
            dy[loop.psrc] -= _kernels.penalty_force(
                y[loop.psrc], b.lo, b.hi, b.force)
            return dy
        return smooth

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    @pytest.mark.parametrize("era", [0, 1])
    def test_ring4_closed_loop(self, ref_scenario, era, reduced):
        """104 full states, not a multiple of the block, and 96 reduced."""
        loop = ClosedLoop(ref_scenario.games[era], ref_scenario.controller,
                          reduced=reduced)
        self.assert_same((loop.M, loop.c),
                         column_probe(self.loop_map(loop), loop.size))

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    def test_ring16_closed_loop(self, reduced):
        scn = ring_scenario(16)
        loop = ClosedLoop(scn.games[0], scn.controller, reduced=reduced)
        self.assert_same((loop.M, loop.c),
                         column_probe(self.loop_map(loop), loop.size))

    @pytest.mark.parametrize("era", [0, 1])
    def test_ring4_game_map(self, ref_scenario, era):
        """The game map's decision block, 13 entries, below the block."""
        g = ref_scenario.games[era]
        lay = g.layout
        vi = oracle._Vi(g)
        Gx, gx = column_probe(
            lambda x: gt.local_gradient(g, x, np.full(g.n, x[lay.ix_I].sum()),
                                        with_penalty=False), lay.size)
        r_row = g.weights.r[lay.agent_of_pos]
        assert lay.size < _kernels._PROBE_BLOCK
        block = np.ix_(vi.z_of_x, vi.z_of_x)
        self.assert_same((vi.G[block], vi.g0[vi.z_of_x]),
                         (r_row[:, None] * Gx, r_row * gx))


class TestStateLayout:
    # each block's CSV prefix, spelt out independently of the engine
    CSV = {"I": "plant.I.", "V": "plant.V.", "I_l": "plant.Il.",
           "upsilon": "ctrl.upsilon.", "nu": "ctrl.nu.", "u": "ctrl.u.",
           "xhat": "ctrl.xhat.", "lam": "ctrl.lambda.",
           "theta": "ctrl.theta.", "gamma": "ctrl.gamma."}

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    def test_block_slices_index_csv_columns(self, ref_game, reduced):
        """Each block's slice, shifted by the time column, picks exactly
        the CSV columns of that block, and unpacking reads that slice."""
        lay = engine.StateLayout(ref_game, reduced)
        header = csv_header(ref_game, reduced)
        blocks = {**lay.plant, **lay.ctrl}
        assert list(blocks) == [k for k in self.CSV if not (
            reduced and k in ("upsilon", "nu"))]
        for k, s in blocks.items():
            assert header[s.start + 1:s.stop + 1] == [
                c for c in header if c.startswith(self.CSV[k])]
        assert lay.size == len(header) - 1 - len(engine._DIAG_COLUMNS)
        assert header[lay.ctrl["theta"].start + 1] == "ctrl.theta.1.1"
        assert any(c.startswith("ctrl.upsilon.") for c in header) \
            == (not reduced)
        y = np.arange(float(lay.size))
        plant, cs = lay.unpack(y)
        for k, s in blocks.items():
            state = plant if k in lay.plant else cs
            assert np.array_equal(getattr(state, k).ravel(), y[s])

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    @pytest.mark.parametrize("n", [4, 16])
    def test_pack_unpack_roundtrip_rows(self, ref_game, n, reduced):
        """``pack`` of a block of unpacked rows gives the block back, and
        each of its rows is the row packed alone."""
        g = ref_game if n == 4 else ring_scenario(16).games[0]
        lay = engine.StateLayout(g, reduced)
        Y = np.random.default_rng(n).normal(scale=100.0, size=(5, lay.size))
        packed = lay.pack(*lay.unpack(Y))
        assert packed.shape == Y.shape
        assert packed.tobytes() == Y.tobytes()
        for y, row in zip(Y, packed):
            assert lay.pack(*lay.unpack(y)).tobytes() == row.tobytes()


class TestRunScenario:
    def test_csv_and_summary_outputs(self, ref_run, ref_game):
        outdir = ref_run["outdir"]
        csv_path = outdir / "timeseries.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == csv_header(ref_game)
        assert len(header) == 1 + 12 + 92 + 14
        # t=0 row, 10000 samples, one duplicated event row
        assert len(lines) - 1 == 10002
        summary = json.loads((outdir / "summary.json").read_text())
        for key in ("residuals", "margins", "consensus", "convergence_times",
                    "flags", "config", "equilibrium"):
            assert key in summary
        eq = summary["equilibrium"]
        assert set(eq) == {"epoch0", "epoch1"}
        assert eq["epoch0"]["converged"]
        assert eq["epoch0"]["V_star"][0] == pytest.approx(377.0, abs=1e-6)

    def test_event_rows_share_state(self, ref_run):
        traj = ref_run["traj"]
        at_event = np.where(np.isclose(traj.t, 5.0))[0]
        assert len(at_event) == 2
        k0, k1 = at_event
        assert np.array_equal(traj.y[k0], traj.y[k1])
        assert traj.epoch[k0] == 0 and traj.epoch[k1] == 1
        diag = ref_run["diag"]
        # load step changes the balance targets: residual jumps at 5+
        assert diag[k1, 0] > diag[k0, 0]

    def test_conservation_along_run(self, ref_run):
        cons = ref_run["report"]["conservation"]
        assert cons["nu_drift"] < 1e-9
        assert cons["theta_drift"] < 1e-9

    def test_energy_diagnostic_decreases(self, ref_run):
        traj = ref_run["traj"]
        diag = ref_run["diag"]
        i0 = int(np.argmin(np.abs(traj.t - 0.1)))
        i1 = int(np.argmin(np.abs(traj.t - 4.9)))
        E_r = diag[:, 11]
        assert E_r[i1] < E_r[i0]
        assert (diag[:, 10] >= -1e-12).all()   # estimator energy stays PSD

    def test_flow_dissipation_bound(self, ref_run, ref_scenario):
        """Rate of the derivative energy never exceeds the input power."""
        traj = ref_run["traj"]
        p = ref_scenario.plant
        g = ref_scenario.games[0]
        loop = ClosedLoop(g, ref_scenario.controller)
        for k in range(200, 1000, 97):
            plant, cs = loop.unpack(traj.y[k])
            d_plant = gt.plant_rhs(plant, cs.u, p, ref_scenario.topo)
            d_cs = controller_rhs(cs, plant.I, g, ref_scenario.controller)
            dI, dV, dIl, du = d_plant.I, d_plant.V, d_plant.I_l, d_cs.u
            w_rate = (dI @ (-dV - p.R * dI + du)
                      + dV @ (dI + gt.incidence_matrix(
                          ref_scenario.topo) @ dIl - dV / p.Z_L)
                      + dIl @ (-p.R_l * dIl - gt.incidence_matrix(
                          ref_scenario.topo).T @ dV))
            supply = du @ dI
            assert w_rate <= supply + 1e-9 * max(1.0, abs(supply))

    def test_t_end_zero(self, monkeypatch):
        built = []

        class Counting(ClosedLoop):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ClosedLoop", Counting)
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0 s"},
            events=[]))
        for reduced in (False, True):
            traj, diag, report = run_scenario(scn, reduced=reduced)
            assert traj.n_samples == 1
            assert traj.t[0] == 0.0
            assert np.isfinite(diag).all()
            assert report["margins"]["epoch0"]["price_margin"] > 0
        assert built == []      # no era ran, so no closed loop is assembled

    def test_stability_guard(self):
        with pytest.raises(ScenarioError, match="stability"):
            Scenario.from_dict(ring4_dict(
                integrator={"method": "rk4", "dt": "1e-4 s",
                            "t_end": "0.01 s"},
                events=[]))

    def test_sample_grid_guard(self):
        with pytest.raises(ScenarioError, match="integer multiple"):
            Scenario.from_dict(ring4_dict(
                integrator={"method": "rk4", "dt": "3e-6 s",
                            "t_end": "0.01 s"},
                events=[], output={"sample_period": "1e-5 s"}))

    @pytest.mark.parametrize("method", ["rk4", "pwa"])
    def test_t_end_off_sample_grid(self, method):
        with pytest.raises(ScenarioError, match="t_end 0.0026 not on the "
                                                "sample grid"):
            Scenario.from_dict(ring4_dict(
                integrator={"method": method, "dt": "1e-5 s",
                            "t_end": 0.0026},
                events=[], output={"sample_period": "1e-3 s"},
                initial={"plant": "zeros", "controller": "zeros"}))

    def test_event_off_grid_guard(self):
        with pytest.raises(ScenarioError, match="grid"):
            Scenario.from_dict(ring4_dict(
                integrator={"method": "rk4", "dt": "1e-5 s",
                            "t_end": "0.01 s"},
                events=[{"time": 0.00150001, "d_IL": 1.0}],
                output={"sample_period": "1e-3 s"}))

    def test_replaced_integrator_checked_before_solving(self):
        """A replaced ``integrator`` is refused where the Scenario is
        made, so no run starts on it: an off-grid ``t_end``, and a
        ``dt`` over ring4's stability bound of 6e-5 s."""
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[]))
        for change, message in (
                ({"t_end": 0.0026}, "t_end 0.0026 not on the sample grid "
                                    "(sample_period 0.001)"),
                ({"dt": 1e-4}, "dt=0.0001 violates the line-dynamics "
                               "stability bound 6e-05; refusing to start")):
            with pytest.raises(ScenarioError) as ei:
                replace(scn, integrator=replace(scn.integrator, **change))
            assert ei.value.errors == [message]

    def test_determinism_byte_identical(self, tmp_path, short_scenario_dict):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(Scenario.from_dict(short_scenario_dict), outdir=str(out1))
        run_scenario(Scenario.from_dict(short_scenario_dict), outdir=str(out2))
        assert (out1 / "timeseries.csv").read_bytes() == \
            (out2 / "timeseries.csv").read_bytes()

    def test_custom_controller_init(self):
        d = ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.001 s"},
            events=[],
            initial={"plant": "zeros",
                     "controller": {"upsilon": [1, 2, 3, 4]}})
        scn = Scenario.from_dict(d)
        traj, _, _ = run_scenario(scn)
        assert np.array_equal(traj.y[0][12:16], [1, 2, 3, 4])

    def test_kernel_value_error_not_relabelled(self, monkeypatch):
        def broken(*args):
            raise ValueError("kernel failure")

        monkeypatch.setattr(_kernels, "rk4_affine", broken)
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.001 s"},
            events=[]))
        with pytest.raises(ValueError, match="kernel failure") as ei:
            run_scenario(scn)
        assert ei.type is ValueError

    def test_nu_sum_guard(self):
        d = ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.001 s"},
            events=[], initial={"plant": "zeros",
                                "controller": {"nu": [1, 0, 0, 0]}})
        with pytest.raises(ScenarioError, match="nu must sum to zero"):
            Scenario.from_dict(d)


class TestDiagnostics:
    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    @pytest.mark.parametrize("method", ["rk4", "pwa"])
    def test_rows_are_per_row_recomputation(self, method, reduced):
        """Each era's rows, taken in one call of each diagnostic, are the
        rows the diagnostics give one sample at a time, bit for bit."""
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": method, "dt": "1e-5 s", "t_end": "0.02 s"},
            events=[{"time": "0.01 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}]))
        traj, diag, _ = run_scenario(scn, reduced=reduced)
        lay = engine.StateLayout(scn.games[0], reduced)
        cp = scn.controller
        assert set(traj.epoch) == {0, 1}
        for k in range(traj.n_samples):
            g = scn.games[traj.epoch[k]]
            plant, cs = lay.unpack(traj.y[k])
            lines = kkt_residual(cs, g, cp).lines
            p = g.plant
            viol = [np.maximum(lo - v, 0).max() + np.maximum(v - hi, 0).max()
                    for v, lo, hi in ((plant.V, p.V_min, p.V_max),
                                      (plant.I_l, p.Il_min, p.Il_max))]
            row = np.array([lines.max(), *lines, *consensus_errors(cs, g),
                            *lyapunov_diagnostics(plant, cs, g, cp), *viol])
            assert row.tobytes() == diag[k].tobytes()

    @pytest.mark.parametrize("kkt,expected", [
        ([5e-4, 2e-4, 1e-4], 7.0),           # every row below: the first
        ([5e-4, 2e-4, 2e-3], None),          # the last row above
        ([5e-4], 7.0),                       # one-row era
        ([2e-3], None),
        ([5e-4, 1e-3, 2e-4, 1e-4], 9.0),     # below, at, below, below
    ])
    def test_convergence_time(self, kkt, expected):
        """The sample after the last one at or above the threshold."""
        t = 7.0 + np.arange(len(kkt))
        assert engine._convergence_time(t, np.array(kkt), 1e-3) == expected


class TestPlantTracksEquilibrium:
    def test_constant_input_converges_to_algebraic_solve(self, ref_scenario,
                                                         ref_solution):
        """Open-loop grid under frozen control relaxes to the linear solve."""
        p = ref_scenario.plant
        topo = ref_scenario.topo
        u_star = ref_solution.u_star
        eq = gt.plant_equilibrium(u_star, p, topo)

        def rhs(y):
            state = gt.PlantState(y[..., :4], y[..., 4:8], y[..., 8:12])
            d = gt.plant_rhs(state, u_star, p, topo)
            return np.concatenate([d.I, d.V, d.I_l], axis=-1)

        y0 = eq.to_vector() + 0.1
        cfg = gt.IntegratorConfig(method="rk4", dt=2e-5, t_end=1.0,
                                  sample_period=0.5)
        traj = rk4_run(*_kernels.affine_probe(rhs, y0.size), y0, cfg)
        assert np.abs(traj.y[-1] - eq.to_vector()).max() < 1e-6


class TestCommunicationGraphOverride:
    def test_scenario_parses_comm_edges(self):
        d = ring4_dict()
        d["topology"]["comm_edges"] = [[1, 2], [2, 3], [3, 4]]
        scn = Scenario.from_dict(d)
        assert scn.comm_topo is not None
        assert scn.comm_topo.m == 3
        g = scn.games[0]
        assert g.comm_topo.m == 3 and g.topo.m == 4

    def test_controller_uses_comm_graph(self, ref_scenario):
        path = gt.MicrogridTopology(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 3])
        g_ring = ref_scenario.games[0]
        g_path = gt.build_game(ref_scenario.topo, ref_scenario.plant,
                               ref_scenario.price, ref_scenario.weights,
                               ref_scenario.penalties, comm_topo=path)
        cs = gt.ControllerState.zeros(g_ring)
        cs.upsilon = np.array([1.0, 0.0, 0.0, 0.0])
        d_ring = controller_rhs(cs, np.zeros(4), g_ring,
                                ref_scenario.controller)
        d_path = controller_rhs(cs, np.zeros(4), g_path,
                                ref_scenario.controller)
        assert not np.allclose(d_ring.upsilon, d_path.upsilon)

    def test_comm_graph_node_count_must_match(self, ref_scenario):
        small = gt.MicrogridTopology(2, [(1, 2)], [1])
        with pytest.raises(ValueError, match="same node set"):
            gt.build_game(ref_scenario.topo, ref_scenario.plant,
                          ref_scenario.price, ref_scenario.weights,
                          ref_scenario.penalties, comm_topo=small)


class TestRuntimeFailure:
    def test_overflowing_state_aborts_with_diagnostic(self):
        d = ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[],
            initial={"plant": {"I": [0, 0, 0, 0], "V": [0, 0, 0, 0],
                               "I_l": [1e308, 0, 0, 0]},
                     "controller": "zeros"})
        scn = Scenario.from_dict(d)
        with pytest.raises(gt.IntegrationError, match="non-finite"):
            run_scenario(scn)

    def test_non_finite_diagnostics_fail_before_writing(self, tmp_path):
        """``pwa`` keeps this start's states finite, but its energies
        overflow from the first row: the run fails and writes no file."""
        d = ring4_dict(
            integrator={"method": "pwa", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[],
            initial={"plant": {"I": [0, 0, 0, 0], "V": [0, 0, 0, 0],
                               "I_l": [1e308, 0, 0, 0]},
                     "controller": "zeros"})
        scn = Scenario.from_dict(d)
        with pytest.raises(gt.IntegrationError) as ei:
            run_scenario(scn, outdir=tmp_path)
        assert str(ei.value) == "non-finite diagnostics E_b, E_r, first at t=0"
        assert ei.value.t_last == 0.0
        I_l = engine.StateLayout(scn.games[0]).plant["I_l"]
        assert ei.value.y_last[I_l][0] == 1e308
        assert list(tmp_path.iterdir()) == []

    def test_failed_era_solve_exported_as_error(self, tmp_path,
                                                monkeypatch):
        """An era whose equilibrium solve raises is exported as its
        error; the rest of summary.json is what a clean run writes."""
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.002 s"},
            events=[{"time": "0.001 s", "d_IL": "1 A"}]))
        run_scenario(scn, outdir=tmp_path / "clean")
        solve_vi = engine.solve_vi

        def failing(g):
            if g is scn.games[1]:
                raise RuntimeError("no certified solution")
            return solve_vi(g)

        monkeypatch.setattr(engine, "solve_vi", failing)
        run_scenario(scn, outdir=tmp_path / "failed")
        clean, failed = (json.loads((tmp_path / d / "summary.json")
                                    .read_text()) for d in ("clean", "failed"))
        assert failed["equilibrium"]["epoch1"] == {
            "error": "no certified solution"}
        clean["equilibrium"]["epoch1"] = failed["equilibrium"]["epoch1"]
        assert failed == clean
        assert (tmp_path / "failed" / "timeseries.csv").read_bytes() == \
            (tmp_path / "clean" / "timeseries.csv").read_bytes()


class TestImportCost:
    def test_parse_leaves_scipy_unloaded(self):
        """Importing the package and parsing ring4 load no scipy module;
        that is the set-up the benchmark's ``setup_s`` times."""
        src = os.path.dirname(os.path.dirname(gt.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, gridtrade\n"
                f"gridtrade.Scenario.from_file({str(RING4_FILE)!r})\n"
                "print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


def null_paths(tree, path=()):
    """Key paths of the null leaves of a JSON tree."""
    if tree is None:
        return {path}
    items = tree.items() if isinstance(tree, dict) \
        else enumerate(tree) if isinstance(tree, list) else ()
    return set().union(*(null_paths(v, path + (k,)) for k, v in items))


class TestReducedRun:
    def test_smoke_and_columns(self, tmp_path):
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[]))
        traj, diag, report = run_scenario(scn, outdir=str(tmp_path),
                                          reduced=True)
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 1 + 12 + 84 + 14
        assert np.isfinite(traj.y).all()

    @pytest.fixture(scope="class")
    def reduced_run(self, tmp_path_factory):
        """A reduced ring4 run across a load step, with its outputs."""
        out = tmp_path_factory.mktemp("reduced")
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.05 s"},
            events=[{"time": "0.025 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}]))
        return scn, out, run_scenario(scn, outdir=str(out), reduced=True)

    def test_estimator_entries_null(self, reduced_run, tmp_path):
        """The reduced run writes null for the estimator's entries, which
        its model holds at 0 by construction, and for nu_drift; a full run
        of the same scenario writes none of these nulls."""
        scn, out, _ = reduced_run
        run_scenario(scn, outdir=str(tmp_path))
        reduced, full = (
            null_paths(json.loads((d / "summary.json").read_text()))
            for d in (out, tmp_path))
        expected = {("residuals", at, k)
                    for at in ("final", "pre_event_final")
                    for k in ("kkt_line1", "kkt_line2", "upsilon_spread",
                              "E_b")}
        expected |= {("consensus", "upsilon_spread"),
                     ("lyapunov", "E_b_first"), ("lyapunov", "E_b_last"),
                     ("checks", "upsilon_consensus"),
                     ("conservation", "nu_drift")}
        assert reduced - full == expected
        assert not full & expected

    def test_theta_drift_measured(self, reduced_run):
        """theta_drift is the per-second drift of theta's column sums,
        recomputed here from the CSV; the reduced state has no nu."""
        _, out, (traj, _, report) = reduced_run
        lines = (out / "timeseries.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        cols = [j for j, c in enumerate(header)
                if c.startswith("ctrl.theta.")]
        theta = rows[:, cols].reshape(len(rows), 4, 8)
        sums = theta[:, 0] + theta[:, 1] + theta[:, 2] + theta[:, 3]
        drift = np.abs(sums - sums[0]).max(axis=1) \
            / np.maximum(rows[:, 0], 1.0)
        cons = report["conservation"]
        assert cons["theta_drift"] == drift.max()
        assert 0.0 < cons["theta_drift"] < 1e-9
        assert cons["nu_drift"] is None
        summary = json.loads((out / "summary.json").read_text())
        assert summary["conservation"]["nu_drift"] is None
        assert summary["checks"]["conservation"]

    def test_perturbed_theta_fails_conservation(self, reduced_run):
        scn, _, (traj, diag, _) = reduced_run
        lay = engine.StateLayout(scn.games[0], reduced=True)
        y = traj.y.copy()
        y[-1, lay.ctrl["theta"].start] += 1e-6
        report = engine._build_report(scn, replace(traj, y=y), diag, lay)
        assert report["conservation"]["theta_drift"] > 1e-9
        assert report["checks"]["conservation"] is False


class TestFastSettlingScalesWithEps:
    def test_settling_time_ratio(self, ref_attractor):
        """Estimator offset decays on the eps time scale when the slow
        subsystem starts at rest."""
        eq = ref_attractor

        def settle_time(eps):
            cs = eq.controller
            d = ring4_dict(
                controller={"eps_fast": eps, "eps_u": 0.1},
                integrator={"method": "rk4", "dt": "1e-5 s",
                            "t_end": "0.2 s"},
                events=[], output={"sample_period": "1e-4 s"},
                initial={
                    "plant": {"I": list(eq.plant.I), "V": list(eq.plant.V),
                              "I_l": list(eq.plant.I_l)},
                    "controller": {
                        "upsilon": list(cs.upsilon
                                        + np.array([40.0, 0, 0, 0])),
                        "nu": list(cs.nu), "u": list(cs.u),
                        "xhat": list(cs.xhat),
                        "lam": cs.lam.ravel().tolist(),
                        "theta": cs.theta.ravel().tolist(),
                        "gamma": list(cs.gamma)}})
            scn = Scenario.from_dict(d)
            traj, _, _ = run_scenario(scn)
            g = scn.games[0]
            loop = ClosedLoop(g, scn.controller)
            lay = g.layout
            for k in range(traj.n_samples):
                _, s = loop.unpack(traj.y[k])
                if np.abs(s.upsilon - s.xhat[lay.ix_I].sum()).max() < 0.4:
                    return traj.t[k]
            return np.inf

        t_fast = settle_time(0.001)
        t_slow = settle_time(0.01)
        assert 4.0 <= t_slow / t_fast <= 25.0


class TestAssemblyMemory:
    def test_ring16_peak_is_one_operator(self):
        """A 16-DGU loop's assembly allocates its dense M and little else:
        the probe's blocks stay small next to M's 11.2 MB."""
        scn = ring_scenario(16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loop = ClosedLoop(scn.games[0], scn.controller)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * loop.M.nbytes


class TestOneOperatorAtATime:
    """``run_scenario`` holds one load era's closed loop (and its dense
    ``M``) at a time: no other recorded loop or ``M`` is alive while a
    loop is assembled or propagates."""

    @pytest.mark.parametrize("method,reduced", [
        ("rk4", False), ("pwa", False), ("rk4", True)])
    def test_previous_era_released(self, monkeypatch, method, reduced):
        refs = []    # (loop, M) weak references, one pair per assembly

        def assert_alone(current=None):
            for loop_ref, M_ref in refs:
                if current is None or loop_ref() is not current:
                    assert loop_ref() is None and M_ref() is None

        class Recording(ClosedLoop):
            def __init__(self, *args, **kwargs):
                assert_alone()
                super().__init__(*args, **kwargs)
                refs.append((weakref.ref(self), weakref.ref(self.M)))

            def run_segment(self, *args):
                assert_alone(self)
                return super().run_segment(*args)

            def flow(self):
                assert_alone(self)
                return super().flow()

        monkeypatch.setattr(engine, "ClosedLoop", Recording)
        scn = Scenario.from_dict(ring4_dict(
            integrator={"method": method, "dt": "1e-5 s", "t_end": "0.003 s"},
            events=[{"time": "0.001 s", "d_IL": "1 A"},
                    {"time": "0.002 s", "d_ZL": "1 Ohm"}],
            output={"sample_period": "1e-3 s"}))
        traj, diag, _ = run_scenario(scn, reduced=reduced)
        assert len(refs) == 3
        assert list(traj.epoch) == [0, 0, 1, 1, 2, 2]
        assert np.isfinite(diag).all()
