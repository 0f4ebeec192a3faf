"""The benchmark against the package it imports and wraps.

``bench/run.py`` imports gridtrade names, some of them inside functions,
and ``bench/tracing.py`` replaces module attributes of gridtrade by name
to time each layer.  A renamed name or a changed call would otherwise
surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gridtrade import _kernels, engine, oracle, pwa
from gridtrade.controller import ControllerState

from conftest import ring4_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def resolve(dotted):
    """The object a dotted name such as ``gridtrade.engine.csv_header``
    names; AttributeError or ImportError when it names nothing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[k])
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:k + 1]))
    return obj


def package_names(tree):
    """Dotted names of the gridtrade objects a bench module imports or
    reaches through an imported name's attributes, and for each call of
    one of them its (dotted name, positional count, keyword names)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "gridtrade":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "gridtrade":
                    # ``import gridtrade.x`` binds gridtrade, ``as y`` binds x
                    bound[a.asname or "gridtrade"] = \
                        a.name if a.asname else "gridtrade"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    names = set(bound.values())
    calls = []
    for node in ast.walk(tree):
        name = dotted(node) if isinstance(node, ast.Attribute) else None
        if name:
            names.add(name)
        if isinstance(node, ast.Call) and (name := dotted(node.func)) and \
                not any(isinstance(a, ast.Starred) for a in node.args) and \
                all(k.arg for k in node.keywords):
            calls.append((name, len(node.args),
                          [k.arg for k in node.keywords]))
    return names, calls


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_bench_names_resolve(path):
    """Every gridtrade name a bench module imports, at module level or
    inside a function, resolves, and every direct call of one binds."""
    names, calls = package_names(ast.parse(path.read_text()))
    for name in sorted(names):
        resolve(name)
    for name, n_args, keywords in calls:
        inspect.signature(resolve(name)).bind(
            *range(n_args), **dict.fromkeys(keywords))


def test_bench_call_shapes():
    """The calls the benchmark makes on instances or through a wrapper,
    and the arguments its tracer reads by name."""
    inspect.signature(pwa.PiecewiseAffineFlow.propagate).bind(
        "flow", "y", "n_samples", "sample_period", "dt")
    inspect.signature(engine.Scenario.game).bind("scn", "plant_params")
    inspect.signature(ControllerState.from_vector).bind("y", "g")
    inspect.signature(engine.run_scenario).bind("scn", outdir=None)
    assert "steps" in inspect.signature(_kernels.rk4_affine).parameters
    assert "path" in inspect.signature(engine.write_csv).parameters
    assert "g" in inspect.signature(engine.solve_vi).parameters
    # what the benchmark reads off a parsed Scenario and its era-0 inputs,
    # which are instance attributes that test_bench_names_resolve cannot see
    scn = engine.Scenario.from_dict(ring4_dict())
    for obj, names in (
            (scn, "plant topo weights price events integrator controller "
                  "games"),
            (scn.plant, "n m R Z_L I_L R_l V_min V_max V_ref I_ref u_ref "
                        "Il_min Il_max Il_ref"),
            (scn.topo, "n m edges managers"),
            (scn.weights, "r alpha_u alpha_I alpha_V alpha_Il"),
            (scn.price, "l p_r"),
            (scn.events[0], "time d_IL d_ZL"),
            (scn.integrator, "dt t_end sample_period")):
        for name in names.split():
            getattr(obj, name)


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_spans_a_short_run(tmp_path):
    tracing = load_tracing()
    scn = engine.Scenario.from_dict(ring4_dict(
        integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "2e-3 s"},
        events=[]))
    originals = vars(engine).copy()
    with tracing.Tracer() as tracer:
        _, diag, _ = engine.run_scenario(scn, outdir=tmp_path)
    metrics = tracer.metrics(len(diag), 0.0, 0.0)
    assert metrics["kernels.rk4_steps"] == 200
    assert metrics["engine.csv_bytes"] > 0
    assert metrics["engine.assemble_calls"] == 1
    # one span of each diagnostic for the one load era's 3 rows
    names = [span[0] for span in tracer.spans]
    assert len(diag) == 3
    assert names.count("controller.kkt_residual") == 1
    assert names.count("oracle.lyapunov") == 1
    # every wrapper is taken out again
    assert all(getattr(engine, k) is v for k, v in originals.items())


def test_tracer_spans_a_pwa_run(tmp_path):
    """The ``pwa`` branch of the run under the tracer: one assembly, one
    ``propagate`` span and one span of each diagnostic per load era, the
    exponentials counted, and every wrapper taken out again."""
    tracing = load_tracing()
    scn = engine.Scenario.from_dict(ring4_dict(
        integrator={"method": "pwa", "dt": "1e-5 s", "t_end": "2e-3 s"},
        events=[{"time": "1e-3 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}]))
    owners = (engine, _kernels, oracle, pwa, pwa.PiecewiseAffineFlow)
    originals = [(owner, dict(vars(owner))) for owner in owners]
    with tracing.Tracer() as tracer:
        _, diag, _ = engine.run_scenario(scn, outdir=tmp_path)
    metrics = tracer.metrics(len(diag), 0.0, 0.0)
    eras = len(scn.games)
    assert eras == 2
    assert metrics["engine.assemble_calls"] == eras
    names = [span[0] for span in tracer.spans]
    assert names.count("pwa.propagate") == eras
    assert names.count("controller.kkt_residual") == eras
    assert names.count("oracle.lyapunov") == eras
    assert metrics["pwa.expm_calls"] > 0
    assert metrics["kernels.rk4_steps"] == 0
    for owner, before in originals:
        assert all(vars(owner)[k] is v for k, v in before.items())
