"""The benchmark's trace mode against the package it wraps.

``bench/tracing.py`` replaces module attributes of gridtrade by name to
time each layer; a renamed attribute would otherwise surface only when
the benchmark runs with ``--trace 1``.
"""

import importlib.util
from pathlib import Path

from gridtrade import engine
from gridtrade.scenarios import ring4_dict

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_spans_a_short_run(tmp_path):
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
    # one span of each per-row diagnostic on each of the 3 rows
    names = [span[0] for span in tracer.spans]
    assert len(diag) == 3
    assert names.count("controller.kkt_residual") == 3
    assert names.count("oracle.lyapunov") == 3
    # every wrapper is taken out again
    assert all(getattr(engine, k) is v for k, v in originals.items())
