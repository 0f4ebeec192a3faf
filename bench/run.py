"""gridtrade benchmark: three workloads timed end to end, or layer by layer.

    python3 bench/run.py --workload ring4-simulate --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  A run repeats whole rounds of the workload until
``--seconds`` would be exceeded by one more round (at least one round),
checks every output, runs each check's self-test on corrupted copies of
the first round's outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped:
``setup_s`` (median of fresh interpreters importing gridtrade and parsing
the workload's scenario), ``run_s`` (median ``run_scenario``), ``solve_s``
(median certified ``solve_vi``) and ``peak_rss_mb``.  ``--trace 1`` runs
each round untraced and then traced, and reports the per-layer metrics of
the traced round (see ``tracing.py``) with ``trace.overhead_s``.  Outputs
and spans go to ``bench/out/<workload>/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# rk4 rows compared with the exact flow: up to the load step on ring4,
# the first 10 ms of the black start (its maps are 1185 x 1185)
PREFIX_SAMPLES = {"ring4-simulate": 100, "ring16-blackstart": 10}
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def _setup_once(workload, seed):
    """Wall time of a fresh interpreter that imports gridtrade and parses
    and validates the workload's scenario."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import gridtrade, workloads; gridtrade.Scenario.from_dict("
            f"workloads.scenario_tree({workload!r}, {seed}))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return took


class Bench:
    """One workload's rounds and the operations they attempted."""

    def __init__(self, workload, seed):
        from gridtrade import engine

        self.workload = workload
        self.tree = workloads.scenario_tree(workload, seed)
        self.outdir = OUT / workload
        self.attempted = 0
        self.failed = 0
        # ring16-blackstart never calls the oracle; its solve_s times the
        # certified solve of the ring4 reference game
        self.ref_scn = (engine.Scenario.from_dict(workloads.ring4_tree())
                        if workload == "ring16-blackstart" else None)

    def _op(self, fn, *args, **kwargs):
        """One attempted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the run reports and goes on
            self.failed += 1
            traceback.print_exc()
            return None

    def solve_games(self, scn):
        """(game, scenario that defines it, load-step era) of each certified
        solve: both eras on ring4-settle, the pre-step game on
        ring4-simulate and the ring4 reference's on ring16-blackstart."""
        from gridtrade import apply_load_step

        if self.ref_scn is not None:
            return [(self.ref_scn.game(), self.ref_scn, 0)]
        games = [(scn.game(), scn, 0)]
        if self.workload == "ring4-settle":
            ev = scn.events[0]
            stepped = apply_load_step(scn.plant, ev.d_IL, ev.d_ZL)
            games.append((scn.game(stepped), scn, 1))
        return games

    def round(self, tracer=None):
        """One round: parse, certified solve(s), then the simulation."""
        from gridtrade import engine

        call = tracer.call if tracer else (lambda _, fn, *a, **k: fn(*a, **k))
        scn = self._op(call, "engine.parse", engine.Scenario.from_dict,
                       self.tree)
        if scn is None:
            return None
        solves = []
        for g, source, era in self.solve_games(scn):
            t0 = time.perf_counter()
            sol = self._op(engine.solve_vi, g)
            if sol is not None:
                solves.append((time.perf_counter() - t0, g, source, era, sol))
        outdir = str(self.outdir) if self.workload == "ring4-simulate" else None
        t0 = time.perf_counter()
        res = self._op(call, "engine.run", engine.run_scenario, scn,
                       outdir=outdir)
        run_s = time.perf_counter() - t0
        return {"scn": scn, "solves": solves, "run_s": run_s, "run": res}


# -- checks ------------------------------------------------------------------
class Checker:
    """Runs the checks on every round and the self-tests once."""

    def __init__(self, bench):
        self.bench = bench
        self.failures = []
        self.accepted = []
        self.measures = {}
        self.selftested = False
        self._exact = {}
        self._attractors = {}

    def _check(self, fn, selftest, *args):
        import checks

        try:
            measure = fn(*args)
        except checks.CheckError as err:
            self.failures.append(f"{fn.__name__}: {err}")
            return
        if measure is not None:
            self.measures.setdefault(fn.__name__, []).append(measure)
        if not self.selftested:
            self.accepted += checks.run_selftests(fn, selftest, *args)

    def _exact_prefix(self, loop, y0, cfg, samples):
        key = y0.tobytes()
        if key not in self._exact:
            flow = loop.flow()
            rows, _ = flow.propagate(y0.copy(), samples, cfg.sample_period,
                                     cfg.dt)
            self._exact[key] = (rows, flow.switches)
        return self._exact[key]

    def _attractor(self, g, cp, era):
        from gridtrade import closed_loop_equilibrium

        if era not in self._attractors:
            self._attractors[era] = closed_loop_equilibrium(g, cp)
        return self._attractors[era]

    def check_round(self, rnd):
        import checks as c
        from gridtrade import (ClosedLoop, ControllerState, apply_load_step,
                               kkt_residual)
        from gridtrade.engine import csv_header

        wl = self.bench.workload
        scn = rnd["scn"]
        for _, g, source, era, sol in rnd["solves"]:
            I, V, Il = g.layout.split(sol.x_star)
            self._check(c.check_equilibrium, c.selftest_equilibrium,
                        c.Grid(source, era), sol.u_star, I, V, Il,
                        sol.lambda_star, sol.gamma_star)
        if rnd["run"] is None:
            return
        traj, diag, _ = rnd["run"]
        lay = c.StateLayout(scn.topo.n, scn.topo.m)
        self._check(c.check_rows, c.selftest_rows, traj.t, traj.y, lay)
        cfg = scn.integrator
        if wl in PREFIX_SAMPLES:
            k = PREFIX_SAMPLES[wl]
            loop = ClosedLoop(scn.game(), scn.controller)
            exact, switches = self._exact_prefix(loop, traj.y[0], cfg, k)
            self._check(c.check_prefix, c.selftest_prefix, traj.y[1:k + 1],
                        exact, switches)
        if wl == "ring4-simulate":
            with open(self.bench.outdir / "summary.json") as f:
                summary = json.load(f)
            with open(self.bench.outdir / "timeseries.csv") as f:
                text = f.read()
            eq = summary["equilibrium"]
            self._check(c.check_start_equilibrium,
                        c.selftest_start_equilibrium, traj.y[0], lay,
                        c.Grid(scn, 0), eq["epoch0"]["u_star"])
            rows = round(cfg.t_end / cfg.sample_period) + 1 + len(scn.events)
            self._check(c.check_csv, c.selftest_csv, text,
                        csv_header(scn.game()), traj.t, traj.y, diag, rows)
            for era in range(len(scn.events) + 1):
                e = eq[f"epoch{era}"]
                self._check(c.check_equilibrium, c.selftest_equilibrium,
                            c.Grid(scn, era), e["u_star"], e["I_star"],
                            e["V_star"], e["Il_star"], e["lambda_shared"],
                            e["gamma"])
        if wl == "ring4-settle":
            plants = [scn.plant]
            for ev in scn.events:
                plants.append(apply_load_step(plants[-1], ev.d_IL, ev.d_ZL))
            for era, p in enumerate(plants):
                g = scn.game(p)
                y_end = traj.y[traj.epoch == era][-1]
                cs = ControllerState.from_vector(y_end[lay.upsilon.start:], g)
                kkt = kkt_residual(cs, g, scn.controller).max
                eq = self._attractor(g, scn.controller, era)
                self._check(c.check_settled, c.selftest_settled, y_end, lay,
                            g.weights.r, eq, kkt)
        self.selftested = True


def _median(values):
    return statistics.median(values) if values else None


def run(workload, seed, seconds, traced):
    import tracing as tr

    bench = Bench(workload, seed)
    os.makedirs(bench.outdir, exist_ok=True)
    setup = []
    if not traced:
        for _ in range(SETUP_REPEATS):
            took = bench._op(_setup_once, workload, seed)
            if took is not None:
                setup.append(took)

    rounds, layer_rounds, tracer = [], [], None
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rnd = bench.round()
        rounds.append(rnd)
        if traced:
            with tr.Tracer() as tracer:
                trnd = bench.round(tracer)
            rounds.append(trnd)
            if rnd and trnd and rnd["run"] and trnd["run"]:
                layer_rounds.append(tracer.metrics(
                    trnd["run"][1].shape[0], trnd["run_s"], rnd["run_s"]))
        took = time.perf_counter() - r0
        if time.perf_counter() - start + took > seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.write(bench.outdir / "spans.json")

    checker = Checker(bench)
    for rnd in rounds:
        if rnd is not None:
            checker.check_round(rnd)
    for name, values in checker.measures.items():
        print(f"{name}: worst {max(values):.3g}")
    for msg in checker.failures:
        print(f"check failed: {msg}")
    for msg in checker.accepted:
        print(f"self-test failed (corruption accepted): {msg}")
    correct = not checker.failures and not checker.accepted

    if traced:
        metrics = {name: {"value": _median([r[name] for r in layer_rounds]),
                          "unit": unit} for name, unit in tr.PER_LAYER}
    else:
        ok = [r for r in rounds if r and r["run"]]
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "run_s": {"value": _median([r["run_s"] for r in ok]),
                      "unit": "s"},
            "solve_s": {"value": _median([s[0] for r in rounds if r
                                          for s in r["solves"]]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"no successful operation measured {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(f"{workload} seed {seed}: {len(rounds)} round(s), "
          f"BLAS threads {BLAS_THREADS}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridtrade" / "__init__.py").is_file():
        print(f"no gridtrade sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # BLAS threads are fixed before numpy loads; set-up interpreters
    # inherit them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
