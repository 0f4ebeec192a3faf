"""Spans around the public calls into each gridtrade layer.

:class:`Tracer` installs wrappers from the benchmark's side: it replaces
the module attributes through which ``run_scenario`` and ``solve_vi``
reach each layer, records one span (name, start, end, parent) per call
and a few counts read from the call's arguments or result, and puts the
originals back on exit.  Spans are kept in memory and written out at the
end of the run.  No file of the program is changed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

from gridtrade import _kernels, engine, oracle, pwa

# Per-layer metrics: (name, unit), in the order they are reported.
PER_LAYER = (
    ("engine.parse_s", "s"),
    ("game.build_game_s", "s"),
    ("game.build_game_calls", "count"),
    ("engine.assemble_s", "s"),
    ("engine.assemble_calls", "count"),
    ("kernels.rk4_s", "s"),
    ("kernels.rk4_steps", "count"),
    ("kernels.rk4_us_per_step", "us"),
    ("pwa.propagate_s", "s"),
    ("pwa.switches", "count"),
    ("pwa.expm_calls", "count"),
    ("pwa.expm_s", "s"),
    ("oracle.solve_vi_s", "s"),
    ("oracle.solve_vi_calls", "count"),
    ("oracle.games_solved", "count"),
    ("oracle.extragradient_iters", "count"),
    ("oracle.recover_s", "s"),
    ("kernels.dykstra_s", "s"),
    ("kernels.dykstra_calls", "count"),
    ("controller.kkt_residual_s", "s"),
    ("oracle.lyapunov_s", "s"),
    ("engine.diag_rows", "count"),
    ("engine.csv_write_s", "s"),
    ("engine.csv_bytes", "bytes"),
    ("engine.run_self_s", "s"),
    ("trace.overhead_s", "s"),
)


def game_key(g) -> str:
    """Digest of the numbers that define a game, to count distinct games."""
    p, w = g.plant, g.weights
    parts = [g.constraints.A_full, g.constraints.s_A_full, g.x_ref,
             p.V_min, p.V_max, p.Il_min, p.Il_max, p.u_ref, w.r, w.alpha_u,
             w.alpha_I, w.alpha_V, g.alpha_Il_edge, g.penalties.rho_V,
             g.rho_Il_edge, np.array([g.price.l, g.price.p_r])]
    h = hashlib.sha1()
    for a in parts:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder with wrappers around the layer calls.

    Use as a context manager: the wrappers are installed on entry and
    removed on exit.  :meth:`call` spans a call the benchmark makes
    itself; the benchmark's own solves go through ``engine.solve_vi`` and
    are spanned like the engine's.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.games = set()
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    # -- wrappers ------------------------------------------------------------
    def _patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanned call; ``after(arguments,
        result)`` records counts from the bound arguments and the result."""
        orig = getattr(owner, attr)
        sig = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def __enter__(self):
        self._patch(engine, "build_game", "game.build_game")
        self._patch(engine, "ClosedLoop", "engine.assemble")
        self._patch(_kernels, "rk4_affine", "kernels.rk4", self._stepped)
        self._patch(pwa.PiecewiseAffineFlow, "propagate", "pwa.propagate")
        self._patch(pwa, "expm", "pwa.expm")
        self._patch(engine, "solve_vi", "oracle.solve_vi", self._solved)
        self._patch(oracle, "recover_multipliers", "oracle.recover")
        self._patch(_kernels, "dykstra_project", "kernels.dykstra")
        self._patch(engine, "kkt_residual", "controller.kkt_residual")
        self._patch(engine, "lyapunov_diagnostics", "oracle.lyapunov")
        self._patch(engine, "write_csv", "engine.csv_write", self._written)
        self._patch_switches()
        return self

    def _patch_switches(self):
        """Count located regime switches: the flow's counter before and
        after each ``propagate``."""
        spanned = pwa.PiecewiseAffineFlow.propagate
        c = self.counts

        def propagate(flow, *args, **kwargs):
            before = flow.switches
            try:
                return spanned(flow, *args, **kwargs)
            finally:
                c["pwa.switches"] += flow.switches - before

        pwa.PiecewiseAffineFlow.propagate = propagate

    def _stepped(self, args, _):
        self.counts["kernels.rk4_steps"] += int(args["steps"])

    def _written(self, args, _):
        self.counts["engine.csv_bytes"] += os.path.getsize(args["path"])

    def _solved(self, args, sol):
        self.counts["oracle.extragradient_iters"] += int(sol.iterations)
        self.games.add(game_key(args["g"]))

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- results -------------------------------------------------------------
    def _totals(self):
        dur = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _ in self.spans:
            dur[name] += end - start
            calls[name] += 1
        return dur, calls

    def self_time(self, name):
        """Summed duration of the ``name`` spans minus their children's."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(end - start - child[i]
                   for i, (n, start, end, _) in enumerate(self.spans)
                   if n == name)

    def metrics(self, diag_rows, traced_run_s, untraced_run_s):
        """Per-layer metrics of the traced calls (one traced round)."""
        dur, calls = self._totals()
        c = self.counts
        steps = c["kernels.rk4_steps"]
        return {
            "engine.parse_s": dur["engine.parse"],
            "game.build_game_s": dur["game.build_game"],
            "game.build_game_calls": calls["game.build_game"],
            "engine.assemble_s": dur["engine.assemble"],
            "engine.assemble_calls": calls["engine.assemble"],
            "kernels.rk4_s": dur["kernels.rk4"],
            "kernels.rk4_steps": steps,
            "kernels.rk4_us_per_step":
                1e6 * dur["kernels.rk4"] / steps if steps else 0.0,
            "pwa.propagate_s": dur["pwa.propagate"],
            "pwa.switches": c["pwa.switches"],
            "pwa.expm_calls": calls["pwa.expm"],
            "pwa.expm_s": dur["pwa.expm"],
            "oracle.solve_vi_s": dur["oracle.solve_vi"],
            "oracle.solve_vi_calls": calls["oracle.solve_vi"],
            "oracle.games_solved": len(self.games),
            "oracle.extragradient_iters": c["oracle.extragradient_iters"],
            "oracle.recover_s": dur["oracle.recover"],
            "kernels.dykstra_s": dur["kernels.dykstra"],
            "kernels.dykstra_calls": calls["kernels.dykstra"],
            "controller.kkt_residual_s": dur["controller.kkt_residual"],
            "oracle.lyapunov_s": dur["oracle.lyapunov"],
            "engine.diag_rows": diag_rows,
            "engine.csv_write_s": dur["engine.csv_write"],
            "engine.csv_bytes": c["engine.csv_bytes"],
            "engine.run_self_s": self.self_time("engine.run"),
            "trace.overhead_s": traced_run_s - untraced_run_s,
        }

    def write(self, path):
        """Spans as JSON: name, start and end (s from the first span),
        parent index and self time."""
        t0 = self.spans[0][1] if self.spans else 0.0
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "self": e - s - child[i]}
                for i, (n, s, e, p) in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counts": dict(self.counts)}, f)
            f.write("\n")
