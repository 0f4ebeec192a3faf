"""Command-line interface.

Subcommands: ``simulate`` (closed-loop run with CSV/JSON outputs),
``validate`` (configuration checks and each load era's penalty certificate),
``equilibrium`` (centralized solve with multiplier recovery),
``reduced`` (quasi-steady-state model run).

Exit codes: 0 ok, 1 validation failure, unwritable output (checked
before the run) or closed stdout, 2 runtime failure, 3 acceptance-check
failure.  An oracle failure exits 1 from ``validate``, 2 from the others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .engine import KKT_THRESHOLD, ScenarioError, Scenario, run_scenario
from .integrate import IntegrationError
from .oracle import closed_loop_equilibrium, game_map_matrix, solve_vi


def _load(path):
    try:
        return Scenario.from_file(path)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
    raise SystemExit(1)


def _apply_overrides(scn, args):
    """The scenario with ``--dt``, ``--t-end`` and ``--eps`` applied; a
    refused value raises ``ValueError``."""
    integ = {k: getattr(args, k) for k in ("dt", "t_end")
             if getattr(args, k) is not None}
    ctrl = {} if args.eps is None else {"eps_fast": args.eps}
    return replace(scn, integrator=replace(scn.integrator, **integ),
                   controller=replace(scn.controller, **ctrl))


def _cmd_simulate(args):
    reduced = args.command == "reduced"
    scn = _load(args.scenario)
    outdir = args.out or os.path.join("out", scn.name + ("-reduced" if reduced
                                                         else ""))
    try:
        _, _, report = run_scenario(_apply_overrides(scn, args),
                                    outdir=outdir, reduced=reduced)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except IntegrationError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    print(f"wrote {outdir}/timeseries.csv and {outdir}/summary.json")
    for c in report["convergence_times"]:
        seg = c["segment"]
        t = c["time"]
        status = f"converged at t={t:.3f} s" if t is not None \
            else "did not converge"
        print(f"segment [{seg[0]:g}, {seg[1]:g}] s: {status} "
              f"(threshold {KKT_THRESHOLD:g})")
    if args.check:
        # a reduced run gives the estimator's check as None: not judged
        failed = [k for k, v in report["checks"].items() if v is False]
        if failed:
            print("checks failed: " + ", ".join(failed))
            return 3
        print("all checks passed")
    return 0


def penalty_certificate(g, cp):
    """Penalty adequacy of game ``g`` under controller ``cp``, per box in
    ``g.boxes`` order: the force the box needs at :func:`solve_vi`'s
    equilibrium (its recovered stationarity gap, 0 when inactive; the
    penalty is exact when the cap ``g.boxes.force`` exceeds it, Han &
    Mangasarian, *Math. Programming* 17, 1979), whether the cap falls
    short or the attractor (:func:`closed_loop_equilibrium`) saturates
    it, and the attractor's relative gaps to the equilibrium in u, x and
    r_i lambda_i, as AC3 measures them.  Returns (solution, attractor,
    need, inadequate, gaps); a solve's RuntimeError propagates."""
    sol, att = solve_vi(g), closed_loop_equilibrium(g, cp)
    rec = sol.recovery
    forces = np.zeros(g.layout.size)
    forces[rec.active_lower | rec.active_upper] = rec.box_forces
    need = np.abs(forces[g.boxes.pos])
    cs = att.controller
    gaps = [float((np.abs(a - b) / np.maximum(np.abs(b), 1.0)).max())
            for a, b in ((cs.u, sol.u_star), (cs.xhat, sol.x_star),
                         (g.weights.r[:, None] * cs.lam, sol.lambda_star))]
    bad = (need >= g.boxes.force) | np.isin(att.regimes, ("below", "above"))
    return sol, att, need, bad, gaps


def _cmd_validate(args):
    scn = _load(args.scenario)
    g = scn.games[0]
    # a scenario that loads has positive margins and a managed-line partition
    print(f"price margin over peak feasible demand: {g.price_margin:.4f}")
    print("monotonicity margins per agent: "
          + ", ".join(f"{v:.4f}" for v in g.monotonicity))
    managed = scn.topo.managed_lines
    print("managed-line partition: ok "
          f"({ {i: list(v) for i, v in managed.items()} })")
    boxes = np.array([f"V{i}" for i in range(1, g.n + 1)]
                     + [f"Il{k}" for k in range(1, g.m + 1)])
    short = []
    for era, ge in enumerate(scn.games):
        sol, att, need, bad, gaps = penalty_certificate(ge, scn.controller)
        print(f"load era {era}: equilibrium solve: {sol.method}, "
              f"{sol.iterations} extragradient iterations, residual "
              f"{sol.residual:.2e}\n  box       need       cap  attractor")
        for k, box in enumerate(boxes):
            print(f"  {box:<4} {need[k]:9.2f} {ge.boxes.force[k]:9.2f}  "
                  f"{att.regimes[k]:<14} {abs(att.forces[k]):9.2f}")
        print("  attractor vs equilibrium, relative gaps: u {:.4g}, x {:.4g}, "
              "weighted multipliers {:.4g}".format(*gaps))
        short += [f"era {era} {box}" for box in boxes[bad]]
    if short:
        print("warning: penalty below its box's need or saturated at the "
              "attractor: " + ", ".join(short))
    G = game_map_matrix(g)
    mineig = float(np.linalg.eigvalsh(0.5 * (G + G.T)).min())
    print(f"min eigenvalue of the symmetrised game-map matrix: {mineig:.4f}")
    return 1 if mineig <= 0 else 0


def _cmd_equilibrium(args):
    scn = _load(args.scenario)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    g = scn.games[0]
    sol = solve_vi(g)
    rec = sol.recovery
    out = {
        "u_star": sol.u_star.tolist(),
        "x_star": sol.x_star.tolist(),
        "lambda_shared": sol.lambda_star.tolist(),
        "gamma": sol.gamma_star.tolist(),
        "method": sol.method,
        "iterations": int(sol.iterations),
        "residual": float(sol.residual),
        "converged": bool(sol.converged),
        "stationarity_residual": float(rec.residual),
        "rank_deficient": bool(rec.rank_deficient),
    }
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        lay = g.layout
        I, V, Il = lay.split(sol.x_star)
        print("u*:      " + ", ".join(f"{v:.6f}" for v in sol.u_star))
        print("I*:      " + ", ".join(f"{v:.6f}" for v in I))
        print("V*:      " + ", ".join(f"{v:.6f}" for v in V))
        print("Il*:     " + ", ".join(f"{v:.6f}" for v in Il))
        print("lambda*: " + ", ".join(f"{v:.4f}" for v in sol.lambda_star))
        print("gamma*:  " + ", ".join(f"{v:.4f}" for v in sol.gamma_star))
        print(f"method: {sol.method}  iterations: {sol.iterations}  "
              f"residual: {sol.residual:.2e}  converged: {sol.converged}")
    if args.out:
        with open(os.path.join(args.out, "equilibrium.json"), "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
    return 0 if sol.converged else 2


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="gridtrade",
        description="DC microgrid energy-trading control simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, sim=False):
        sp.add_argument("scenario", help="scenario JSON file")
        if sim:
            sp.add_argument("--out", default=None, help="output directory")
            sp.add_argument("--dt", type=float, default=None)
            sp.add_argument("--t-end", dest="t_end", type=float, default=None)
            sp.add_argument("--eps", type=float, default=None,
                            help="override the fast-estimator time constant")

    sp = sub.add_parser("simulate", help="run the closed loop")
    common(sp, sim=True)
    sp.add_argument("--check", action="store_true",
                    help="exit 3 unless run-level checks pass")
    sp = sub.add_parser("validate", help="check configuration and margins")
    common(sp)
    sp = sub.add_parser("equilibrium", help="centralized equilibrium solve")
    common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp = sub.add_parser("reduced", help="run the quasi-steady-state model")
    common(sp, sim=True)
    sp.add_argument("--check", action="store_true")

    run = {"simulate": _cmd_simulate, "reduced": _cmd_simulate,
           "validate": _cmd_validate, "equilibrium": _cmd_equilibrium}
    args = p.parse_args(argv)
    try:
        code = run[args.command](args)
        sys.stdout.flush()       # a reader that left (``| head``) shows here
        return code
    except SystemExit as e:
        return e.code
    except BrokenPipeError:      # no message; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:     # the oracle's; runs catch IntegrationError
        print(f"error: {e}", file=sys.stderr)
        return 1 if args.command == "validate" else 2


if __name__ == "__main__":
    sys.exit(main())
