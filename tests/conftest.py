import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridtrade as gt
from gridtrade import _kernels, pwa
from gridtrade.integrate import grid_errors, run_eras
from gridtrade.oracle import _solve_extragradient

RING4_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "ring4.json"
_RING4 = json.loads(RING4_FILE.read_text())


def ring4_dict(**overrides) -> dict:
    """A fresh deep copy of the reference scenario ``scenarios/ring4.json``.

    An override that is a dict updates the section of that name; any
    other override replaces it."""
    d = copy.deepcopy(_RING4)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(d.get(key), dict):
            d[key].update(val)
        else:
            d[key] = val
    return d


def ring_scenario(n, heads=None):
    """n DGUs on a ring, repeating ring4's per-agent records; alpha_I and
    the base price grow with n so the game stays strictly monotone and
    the price margin positive.  Edge k joins DGU k to DGU k + 1 and is
    managed by its head, or by its tail where ``heads[k - 1]`` is
    False."""
    heads = [True] * n if heads is None else heads
    d = ring4_dict()
    d["topology"] = {"n": n,
                     "edges": [[k + 1, (k + 1) % n + 1] for k in range(n)],
                     "managers": [k + 1 if h else (k + 1) % n + 1
                                  for k, h in enumerate(heads)]}
    d["dgus"] = [d["dgus"][i % 4] for i in range(n)]
    d["lines"] = [d["lines"][i % 4] for i in range(n)]
    d["weights"] = [dict(w, alpha_I=w["alpha_I"] * 0.6 * n)
                    for w in (d["weights"][i % 4] for i in range(n))]
    d["price"]["l"] = 5.0 * n / 4
    d["penalties"] = {"rho_V": [1200] * n, "rho_Il": [1000] * n}
    return gt.Scenario.from_dict(d)


def subgradient_selection(interval) -> float:
    """Minimum-norm element of a subdifferential interval."""
    lo, hi = interval
    if lo <= 0.0 <= hi:
        return 0.0
    return lo if lo > 0.0 else hi


def pytest_collection_modifyitems(items):
    """Mark ``slow`` every test that needs a full-length run
    (``ref_run``, ``long_run``)."""
    for item in items:
        if {"ref_run", "long_run"} & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def regime_names(flow, y):
    """Names of the regimes of ``flow``'s penalized entries at ``y``."""
    return tuple(pwa.REGIME_NAMES[p] for p in flow.classify(y)[0])


@pytest.fixture(scope="session")
def ref_scenario():
    return gt.Scenario.from_file(RING4_FILE)


@pytest.fixture(scope="session")
def ref_game(ref_scenario):
    return ref_scenario.games[0]


@pytest.fixture(scope="session")
def ref_cp(ref_scenario):
    return ref_scenario.controller


@pytest.fixture(scope="session")
def ref_post_game(ref_scenario):
    return ref_scenario.games[1]


@pytest.fixture(scope="session")
def ref_solution(ref_game):
    sol = gt.solve_vi(ref_game)
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def ref_extragradient(ref_game):
    """The reference game solved by extragradient with its residual
    history, shared read-only."""
    return _solve_extragradient(ref_game)


@pytest.fixture(scope="session")
def ref_attractor(ref_game, ref_cp):
    return gt.closed_loop_equilibrium(ref_game, ref_cp)


@pytest.fixture(scope="session")
def wide_box_game(ref_scenario):
    """Reference parameters with the boxes opened wide: interior equilibrium."""
    scn = ref_scenario
    dgus = [replace(d, V_min=-1e5, V_max=1e5) for d in scn.plant.dgus]
    lines = [replace(l, Il_min=-1e5, Il_max=1e5) for l in scn.plant.lines]
    return gt.build_game(scn.topo, gt.PlantParams(dgus, lines), scn.price,
                         scn.weights, scn.penalties, validate=False)


@pytest.fixture(scope="session")
def ref_run(tmp_path_factory):
    """One full default run of the reference scenario, shared read-only."""
    import time

    outdir = tmp_path_factory.mktemp("ref_run")
    scn = gt.Scenario.from_file(RING4_FILE)
    t0 = time.monotonic()
    traj, diag, report = gt.run_scenario(scn, outdir=str(outdir))
    runtime = time.monotonic() - t0
    return {"traj": traj, "diag": diag, "report": report,
            "outdir": outdir, "scenario": scn, "runtime": runtime}


# Era length of the long-horizon run: ten time constants of the slowest
# non-conserved mode (1.6e-5 /s) of the closed loop in the regime pattern
# where all four decision-copy voltages slide on their lower bound.
LONG_ERA = 1e6


@pytest.fixture(scope="session")
def long_run():
    """The reference experiment on a horizon long enough to settle.

    Same plant, weights, penalties, controller, zero controller start
    and 3 A / 3 Ohm load step as ``scenarios/ring4.json``; only the
    event time, the horizon, the sample period and the integrator (exact
    piecewise-affine propagation with Filippov sliding) differ.
    """
    d = ring4_dict()
    d["events"] = [dict(d["events"][0], time=LONG_ERA)]
    d["integrator"] = {"method": "pwa", "dt": "1e-5 s", "t_end": 2 * LONG_ERA}
    d["output"] = {"sample_period": "1000 s"}
    scn = gt.Scenario.from_dict(d)
    traj, diag, report = gt.run_scenario(scn)
    return {"traj": traj, "diag": diag, "report": report, "scenario": scn}


def make_single_game(Z_L=1.0, I_L=2.0, R=1.0, alpha=(1.0, 1.0, 1.0),
                     l=1.0, p_r=1e-3, refs=(0.0, 0.0, 0.0),
                     V_box=(-1e4, 1e4), rho=100.0, r=1.0):
    """One DGU, no lines: closed-form comparisons stay hand-checkable."""
    topo = gt.MicrogridTopology(1, [], [])
    dgu = gt.DguParams(R=R, L=1.0, C=1.0, Z_L=Z_L, I_L=I_L,
                       V_min=V_box[0], V_max=V_box[1],
                       V_ref=refs[1], I_ref=refs[0], u_ref=refs[2])
    plant = gt.PlantParams([dgu], [])
    price = gt.PriceParams(l, p_r)
    weights = gt.ObjectiveWeights([r], [alpha[0]], [alpha[1]], [alpha[2]],
                                  [[]])
    pen = gt.PenaltyParams([rho], [])
    return gt.build_game(topo, plant, price, weights, pen, validate=False)


def make_pair_game(V_ref=0.0, I_L=(2.0, 3.0), Z_L=(1.0, 1.0),
                   alpha_I=2.0, alpha_V=1.0, alpha_u=1.0, alpha_Il=1.0,
                   r=(1.0, 1.0), l=1.0, p_r=0.01, rho_V=50.0, rho_Il=40.0,
                   V_box=(-1.0, 1.0), Il_box=(-5.0, 5.0)):
    """Two DGUs, one line managed by agent 1; zero references by default."""
    topo = gt.MicrogridTopology(2, [(1, 2)], [1])
    dgus = [gt.DguParams(R=0.1, L=1.0, C=1.0, Z_L=Z_L[i], I_L=I_L[i],
                         V_min=V_box[0], V_max=V_box[1], V_ref=V_ref)
            for i in range(2)]
    lines = [gt.LineParams(R=0.2, L=1e-3, Il_min=Il_box[0], Il_max=Il_box[1])]
    plant = gt.PlantParams(dgus, lines)
    weights = gt.ObjectiveWeights(list(r), [alpha_u] * 2, [alpha_I] * 2,
                                  [alpha_V] * 2, [[alpha_Il], []])
    pen = gt.PenaltyParams([rho_V] * 2, [rho_Il])
    return gt.build_game(topo, plant, gt.PriceParams(l, p_r), weights, pen,
                         validate=False)


@pytest.fixture
def pair_game():
    return make_pair_game()


def rk4_run(M, c, y0, cfg, events=()):
    """Sampled rk4 run of ``dy/dt = M y + c`` made as ``run_scenario``
    makes one: ``integrate.run_eras`` driving ``_kernels.rk4_affine``,
    here with no penalized entry.  ``events`` holds (time, c) pairs, each
    replacing the constant term from its time on.  A grid that
    ``grid_errors`` refuses raises ValueError with its messages."""
    times = [t for t, _ in events]
    errors = grid_errors(cfg, times)
    if errors:
        raise ValueError("; ".join(errors))
    M = np.asarray(M, dtype=float)
    consts = [np.asarray(k, dtype=float) for k in [c] + [e for _, e in events]]
    psrc, none = np.zeros(0, dtype=np.int64), np.zeros(0)
    per = round(cfg.sample_period / cfg.dt)

    def advance(era, y, n_samples):
        out = np.empty((n_samples, y.size))
        ns = _kernels.rk4_affine(M, consts[era], y, psrc, none, none, none,
                                 cfg.dt, n_samples * per, per, out)
        return out[:ns], y

    return run_eras(y0, cfg, times, advance)
