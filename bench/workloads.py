"""Inputs of the benchmark workloads, built from the workload name and seed.

The two ring4 workloads start from the benchmark's own copy of the
reference scenario tree and override every setting they depend on, so an
edit to the bundled ``scenarios/ring4.json`` or ``gridtrade.scenarios``
cannot change a workload silently.  ``ring16-blackstart`` is drawn by the
seeded ring-n generator :func:`ring_tree`.
"""

from __future__ import annotations

import copy
import random

WORKLOADS = ("ring4-simulate", "ring4-settle", "ring16-blackstart")

# ring4-simulate: rk4 horizon (s), a 3 A / 3 Ohm load step at mid-horizon
SIMULATE_T_END = 0.2
# ring4-settle: the load step at SETTLE_ERA, the run ends at 2 * SETTLE_ERA
SETTLE_ERA = 1e6
# ring16-blackstart: grid size and rk4 horizon (s)
RING_N = 16
BLACKSTART_T_END = 0.06

_RING4 = {
    "name": "ring4",
    "topology": {
        "n": 4,
        "edges": [[1, 2], [2, 3], [3, 4], [4, 1]],
        "managers": [1, 2, 3, 1],
    },
    "dgus": [
        {"L": "1.8 mH", "C": "2.2 mF", "R": "20 mOhm", "I_ref": "0 A",
         "u_ref": "0 V", "V_ref": "380 V", "V_min": "377 V", "V_max": "383 V",
         "Z_L": "16 Ohm", "I_L": "30 A"},
        {"L": "2.0 mH", "C": "1.9 mF", "R": "18 mOhm", "I_ref": "0 A",
         "u_ref": "0 V", "V_ref": "380 V", "V_min": "377 V", "V_max": "383 V",
         "Z_L": "50 Ohm", "I_L": "15 A"},
        {"L": "3.0 mH", "C": "2.5 mF", "R": "16 mOhm", "I_ref": "0 A",
         "u_ref": "0 V", "V_ref": "380 V", "V_min": "377 V", "V_max": "383 V",
         "Z_L": "16 Ohm", "I_L": "30 A"},
        {"L": "2.2 mH", "C": "1.7 mF", "R": "15 mOhm", "I_ref": "0 A",
         "u_ref": "0 V", "V_ref": "380 V", "V_min": "377 V", "V_max": "383 V",
         "Z_L": "20 Ohm", "I_L": "26 A"},
    ],
    "lines": [
        {"R": "70 mOhm", "L": "2.1 uH", "Il_min": "-20 A", "Il_max": "20 A",
         "Il_ref": "0 A"},
        {"R": "50 mOhm", "L": "2.0 uH", "Il_min": "-20 A", "Il_max": "20 A",
         "Il_ref": "0 A"},
        {"R": "80 mOhm", "L": "3.0 uH", "Il_min": "-20 A", "Il_max": "20 A",
         "Il_ref": "0 A"},
        {"R": "60 mOhm", "L": "2.2 uH", "Il_min": "-20 A", "Il_max": "20 A",
         "Il_ref": "0 A"},
    ],
    "price": {"l": 5.0, "p_r": 0.01},
    "weights": [
        {"r": 1.0060, "alpha_I": 10.6569, "alpha_V": 0.7516,
         "alpha_u": 1.0155, "alpha_Il": 1.3724},
        {"r": 1.0399, "alpha_I": 10.6280, "alpha_V": 0.6203,
         "alpha_u": 1.9841, "alpha_Il": 1.1981},
        {"r": 1.0527, "alpha_I": 10.2920, "alpha_V": 0.8527,
         "alpha_u": 1.1672, "alpha_Il": 1.4897},
        {"r": 1.0417, "alpha_I": 10.4317, "alpha_V": 0.9379,
         "alpha_u": 1.1060, "alpha_Il": 1.3395},
    ],
    "penalties": {
        "rho_V": [1200, 1200, 1200, 1200],
        "rho_Il": [1000, 1000, 1000, 1000],
    },
    "controller": {"eps_fast": 0.01, "eps_u": 0.1},
    "integrator": {"method": "rk4", "dt": "1e-5 s", "t_end": "10 s"},
    "events": [{"time": "5 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}],
    "output": {"sample_period": "1e-3 s"},
    "initial": {"plant": "equilibrium", "controller": "zeros"},
}

LOAD_STEP = {"d_IL": "3 A", "d_ZL": "3 Ohm"}

# Ranges of the ring-n generator (uniform draws; ring4's values lie inside).
RING_RANGES = {
    "L": (1.7e-3, 3.1e-3),      # DGU filter inductance [H]
    "C": (1.6e-3, 2.6e-3),      # DGU shunt capacitance [F]
    "Z_L": (16.0, 50.0),        # impedance load [Ohm]
    "I_L": (15.0, 30.0),        # current load [A]
    "line_R": (0.05, 0.08),     # line resistance [Ohm]
    "line_L": (2.0e-6, 3.0e-6),  # line inductance [H]
}


def ring4_tree() -> dict:
    """The benchmark's copy of the ``ring4`` reference scenario tree."""
    return copy.deepcopy(_RING4)


def ring4_simulate_tree() -> dict:
    """Reference experiment on a shortened horizon: rk4, dt = 1e-5 s,
    1 ms samples, grid at equilibrium and controller at zero, the load
    step at mid-horizon."""
    d = ring4_tree()
    d["integrator"] = {"method": "rk4", "dt": "1e-5 s",
                       "t_end": SIMULATE_T_END}
    d["events"] = [dict(LOAD_STEP, time=SIMULATE_T_END / 2)]
    d["output"] = {"sample_period": "1e-3 s"}
    d["initial"] = {"plant": "equilibrium", "controller": "zeros"}
    return d


def ring4_settle_tree() -> dict:
    """Reference experiment on a horizon long enough to settle: ``pwa``,
    the load step at 1e6 s, t_end = 2e6 s, 1000 s samples."""
    d = ring4_tree()
    d["integrator"] = {"method": "pwa", "dt": "1e-5 s",
                       "t_end": 2 * SETTLE_ERA}
    d["events"] = [dict(LOAD_STEP, time=SETTLE_ERA)]
    d["output"] = {"sample_period": "1000 s"}
    d["initial"] = {"plant": "equilibrium", "controller": "zeros"}
    return d


def ring_tree(n: int, seed: int) -> dict:
    """Seeded synthetic ring of ``n`` DGUs, de-energized at t = 0.

    Edge k joins DGU k to DGU k + 1 (the last closes the ring) and is
    managed by its head.  L, C, Z_L, I_L and line R/L are drawn from
    ``RING_RANGES``; filter resistances, references, boxes, weights and
    penalties repeat ring4's per-agent values.  alpha_I is scaled by
    0.6 n and the base price l by n / 4, which keeps the monotonicity and
    price margins positive for every draw and every n (before and after
    the 3 A / 3 Ohm load step).  rk4 with dt = 1e-5 s, 1 ms samples and
    the load step at mid-horizon.
    """
    rng = random.Random(seed)
    base = _RING4

    def draw(key, scale, unit):
        lo, hi = RING_RANGES[key]
        return f"{rng.uniform(lo, hi) * scale:.6g} {unit}"

    dgus, lines, weights = [], [], []
    for i in range(n):
        ref = base["dgus"][i % 4]
        dgus.append(dict(ref, L=draw("L", 1e3, "mH"), C=draw("C", 1e3, "mF"),
                         Z_L=draw("Z_L", 1.0, "Ohm"),
                         I_L=draw("I_L", 1.0, "A")))
        lines.append(dict(base["lines"][i % 4], R=draw("line_R", 1e3, "mOhm"),
                          L=draw("line_L", 1e6, "uH")))
        w = base["weights"][i % 4]
        weights.append(dict(w, alpha_I=w["alpha_I"] * 0.6 * n))
    t_end = BLACKSTART_T_END
    return {
        "name": f"ring{n}-seed{seed}",
        "topology": {"n": n,
                     "edges": [[k + 1, (k + 1) % n + 1] for k in range(n)],
                     "managers": [k + 1 for k in range(n)]},
        "dgus": dgus,
        "lines": lines,
        "price": {"l": 5.0 * n / 4, "p_r": 0.01},
        "weights": weights,
        "penalties": {"rho_V": [1200] * n, "rho_Il": [1000] * n},
        "controller": {"eps_fast": 0.01, "eps_u": 0.1},
        "integrator": {"method": "rk4", "dt": "1e-5 s", "t_end": t_end},
        "events": [dict(LOAD_STEP, time=t_end / 2)],
        "output": {"sample_period": "1e-3 s"},
        "initial": {"plant": "zeros", "controller": "zeros"},
    }


def scenario_tree(workload: str, seed: int) -> dict:
    """Scenario tree the workload's simulation runs."""
    if workload == "ring4-simulate":
        return ring4_simulate_tree()
    if workload == "ring4-settle":
        return ring4_settle_tree()
    if workload == "ring16-blackstart":
        return ring_tree(RING_N, seed)
    raise ValueError(f"unknown workload {workload!r}")
