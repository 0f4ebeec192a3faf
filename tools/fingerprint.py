"""Same-behaviour fingerprint of a source tree.

For each benchmark workload (the scenario trees of ``bench/workloads.py``
at seed 0) this runs ``run_scenario(scn, outdir=...)`` once and prints
the crc32 of ``traj.y``, ``diag``, ``timeseries.csv`` and
``summary.json``.  It then prints the line count of ``src/`` and the
number of function, method and lambda parameters in ``src/gridtrade``,
counted with ``ast`` (``self`` and ``cls`` left out).  Two trees that
print the same crc32s on one host at one BLAS thread count gave the same
bits on these runs; the count is printed with them because some
results depend on it.

    OPENBLAS_NUM_THREADS=1 python3 tools/fingerprint.py

It reads the package and ``bench/workloads.py`` of the tree it sits in
and writes only to a temporary directory.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_crcs(tree: dict) -> list:
    """crc32 of traj.y, diag, timeseries.csv and summary.json of the run
    of one scenario tree."""
    import gridtrade as gt

    scn = gt.Scenario.from_dict(tree)
    with tempfile.TemporaryDirectory() as out:
        traj, diag, _ = gt.run_scenario(scn, outdir=out)
        blobs = [traj.y.tobytes(), diag.tobytes()] + [
            Path(out, name).read_bytes()
            for name in ("timeseries.csv", "summary.json")]
    return [f"{zlib.crc32(b):08x}" for b in blobs]


def line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def parameter_count() -> int:
    """Parameters of every function, method and lambda in the package,
    self and cls left out."""
    total = 0
    for path in (SRC / "gridtrade").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in (a.posonlyargs + a.args + a.kwonlyargs
                                         + [a.vararg, a.kwarg]) if x]
                total += sum(n not in ("self", "cls") for n in names)
    return total


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import workloads

    print("OPENBLAS_NUM_THREADS="
          + os.environ.get("OPENBLAS_NUM_THREADS", "(unset)"))
    print("workload: traj.y diag timeseries.csv summary.json")
    for w in workloads.WORKLOADS:
        crcs = run_crcs(workloads.scenario_tree(w, 0))
        print(f"{w}: " + " ".join(crcs), flush=True)
    print(f"src lines: {line_count()}")
    print(f"parameters: {parameter_count()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
