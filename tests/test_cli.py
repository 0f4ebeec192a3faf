import argparse
import io
import json
import os
import sys

import numpy as np
import pytest

import gridtrade as gt
from gridtrade import cli, engine
from gridtrade.cli import main
from gridtrade.engine import ClosedLoop, Scenario, ScenarioError
from gridtrade.oracle import game_map_matrix

from conftest import RING4_FILE, ring4_dict


@pytest.fixture
def short_scenario(tmp_path):
    d = ring4_dict(
        integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
        events=[], output={"sample_period": "1e-3 s"})
    path = tmp_path / "short.json"
    path.write_text(json.dumps(d))
    return str(path)


class TestValidate:
    def test_reference_scenario(self, capsys):
        rc = main(["validate", str(RING4_FILE)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3.24" in out              # price margin
        assert "monotonicity" in out
        assert "partition: ok" in out
        G = game_map_matrix(Scenario.from_file(RING4_FILE).games[0])
        mineig = np.linalg.eigvalsh(0.5 * (G + G.T)).min()
        assert f"game-map matrix: {mineig:.4f}\n" in out

    def test_certificate_of_every_era(self, capsys):
        """Both load eras: DGU 1's need against its cap and its saturated
        attractor, DGU 4 sliding, and the attractor's gaps to the
        equilibrium; the inadequate penalty is warned about, not
        refused."""
        assert main(["validate", str(RING4_FILE)]) == 0
        out = capsys.readouterr().out
        era0, era1 = out.split("load era 1:")
        for text, need, force, gaps in [
                (era0, "1935.67", "745.56", "u 0.0002315, x 0.9082, "
                 "weighted multipliers 1.368"),
                (era1, "1916.93", "726.88", "u 0.0002757, x 0.8847, "
                 "weighted multipliers 1.368")]:
            assert f"  V1     {need}   1207.20  below            1207.20\n" \
                in text
            assert f"  V4        0.00   1250.04  lower-sliding     {force}\n" \
                in text
            assert text.count("interior") == 6
            assert f"relative gaps: {gaps}\n" in text
        assert ("warning: penalty below its box's need or saturated at the "
                "attractor: era 0 V1, era 1 V1\n") in out

    def test_predicts_ac3(self, long_run, ref_post_game, capsys):
        """Era 1's printed gaps are those the acceptance check AC3 measures
        at the end of the long run, which settles on the attractor."""
        main(["validate", str(RING4_FILE)])
        line = capsys.readouterr().out.split("load era 1:")[1]
        line = line.split("relative gaps: ")[1].splitlines()[0]
        printed = [float(part.split()[-1]) for part in line.split(", ")]
        g = ref_post_game
        _, cs = ClosedLoop(g, long_run["scenario"].controller).unpack(
            long_run["traj"].y[-1])
        sol = gt.solve_vi(g)
        measured = [
            (np.abs(a - b) / np.maximum(np.abs(b), 1.0)).max()
            for a, b in ((cs.u, sol.u_star), (cs.xhat, sol.x_star),
                         (g.weights.r[:, None] * cs.lam, sol.lambda_star))]
        assert printed == pytest.approx(measured, rel=1e-3)

    def test_bad_scenario_exits_1(self, tmp_path):
        d = ring4_dict()
        d["price"] = {"l": 0.01, "p_r": 5.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = main(["validate", str(path)])
        assert rc == 1

    def test_initial_controller_reported(self, tmp_path, capsys):
        d = ring4_dict(initial={"plant": "zeros",
                                "controller": {"nu": [1, 0, 0, 0]}})
        path = tmp_path / "bad_nu.json"
        path.write_text(json.dumps(d))
        rc = main(["validate", str(path)])
        assert rc == 1
        assert "nu must sum to zero" in capsys.readouterr().err

    def test_off_grid_times_reported(self, tmp_path, capsys):
        d = ring4_dict()
        d["integrator"]["t_end"] = 0.0026
        d["events"][0]["time"] = 0.0015
        path = tmp_path / "off_grid.json"
        path.write_text(json.dumps(d))
        rc = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "t_end 0.0026 not on the sample grid" in err
        assert "event time 0.0015 not on the sample grid" in err

    def test_unstable_dt_reported(self, tmp_path, capsys):
        d = ring4_dict()
        d["integrator"]["dt"] = "1e-4 s"
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(d))
        rc = main(["validate", str(path)])
        assert rc == 1
        assert "violates the line-dynamics stability bound" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("path, key, where", [
        ((), "events", "scenario"), (("integrator",), "t_end", "integrator"),
        (("events", 0), "d_IL", "events[1]"),
        (("controller",), "eps_fast", "controller"),
        (("output",), "sample_period", "output"),
        (("dgus", 0), "u_ref", "dgus[1]"), (("initial",), "plant", "initial"),
        (("topology",), None, "topology")])
    def test_misspelled_key_exits_1(self, path, key, where, tmp_path, capsys):
        misspelt = {"events": "event", "t_end": "tend", "d_IL": "dIL",
                    "eps_fast": "eps_fst", "sample_period": "sample_priod",
                    "u_ref": "u_rf", "plant": "plnt", None: "comm_edge"}
        d = ring4_dict()
        node = d
        for k in path:
            node = node[k]
        node[misspelt[key]] = node.pop(key) if key else [[1, 2], [2, 3]]
        message = f"{where}: unknown key {misspelt[key]!r}"
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]
        (tmp_path / "misspelt.json").write_text(json.dumps(d))
        assert main(["validate", str(tmp_path / "misspelt.json")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("method", "rk45", "integrator: unknown method 'rk45'"),
        ("rtol", 1e-8, "integrator: unknown key 'rtol'"),
        ("atol", 1e-10, "integrator: unknown key 'atol'")])
    def test_removed_integrator_input_exits_1(self, key, value, message,
                                              tmp_path, capsys):
        d = ring4_dict()
        d["integrator"][key] = value
        with pytest.raises(ScenarioError) as ei:
            Scenario.from_dict(d)
        assert ei.value.errors == [message]
        (tmp_path / "removed.json").write_text(json.dumps(d))
        assert main(["validate", str(tmp_path / "removed.json")]) == 1
        assert message in capsys.readouterr().err


class TestOracleFailure:
    @pytest.mark.parametrize("command, rc", [
        ("validate", 1), ("equilibrium", 2), ("simulate", 2), ("reduced", 2)])
    def test_empty_feasible_set_reported(self, command, rc, tmp_path, capsys):
        """Boxes that no balanced state meets: the oracle's RuntimeError is
        reported as an error, not a traceback."""
        d = ring4_dict(events=[])
        d["integrator"]["t_end"] = "0.01 s"
        d["dgus"][0].update(V_min="377 V", V_max="378 V")
        d["dgus"][1].update(V_min="382 V", V_max="383 V")
        d["lines"][0].update(Il_min="-1 A", Il_max="1 A")
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(d))
        out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert main([command, str(path)] + out) == rc
        assert "error: alternating projection cannot reach the constraint " \
            "intersection" in capsys.readouterr().err


class TestSimulate:
    def test_missing_file(self, capsys):
        rc = main(["simulate", "missing.scenario"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_undecodable_file_exits_1(self, command, tmp_path, capsys):
        """A file that is not UTF-8 is reported, not a traceback."""
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot read scenario: ")

    def test_short_run_outputs(self, short_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", short_scenario, "--out", str(out)])
        assert rc == 0
        assert (out / "timeseries.csv").exists()
        assert (out / "summary.json").exists()
        assert "timeseries.csv" in capsys.readouterr().out

    def test_check_fails_on_unconverged_run(self, short_scenario, tmp_path):
        rc = main(["simulate", short_scenario, "--out",
                   str(tmp_path / "r"), "--check"])
        assert rc == 3

    def test_dt_override_guard(self, short_scenario, tmp_path, capsys):
        rc = main(["simulate", short_scenario, "--out", str(tmp_path / "r"),
                   "--dt", "1e-3"])
        assert rc == 1
        assert "stability" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "reduced"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--dt", "-1", "dt and sample_period must be > 0"),
        ("--t-end", "-1", "t_end must be >= 0"),
        ("--eps", "0", "controller time-scale constants must be > 0"),
        ("--eps", "inf", "controller time-scale constants must be finite"),
        ("--eps", "1e400", "controller time-scale constants must be finite"),
        ("--eps", "nan", "controller time-scale constants must be finite"),
        ("--dt", "nan", "dt, sample_period and t_end must be finite"),
        ("--t-end", "inf", "dt, sample_period and t_end must be finite")])
    def test_refused_override_exits_1(self, short_scenario, tmp_path, capsys,
                                      command, flag, value, message):
        rc = main([command, short_scenario, "--out", str(tmp_path / "r"),
                   flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_dt_below_float_resolution_exits_1(self, tmp_path, capsys):
        """``--dt 1e-300`` on a 2 ms ring4 is refused before any step."""
        path = tmp_path / "short.json"
        path.write_text(json.dumps(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.002 s"},
            events=[])))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "r"),
                   "--dt", "1e-300"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid scenario:\n  - dt=1e-300 is too small: "
            "sample_period / dt = 1e+297 steps exceeds 2**53\n")
        assert not (tmp_path / "r" / "timeseries.csv").exists()

    def test_unknown_flag(self, short_scenario):
        with pytest.raises(SystemExit) as ei:
            main(["simulate", short_scenario, "--frobnicate"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "reduced"])
    def test_format_option_rejected(self, short_scenario, command):
        with pytest.raises(SystemExit) as ei:
            main([command, short_scenario, "--format", "json"])
        assert ei.value.code == 2

    def test_t_end_off_sample_grid_exits_1(self, tmp_path, capsys):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[], initial={"plant": "zeros", "controller": "zeros"})))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "r"),
                   "--t-end", "0.0026"])
        assert rc == 1
        assert "not on the sample grid" in capsys.readouterr().err

    def test_eps_override_recorded(self, short_scenario, tmp_path):
        out = tmp_path / "r"
        rc = main(["simulate", short_scenario, "--out", str(out),
                   "--eps", "0.02"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["eps_fast"] == 0.02

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        d = ring4_dict(
            integrator={"method": "rk4", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[],
            initial={"plant": {"I": [0, 0, 0, 0], "V": [0, 0, 0, 0],
                               "I_l": [1e308, 0, 0, 0]},
                     "controller": "zeros"})
        path = tmp_path / "blow.json"
        path.write_text(json.dumps(d))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_non_finite_diagnostics_exit_2(self, tmp_path, capsys):
        d = ring4_dict(
            integrator={"method": "pwa", "dt": "1e-5 s", "t_end": "0.01 s"},
            events=[],
            initial={"plant": {"I": [0, 0, 0, 0], "V": [0, 0, 0, 0],
                               "I_l": [1e308, 0, 0, 0]}})
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "r"
        rc = main(["simulate", str(path), "--out", str(out)])
        assert rc == 2
        assert "non-finite diagnostics" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_overrides_keep_the_eras(self):
        """The replaced integrator and controller pass the check that a
        scenario's events still match its games."""
        scn = Scenario.from_dict(ring4_dict(
            integrator={"t_end": "0.01 s"},
            events=[{"time": "0.005 s", "d_IL": "3 A", "d_ZL": "3 Ohm"}]))
        args = argparse.Namespace(dt=2e-5, t_end=0.02, eps=0.02)
        new = cli._apply_overrides(scn, args)
        assert (new.integrator.dt, new.integrator.t_end) == (2e-5, 0.02)
        assert new.controller.eps_fast == 0.02
        assert new.events == scn.events and new.games == scn.games


class TestEquilibrium:
    def test_json_output(self, capsys):
        rc = main(["equilibrium", str(RING4_FILE), "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converged"]
        assert data["method"] == "active_set"
        assert data["iterations"] == 0
        assert len(data["u_star"]) == 4
        assert 377.0 <= min(data["x_star"][1::1]) or True  # shape sanity only

    def test_table_output_and_export(self, tmp_path, capsys):
        rc = main(["equilibrium", str(RING4_FILE), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "u*:" in out and "lambda*:" in out
        assert (tmp_path / "equilibrium.json").exists()


class TestReduced:
    def test_smoke(self, short_scenario, tmp_path):
        rc = main(["reduced", short_scenario, "--out", str(tmp_path / "red")])
        assert rc == 0
        assert (tmp_path / "red" / "timeseries.csv").exists()

    def test_check_lists_only_false_checks(self, short_scenario, tmp_path,
                                           capsys):
        """The reduced run's ``upsilon_consensus`` is null: not judged, so
        not among the failed checks of this unconverged run."""
        out = tmp_path / "red"
        rc = main(["reduced", short_scenario, "--out", str(out), "--check"])
        assert rc == 3
        checks = json.loads((out / "summary.json").read_text())["checks"]
        assert checks["upsilon_consensus"] is None
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("checks failed: ")]
        failed = line[len("checks failed: "):].split(", ")
        assert "upsilon_consensus" not in failed
        assert set(failed) == {k for k, v in checks.items() if v is False}

    def test_unjudged_check_passes(self, short_scenario, tmp_path,
                                   monkeypatch, capsys):
        report = {"convergence_times": [],
                  "checks": {"judged": True, "unjudged": None}}
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *args, **kwargs: (None, None, report))
        rc = main(["reduced", short_scenario, "--out", str(tmp_path),
                   "--check"])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["simulate", "reduced", "equilibrium"])
    def test_exits_1_before_the_run(self, command, short_scenario, tmp_path,
                                    monkeypatch, capsys):
        """An ``--out`` that names a file fails before any solve or
        propagation, with a message instead of a traceback."""
        def started(*args, **kwargs):
            pytest.fail("the run started despite an unwritable --out")

        for owner in (engine, cli):
            monkeypatch.setattr(owner, "solve_vi", started)
        monkeypatch.setattr(engine, "run_eras", started)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main([command, short_scenario, "--out", str(taken)])
        assert rc == 1
        assert "error: cannot write output:" in capsys.readouterr().err


class TestClosedStdout:
    def test_exits_1_without_a_message(self, capsys, monkeypatch, tmp_path):
        """``gridtrade validate ... | head -1``: the reader leaves, and
        the next write fails.  The CLI exits 1 without a message, its
        stdout descriptor on devnull for the interpreter's flush at
        exit."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", Closed())
        try:
            rc = main(["validate", str(RING4_FILE)])
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert rc == 1
        assert capsys.readouterr().err == ""
