"""Command-line interface: subcommand round trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from homctl.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
)

PLANT = "[plant]\nA = 0 1; -1 0\nB = 0; 1\n"
SCENARIO = (
    PLANT
    + "[controller]\nbuiltin = oscillator\n"
    + "[sim]\nx0 = 0.2 0\nh = 0.01\nt_end = 2.0\n"
)


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.ini"
    path.write_text(PLANT)
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO)
    return path


# ---------------------------------------------------------------------------
# synth / verify / simulate round trip


def test_synth_verify_simulate_round_trip(tmp_path, plant_file, scenario_file, capsys):
    ctrl_path = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1.0", "--out", str(ctrl_path)]) == EXIT_OK
    assert ctrl_path.exists()
    out = capsys.readouterr().out
    assert "[PASS]" in out and "controller saved" in out

    assert main(["verify", "--controller", str(ctrl_path), "--plant", str(plant_file)]) == EXIT_OK
    assert "verification passed" in capsys.readouterr().out

    csv_path = tmp_path / "trace.csv"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--controller", str(ctrl_path), "--out", str(csv_path)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["settled"] is True
    assert 0.98 <= summary["settling_time"] <= 1.02
    assert csv_path.exists()
    sidecar = json.loads((tmp_path / "trace.summary.json").read_text())
    assert sidecar == summary


def test_simulate_failed_write_leaves_no_file(tmp_path, scenario_file, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out / "t.csv")]) == EXIT_INPUT
    assert "replace refused" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_with_builtin_controller(scenario_file, capsys):
    assert main(["simulate", "--scenario", str(scenario_file)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["settled"] is True


def test_simulate_deterministic_output(tmp_path, capsys):
    scenario = tmp_path / "noisy.ini"
    scenario.write_text(
        SCENARIO + "[perturbations]\nnoise = 0.01\nseed = 5\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(scenario), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_seed_flag_overrides_file_seed(tmp_path, capsys):
    scenario = tmp_path / "noisy.ini"
    scenario.write_text(SCENARIO + "[perturbations]\nnoise = 0.01\nseed = 5\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(scenario), "--out", str(b), "--seed", "6"]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()
    capsys.readouterr()


def _strict_json(text: str):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_diverging_run_writes_strict_json_summary(tmp_path, capsys):
    # h = 0.5 destabilizes the sampled linear law on rand5x2 and its
    # weighted norm overflows: the summary reads null, never NaN
    record = Path(__file__).resolve().parents[1] / "bench" / "records" / "rand5x2.json"
    data = json.loads(record.read_text())
    A, B = ("; ".join(" ".join(repr(float(v)) for v in row) for row in data[k]) for k in "AB")
    scenario = tmp_path / "diverging.ini"
    scenario.write_text(f"[plant]\nA = {A}\nB = {B}\n"
                        f"[controller]\nfile = {record}\nkind = linear\n"
                        "[sim]\nx0 = 1 1 1 1 1\nh = 0.5\nt_end = 190\n")
    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(csv_path)]) == EXIT_OK
    printed = _strict_json(capsys.readouterr().out)
    written = _strict_json((tmp_path / "trace.summary.json").read_text())
    assert printed == written
    assert written["max_norm"] is None and written["final_norm"] is None
    assert written["settled"] is False


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_bad_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[plant]\nA = 0 1; -1 x\nB = 0; 1\n")
    assert main(["synth", "--plant", str(bad), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("typo", ["[perturbaitons]\nnoise = 0.5\nseed = 1\n", "settle_epsilom = 1e-3\n"],
                         ids=["section", "key"])
def test_exit_code_unknown_scenario_key(tmp_path, capsys, typo):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO + typo)
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    assert "unknown" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "none.ini")]) == EXIT_INPUT
    capsys.readouterr()


def test_exit_code_uncontrollable_plant(tmp_path, capsys):
    bad = tmp_path / "uncontrollable.ini"
    bad.write_text("[plant]\nA = 1 0; 0 1\nB = 1; 0\n")
    assert main(["synth", "--plant", str(bad), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INFEASIBLE
    assert "not controllable" in capsys.readouterr().err


def test_exit_code_failed_lyapunov_solve_is_infeasible(tmp_path, plant_file, monkeypatch, capsys):
    def failing(a, q):
        raise np.linalg.LinAlgError("Schur form did not converge")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", failing)
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INFEASIBLE
    assert "no positive-definite solution" in capsys.readouterr().err


def test_exit_code_verification_failure(tmp_path, plant_file, capsys):
    ctrl_path = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(ctrl_path)]) == EXIT_OK
    data = json.loads(ctrl_path.read_text())
    data["K"] = [[0.0, 0.0]]
    ctrl_path.write_text(json.dumps(data))
    assert main(["verify", "--controller", str(ctrl_path)]) == EXIT_VERIFICATION
    assert "FAILED" in capsys.readouterr().out


def test_exit_code_bad_flags(capsys):
    assert main(["synth", "--T", "1"]) == EXIT_INPUT  # --plant/--out missing
    assert main(["bogus-command"]) == EXIT_INPUT
    assert main(["experiment", "--preset", "not-a-preset"]) == EXIT_INPUT
    capsys.readouterr()


def test_synth_has_no_degree_flag(tmp_path, plant_file, capsys):
    out = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--mu", "-0.5", "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    capsys.readouterr()


def test_verify_rejects_record_with_other_degree(tmp_path, plant_file, capsys):
    ctrl_path = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(ctrl_path)]) == EXIT_OK
    data = json.loads(ctrl_path.read_text())
    data["mu"] = -0.5
    ctrl_path.write_text(json.dumps(data))
    assert main(["verify", "--controller", str(ctrl_path)]) == EXIT_INPUT
    assert "mu" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("homctl ")


# ---------------------------------------------------------------------------
# experiment


def test_simulate_overflowing_initial_state_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.ini"
    path.write_text(SCENARIO.replace("x0 = 0.2 0", "x0 = 1e300 0"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "overflows" in captured.err and "settled" not in captured.out


@pytest.mark.parametrize("integrator", ["zoh_exact", "dense_rk"])
def test_simulate_constant_disturbance_of_wrong_length_is_input_error(tmp_path, capsys, integrator):
    path = tmp_path / "short.ini"
    path.write_text(SCENARIO + f"integrator = {integrator}\n[perturbations]\ndisturbance = constant 0.05\n")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    assert "disturbance vector has size 1, expected 2" in capsys.readouterr().err


def test_simulate_dense_with_disturbance_is_input_error(tmp_path, capsys):
    # the closed-form dense run has no disturbed counterpart
    path = tmp_path / "dense.ini"
    path.write_text(SCENARIO + "integrator = dense_rk\n[perturbations]\ndisturbance = constant 0 0.05\n")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    assert "disturbance" in capsys.readouterr().err


def test_experiment_single_preset(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["experiment", "--preset", "fig1", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["presets"] == ["fig1"]
    assert (out / "fig1.csv").exists()


def test_experiment_scaling_suite_parallel(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["experiment", "--suite", "scaling", "--workers", "4", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [r["preset"] for r in report["runs"]] == list(report["presets"])
    assert all(r["passed"] for r in report["runs"])
    capsys.readouterr()


def test_experiment_default_runs_whole_paper_suite(capsys):
    assert main(["experiment"]) == EXIT_OK
    stdout = capsys.readouterr().out
    for name in ("fig1", "fig4", "fig8"):
        assert name in stdout
    assert "overall: PASS (8/8 presets)" in stdout


def test_experiment_workers_validation(capsys):
    assert main(["experiment", "--preset", "fig1", "--workers", "0"]) == EXIT_INPUT
    capsys.readouterr()


def test_experiment_parallel_matches_serial(tmp_path, capsys):
    # every file and the printed report, byte for byte; the paper suite has noisy presets
    for suite, workers in (("scaling", 3), ("paper", 2)):
        outs = []
        for w in (1, workers):
            out = tmp_path / f"{suite}-w{w}"
            assert main(["experiment", "--suite", suite, "--seed", "3", "--workers", str(w),
                         "--out", str(out)]) == EXIT_OK
            outs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert "report.json" in outs[0][1] and len(outs[0][1]) > 2
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# scipy is loaded by synthesis only

_SCIPY_FREE_RUNS = textwrap.dedent("""
    import contextlib, io, json, sys
    from pathlib import Path

    import homctl.cli
    from homctl import oscillator_controller, save_controller

    d = Path(sys.argv[1])
    (d / "plant.ini").write_text({plant!r})
    (d / "scenario.ini").write_text({scenario!r})
    save_controller(oscillator_controller(), str(d / "ctrl.json"))
    runs = [
        ["simulate", "--scenario", str(d / "scenario.ini"), "--out", str(d / "trace.csv")],
        ["verify", "--controller", str(d / "ctrl.json"), "--plant", str(d / "plant.ini")],
        ["experiment", "--preset", "fig7", "--out", str(d / "runs")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [homctl.cli.main(argv) for argv in runs]
        before = sorted(m for m in sys.modules if m.startswith("scipy"))
        synth = homctl.cli.main(["synth", "--plant", str(d / "plant.ini"), "--T", "1.0",
                                 "--out", str(d / "synth.json")])
    after = any(m.startswith("scipy") for m in sys.modules)
    print(json.dumps({{"codes": codes, "before": before, "synth": synth, "after": after}}))
""")


def test_only_synthesis_loads_scipy(tmp_path):
    import homctl

    src = str(Path(homctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("HOMCTL_LOG", None)
    code = _SCIPY_FREE_RUNS.format(plant=PLANT, scenario=SCENARIO)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                          check=True, env=env)
    result = json.loads(proc.stdout)
    assert result["codes"] == [EXIT_OK] * 3
    assert result["before"] == []
    assert result["synth"] == EXIT_OK and (tmp_path / "synth.json").exists()
    assert result["after"] is True


# ---------------------------------------------------------------------------
# logging environment variable


def test_log_level_env_variable(tmp_path, plant_file, monkeypatch, capsys):
    monkeypatch.setenv("HOMCTL_LOG", "debug")
    assert main(["synth", "--plant", str(plant_file), "--T", "1.0",
                 "--out", str(tmp_path / "c.json")]) == EXIT_OK
    capsys.readouterr()
