"""Command-line interface: subcommand round trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import homctl.synthesis
from homctl import oscillator_controller
from homctl.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
)
from homctl.synthesis import controller_to_dict

PLANT = "[plant]\nA = 0 1; -1 0\nB = 0; 1\n"
SCENARIO = (
    PLANT
    + "[controller]\nbuiltin = oscillator\n"
    + "[sim]\nx0 = 0.2 0\nh = 0.01\nt_end = 2.0\n"
)


def _matrix_entry(M):
    """A matrix as a plant-file value: rows split by ``;``, entries exact."""
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in M)


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


@pytest.mark.parametrize("command", ["simulate", "synth"])
def test_write_into_missing_directory_names_the_requested_path(tmp_path, plant_file, scenario_file, command, capsys):
    out = tmp_path / "nodir" / "trace.csv"
    inputs = ["--scenario", str(scenario_file)] if command == "simulate" else ["--plant", str(plant_file), "--T", "1"]
    assert main([command, *inputs, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


@pytest.mark.parametrize("command", ["simulate", "synth"])
def test_write_over_a_directory_names_the_requested_path(tmp_path, plant_file, scenario_file, command, capsys):
    # the final replace fails: the error names the path given, and the temporary file goes
    out = tmp_path / "isdir.csv"
    out.mkdir()
    inputs = ["--scenario", str(scenario_file)] if command == "simulate" else ["--plant", str(plant_file), "--T", "1"]
    assert main([command, *inputs, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert list(out.iterdir()) == [] and list(tmp_path.glob("*.tmp")) == []


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


def test_negative_seed_flag_names_the_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "noisy.ini"
    scenario.write_text(SCENARIO + "[perturbations]\nnoise = 0.01\nseed = 5\n")
    out = tmp_path / "a.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--seed", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {scenario}: noise seed must be a non-negative integer, got -1\n"
    assert not out.exists()


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
    A, B = (_matrix_entry(data[k]) for k in "AB")
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


@pytest.mark.parametrize("text, message", [
    (SCENARIO.replace("x0 = 0.2 0", "x0 = 0.2 zero"), "key 'x0' in [sim]: cannot parse '0.2 zero' as a matrix"),
    (SCENARIO.replace("x0 = 0.2 0", "x0 = nan 0"), "key 'x0' in [sim]: vector has non-finite entries"),
    (SCENARIO.replace("x0 = 0.2 0", "x0 ="), "key 'x0' in [sim]: empty value"),
    (SCENARIO.replace("A = 0 1; -1 0", "A ="), "key 'A' in [plant]: empty value"),
    (SCENARIO.replace("[controller]\nbuiltin = oscillator\n", ""), "missing [controller] section"),
    (SCENARIO + "[perturbations]\ndisturbance = matched_sin 0.1\n", "disturbance 'matched_sin' needs amplitude and omega"),
    (SCENARIO + "[perturbations]\ndisturbance = constant\n", "disturbance 'constant' needs vector entries"),
    (SCENARIO.replace("h = 0.01", "h = abc"), "key 'h' in [sim]: cannot parse 'abc' as float"),
    (SCENARIO.replace("t_end = 2.0", "t_end = 1x"), "key 't_end' in [sim]: cannot parse '1x' as float"),
    (SCENARIO.replace("B = 0; 1\n", "B = 0; 1\ndelay = abc\n"),
     "key 'delay' in [plant]: cannot parse 'abc' as float"),
    (SCENARIO + "settle_epsilon = x\n", "key 'settle_epsilon' in [sim]: cannot parse 'x' as float"),
    (SCENARIO + "[perturbations]\nnoise = abc\nseed = 1\n",
     "key 'noise' in [perturbations]: cannot parse 'abc' as float"),
    (SCENARIO + "[perturbations]\nnoise = 0.01\nseed = 1.5\n",
     "key 'seed' in [perturbations]: cannot parse '1.5' as int"),
    (SCENARIO + "[perturbations]\ndisturbance = matched_sin abc 5\n",
     "key 'disturbance' in [perturbations]: cannot parse 'abc' as float"),
], ids=["unparseable-vector", "nan-vector", "empty-vector", "empty-matrix", "missing-controller", "matched-sin-arity",
        "empty-constant", "h", "t_end", "delay", "settle_epsilon", "noise", "seed", "matched-sin-amplitude"])
def test_exit_code_malformed_scenario_names_the_key(tmp_path, capsys, text, message):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(text)
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


_PERTURBED = SCENARIO + "[perturbations]\n"


@pytest.mark.parametrize("text, section, key", [
    (SCENARIO.replace("A = 0 1; -1 0", "A = 0 1; -1 x"), "plant", "A"),
    (SCENARIO.replace("B = 0; 1", "B = 0; 1 2"), "plant", "B"),
    (SCENARIO.replace("B = 0; 1\n", "B = 0; 1\ndelay = 0.1s\n"), "plant", "delay"),
    (SCENARIO.replace("[controller]\n", "[controller]\nkind = sliding\n"), "controller", "kind"),
    (SCENARIO.replace("x0 = 0.2 0", "x0 = 0.2 zero"), "sim", "x0"),
    (SCENARIO.replace("h = 0.01", "h = abc"), "sim", "h"),
    (SCENARIO.replace("t_end = 2.0", "t_end = 1x"), "sim", "t_end"),
    (SCENARIO + "settle_epsilon = x\n", "sim", "settle_epsilon"),
    (_PERTURBED + "disturbance = matched_sin 0.1\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = matched_sin abc 5\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = matched_sin nan 5\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = constant\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = constant 0 x\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = gusts 1 2\n", "perturbations", "disturbance"),
    (_PERTURBED + "disturbance = none 0.5 5\n", "perturbations", "disturbance"),
    (_PERTURBED + "noise = abc\nseed = 1\n", "perturbations", "noise"),
    (_PERTURBED + "noise = 0.01\nseed = 1.5\n", "perturbations", "seed"),
    (_PERTURBED + "seed = 1.5\n", "perturbations", "seed"),
    (_PERTURBED + "x0_noise = 0.01 q\n", "perturbations", "x0_noise"),
    (_PERTURBED + "phi = 0.1; x\n", "perturbations", "phi"),
], ids=["A", "B", "delay", "kind", "x0", "h", "t_end", "settle_epsilon", "matched-sin-arity",
        "matched-sin-amplitude", "matched-sin-nan", "constant-empty", "constant-entry", "disturbance-kind",
        "none-with-values", "noise", "seed", "seed-without-noise", "x0_noise", "phi"])
def test_exit_code_malformed_value_names_file_section_and_key(tmp_path, capsys, text, section, key):
    # every key of the reader's table reports a bad value the same way
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(text)
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {scenario}: key {key!r} in [{section}]: " in err


CHAIN4 = "[plant]\nA = 0 1 0 0; 0 0 1 0; 0 0 0 1; 0 0 0 0\nB = 0; 0; 0; 1\n"


@pytest.fixture(scope="module")
def chain4_scenario(tmp_path_factory):
    """A chain-4 scenario on a record from ``synth``: a 2 x 2 matrix has as many entries as its state."""
    folder = tmp_path_factory.mktemp("chain4")
    (folder / "plant.ini").write_text(CHAIN4)
    record = folder / "chain4.json"
    assert main(["synth", "--plant", str(folder / "plant.ini"), "--T", "1", "--out", str(record)]) == EXIT_OK
    return CHAIN4 + f"[controller]\nfile = {record}\n[sim]\nx0 = 1 0 0 1\nh = 0.01\nt_end = 0.05\n"


#: the chain-4 scenario's last line, followed by a [perturbations] section
_THEN_PERTURBED = "t_end = 0.05\n[perturbations]\n"


@pytest.mark.parametrize("old, new, section, key", [
    ("x0 = 1 0 0 1", "x0 = 1 0; 0 1", "sim", "x0"),
    ("t_end = 0.05", _THEN_PERTURBED + "x0_noise = 1 0; 0 1", "perturbations", "x0_noise"),
    ("t_end = 0.05", _THEN_PERTURBED + "disturbance = constant 1 0; 0 1", "perturbations", "disturbance"),
], ids=["x0", "x0_noise", "disturbance"])
def test_exit_code_matrix_for_a_vector_names_the_key(tmp_path, capsys, chain4_scenario, old, new, section, key):
    # a vector is one row or one column, as in the Python API; a matrix is not flattened
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(chain4_scenario.replace(old, new))
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {scenario}: key {key!r} in [{section}]: " in err and "one row or one column" in err, err


def test_chain4_vector_reads_as_a_row_or_a_column(tmp_path, capsys, chain4_scenario):
    for text in (chain4_scenario, chain4_scenario.replace("x0 = 1 0 0 1", "x0 = 1; 0; 0; 1")):
        scenario = tmp_path / "scenario.ini"
        perturbed = _THEN_PERTURBED + "x0_noise = 0; 0; 0; 0\ndisturbance = constant 0 0 0 0"
        scenario.write_text(text.replace("t_end = 0.05", perturbed))
        assert main(["simulate", "--scenario", str(scenario)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("text, key", [
    (SCENARIO.replace("h = 0.01", "h = -1"), "sample period h"),
    (SCENARIO.replace("t_end = 2.0", "t_end = 0"), "t_end"),
    (SCENARIO + "integrator = rk4\n", "integrator"),
    (SCENARIO + "settle_epsilon = -1e-3\n", "settle_epsilon"),
    (SCENARIO + "settle_epsilon = inf\n", "settle_epsilon"),
    (SCENARIO.replace("x0 = 0.2 0", "x0 = 0.2 0 0"), "x0"),
    (SCENARIO.replace("B = 0; 1\n", "B = 0; 1\ndelay = 0.03\n") + "[perturbations]\nphi = 0.1; 0.2\n", "phi"),
    (_PERTURBED + "noise = -0.5\nseed = 1\n", "noise amplitude"),
    (_PERTURBED + "noise = 0.01\nseed = -1\n", "noise seed must be a non-negative integer, got -1"),
    (SCENARIO.replace("B = 0; 1\n", "B = 0; 1\ndelay = -1\n"), "delay"),
    (SCENARIO.replace("B = 0; 1\n", "B = 0; 1\ndelay = 0.025\n"), "delay"),
], ids=["h", "t_end", "integrator", "settle_epsilon", "settle_epsilon-inf", "x0", "phi", "noise", "noise-seed",
        "delay", "delay-off-grid"])
def test_exit_code_value_out_of_range_names_file_and_key(tmp_path, capsys, text, key):
    scenario = tmp_path / "bad_range.ini"
    scenario.write_text(text)
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {scenario}: " in err and key in err


def test_exit_code_plant_delay_out_of_range_names_file_and_key(tmp_path, capsys):
    plant = tmp_path / "plant.ini"
    plant.write_text(PLANT + "delay = -1\n")
    assert main(["synth", "--plant", str(plant), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INPUT
    assert f"error: {plant}: delay must be a finite number >= 0" in capsys.readouterr().err


def test_exit_code_malformed_plant_delay_names_the_key(tmp_path, capsys):
    plant = tmp_path / "plant.ini"
    plant.write_text(PLANT + "delay = abc\n")
    assert main(["synth", "--plant", str(plant), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(plant) in err and "key 'delay' in [plant]: cannot parse 'abc' as float" in err


@pytest.mark.parametrize("content, message", [
    (SCENARIO.replace("[plant]\n", ""), "File contains no section headers"),
    (SCENARIO + "[sim]\nsettle_epsilon = 1e-6\n", "section 'sim' already exists"),
    (SCENARIO + "h = 0.02\n", "option 'h' in section 'sim' already exists"),
    (SCENARIO + "settle_epsilon\n", "Source contains parsing errors"),
    # values are literal: a '%' is an ordinary character, not interpolation syntax
    (SCENARIO.replace("x0 = 0.2 0", "x0 = 0.7% 0"), "key 'x0' in [sim]: cannot parse '0.7% 0' as a matrix"),
    # [DEFAULT] is an ordinary section, not keys copied into every other one
    ("[DEFAULT]\ndelay = 0.5\n" + SCENARIO, "unknown section [DEFAULT] (expected one of: "),
    (SCENARIO.replace("oscillator", "oscilator"),
     "key 'builtin' in [controller]: unknown builtin controller 'oscilator' (known: oscillator)"),
    (SCENARIO.encode() + b"# \xff\n", "'utf-8' codec can't decode byte 0xff"),
    (None, "cannot read: "),
], ids=["no-section-header", "repeated-section", "repeated-key", "no-delimiter", "percent", "default-section",
        "unknown-builtin", "not-utf8", "missing-file"])
def test_exit_code_malformed_scenario_file_names_it(tmp_path, capsys, content, message):
    scenario = tmp_path / "scenario.ini"
    if content is not None:
        scenario.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scenario}: ") and message in err, err


def test_exit_code_plant_file_without_section_header_names_it(tmp_path, capsys):
    plant = tmp_path / "plant.ini"
    plant.write_text(PLANT.replace("[plant]\n", ""))
    assert main(["synth", "--plant", str(plant), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {plant}: File contains no section headers")


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "none.ini")]) == EXIT_INPUT
    capsys.readouterr()


def test_exit_code_uncontrollable_plant(tmp_path, capsys):
    bad = tmp_path / "uncontrollable.ini"
    bad.write_text("[plant]\nA = 1 0; 0 1\nB = 1; 0\n")
    assert main(["synth", "--plant", str(bad), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INFEASIBLE
    assert "not controllable" in capsys.readouterr().err


def test_exit_code_failed_lyapunov_solve_is_infeasible(tmp_path, plant_file, monkeypatch, capsys):
    def failing(F, Q):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(homctl.synthesis, "_solve_lyapunov", failing)
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(tmp_path / "c.json")]) == EXIT_INFEASIBLE
    assert "no positive-definite solution" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["0.3", "1", "3"])
def test_exit_code_census_plant_with_failed_riccati_branch_is_infeasible(tmp_path, T, capsys):
    # census plant default_rng([99, 6, 2, 11]): the generator step's A0 is not nilpotent
    rng = np.random.default_rng([99, 6, 2, 11])
    A, B = rng.standard_normal((6, 6)), rng.standard_normal((6, 2))
    plant = tmp_path / "rand6x2.ini"
    plant.write_text(f"[plant]\nA = {_matrix_entry(A)}\nB = {_matrix_entry(B)}\n")
    out = tmp_path / "c.json"
    assert main(["synth", "--plant", str(plant), "--T", T, "--out", str(out)]) == EXIT_INFEASIBLE
    assert "generator equation: A0 = A + B K0 is not nilpotent" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_inconsistent_generator_solve_is_infeasible(tmp_path, capsys):
    # a controllable pair whose generator system the least-norm solve finds inconsistent
    plant = tmp_path / "wide_b.ini"
    plant.write_text("[plant]\nA = 0 1; 0 0\nB = 1e4; 1\n")
    out = tmp_path / "c.json"
    assert main(["synth", "--plant", str(plant), "--T", "1", "--out", str(out)]) == EXIT_INFEASIBLE
    assert "generator equation: least_norm_solve: system is inconsistent" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_verification_failure(tmp_path, plant_file, capsys):
    ctrl_path = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(ctrl_path)]) == EXIT_OK
    data = json.loads(ctrl_path.read_text())
    data["K"] = [[0.0, 0.0]]
    ctrl_path.write_text(json.dumps(data))
    assert main(["verify", "--controller", str(ctrl_path)]) == EXIT_VERIFICATION
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("plant, failed", [
    ("A = 0 1; -1 0\nB = 0 0; 1 1\n", "plant_B_match"),
    ("A = 0 1 0; 0 0 1; 0 0 0\nB = 0; 0; 1\n", "plant_A_match, plant_B_match"),
], ids=["two_inputs", "three_states"])
def test_verify_against_plant_of_other_shape_fails_its_match_check(tmp_path, plant, failed, capsys):
    # no broadcast: a plant with two inputs, or with three states, matches no oscillator record
    ctrl_path, plant_path = tmp_path / "ctrl.json", tmp_path / "plant.ini"
    ctrl_path.write_text(json.dumps(controller_to_dict(oscillator_controller())))
    plant_path.write_text("[plant]\n" + plant)
    assert main(["verify", "--controller", str(ctrl_path), "--plant", str(plant_path)]) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[FAIL] plant_B_match: inf" in captured.out
    assert captured.out.splitlines()[-1] == f"verification FAILED: {failed}"


def test_verify_singular_x_reports_failed_checks(tmp_path, capsys):
    # the norm weight P inverts X, so a singular X must fail the checks, not the command
    ctrl_path = tmp_path / "ctrl.json"
    ctrl_path.write_text(json.dumps({**controller_to_dict(oscillator_controller()), "X": [[0, 0], [0, 0]]}))
    assert main(["verify", "--controller", str(ctrl_path)]) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[FAIL] X_positive_definite" in captured.out
    assert "[FAIL] norm_strict_monotonicity: nan" in captured.out
    assert captured.out.splitlines()[-1] == ("verification FAILED: feasibility_equality, X_positive_definite, "
                                             "dilation_lyapunov_pd, gain_K_definition, norm_strict_monotonicity")


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


@pytest.fixture
def record(tmp_path, plant_file):
    path = tmp_path / "ctrl.json"
    assert main(["synth", "--plant", str(plant_file), "--T", "1", "--out", str(path)]) == EXIT_OK
    return path


MALFORMED = ["42", "null", "T=[1.0]", "T=null", 'A={"a": 1}', "T=true", "A=[[false, true], [-1.0, false]]",
             'A=[["0", "1"], ["-1", "0"]]']


@pytest.mark.parametrize("command, case", [("verify", case) for case in MALFORMED]
                         + [("simulate", 'A={"a": 1}')])
def test_malformed_record_is_input_error(record, scenario_file, capsys, command, case):
    capsys.readouterr()
    if "=" in case:
        field, value = case.split("=")
        record.write_text(json.dumps({**json.loads(record.read_text()), field: json.loads(value)}))
        named = f"field {field}"
    else:
        record.write_text(case)
        named = "JSON object"
    argv = [command, "--controller", str(record)]
    if command == "simulate":
        argv += ["--scenario", str(scenario_file)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


@pytest.mark.parametrize("content, message", [
    ("K=[[1, 2, 3]]", "K has shape (1, 3), expected (1, 2)"),
    ('{\n  "T": 1\n  "mu": -1\n}\n', "Expecting ',' delimiter: line 3 column 3"),
], ids=["K-shape", "malformed-json"])
@pytest.mark.parametrize("entry", ["verify", "scenario-file", "simulate"])
def test_bad_record_names_its_file(record, scenario_file, tmp_path, capsys, entry, content, message):
    bad = tmp_path / "badK.json"
    if content.startswith("K="):
        bad.write_text(json.dumps({**json.loads(record.read_text()), "K": json.loads(content[2:])}))
    else:
        bad.write_text(content)
    referring = tmp_path / "file_scenario.ini"
    referring.write_text(SCENARIO.replace("builtin = oscillator", "file = badK.json"))
    argv = {"verify": ["verify", "--controller", str(bad)],
            "scenario-file": ["simulate", "--scenario", str(referring)],
            "simulate": ["simulate", "--scenario", str(scenario_file), "--controller", str(bad)]}[entry]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert f"error: {bad}: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("integrator", ["zoh_exact", "dense"])
def test_simulate_constant_disturbance_of_wrong_length_is_input_error(tmp_path, capsys, integrator):
    path = tmp_path / "short.ini"
    path.write_text(SCENARIO + f"integrator = {integrator}\n[perturbations]\ndisturbance = constant 0.05\n")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    assert "disturbance vector has size 1, expected 2" in capsys.readouterr().err


def test_simulate_fixed_time_zero_reference_reports_no_false_settle(tmp_path, capsys):
    # x0_noise = -x0 zeroes the reference: the sampled run follows the
    # linear law and reports not settled, and the dense run follows it too
    text = (SCENARIO.replace("[controller]\n", "[controller]\nkind = fixed_time\n").replace("t_end = 2.0", "t_end = 6")
            + "[perturbations]\nx0_noise = -0.2 0\n")
    path = tmp_path / "zero_ref.ini"
    path.write_text(text)
    assert main(["simulate", "--scenario", str(path)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["settled"] is False and summary["events"] == []
    path.write_text(text.replace("kind = fixed_time", "kind = prescribed_time_robust")
                    .replace("t_end = 6", "t_end = 6\nintegrator = dense"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["events"] == []


def test_simulate_former_dense_spelling_is_input_error(tmp_path, capsys):
    # the dense mode is spelt "dense"; a scenario with the former "dense_rk" is refused
    path = tmp_path / "dense_rk.ini"
    path.write_text(SCENARIO + "integrator = dense_rk\n")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    assert "unknown integrator 'dense_rk' (known: zoh_exact, dense)" in capsys.readouterr().err


def test_simulate_dense_with_disturbance_is_input_error(tmp_path, capsys):
    # the closed-form dense run has no disturbed counterpart
    path = tmp_path / "dense.ini"
    path.write_text(SCENARIO + "integrator = dense\n[perturbations]\ndisturbance = constant 0 0.05\n")
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


def test_experiment_workers_start_no_thread(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise RuntimeError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["experiment", "--suite", "scaling", "--workers", "4", "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


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
# no homctl module imports scipy

_SCIPY_BLOCKED_RUNS = textwrap.dedent("""
    import contextlib, io, json, sys
    from pathlib import Path


    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"import of {{name}} refused")
            return None


    sys.meta_path.insert(0, RefuseScipy())
    import homctl.cli

    d = Path(sys.argv[1])
    (d / "plant.ini").write_text({plant!r})
    (d / "scenario.ini").write_text({scenario!r})
    runs = [
        ["synth", "--plant", str(d / "plant.ini"), "--T", "1.0", "--out", str(d / "synth.json")],
        ["verify", "--controller", str(d / "synth.json"), "--plant", str(d / "plant.ini")],
        ["simulate", "--scenario", str(d / "scenario.ini"), "--controller", str(d / "synth.json"),
         "--out", str(d / "trace.csv")],
        ["experiment", "--preset", "fig7", "--out", str(d / "runs")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [homctl.cli.main(argv) for argv in runs]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({{"codes": codes, "loaded": loaded}}))
""")


def test_cli_runs_with_scipy_imports_refused(tmp_path):
    import homctl

    src = str(Path(homctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("HOMCTL_LOG", None)
    code = _SCIPY_BLOCKED_RUNS.format(plant=PLANT, scenario=SCENARIO)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                          check=True, env=env)
    assert json.loads(proc.stdout) == {"codes": [EXIT_OK] * 4, "loaded": []}
    assert (tmp_path / "synth.json").exists() and (tmp_path / "runs" / "report.json").exists()


# ---------------------------------------------------------------------------
# logging environment variable


def test_log_level_env_variable(tmp_path, plant_file, monkeypatch, capsys):
    monkeypatch.setenv("HOMCTL_LOG", "debug")
    assert main(["synth", "--plant", str(plant_file), "--T", "1.0",
                 "--out", str(tmp_path / "c.json")]) == EXIT_OK
    capsys.readouterr()
