"""Scenario/plant file parsing and the bundled experiment presets."""

import dataclasses
import re

import numpy as np
import pytest

from homctl import (
    ControllerKind,
    NoiseSpec,
    PRESETS,
    SUITES,
    ScenarioConfig,
    builtin_controller,
    load_plant,
    load_scenario,
    oscillator_controller,
    parse_matrix,
    parse_vector,
    run_preset,
    save_controller,
    simulate,
)
from homctl.presets import never_settles, residual_rms_below, settles_within

PLANT = """
[plant]
A = 0 1; -1 0
B = 0; 1
"""

SIM = """
[sim]
x0 = 0.2 0
h = 0.01
t_end = 2.0
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# matrix and vector syntax


def test_parse_matrix_semicolon_rows():
    np.testing.assert_array_equal(parse_matrix("0 1; -1 0"), [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(parse_matrix("1 2 3"), [[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(parse_matrix("0; 1"), [[0.0], [1.0]])


@pytest.mark.parametrize("bad", ["1 2; 3", "a b", ""])
def test_parse_matrix_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_matrix(bad)


def test_parse_vector_accepts_semicolons_too():
    np.testing.assert_array_equal(parse_vector("1 2 3"), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(parse_vector("1; 2"), [1.0, 2.0])
    with pytest.raises(ValueError):
        parse_vector(" ")


# ---------------------------------------------------------------------------
# plant files


def test_load_plant(tmp_path):
    plant = load_plant(_write(tmp_path, PLANT, "plant.ini"))
    np.testing.assert_array_equal(plant.A, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(plant.B, [[0.0], [1.0]])
    assert plant.delay == 0.0


def test_load_plant_with_delay_and_comments(tmp_path):
    text = PLANT + "delay = 0.5  # on the sampling grid\n"
    plant = load_plant(_write(tmp_path, text, "plant.ini"))
    assert plant.delay == 0.5


def test_load_plant_semicolon_with_spaces_separates_rows(tmp_path):
    text = "[plant]\nA = 0 1 ; -1 0\nB = 0 ; 1\n"
    plant = load_plant(_write(tmp_path, text, "plant.ini"))
    np.testing.assert_array_equal(plant.A, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(plant.B, [[0.0], [1.0]])


def test_load_plant_missing_key(tmp_path):
    path = _write(tmp_path, "[plant]\nA = 0 1; -1 0\n", "plant.ini")
    with pytest.raises(ValueError, match="missing key 'B'"):
        load_plant(path)


def test_load_plant_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_plant(tmp_path / "absent.ini")
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: cannot read: "):
        load_plant(tmp_path)


# ---------------------------------------------------------------------------
# scenario files


def test_scenario_with_builtin_controller(tmp_path):
    text = PLANT + "[controller]\nbuiltin = oscillator\nkind = prescribed_time\n" + SIM
    config = load_scenario(_write(tmp_path, text))
    assert config.kind is ControllerKind.PRESCRIBED_TIME
    np.testing.assert_array_equal(config.x0, [0.2, 0.0])
    assert config.h == 0.01 and config.t_end == 2.0
    np.testing.assert_array_equal(config.controller.K, [[-5.5, -3.0]])


def test_scenario_with_controller_file_relative_path(tmp_path):
    save_controller(oscillator_controller(), tmp_path / "ctrl.json")
    text = PLANT + "[controller]\nfile = ctrl.json\n" + SIM
    config = load_scenario(_write(tmp_path, text))
    np.testing.assert_array_equal(config.controller.X, [[1.0, -2.0], [-2.0, 5.5]])
    # kind defaults to the clamped prescribed-time law
    assert config.kind is ControllerKind.PRESCRIBED_TIME_ROBUST


def test_scenario_controller_override(tmp_path):
    save_controller(oscillator_controller(), tmp_path / "other.json")
    text = PLANT + "[controller]\nbuiltin = oscillator\n" + SIM
    config = load_scenario(_write(tmp_path, text), controller_override=tmp_path / "other.json")
    np.testing.assert_array_equal(config.controller.K, [[-5.5, -3.0]])


def test_scenario_sim_options(tmp_path):
    text = (PLANT + "[controller]\nbuiltin = oscillator\n"
            + "[sim]\nx0 = 0.2 0\nh = 0.01\nt_end = 1.0\nintegrator = dense\n"
            + "settle_epsilon = 1e-7\n")
    config = load_scenario(_write(tmp_path, text))
    assert config.integrator == "dense"
    assert config.settle_epsilon == 1e-7


def test_scenario_perturbations_section(tmp_path):
    text = (PLANT + "[controller]\nbuiltin = oscillator\n" + SIM
            + "[perturbations]\ndisturbance = matched_sin 1.0 5.0\n"
            + "noise = 0.01\nseed = 11\nx0_noise = 0.01 0\n")
    config = load_scenario(_write(tmp_path, text))
    assert config.disturbance.kind == "matched_sin"
    assert config.disturbance.amplitude == 1.0 and config.disturbance.omega == 5.0
    assert config.noise.amplitude == 0.01 and config.noise.seed == 11
    np.testing.assert_array_equal(config.x0_noise, [0.01, 0.0])


def test_scenario_constant_disturbance_and_seed_override(tmp_path):
    text = (PLANT + "[controller]\nbuiltin = oscillator\n" + SIM
            + "[perturbations]\ndisturbance = constant 0 0.05\nnoise = 0.01\nseed = 3\n")
    config = load_scenario(_write(tmp_path, text), seed_override=99)
    np.testing.assert_array_equal(config.disturbance.vector, [0.0, 0.05])
    assert config.noise.seed == 99


def test_scenario_delay_with_prehistory(tmp_path):
    text = ("[plant]\nA = 0 1; -1 0\nB = 0; 1\ndelay = 0.03\n"
            + "[controller]\nbuiltin = oscillator\n" + SIM
            + "[perturbations]\nphi = 0.1; 0.2; 0.3\n")
    config = load_scenario(_write(tmp_path, text))
    np.testing.assert_array_equal(config.phi, [[0.1], [0.2], [0.3]])


@pytest.mark.parametrize("delay", ["", "delay = 0.03\n"], ids=["delay-free", "delayed"])
def test_scenario_phi_has_no_zero_keyword(tmp_path, delay):
    # 'phi' is a matrix like any other; a delayed plant given none starts from a zero pre-history
    text = PLANT + delay + "[controller]\nbuiltin = oscillator\n" + SIM
    assert load_scenario(_write(tmp_path, text)).phi is None
    path = _write(tmp_path, text + "[perturbations]\nphi = zero\n")
    with pytest.raises(ValueError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: key 'phi' in [perturbations]: cannot parse 'zero' as a matrix"


@pytest.mark.parametrize(
    "controller_block, message",
    [
        ("[controller]\nkind = sliding\nbuiltin = oscillator\n", "unknown controller kind"),
        ("[controller]\nbuiltin = nonexistent\n", "unknown builtin"),
        ("[controller]\nkind = linear\n", "either 'file' or 'builtin'"),
        ("[controller]\nfile = not_there.json\n", "not found"),
        ("[controller]\nfile =\n", r"scenario\.ini: cannot read controller file '.*/': Is a directory"),
        ("[controller]\nbuiltin = oscillator\nfile = chain3.json\n",
         r"\[controller\] takes either 'file' or 'builtin', not both"),
    ],
)
def test_scenario_controller_errors(tmp_path, controller_block, message):
    text = PLANT + controller_block + SIM
    with pytest.raises(ValueError, match=message):
        load_scenario(_write(tmp_path, text))


def test_unknown_builtin_controller_names_the_known_one():
    with pytest.raises(ValueError) as info:
        builtin_controller("x")
    assert str(info.value) == "unknown builtin controller 'x' (known: oscillator)"
    np.testing.assert_array_equal(builtin_controller("oscillator").K, oscillator_controller().K)


@pytest.mark.parametrize("controller_block", ["", "[controller]\nkind = linear\n"])
def test_scenario_controller_override_keeps_kind(tmp_path, controller_block):
    override = tmp_path / "override.json"
    save_controller(oscillator_controller(), override)
    config = load_scenario(_write(tmp_path, PLANT + controller_block + SIM), controller_override=override)
    assert config.controller.K.tolist() == oscillator_controller().K.tolist()
    assert config.kind is (ControllerKind.LINEAR if controller_block else ControllerKind.PRESCRIBED_TIME_ROBUST)


def test_scenario_controller_override_rejects_unknown_kind(tmp_path):
    override = tmp_path / "override.json"
    save_controller(oscillator_controller(), override)
    text = PLANT + "[controller]\nkind = bogus\n" + SIM
    with pytest.raises(ValueError, match=r"unknown controller kind 'bogus' \(expected one of: "):
        load_scenario(_write(tmp_path, text), controller_override=override)


def test_scenario_unknown_builtin_names_the_file_and_key(tmp_path):
    # 'builtin' is parsed by the key table, as every other key is, with or without an override
    override = tmp_path / "override.json"
    save_controller(oscillator_controller(), override)
    path = _write(tmp_path, PLANT + "[controller]\nbuiltin = oscilator\n" + SIM)
    for controller_override in (None, override):
        with pytest.raises(ValueError) as info:
            load_scenario(path, controller_override=controller_override)
        assert str(info.value) == (f"{path}: key 'builtin' in [controller]: "
                                   "unknown builtin controller 'oscilator' (known: oscillator)")


def test_scenario_values_are_literal(tmp_path):
    # no interpolation: a '%' in a file name is an ordinary character
    save_controller(oscillator_controller(), tmp_path / "ctrl%1.json")
    config = load_scenario(_write(tmp_path, PLANT + "[controller]\nfile = ctrl%1.json\n" + SIM))
    np.testing.assert_array_equal(config.controller.K, oscillator_controller().K)


def test_default_section_is_an_ordinary_section(tmp_path):
    # its keys are not copied into [plant]: a plant file ignores it as any other section
    text = "[DEFAULT]\ndelay = 0.5\n" + PLANT
    assert load_plant(_write(tmp_path, text, "plant.ini")).delay == 0.0
    with pytest.raises(ValueError, match=r"unknown section \[DEFAULT\]"):
        load_scenario(_write(tmp_path, text + _CONTROLLER + SIM))


@pytest.mark.parametrize("content, message", [
    (PLANT.replace("[plant]\n", ""), "File contains no section headers"),
    (PLANT + PLANT, "section 'plant' already exists"),
    (PLANT + "A = 0 1; -1 0\n", "option 'A' in section 'plant' already exists"),
    (PLANT.encode() + b"delay = 0.5 # \xe9\n", "'utf-8' codec can't decode byte 0xe9"),
], ids=["no-section-header", "repeated-section", "repeated-key", "not-utf8"])
def test_plant_file_that_does_not_parse_names_it(tmp_path, content, message):
    path = tmp_path / "plant.ini"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(ValueError) as info:
        load_plant(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_scenario_unknown_disturbance(tmp_path):
    text = (PLANT + "[controller]\nbuiltin = oscillator\n" + SIM
            + "[perturbations]\ndisturbance = gusts 1 2\n")
    with pytest.raises(ValueError, match="unknown disturbance"):
        load_scenario(_write(tmp_path, text))


_CONTROLLER = "[controller]\nbuiltin = oscillator\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (PLANT + _CONTROLLER + SIM + "[perturbaitons]\nnoise = 0.5\nseed = 1\n", r"unknown section \[perturbaitons\]"),
        (PLANT + _CONTROLLER + SIM + "[perturbations]\nnoise = 0.5\nsed = 1\n", r"unknown key 'sed' in \[perturbations\]"),
        (PLANT + _CONTROLLER + SIM + "settle_epsilom = 1e-3\n", r"unknown key 'settle_epsilom' in \[sim\]"),
        (PLANT + "delya = 0.5\n" + _CONTROLLER + SIM, r"unknown key 'delya' in \[plant\]"),
        (PLANT + _CONTROLLER + "knid = linear\n" + SIM, r"unknown key 'knid' in \[controller\]"),
        # the snap band is 2h/T, fixed: an override could only report a false capture
        (PLANT + _CONTROLLER + SIM + "snap_delta = 0.02\n", r"unknown key 'snap_delta' in \[sim\]"),
    ],
    ids=["section", "perturbations-key", "sim-key", "plant-key", "controller-key", "snap-delta"],
)
def test_scenario_rejects_unknown_sections_and_keys(tmp_path, text, message):
    # a misspelt name would otherwise be dropped: a noisy run loads noise-free
    with pytest.raises(ValueError, match=message):
        load_scenario(_write(tmp_path, text))


def test_plant_file_checks_only_the_plant_section(tmp_path):
    # a scenario file doubles as a plant file; [sim] is not the plant loader's business
    plant = load_plant(_write(tmp_path, PLANT + "delay = 0.5\n" + SIM + "[extra]\nkey = 1\n"))
    assert plant.delay == 0.5
    with pytest.raises(ValueError, match=r"unknown key 'dealy' in \[plant\]"):
        load_plant(_write(tmp_path, PLANT + "dealy = 0.5\n"))


def test_scenario_absent_keys_take_the_config_defaults(tmp_path):
    config = load_scenario(_write(tmp_path, PLANT + _CONTROLLER + SIM))
    plain = ScenarioConfig(plant=config.plant, controller=config.controller, x0=config.x0, h=config.h,
                           t_end=config.t_end)
    for f in dataclasses.fields(ScenarioConfig):
        assert repr(getattr(config, f.name)) == repr(getattr(plain, f.name)), f.name


def test_scenario_seed_without_noise_is_parsed_and_inert(tmp_path):
    # the seed is read like every other key, so a malformed one is refused,
    # but with no noise there is nothing for it to seed
    text = PLANT + _CONTROLLER + SIM + "[perturbations]\nseed = 3\n"
    config = load_scenario(_write(tmp_path, text))
    assert config.noise == NoiseSpec() and not config.perturbed
    with pytest.raises(ValueError, match=r"key 'seed' in \[perturbations\]: cannot parse '1.5' as int"):
        load_scenario(_write(tmp_path, text.replace("seed = 3", "seed = 1.5")))


@pytest.mark.parametrize("noise, seed, override", [("0.01", "-1", None), ("0", "-1", None), ("0.01", "3", -1)],
                         ids=["noisy", "zero-noise", "override"])
def test_scenario_noise_seed_out_of_range_names_the_file(tmp_path, noise, seed, override):
    # refused when the config is built, not by numpy once the run starts
    path = _write(tmp_path, PLANT + _CONTROLLER + SIM + f"[perturbations]\nnoise = {noise}\nseed = {seed}\n")
    with pytest.raises(ValueError) as info:
        load_scenario(path, seed_override=override)
    assert str(info.value) == f"{path}: noise seed must be a non-negative integer, got -1"
    # without noise the seed seeds nothing, and stays inert
    assert load_scenario(_write(tmp_path, PLANT + _CONTROLLER + SIM + "[perturbations]\nseed = -1\n"),
                         seed_override=override).noise == NoiseSpec()


def test_scenario_missing_sim_section(tmp_path):
    text = PLANT + "[controller]\nbuiltin = oscillator\n"
    with pytest.raises(ValueError, match=r"missing \[sim\]"):
        load_scenario(_write(tmp_path, text))


# ---------------------------------------------------------------------------
# presets


def test_suites_partition_presets():
    assert set(SUITES) == {"paper", "scaling"}
    named = [name for suite in SUITES.values() for name in suite]
    assert sorted(named) == sorted(PRESETS)
    assert len(SUITES["paper"]) == 8 and len(SUITES["scaling"]) == 4


def test_run_preset_nominal_report():
    trace, report = run_preset(PRESETS["fig1"])
    assert report["passed"] is True
    assert report["summary"]["settled"] is True
    names = [e["name"] for e in report["expectations"]]
    assert any("settles_within" in n for n in names)
    assert len(trace.t) == report["summary"]["samples"]


def test_run_preset_seed_override_changes_noisy_run():
    _, r1 = run_preset(PRESETS["fig5"], seed=1)
    _, r2 = run_preset(PRESETS["fig5"], seed=2)
    assert r1["summary"]["final_norm"] != r2["summary"]["final_norm"]
    # expectations hold across seeds, not only for the default
    assert r1["passed"] and r2["passed"]


def test_expectations_name_their_failures():
    # a run cut at t = 0.5 has not settled and has no samples past T = 1;
    # the full run settles, so never_settles fails on it
    config = PRESETS["fig1"].build(None)
    short = simulate(dataclasses.replace(config, t_end=0.5))
    full = simulate(config)
    cases = [(settles_within(0.98, 1.02), short, "never settled below 1e-09"),
             (never_settles(), full, f"unexpectedly settled at t={full.settling_time:.6g}"),
             (residual_rms_below(1e-6), short, "no samples after t=1")]
    for expectation, trace, detail in cases:
        assert expectation.evaluate(trace, config) == {"name": expectation.name, "passed": False, "detail": detail}


def test_all_presets_pass_their_expectations():
    for name, preset in PRESETS.items():
        _, report = run_preset(preset)
        assert report["passed"], (name, report["expectations"])
