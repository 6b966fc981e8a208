"""Each independent check must reject a corrupted output.

    python3 -m pytest -q bench/test_checks.py

Real outputs come from ``homctl``; the checks under test never call it.
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from homctl import ControllerKind, DisturbanceSpec, trace_to_csv  # noqa: E402
from homctl.presets import oscillator_controller  # noqa: E402

OSC = oscillator_controller()
CTRL = W.record_dict(OSC)
A, B, H = CTRL["A"], CTRL["B"], W.H
ROBUST = ControllerKind.PRESCRIBED_TIME_ROBUST


def run(**kw) -> dict:
    op = W.sim_op("t", OSC, np.array([0.2, 0.1]), kw.pop("kind", ROBUST), kw.pop("t_end", 2.0), **kw)
    return op.run()


@pytest.fixture(scope="module")
def nominal():
    return run()


@pytest.fixture(scope="module")
def delayed():
    return run(delay=0.5, t_end=2.5)


def corrupt(tr: dict, key: str, k: int, rel: float) -> dict:
    bad = copy.deepcopy(tr)
    bad[key][k] = bad[key][k] * (1.0 + rel)
    return bad


def inputs(tr, kind="prescribed_time_robust", z="x"):
    z0 = tr[z][0]
    r = checks.reference_radius(CTRL, kind, z0)
    return checks.check_inputs(CTRL, kind, r, tr[z], tr["u"], tr["s"])


def test_nominal_trace_passes_every_check(nominal):
    assert checks.check_steps(A, B, H, nominal) == []
    assert inputs(nominal) == []
    assert checks.check_settling(nominal, 1.0 - 2 * H, 1.0 + 2 * H) == []
    assert checks.check_decay_profile(nominal, 1.0, H) == []


def test_step_check_rejects_a_moved_state_or_input(nominal):
    assert checks.check_steps(A, B, H, corrupt(nominal, "x", 40, 1e-7))
    assert checks.check_steps(A, B, H, corrupt(nominal, "u", 40, 1e-7))


def test_step_check_rejects_a_state_left_nonzero_after_the_snap(nominal):
    bad = copy.deepcopy(nominal)
    bad["x"][-1] = [1e-300, 0.0]
    assert checks.check_steps(A, B, H, bad)


def test_input_check_rejects_a_wrong_input_norm_or_kind(nominal):
    assert inputs(corrupt(nominal, "u", 30, 1e-6))
    assert inputs(corrupt(nominal, "s", 30, 1e-8))
    assert inputs(nominal, kind="linear")


def test_settling_and_decay_checks_reject_a_late_or_slow_run(nominal):
    late = dict(nominal, settling_time=1.0 + 3 * H)
    assert checks.check_settling(late, 1.0 - 2 * H, 1.0 + 2 * H)
    unfinished = copy.deepcopy(nominal)
    unfinished["x"][-1] = [1e-12, 0.0]
    assert checks.check_settling(unfinished, 1.0 - 2 * H, 1.0 + 2 * H)
    slow = copy.deepcopy(nominal)
    slow["s"][20:40] += 1.5 * H
    assert checks.check_decay_profile(slow, 1.0, H)


def test_fixed_time_run_inside_the_unit_ball_settles_at_s0_T():
    kind = ControllerKind.FIXED_TIME
    x0 = np.array([0.2, 0.1])
    s0 = checks.initial_s(CTRL, kind.value, x0)
    assert 0.0 < s0 < 1.0
    assert checks.initial_s(CTRL, ROBUST.value, x0) == pytest.approx(1.0, abs=1e-12)
    tr = W.sim_op("t", OSC, x0, kind, 2.0).run()
    assert checks.check_settling(tr, s0 - 2 * H, s0 + 2 * H) == []
    assert checks.check_decay_profile(tr, 1.0, H) == []
    assert checks.check_settling(tr, s0 + 3 * H, s0 + 7 * H)


def test_delay_checks_need_the_right_delay_and_predictor(delayed):
    N = 50
    assert checks.check_steps(A, B, H, delayed, delay_steps=N) == []
    assert checks.check_predictor(delayed, N) == []
    assert inputs(delayed, z="y") == []
    assert checks.check_settling(delayed, 1.5 - 2 * H, 1.5 + 2 * H) == []
    assert checks.check_steps(A, B, H, delayed, delay_steps=N - 1)
    assert checks.check_predictor(corrupt(delayed, "y", 10, 1e-7), N)


def test_disturbed_step_check_needs_the_disturbance_integral():
    dist = DisturbanceSpec(kind="matched_sin", amplitude=1.0, omega=5.0)
    tr = run(disturbance=dist, t_end=0.5)
    q = lambda t: B[:, 0] * np.sin(5.0 * t)  # noqa: E731
    assert checks.check_steps(A, B, H, tr, q=q) == []
    assert checks.check_steps(A, B, H, tr, q=lambda t: 1.001 * q(t))
    assert checks.check_steps(A, B, H, tr)


def test_trace_csv_round_trip_and_corruption(tmp_path, nominal):
    from homctl import SimulationTrace

    tr = SimulationTrace(t=nominal["t"], x=nominal["x"], u=nominal["u"], s=nominal["s"],
                         x_norm=nominal["x_norm"], settled=True, settling_time=nominal["settling_time"])
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, path)
    read = checks.read_trace_csv(path)
    read["events"] = nominal["events"]
    assert checks.check_steps(A, B, H, read) == []
    lines = path.read_text().splitlines()
    cells = lines[30].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[30] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    bad = checks.read_trace_csv(path)
    bad["events"] = nominal["events"]
    assert checks.check_steps(A, B, H, bad)


def controller_check(ctrl, loaded, plant):
    rng = np.random.default_rng(0)
    states = np.array([W.unit(rng, 3) * 10.0 ** rng.uniform(-2, 2) for _ in range(4)])
    return checks.check_controller(ctrl, loaded, plant.A, plant.B, states)


def test_controller_check_rejects_wrong_gain_certificate_or_round_trip(tmp_path):
    plant = W.chain(3)
    out = W.synth_op("c3", plant, 1.7, str(tmp_path / "c3.json"), np.ones((1, 3))).run()
    ctrl, loaded = out["ctrl"], out["loaded"]
    assert controller_check(ctrl, loaded, plant) == []
    bad_gain = dict(ctrl, K=ctrl["K"] * 1.001)
    assert controller_check(bad_gain, dict(loaded, K=bad_gain["K"]), plant)
    X = ctrl["X"].copy()
    X[0, 0] = -1.0
    assert controller_check(dict(ctrl, X=X), dict(loaded, X=X), plant)
    Y = loaded["Y"].copy()
    Y[0, 0] = np.nextafter(Y[0, 0], np.inf)
    assert controller_check(ctrl, dict(loaded, Y=Y), plant)


def test_workers_check_rejects_one_differing_byte(tmp_path):
    for w in (1, 2):
        d = tmp_path / "r0" / f"paper-w{w}"
        d.mkdir(parents=True)
        (d / "report.json").write_text("{}\n")
        (d / "stdout.txt").write_text("ok\n")
    assert W.check_workers_identical(str(tmp_path)) == []
    (tmp_path / "r0" / "paper-w2" / "report.json").write_text("{ }\n")
    assert W.check_workers_identical(str(tmp_path))
