"""Closed-loop simulation: settling windows, scale invariance, delay runs,
dense-mode decay, disturbance/noise handling, terminal capture, CSV output."""

import dataclasses
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import homctl
from homctl import (
    ControllerKind,
    DisturbanceSpec,
    LinearPlant,
    NoiseSpec,
    ScenarioConfig,
    SynthesisConfig,
    dilate,
    disturbance_bound,
    eval_control,
    load_controller,
    make_context,
    measure_settling,
    oscillator_controller,
    oscillator_plant,
    simulate,
    simulate_dense,
    synthesize,
    trace_summary,
    trace_to_csv,
)

H = 0.01


def _nominal(x0, kind=ControllerKind.PRESCRIBED_TIME_ROBUST, t_end=2.0, **kw):
    return ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                          x0=np.asarray(x0, dtype=float), h=H, t_end=t_end, kind=kind, **kw)


# ---------------------------------------------------------------------------
# nominal settling


@pytest.mark.parametrize("x0", [[0.2, 0.0], [0.7, 0.0]])
def test_nominal_settles_in_prescribed_window(x0):
    trace = simulate(_nominal(x0))
    assert trace.settled
    assert 0.98 <= trace.settling_time <= 1.02
    assert trace.x_norm[-1] == 0.0
    assert any(label == "snap_to_zero" for _, label in trace.events)


def test_settling_time_is_scale_invariant():
    times = []
    for lam in (1e-2, 1.0, 1e2, 1e5):
        trace = simulate(_nominal([0.2 * lam, 0.0]))
        times.append(trace.settling_time)
    assert all(t == times[0] for t in times)


def test_nominal_norm_never_exceeds_initial():
    # the clamped law keeps the trajectory inside the initial weighted ball
    trace = simulate(_nominal([0.7, 0.0]))
    assert float(np.max(trace.x_norm)) == pytest.approx(float(trace.x_norm[0]), rel=1e-12)


def test_zero_initial_state_settles_immediately():
    trace = simulate(_nominal([0.0, 0.0]))
    assert trace.settled and trace.settling_time == 0.0
    np.testing.assert_array_equal(trace.x, np.zeros_like(trace.x))
    np.testing.assert_array_equal(trace.u, np.zeros_like(trace.u))


def test_linear_kind_does_not_settle_at_tight_threshold():
    trace = simulate(_nominal([0.2, 0.0], kind=ControllerKind.LINEAR))
    assert trace.settling_time is None
    assert not trace.settled
    # but it does decay
    assert trace.x_norm[-1] < 0.1 * trace.x_norm[0]


def test_prescribed_time_unclamped_also_settles():
    trace = simulate(_nominal([0.2, 0.0], kind=ControllerKind.PRESCRIBED_TIME))
    assert trace.settled and 0.98 <= trace.settling_time <= 1.02


def test_fixed_time_settles_within_budget_for_small_state():
    # radius max(1, |x0|) = 1: settling no later than T (plus capture slack)
    trace = simulate(_nominal([0.2, 0.0], kind=ControllerKind.FIXED_TIME))
    assert trace.settled and trace.settling_time <= 1.02


def test_settle_epsilon_override_changes_measurement():
    trace = simulate(_nominal([0.2, 0.0], settle_epsilon=0.05))
    assert trace.settle_epsilon == 0.05
    assert trace.settling_time < 1.0  # the loose band is reached before T


def test_measure_settling_requires_staying_inside():
    trace = simulate(_nominal([0.2, 0.0]))
    # with an absurdly tight epsilon nothing before the snap qualifies, so
    # the settling instant is exactly the snap instant
    t = measure_settling(trace, 1e-300)
    snap_times = [t_ev for t_ev, label in trace.events if label == "snap_to_zero"]
    assert t == snap_times[0]
    with pytest.raises(ValueError):
        measure_settling(trace, 0.0)


# ---------------------------------------------------------------------------
# known defects, pinned: each fails today, and a fix flips its pin


def _record_run(name, x0, h):
    ctrl = load_controller(os.path.join(_RECORDS, f"{name}.json"))
    return ctrl, simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl,
                                         x0=np.asarray(x0, dtype=float), h=h, t_end=2 * ctrl.T))


@pytest.mark.xfail(raises=RuntimeError, strict=True,
                   reason="ROADMAP item 1: the residual x'Px cancels, 'root refinement did not converge'")
def test_rand6x1_runs_through():
    _, trace = _record_run("rand6x1", np.ones(6), H)
    assert np.all(trace.s >= 0.0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 2: the sampled floor of s (0.038) lies above the 2h/T band")
def test_chain3_settles_within_two_samples_of_T():
    ctrl, trace = _record_run("chain3", [1.0, 0.0, 0.0], H)
    assert trace.settled and abs(trace.settling_time - ctrl.T) <= 2 * H


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 2: with h = T/2 the 2h/T band holds s0 = 1, 'settled at 0.5'")
def test_coarse_sampling_never_reports_settled_before_T():
    trace = simulate(dataclasses.replace(_nominal([0.2, 0.0]), h=0.5))
    assert trace.settling_time is None or trace.settling_time >= 1.0


# ---------------------------------------------------------------------------
# input delay


@pytest.mark.parametrize("x0", [[0.2, 0.0], [0.7, 0.0]])
def test_delay_run_settles_at_shifted_time(x0):
    config = ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(),
                            x0=np.asarray(x0, dtype=float), h=H, t_end=2.5)
    trace = simulate(config)
    assert trace.settled
    assert 1.48 <= trace.settling_time <= 1.52
    labels = [label for _, label in trace.events]
    assert "predictor_snap_to_zero" in labels and "state_snap_to_zero" in labels


def test_delay_run_shift_identity():
    # the predictor sequence reproduces the state N samples later, exactly
    # up to roundoff, while both are still unsnapped
    config = ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(),
                            x0=np.array([0.2, 0.0]), h=H, t_end=2.5)
    trace = simulate(config)
    N = 50
    snap_k = int(round([t for t, label in trace.events if label == "predictor_snap_to_zero"][0] / H))
    for k in range(N, snap_k + N):
        err = np.linalg.norm(trace.x[k] - trace.y[k - N])
        assert err <= 1e-8


def test_delay_prehistory_changes_transient():
    base = ScenarioConfig(plant=oscillator_plant(delay=0.2), controller=oscillator_controller(),
                          x0=np.array([0.2, 0.0]), h=H, t_end=2.0)
    phi = np.ones((20, 1)) * 0.5
    kicked = ScenarioConfig(plant=oscillator_plant(delay=0.2), controller=oscillator_controller(),
                            x0=np.array([0.2, 0.0]), h=H, t_end=2.0, phi=phi)
    t_base = simulate(base)
    t_kick = simulate(kicked)
    assert np.linalg.norm(t_base.x[20] - t_kick.x[20]) > 1e-3


# ---------------------------------------------------------------------------
# dense mode


def test_dense_mode_homogeneous_norm_decays_linearly():
    config = _nominal([0.2, 0.0], integrator="dense_rk", t_end=1.5)
    trace = simulate(config)
    assert trace.s[0] == pytest.approx(1.0, abs=1e-12)
    err = np.max(np.abs(trace.s - (1.0 - trace.t)))
    assert err <= 1e-3
    # integration stops at the terminal band, before T
    assert trace.t[-1] < 1.0


def _random_plant_3x2():
    rng = np.random.default_rng([3, 2])
    return LinearPlant(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))


@pytest.mark.parametrize("T", [0.5, 2.0])
@pytest.mark.parametrize("name", ["chain3", "rand3x2"])
def test_dense_mode_decays_linearly_beyond_two_states(name, T):
    # the continuous law is exact for every synthesized plant, not only the
    # oscillator: s(t) = 1 - t/T until the stop band
    if name == "chain3":
        plant, x0 = LinearPlant(np.eye(3, k=1), np.eye(3)[:, -1:]), [1.0, 0.0, 0.0]
    else:
        plant, x0 = _random_plant_3x2(), [1.0, -0.5, 0.3]
    ctrl = synthesize(plant, SynthesisConfig(T=T))
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=np.array(x0), h=H,
                                    t_end=1.5 * T, integrator="dense_rk"))
    assert trace.s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(trace.s - (1.0 - trace.t / T))) <= 1e-3
    assert trace.t[-1] < T


def test_dense_mode_zero_state():
    trace = simulate(_nominal([0.0, 0.0], integrator="dense_rk"))
    assert trace.settled and trace.settling_time == 0.0


def test_dense_mode_rejects_zero_reference_with_nonzero_state():
    config = ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                            x0=np.array([0.2, 0.0]), h=H, t_end=1.0,
                            integrator="dense_rk", x0_noise=np.array([-0.2, 0.0]))
    with pytest.raises(ValueError):
        simulate_dense(config)


@pytest.mark.parametrize("T", [0.5, 2.0])
@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2"])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_dense_closed_form_solves_the_closed_loop(name, T, kind):
    _check_dense_against_ode(name, T, kind, None)


@pytest.mark.parametrize("scale", [0.2, -0.15])
def test_dense_closed_form_with_corrupted_reference(scale):
    # x0_noise moves s0 off 1 (to about 0.82 and 1.15); the unclamped law
    # still follows s0 - t/T from there
    trace = _check_dense_against_ode("chain3", 1.0, ControllerKind.PRESCRIBED_TIME, scale)
    assert (trace.s[0] < 1.0) == (scale > 0)


_DENSE_PLANTS = {
    "oscillator": (oscillator_plant, [0.2, 0.0]),
    "chain3": (lambda: LinearPlant(np.eye(3, k=1), np.eye(3)[:, -1:]), [1.0, 0.0, 0.0]),
    "rand3x2": (_random_plant_3x2, [1.0, -0.5, 0.3]),
}


def _check_dense_against_ode(name, T, kind, noise_scale):
    """The dense run against the ODE it claims to solve; returns the run.

    Checks the residual ``x' - (A x + B u(x))`` by central differences of
    runs that end at ``t - dt`` and ``t + dt``, and every sample against
    ``solve_ivp`` at ``rtol = 1e-10``.  ``h`` only sets the output grid
    here: ``T/50`` gives the 200-sample minimum.
    """
    make_plant, x0 = _DENSE_PLANTS[name]
    plant, x0 = make_plant(), np.array(x0)
    ctrl = synthesize(plant, SynthesisConfig(T=T))
    x0_noise = None if noise_scale is None else noise_scale * x0
    config = ScenarioConfig(plant=plant, controller=ctrl, x0=x0, h=T / 50, t_end=1.5 * T, kind=kind,
                            integrator="dense_rk", x0_noise=x0_noise)
    trace = simulate_dense(config)
    ctx = make_context(ctrl, kind, x0, x0_noise)

    def rhs(_, x):
        return plant.A @ x + plant.B @ eval_control(ctx, x)

    t_last = trace.t[-1]
    dt = 1e-5 * T
    for t in (0.3 * t_last, 0.9 * t_last):
        ends = [simulate_dense(dataclasses.replace(config, t_end=te)) for te in (t - dt, t, t + dt)]
        assert [e.t[-1] for e in ends] == [t - dt, t, t + dt]
        xdot = (ends[2].x[-1] - ends[0].x[-1]) / (2 * dt)
        f = rhs(t, ends[1].x[-1])
        assert np.linalg.norm(xdot - f) <= 1e-6 * np.linalg.norm(f)

    ref = scipy.integrate.solve_ivp(rhs, (0.0, t_last), x0, method="DOP853", t_eval=trace.t,
                                    rtol=1e-10, atol=1e-14)
    assert ref.success
    err = np.linalg.norm(trace.x - ref.y.T, axis=1) / np.linalg.norm(ref.y.T, axis=1)
    assert np.max(err) <= 1e-6
    return trace


def test_dense_mode_starting_inside_stop_band_returns_at_once():
    # fixed_time floors the radius at 1, so from |x0| << 1 the run starts
    # below the stop level s = 0.02: one sample and the stop event at t = 0
    trace = simulate(_nominal([1e-4, 0.0], kind=ControllerKind.FIXED_TIME, integrator="dense_rk"))
    assert trace.s[0] < 0.02
    np.testing.assert_array_equal(trace.t, [0.0])
    np.testing.assert_array_equal(trace.x, [[1e-4, 0.0]])
    assert trace.events == [(0.0, "dense_stop")]


def test_dense_mode_rejects_a_disturbance():
    config = _nominal([0.2, 0.0], integrator="dense_rk",
                      disturbance=DisturbanceSpec(kind="constant", vector=[0.0, 0.01]))
    with pytest.raises(ValueError, match="disturbance"):
        simulate(config)


def test_dense_mode_rejects_a_record_that_fails_verification():
    ctrl = oscillator_controller()
    bad = dataclasses.replace(ctrl, K=1.01 * ctrl.K)
    config = ScenarioConfig(plant=oscillator_plant(), controller=bad, x0=np.array([0.2, 0.0]), h=H,
                            t_end=2.0, integrator="dense_rk")
    with pytest.raises(ValueError, match="gain_K_definition"):
        simulate(config)


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME])
def test_dense_mode_rejects_a_clamped_start(kind):
    # a reference shrunk by x0_noise puts x0 outside the reference sphere,
    # where the clamped kinds run their linear phase first
    x0 = np.array([5.0, 0.0])
    config = _nominal(x0, kind=kind, integrator="dense_rk", x0_noise=-0.2 * x0)
    with pytest.raises(ValueError, match="clamped"):
        simulate(config)
    # the unclamped law starts there as well
    assert simulate(dataclasses.replace(config, kind=ControllerKind.PRESCRIBED_TIME)).s[0] > 1.0


def test_import_leaves_the_dense_integrator_unloaded():
    # the package integrates nothing numerically, so scipy.integrate stays unloaded
    import homctl

    src = str(Path(homctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, homctl; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# disturbance specification and bound


def test_disturbance_spec_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="wobble")
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="constant")
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="table")
    # there is no table field either
    with pytest.raises(TypeError):
        DisturbanceSpec(kind="table", table=np.array([1.0, 2.0]))


def test_constant_disturbance_length_must_match_the_plant():
    with pytest.raises(ValueError, match="disturbance vector has size 1, expected 2"):
        _nominal([0.2, 0.0], disturbance=DisturbanceSpec(kind="constant", vector=[0.05]))


@pytest.mark.parametrize("dist", [
    DisturbanceSpec(kind="matched_sin", amplitude=2.0, omega=5.0),
    DisturbanceSpec(kind="constant", vector=[0.3, -0.2, 0.5]),
], ids=["matched_sin", "constant"])
def test_disturbance_steps_are_exact(dist):
    # every sampled step adds int_0^h e^{A(h-s)} q2(t_k + s) ds exactly;
    # the reference is 12-node Gauss-Legendre quadrature, exact here to
    # rounding; the bound rejects a 16-substep midpoint rule (off by about
    # 8e-6 h max|q2| on this plant)
    plant = _random_plant_3x2()
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=np.array([1.0, -0.5, 0.3]), h=H,
                                    t_end=2.0, disturbance=dist))
    assert not trace.events  # outside the capture envelope: no snap, plant steps only
    A, B = plant.A, plant.B
    if dist.kind == "matched_sin":
        q2 = lambda t: dist.amplitude * math.sin(dist.omega * t) * B.sum(axis=1)  # noqa: E731
    else:
        q2 = lambda t: dist.vector  # noqa: E731
    blk = np.zeros((5, 5))
    blk[:3, :3], blk[:3, 3:] = A, B
    E = scipy.linalg.expm(H * blk)
    F, gamma = E[:3, :3], E[:3, 3:]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    s = 0.5 * H * (nodes + 1.0)
    kernels = [0.5 * H * w * scipy.linalg.expm(A * (H - si)) for si, w in zip(s, weights)]
    for k in range(len(trace.t) - 1):
        qs = [q2(trace.t[k] + si) for si in s]
        quad = sum(Kn @ q for Kn, q in zip(kernels, qs))
        step = trace.x[k + 1] - F @ trace.x[k] - gamma @ trace.u[k]
        assert np.max(np.abs(step - quad)) <= 1e-12 * H * max(np.abs(q).max() for q in qs)


def test_noise_spec_requires_seed():
    with pytest.raises(ValueError):
        NoiseSpec(amplitude=0.01)
    assert not NoiseSpec().active


def test_disturbance_bound_reference_value(ctrl):
    # closed form for the reference controller at |x0|_P of (0.2, 0)
    r = ctrl.weighted_norm([0.2, 0.0])
    got = disturbance_bound(ctrl, r, rho=2.0)
    assert got == pytest.approx(0.10389479899356806, rel=1e-12)


def test_disturbance_bound_scaling_properties(ctrl):
    r = ctrl.weighted_norm([0.2, 0.0])
    b1 = disturbance_bound(ctrl, r, rho=2.0)
    # linear in the initial radius
    assert disturbance_bound(ctrl, 2 * r, rho=2.0) == pytest.approx(2 * b1, rel=1e-12)
    # hyperbolic in rho
    assert disturbance_bound(ctrl, r, rho=4.0) == pytest.approx(b1 / 2, rel=1e-12)
    # the fixed-time variant floors the radius at one
    bf = disturbance_bound(ctrl, r, rho=2.0, kind=ControllerKind.FIXED_TIME)
    assert bf == pytest.approx(b1 / r, rel=1e-12)
    with pytest.raises(ValueError):
        disturbance_bound(ctrl, r, rho=1.0)


def test_constant_disturbance_inside_bound_settles():
    ctrl = oscillator_controller()
    r = ctrl.weighted_norm([0.2, 0.0])
    bound = disturbance_bound(ctrl, r, rho=2.0)
    gamma = 0.9 * bound / ctrl.weighted_norm([0.0, 1.0])  # |B gamma|_P = 0.9 bound
    config = _nominal([0.2, 0.0], t_end=3.0,
                      disturbance=DisturbanceSpec(kind="constant", vector=[0.0, gamma]))
    trace = simulate(config)
    assert trace.settled and trace.settling_time <= 2.02


def test_constant_disturbance_far_outside_bound_prevents_settling():
    ctrl = oscillator_controller()
    r = ctrl.weighted_norm([0.2, 0.0])
    bound = disturbance_bound(ctrl, r, rho=2.0)
    gamma = 5.0 * bound / ctrl.weighted_norm([0.0, 1.0])
    config = _nominal([0.2, 0.0], t_end=3.0,
                      disturbance=DisturbanceSpec(kind="constant", vector=[0.0, gamma]))
    trace = simulate(config)
    assert trace.settling_time is None
    assert float(np.min(trace.x_norm)) > 1e-6
    # no terminal capture events under a disturbance outside the envelope
    assert not trace.events


def test_matched_sinusoid_keeps_trajectory_bounded():
    config = _nominal([0.7, 0.0], t_end=3.0,
                      disturbance=DisturbanceSpec(kind="matched_sin", amplitude=1.0, omega=5.0))
    trace = simulate(config)
    assert float(np.max(trace.x_norm)) <= 2.0 * trace.x_norm[0]
    assert trace.settling_time is None


# ---------------------------------------------------------------------------
# measurement noise


def test_noise_requires_seed_through_config():
    with pytest.raises(ValueError):
        _nominal([0.2, 0.0], noise=NoiseSpec(amplitude=0.01))


def test_noisy_run_is_reproducible_and_seed_sensitive():
    mk = lambda seed: _nominal([0.2, 0.0], t_end=2.0, noise=NoiseSpec(amplitude=0.01, seed=seed))
    a = simulate(mk(7))
    b = simulate(mk(7))
    c = simulate(mk(8))
    np.testing.assert_array_equal(a.x, b.x)
    assert np.max(np.abs(a.x - c.x)) > 1e-6


def test_noisy_run_bounded_with_residual():
    config = _nominal([0.2, 0.0], t_end=3.0, noise=NoiseSpec(amplitude=0.01, seed=42))
    trace = simulate(config)
    assert float(np.max(trace.x_norm)) <= 2.0 * trace.x_norm[0]
    tail = trace.x_norm[trace.t > 1.0]
    assert math.sqrt(float(np.mean(tail**2))) <= 0.1
    # perturbed runs default to the loose settling threshold
    assert trace.settle_epsilon == 1e-6


def test_initial_state_noise_offsets_reference_only():
    # the corrupted reference changes the controller, not the plant state;
    # the exact-settling guarantee is lost but the run still contracts to a
    # small neighborhood of the origin
    config = _nominal([0.2, 0.0], x0_noise=np.array([0.02, 0.0]))
    trace = simulate(config)
    np.testing.assert_array_equal(trace.x[0], [0.2, 0.0])
    assert float(np.max(trace.x_norm)) <= 1.001 * trace.x_norm[0]
    assert np.all(trace.x_norm[trace.t > 1.0] <= 0.05 * trace.x_norm[0])


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                       x0=np.array([0.2, 0.0, 0.0]), h=H, t_end=1.0)


def test_config_rejects_bad_integrator_and_steps():
    with pytest.raises(ValueError):
        _nominal([0.2, 0.0], integrator="euler")
    with pytest.raises(ValueError):
        ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                       x0=np.array([0.2, 0.0]), h=0.0, t_end=1.0)


def test_config_rejects_string_kind():
    with pytest.raises(ValueError):
        ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                       x0=np.array([0.2, 0.0]), h=H, t_end=1.0, kind="linear")


# ---------------------------------------------------------------------------
# CSV and summary


def test_csv_format_and_round_trip(tmp_path):
    trace = simulate(_nominal([0.2, 0.0]))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    text = path.read_text().splitlines()
    assert text[0] == "t,x1,x2,u1,s,settled"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(trace.t), 6)
    np.testing.assert_array_equal(data[:, 0], trace.t)
    np.testing.assert_array_equal(data[:, 1:3], trace.x)
    # settled flag flips exactly at the settling instant
    flags = data[:, 5]
    k = int(round(trace.settling_time / H))
    assert np.all(flags[:k] == 0) and np.all(flags[k:] == 1)


def test_csv_delay_run_appends_predictor_columns(tmp_path):
    config = ScenarioConfig(plant=oscillator_plant(delay=0.2), controller=oscillator_controller(),
                            x0=np.array([0.2, 0.0]), h=H, t_end=1.5)
    trace = simulate(config)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,s,settled,y1,y2"


def test_csv_accepts_file_object():
    trace = simulate(_nominal([0.2, 0.0], t_end=0.2))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    assert buf.getvalue().startswith("t,x1,x2,u1,s,settled")


def test_csv_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_to_csv(simulate(_nominal([0.7, 0.0])), p1)
    trace_to_csv(simulate(_nominal([0.7, 0.0])), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_failed_write_leaves_no_file(tmp_path, monkeypatch):
    trace = simulate(_nominal([0.2, 0.0], t_end=0.2))

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        trace_to_csv(trace, tmp_path / "t.csv")
    assert list(tmp_path.iterdir()) == []


def test_trace_summary_contents():
    trace = simulate(_nominal([0.2, 0.0]))
    summary = trace_summary(trace)
    assert summary["settled"] is True
    assert summary["settling_time"] == trace.settling_time
    assert summary["samples"] == len(trace.t)
    assert summary["final_norm"] == 0.0
    assert ["%.6g" % t for t, _ in trace.events] == ["%.6g" % t for t, _ in summary["events"]]


# ---------------------------------------------------------------------------
# one warm-started norm solve per sample


def _count_norm_solves(monkeypatch):
    calls = []
    solve = homctl.dilation._solve

    def counting(D, x, guess=None):
        calls.append(guess)
        return solve(D, x, guess)

    # every binding through which a run reaches the private solver
    for module in ("homctl.simulate", "homctl.control_laws"):
        monkeypatch.setattr(importlib.import_module(module), "_solve", counting)
    return calls


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_one_norm_solve_per_sample_and_none_after_snap(monkeypatch, kind):
    calls = _count_norm_solves(monkeypatch)
    trace = simulate(_nominal([0.7, 0.0], kind=kind))
    snaps = [t for t, label in trace.events if label == "snap_to_zero"]
    if kind is ControllerKind.LINEAR:
        assert not snaps
        assert len(calls) == len(trace.t)
    else:
        k_snap = int(round(snaps[0] / H))
        assert len(calls) == k_snap
        assert np.all(trace.s[:k_snap] > 0) and np.all(trace.s[k_snap:] == 0)
    # only the first sample starts cold
    assert calls[0] is None and all(g is not None for g in calls[1:])


def test_delay_run_makes_one_norm_solve_per_sample(monkeypatch):
    calls = _count_norm_solves(monkeypatch)
    config = ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=H, t_end=2.5)
    trace = simulate(config)
    assert len(calls) == np.count_nonzero(trace.s)
    assert trace.y is not None


def test_sampled_loop_never_calls_dilate(monkeypatch):
    # the feedback takes d(-ln s) y as r z from the norm solve's root point
    def refuse(*args, **kwargs):
        raise AssertionError("the sampled loop called dilate")

    for module in ("homctl", "homctl.dilation", "homctl.simulate", "homctl.control_laws"):
        if hasattr(importlib.import_module(module), "dilate"):
            monkeypatch.setattr(importlib.import_module(module), "dilate", refuse)
    for kind in ControllerKind:
        for tau, noise in ((0.0, NoiseSpec()), (0.5, NoiseSpec()), (0.0, NoiseSpec(0.01, seed=3))):
            config = ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                                    x0=np.array([0.7, 0.0]), h=H, t_end=2.0 + tau, kind=kind, noise=noise)
            assert np.all(np.isfinite(simulate(config).u))


def test_divergent_run_fails_on_its_non_finite_state():
    # h = 0.9 destabilizes the sampled linear law; the state overflows and
    # the loop's finiteness check names it before the norm solve sees it
    config = ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=0.9, t_end=1800.0, kind=ControllerKind.LINEAR)
    with pytest.raises(ValueError, match="x has non-finite entries"):
        simulate(config)


_RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")


def _norm_cases():
    cases = [("oscillator", oscillator_controller())]
    for name in ("chain3", "rand3x2", "rand5x2"):
        cases.append((name, load_controller(os.path.join(_RECORDS, f"{name}.json"))))
    return cases


@pytest.mark.parametrize("name,ctrl", _norm_cases())
def test_trace_norms_match_the_weighted_norm_row_by_row(name, ctrl, rng):
    # x_norm is computed for the whole trace at once; every row must agree
    # with Dilation.norm of that state to 4 ulp (sampled and dense runs)
    D = ctrl.dilation
    for kind in ControllerKind:
        for tau, integrator in ((0.0, "zoh_exact"), (0.3, "zoh_exact"), (0.0, "dense_rk")):
            if integrator == "dense_rk" and kind is not ControllerKind.PRESCRIBED_TIME:
                continue
            x0 = rng.normal(size=ctrl.n) * 10.0 ** rng.integers(-3, 4)
            config = ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B, delay=tau), controller=ctrl, x0=x0, h=H,
                                    t_end=1.2 * ctrl.T + tau, kind=kind, integrator=integrator)
            trace = simulate(config)
            ref = np.array([D.norm(x) for x in trace.x])
            assert np.all(np.abs(trace.x_norm - ref) <= 4 * np.spacing(ref)), (kind, tau, integrator)


def test_overflowed_trace_norms_read_nan_never_zero():
    # h = 0.5 destabilizes the sampled linear law on rand5x2.  From about
    # 1e154 on, the terms of x'Px overflow, some with both signs: such a
    # state's norm is NaN (or inf).  Read as 0, these rows would make the
    # diverging run look settled
    ctrl = load_controller(os.path.join(_RECORDS, "rand5x2.json"))
    config = ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=np.ones(5), h=0.5,
                            t_end=190.0, kind=ControllerKind.LINEAR)
    trace = simulate(config)
    assert np.isfinite(trace.x).all()
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.array([ctrl.dilation.norm(x) for x in trace.x])
    assert np.isnan(ref).sum() > 100
    np.testing.assert_array_equal(np.isnan(trace.x_norm), np.isnan(ref))
    assert np.all(np.isnan(trace.x_norm) | (trace.x_norm > 0.0))
    assert not trace.settled
    assert trace_summary(trace)["max_norm"] is None


def test_delay_free_trace_has_no_predictor_state():
    trace = simulate(_nominal([0.2, 0.0]))
    assert trace.y is None
    assert [label for _, label in trace.events] == ["snap_to_zero"]


def test_warm_started_trace_keeps_the_root_tolerance():
    config = _nominal([0.7, 0.0])
    trace = simulate(config)
    D, r = config.controller.dilation, config.controller.weighted_norm(config.x0)
    for x, s in zip(trace.x, trace.s):
        if s > 0:
            assert abs(D.norm(dilate(D, -math.log(s), x / r)) - 1.0) <= 1e-12


def test_overflowing_initial_state_is_rejected():
    # |x0|_P overflows: every x/r would be zero and the run would "settle"
    with pytest.raises(ValueError, match="overflows"):
        simulate(_nominal([1e300, 0.0]))
    with pytest.raises(ValueError, match="overflows"):
        simulate_dense(_nominal([1e300, 0.0], integrator="dense_rk"))
