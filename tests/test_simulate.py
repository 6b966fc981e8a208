"""Closed-loop simulation: settling windows, scale invariance, delay runs,
dense-mode decay, disturbance/noise handling, terminal capture, CSV output."""

import dataclasses
import importlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import census
import homctl
from homctl import (
    ControlContext,
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
    synthesize,
    trace_summary,
    trace_to_csv,
)
from homctl.predictor import build_tables

H = 0.01
_RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")


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


def _early(name, settled):
    return pytest.param(name, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason=f"ROADMAP item 2: 'settled at {settled}', before T - 2h; the dense run settles at 1"))


@pytest.mark.parametrize("name", [_early("rand6x3-s6", 0.95), _early("rand5x3-s20", 0.97)])
def test_census_record_never_reports_settled_before_T(name):
    # the two census records whose sampled run reports a settle too early
    A, B = next((A, B) for case, A, B in census.plants() if case == name)
    plant = LinearPlant(A, B)
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=0.7 * np.eye(len(A))[0], h=H, t_end=3.0))
    assert trace.settling_time is None or trace.settling_time >= ctrl.T - 2 * H


def test_chain6_dense_run_settles_at_T():
    plant = LinearPlant(np.eye(6, k=1), np.eye(6)[:, -1:])
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=0.7 * np.eye(6)[0], h=H, t_end=3.0,
                                    integrator="dense"))
    assert trace.settled and trace.settling_time == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nu", range(2, 7))
def test_sampled_law_tracks_the_theorem_at_every_nu(nu):
    # ROADMAP item 21: on chain nu (controllability index nu) the sampled s
    # follows the theorem's s0 - t/T to first order in h.  e(h) is the largest
    # deviation over t <= 0.8 T s0; the worst e(h) T/h is 7.12 (nu = 6 at
    # h = 1e-2), and e(1e-2)/e(1e-3) runs from 10.5 (nu = 2) to 70.4 (nu = 6)
    plant = LinearPlant(np.eye(nu, k=1), np.eye(nu)[:, -1:])
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    e = {}
    for h in (1e-2, 1e-3):
        trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=0.7 * np.eye(nu)[0], h=h, t_end=ctrl.T))
        s0 = trace.s[0]
        span = trace.t <= 0.8 * ctrl.T * s0
        e[h] = np.max(np.abs(trace.s[span] - (s0 - trace.t[span] / ctrl.T)))
        assert e[h] * ctrl.T / h <= 10.0, (h, e[h])
    assert e[1e-2] / e[1e-3] >= 5.0


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


def _sphere_gap(trace, ctx):
    """Largest ``| |d(-ln s) x / r|_P - 1 |`` over the rows with ``s >= 0.1``.

    The recorded ``s`` is the flow's own ``s0 - t/T``, so this tests the
    recorded ``x`` against it: ``||x / r||_d = s`` exactly where ``x / r``
    lies on the unit sphere once dilated by ``d(-ln s)``.  Nearer the
    origin the identity is ill-conditioned (ROADMAP item 17).
    """
    D, rows = ctx.dilation, trace.s >= 0.1
    return max(abs(D.norm(dilate(D, -math.log(s), x / ctx.ref_norm)) - 1.0)
               for x, s in zip(trace.x[rows], trace.s[rows]))


def test_dense_mode_homogeneous_norm_decays_linearly():
    config = _nominal([0.2, 0.0], integrator="dense", t_end=1.5)
    trace = simulate(config)
    assert trace.s[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(trace.s, np.maximum(trace.s[0] - trace.t, 0.0))
    assert _sphere_gap(trace, make_context(config.controller, config.kind, config.x0)) <= 1e-13
    # the run reaches the origin at T and stays there up to t_end
    assert trace.t[-1] == 1.5 and trace.settled and trace.settling_time == pytest.approx(1.0, abs=1e-12)


def _random_plant_3x2():
    rng = np.random.default_rng([3, 2])
    return LinearPlant(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))


@pytest.mark.parametrize("T", [0.5, 2.0])
@pytest.mark.parametrize("name", ["chain3", "rand3x2"])
def test_dense_mode_decays_linearly_beyond_two_states(name, T):
    # the continuous law is exact for every synthesized plant, not only the
    # oscillator: s(t) = 1 - t/T until the origin at T, and 0 from there
    if name == "chain3":
        plant, x0 = LinearPlant(np.eye(3, k=1), np.eye(3)[:, -1:]), [1.0, 0.0, 0.0]
    else:
        plant, x0 = _random_plant_3x2(), [1.0, -0.5, 0.3]
    ctrl = synthesize(plant, SynthesisConfig(T=T))
    config = ScenarioConfig(plant=plant, controller=ctrl, x0=np.array(x0), h=H, t_end=1.5 * T, integrator="dense")
    trace = simulate(config)
    assert trace.s[0] == pytest.approx(1.0, abs=1e-12)
    assert _sphere_gap(trace, make_context(ctrl, config.kind, config.x0)) <= 1e-13
    assert trace.t[-1] == 1.5 * T and trace.settled and trace.settling_time == pytest.approx(T, rel=1e-12)


@pytest.mark.parametrize("kind", [k for k in ControllerKind if k is not ControllerKind.LINEAR])
@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_dense_run_settles_at_T_s0_with_a_zero_tail(name, kind, monkeypatch):
    # the closed loop reaches the origin, an equilibrium, at exactly T s0:
    # the run settles there at the default epsilon, and every row from there
    # on is the exact limit x = 0, u = 0, s = 0
    ctrl = oscillator_controller() if name == "oscillator" else load_controller(os.path.join(_RECORDS, f"{name}.json"))
    solve, roots = ControlContext.solve, []
    monkeypatch.setattr(ControlContext, "solve", lambda self, y, guess=None: roots.append(solve(self, y, guess)) or roots[-1])
    x0 = 0.7 * np.eye(ctrl.n)[0]
    trace = simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=x0, h=H,
                                    t_end=3 * ctrl.T, kind=kind, integrator="dense"))
    (s0, _), = roots
    assert trace.settled and trace.settle_epsilon == 1e-9 and trace.settling_time == ctrl.T * s0
    tail = trace.t >= ctrl.T * s0
    assert tail.any() and trace.t[-1] == 3 * ctrl.T
    assert not trace.x[tail].any() and not trace.u[tail].any() and not trace.s[tail].any()
    assert trace.x[~tail].any(axis=1).all()


@pytest.mark.parametrize("kind", [k for k in ControllerKind if k is not ControllerKind.LINEAR])
@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_dense_run_lies_on_the_sphere_of_its_s(name, kind):
    # z = e^{H sigma} z0 turns on the P-unit sphere, so every recorded state
    # has the homogeneous norm s0 - t/T that the trace records with it
    ctrl = oscillator_controller() if name == "oscillator" else load_controller(os.path.join(_RECORDS, f"{name}.json"))
    x0 = 0.7 * np.eye(ctrl.n)[0]
    trace = simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=x0, h=H,
                                    t_end=2 * ctrl.T, kind=kind, integrator="dense"))
    assert _sphere_gap(trace, make_context(ctrl, kind, x0)) <= 1e-13


def test_dense_mode_zero_state():
    trace = simulate(_nominal([0.0, 0.0], integrator="dense"))
    assert trace.settled and trace.settling_time == 0.0


def test_dense_mode_reports_its_settling():
    # a dense run's trace is measured like a sampled one: at epsilon 0.1 the
    # oscillator from (0.7, 0) enters the band for good at t = 0.899 on its
    # grid; at the default 1e-9 it settles where it reaches the origin, at T
    trace = simulate(_nominal([0.7, 0.0], integrator="dense", settle_epsilon=0.1))
    assert trace.settled and trace.settle_epsilon == 0.1
    assert trace.settling_time == measure_settling(trace, 0.1) == pytest.approx(0.899, abs=1e-3)
    trace = simulate(_nominal([0.7, 0.0], integrator="dense"))
    assert trace.settled and trace.settling_time == pytest.approx(1.0, abs=1e-12) and trace.settle_epsilon == 1e-9
    # simulate is the dense mode's one entry point: the dense function's own
    # trace had no settling fields, so it is not exported
    assert not any(hasattr(m, "simulate_dense") for m in (homctl, importlib.import_module("homctl.simulate")))


@pytest.mark.parametrize("kind", [k for k in ControllerKind if k is not ControllerKind.LINEAR])
def test_dense_mode_zero_reference_runs_the_fixed_law(kind):
    # x0_noise = -x0 zeroes the reference: the context's fixed law
    # u = K0 x + c KT x runs (c = 0 for prescribed_time, 1 for the clamped
    # kinds), and the dense run is its closed loop e^{t (A0 + c B KT)} x0
    ctrl = oscillator_controller()
    x0 = np.array([0.2, -0.1])
    trace = simulate(_nominal(x0, kind=kind, integrator="dense", x0_noise=-x0))
    c = 0.0 if kind is ControllerKind.PRESCRIBED_TIME else 1.0
    # one product over the grid: within a few roundings of the per-row form
    u = np.array([ctrl.K0.dot(x) + c * ctrl.KT.dot(x) for x in trace.x])
    np.testing.assert_allclose(trace.u, u, rtol=0, atol=4 * np.finfo(float).eps * np.max(np.abs(u)))
    ref = np.array([scipy.linalg.expm(t * (ctrl.A0 + c * ctrl.B @ ctrl.KT)) @ x0 for t in trace.t])
    assert np.all(np.linalg.norm(trace.x - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))
    assert trace.t[-1] == 2.0 and not trace.events


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.LINEAR])
@pytest.mark.parametrize("name", ["oscillator", "chain3", "chain5", "chain6"])
def test_dense_run_does_no_expm_per_point(name, kind, monkeypatch):
    # both flows turn w = L'v (P = LL') as one orbit map over the whole grid,
    # from one eigenbasis: the run's only matrix exponential is the record's
    # d(-ln T), formed on first use.  On chains 5 and 6 the linear law's
    # A0 + B KT has no usable eigenbasis in plant coordinates.  The per-point
    # expm that remains runs in
    # test_dense_mode_zero_reference_runs_the_fixed_law[PRESCRIBED_TIME],
    # whose flow A0 is nilpotent, so defective in any coordinates
    if name == "oscillator":
        ctrl, x0 = oscillator_controller(), np.array([0.7, 0.0])
        assert homctl.dilation.Dilation(-ctrl.A0, ctrl.P)._eig is None
    elif name == "chain3":
        ctrl, x0 = load_controller(os.path.join(_RECORDS, "chain3.json")), np.array([0.6, -0.8, 0.0])
    else:
        n = int(name[5:])
        ctrl = synthesize(LinearPlant(np.eye(n, k=1), np.eye(n)[:, -1:]), SynthesisConfig(T=1.0))
        x0 = 0.7 * np.eye(n)[0]
    expm, calls = homctl.linalg.expm, []
    monkeypatch.setattr(homctl.linalg, "expm", lambda M: calls.append(M) or expm(M))
    trace = simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=x0, h=H,
                                    t_end=2 * ctrl.T, kind=kind, integrator="dense"))
    assert len(trace.t) >= 200
    assert len(calls) <= 1 and all(np.array_equal(M, -math.log(ctrl.T) * ctrl.Gd) for M in calls)


@pytest.mark.parametrize("integrator", ["zoh_exact", "dense"])
@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME, ControllerKind.PRESCRIBED_TIME_ROBUST,
                                  ControllerKind.LINEAR])
def test_zero_reference_s_column_reads_inf_at_nonzero_states(kind, integrator):
    # with a zero radius r the recorded s is the limit of ||x / r||_d as
    # r -> 0+: inf at every nonzero state, never the 0 of a captured sample
    x0 = np.array([0.2, 0.0])
    trace = simulate(_nominal(x0, kind=kind, integrator=integrator, x0_noise=-x0))
    assert trace.x.any(axis=1).all() and np.all(trace.s == math.inf)
    # from the origin the fixed law holds the state at zero, and s reads 0
    trace = simulate(_nominal([0.0, 0.0], kind=kind, integrator=integrator))
    assert not trace.x.any() and not trace.s.any()


def test_dense_mode_rejects_a_delay_and_noise():
    # the config refuses a run the closed form does not describe, before it starts
    x0 = np.array([0.2, 0.0])
    with pytest.raises(ValueError, match="needs a delay-free, unperturbed run, got delay 0.5, noise 0 "):
        ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(), x0=x0,
                       h=H, t_end=2.0, integrator="dense")
    with pytest.raises(ValueError, match="got delay 0, noise 0.01 and disturbance none"):
        _nominal(x0, integrator="dense", noise=NoiseSpec(amplitude=0.01, seed=1))


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

    Checks the recorded input against :func:`eval_control` at every sample,
    the residual ``x' - (A x + B u(x))`` by central differences of runs that
    end at ``t - dt`` and ``t + dt``, and every sample against ``solve_ivp``
    at ``rtol = 1e-10``.  ``h`` only sets the output grid here: ``T/50``
    gives the 200-sample minimum.
    """
    make_plant, x0 = _DENSE_PLANTS[name]
    plant, x0 = make_plant(), np.array(x0)
    ctrl = synthesize(plant, SynthesisConfig(T=T))
    x0_noise = None if noise_scale is None else noise_scale * x0
    config = ScenarioConfig(plant=plant, controller=ctrl, x0=x0, h=T / 50, t_end=1.5 * T, kind=kind,
                            integrator="dense", x0_noise=x0_noise)
    trace = simulate(config)
    ctx = make_context(ctrl, kind, x0, x0_noise)
    # the run's feedback reads the closed form's (s, z); eval_control solves
    # them from each state, so the two agree to the root-find's tolerance
    ref = np.array([eval_control(ctx, x) for x in trace.x])
    assert np.all(np.abs(trace.u - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))

    def rhs(_, x):
        return plant.A @ x + plant.B @ eval_control(ctx, x)

    # near the settle the closed loop is not Lipschitz and solve_ivp stalls:
    # the comparison ends where s reaches 0.02
    t_last = T * (trace.s[0] - 0.02) if ctx.reads_s else trace.t[-1]
    dt = 1e-5 * T
    for t in (0.3 * t_last, 0.9 * t_last):
        ends = [simulate(dataclasses.replace(config, t_end=te)) for te in (t - dt, t, t + dt)]
        assert [e.t[-1] for e in ends] == [t - dt, t, t + dt]
        xdot = (ends[2].x[-1] - ends[0].x[-1]) / (2 * dt)
        f = rhs(t, ends[1].x[-1])
        assert np.linalg.norm(xdot - f) <= 1e-6 * np.linalg.norm(f)

    span = trace.t <= t_last
    ref = scipy.integrate.solve_ivp(rhs, (0.0, t_last), x0, method="DOP853", t_eval=trace.t[span],
                                    rtol=1e-10, atol=1e-14)
    assert ref.success
    err = np.linalg.norm(trace.x[span] - ref.y.T, axis=1) / np.linalg.norm(ref.y.T, axis=1)
    assert np.max(err) <= 1e-6
    return trace


def test_dense_mode_from_a_small_start_settles_at_T_s0():
    # fixed_time floors the radius at 1, so from |x0| << 1 the run starts at
    # a small s0 and reaches the origin at T s0 < T, a point of its grid
    x0 = np.array([1e-4, 0.0])
    trace = simulate(_nominal(x0, kind=ControllerKind.FIXED_TIME, integrator="dense"))
    s0 = make_context(oscillator_controller(), ControllerKind.FIXED_TIME, x0).solve(x0)[0]
    assert trace.settled and trace.settling_time == s0 < 1.0 and trace.t[-1] == 2.0
    np.testing.assert_array_equal(trace.x[0], x0)
    settled = trace.t >= s0
    assert not trace.x[settled].any() and not trace.u[settled].any() and not trace.s[settled].any()
    # from the origin with a nonzero reference s0 = 0 and there is no root
    # point: every row is zero, settled at 0
    trace = simulate(_nominal([0.0, 0.0], integrator="dense", x0_noise=[0.2, 0.0]))
    assert trace.settled and trace.settling_time == 0.0 and trace.t[-1] == 2.0 and not trace.events
    assert not trace.x.any() and not trace.u.any() and not trace.s.any()


def test_dense_mode_rejects_a_disturbance():
    with pytest.raises(ValueError, match="got delay 0, noise 0 and disturbance constant"):
        _nominal([0.2, 0.0], integrator="dense", disturbance=DisturbanceSpec(kind="constant", vector=[0.0, 0.01]))


def test_dense_mode_rejects_a_record_that_fails_verification():
    ctrl = oscillator_controller()
    bad = dataclasses.replace(ctrl, K=1.01 * ctrl.K)
    with pytest.raises(ValueError, match="gain_K_definition"):
        ScenarioConfig(plant=oscillator_plant(), controller=bad, x0=np.array([0.2, 0.0]), h=H, t_end=2.0,
                       integrator="dense")


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME])
def test_dense_mode_rejects_a_clamped_start(kind):
    # a reference shrunk by x0_noise puts x0 outside the reference sphere,
    # where the clamped kinds run their linear phase first
    x0 = np.array([5.0, 0.0])
    with pytest.raises(ValueError, match=rf"{kind.value} starts clamped \(\|x0\| = [\d.]+ > r = [\d.]+\)"):
        _nominal(x0, kind=kind, integrator="dense", x0_noise=-0.2 * x0)
    # the unclamped law starts there as well
    unclamped = _nominal(x0, kind=ControllerKind.PRESCRIBED_TIME, integrator="dense", x0_noise=-0.2 * x0)
    assert simulate(unclamped).s[0] > 1.0


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME])
def test_dense_clamp_rule_is_exact(kind, rng):
    # the rule is |x0|_P <= r: with no x0_noise it compares |x0|_P with
    # itself, or with the radius floored at 1, so no start is refused
    for x0 in rng.normal(size=(20, 2)) * 10.0 ** rng.integers(-3, 4, size=(20, 1)):
        _nominal(x0, kind=kind, integrator="dense")
    # a reference one part in 1e12 short of a start outside the unit sphere
    # is refused: the rule has no rounding slack
    x0 = np.array([5.0, 0.0])
    with pytest.raises(ValueError, match="starts clamped"):
        _nominal(x0, kind=kind, integrator="dense", x0_noise=-1e-12 * x0)


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
    with pytest.raises(ValueError, match="matched_sin amplitude must be a finite number, got inf"):
        DisturbanceSpec(kind="matched_sin", amplitude=math.inf, omega=1.0)


_READ = {"none": {}, "matched_sin": {"amplitude": 1.0, "omega": 5.0}, "constant": {"vector": [0.0, 0.05]}}


@pytest.mark.parametrize("kind, field, value", [
    ("none", "amplitude", 0.5), ("none", "omega", 5.0), ("none", "vector", [0.0, 0.05]),
    ("matched_sin", "vector", [0.0, 0.05]), ("constant", "amplitude", 0.5), ("constant", "omega", 5.0),
])
def test_disturbance_spec_refuses_a_field_its_kind_does_not_read(kind, field, value):
    # such a field would be dropped silently: DisturbanceSpec("none", amplitude=0.5) ran undisturbed
    with pytest.raises(ValueError) as info:
        DisturbanceSpec(kind, **_READ[kind], **{field: value})
    assert str(info.value) == f"disturbance {kind!r} takes no {field}, got {value!r}"
    # the field's default stays accepted
    default = DisturbanceSpec.__dataclass_fields__[field].default
    assert getattr(DisturbanceSpec(kind, **_READ[kind], **{field: default}), field) is default


def test_scenario_config_refuses_a_matrix_initial_state():
    # a 2 x 2 x0 on a 4-state plant would run from the flattened matrix
    n = 4
    plant = LinearPlant(np.eye(n, k=1), np.eye(n)[:, -1:])
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    with pytest.raises(ValueError, match=r"^x0 must be one row or one column, got shape \(2, 2\)$"):
        ScenarioConfig(plant=plant, controller=ctrl, x0=0.1 * np.eye(2), h=H, t_end=1.0)
    config = ScenarioConfig(plant=plant, controller=ctrl, x0=np.full((n, 1), 0.1), h=H, t_end=1.0)
    np.testing.assert_array_equal(config.x0, np.full(n, 0.1))


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
    with pytest.raises(ValueError, match="noise amplitude must be a finite number >= 0"):
        NoiseSpec(amplitude=-0.01, seed=1)


@pytest.mark.parametrize("seed, shown", [
    (-1, "-1"), (np.int64(-3), "np.int64(-3)"), (1.5, "1.5"), (7.0, "7.0"), ("7", "'7'"),
    (True, "True"), (np.True_, "np.True_"), (np.float64(2.0), "np.float64(2.0)"), ([1], "[1]"),
])
@pytest.mark.parametrize("amplitude", [0.0, 0.01])
def test_noise_spec_refuses_a_seed_that_is_not_a_non_negative_integer(seed, shown, amplitude):
    # refused when the spec is built, before a run hands the seed to numpy
    with pytest.raises(ValueError, match=rf"^noise seed must be a non-negative integer, got {re.escape(shown)}$"):
        NoiseSpec(amplitude=amplitude, seed=seed)


@pytest.mark.parametrize("seed", [None, 0, 7, np.int64(7), np.uint8(3), 2**70])
def test_noise_spec_keeps_a_non_negative_integer_seed(seed):
    assert NoiseSpec(amplitude=0.0, seed=seed).seed is seed
    if seed is not None:
        np.random.default_rng(NoiseSpec(amplitude=0.01, seed=seed).seed)


def test_disturbance_bound_reference_value(ctrl):
    # closed form for the reference controller at |x0|_P of (0.2, 0)
    r = ctrl.dilation.norm([0.2, 0.0])
    got = disturbance_bound(ctrl, r, rho=2.0)
    assert got == pytest.approx(0.10389479899356806, rel=1e-12)


def test_disturbance_bound_scaling_properties(ctrl):
    r = ctrl.dilation.norm([0.2, 0.0])
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


@pytest.mark.parametrize("x0_norm, kind, message", [
    # a string used to fall through to the clamped bound (0.1356 for the
    # fixed-time 0.2713); the linear law certifies no settling time
    (0.5, "fixed_time", "kind must be a homogeneous ControllerKind"),
    (0.5, None, "kind must be a homogeneous ControllerKind"),
    (0.5, ControllerKind.LINEAR, "kind must be a homogeneous ControllerKind"),
    (-0.1, ControllerKind.FIXED_TIME, "x0_norm must be a finite number >= 0"),
    (math.inf, ControllerKind.FIXED_TIME, "x0_norm must be a finite number >= 0"),
    (math.nan, ControllerKind.FIXED_TIME, "x0_norm must be a finite number >= 0"),
])
def test_disturbance_bound_rejects_bad_arguments(ctrl, x0_norm, kind, message):
    with pytest.raises(ValueError, match=message):
        disturbance_bound(ctrl, x0_norm, rho=2.0, kind=kind)


def test_constant_disturbance_inside_bound_settles():
    ctrl = oscillator_controller()
    r = ctrl.dilation.norm([0.2, 0.0])
    bound = disturbance_bound(ctrl, r, rho=2.0)
    gamma = 0.9 * bound / ctrl.dilation.norm([0.0, 1.0])  # |B gamma|_P = 0.9 bound
    config = _nominal([0.2, 0.0], t_end=3.0,
                      disturbance=DisturbanceSpec(kind="constant", vector=[0.0, gamma]))
    trace = simulate(config)
    assert trace.settled and trace.settling_time <= 2.02


def test_constant_disturbance_far_outside_bound_prevents_settling():
    ctrl = oscillator_controller()
    r = ctrl.dilation.norm([0.2, 0.0])
    bound = disturbance_bound(ctrl, r, rho=2.0)
    gamma = 5.0 * bound / ctrl.dilation.norm([0.0, 1.0])
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


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_fixed_time_zero_reference_runs_the_linear_law_and_never_snaps(tau):
    # x0_noise = -x0 zeroes the reference, so the context runs the linear
    # law: the run must not snap to zero, nor report a settle, while its
    # state still decays exponentially (|x| is 3.1e-5 at t = 6)
    def run(kind, x0_noise=None):
        return simulate(ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                                       x0=np.array([0.2, 0.0]), h=H, t_end=6.0 + tau, kind=kind,
                                       x0_noise=x0_noise))

    trace = run(ControllerKind.FIXED_TIME, np.array([-0.2, 0.0]))
    linear = run(ControllerKind.LINEAR)
    assert not trace.settled and trace.settling_time is None and not trace.events
    np.testing.assert_array_equal(trace.x, linear.x)
    np.testing.assert_array_equal(trace.u, linear.u)
    assert trace.x_norm[-1] > 1e-5


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
    with pytest.raises(ValueError, match="plant and controller dimensions differ"):
        ScenarioConfig(plant=LinearPlant(np.eye(3, k=1), np.eye(3)[:, -1:]), controller=oscillator_controller(),
                       x0=np.zeros(3), h=H, t_end=1.0)


def test_config_rejects_bad_integrator_and_steps():
    with pytest.raises(ValueError):
        _nominal([0.2, 0.0], integrator="euler")
    # the dense mode's spelling is "dense"; its former name is not read
    with pytest.raises(ValueError, match=r"unknown integrator 'dense_rk' \(known: zoh_exact, dense\)"):
        _nominal([0.2, 0.0], integrator="dense_rk")
    with pytest.raises(ValueError):
        ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                       x0=np.array([0.2, 0.0]), h=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="t_end must be a finite number > 0"):
        _nominal([0.2, 0.0], t_end=0.0)
    with pytest.raises(ValueError, match="settle_epsilon must be a finite number > 0"):
        _nominal([0.2, 0.0], settle_epsilon=0.0)


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
    # an overflowed row writes nan and inf, which read back as written
    trace.x[3], trace.u[4], trace.s[5] = [np.nan, np.inf], -np.inf, np.nan
    trace_to_csv(trace, path)
    text = path.read_text().splitlines()
    assert text[4].split(",")[1:3] == ["nan", "inf"] and text[5].split(",")[3] == "-inf"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1:3], trace.x)
    np.testing.assert_array_equal(data[:, 3:5], np.column_stack([trace.u, trace.s]))
    assert np.array_equal(data[:, 5], flags)


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


def _csv_reference_traces():
    delayed = ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(),
                             x0=np.array([0.7, 0.0]), h=H, t_end=2.5)
    dense = _nominal([0.7, 0.0], t_end=2.0, integrator="dense")
    # h = 0.5 destabilizes the sampled linear law on rand5x2 (|x| up to
    # 1e296), and the zero reference makes every s inf
    ctrl = load_controller(os.path.join(_RECORDS, "rand5x2.json"))
    diverging = ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=np.ones(5), h=0.5,
                               t_end=190.0, kind=ControllerKind.LINEAR, x0_noise=-np.ones(5))
    return [("delayed", delayed), ("dense", dense), ("diverging", diverging)]


@pytest.mark.parametrize("name,config", _csv_reference_traces(), ids=[c[0] for c in _csv_reference_traces()])
def test_csv_matches_savetxt(name, config):
    trace = simulate(config)
    if name == "diverging":
        assert np.isinf(trace.s).all() and np.abs(trace.x).max() > 1e290
        trace.u[7, 0], trace.x[8, 1] = np.nan, -np.inf
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    n, m, st = trace.n, trace.m, trace.settling_time
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)] + ["s", "settled"]
    blocks = [trace.t[:, None], trace.x, trace.u, trace.s[:, None], (trace.t >= (st or math.inf))[:, None]]
    fmt = ["%.17g"] * (n + m + 2) + ["%d"]
    if trace.y is not None:
        cols += [f"y{i+1}" for i in range(n)]
        blocks.append(trace.y)
        fmt += ["%.17g"] * n
    ref = io.StringIO()
    np.savetxt(ref, np.hstack(blocks), fmt=fmt, delimiter=",", header=",".join(cols), comments="")
    assert buf.getvalue() == ref.getvalue()


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


def _count_norm_solves(monkeypatch, roots=None):
    """Records the guess of every scalar solve, and its root into ``roots``."""
    calls = []
    solve = homctl.dilation._solve

    def counting(D, x, guess=None):
        calls.append(guess)
        out = solve(D, x, guess)
        if roots is not None:
            roots.append(out[0])
        return out

    # every binding through which a run reaches the private solver, found by
    # identity so that no binding can hide a solve from the count
    patched = [(mod, attr) for name, mod in list(sys.modules.items())
               if name == "homctl" or name.startswith("homctl.")
               for attr, value in vars(mod).items() if value is solve]
    assert patched
    for mod, attr in patched:
        monkeypatch.setattr(mod, attr, counting)
    return calls


def _count_row_solves(monkeypatch):
    """Counts the batched solves and the rows each one takes."""
    rows = []
    solve_rows = homctl.dilation._solve_rows

    def counting(D, X):
        rows.append(len(X))
        return solve_rows(D, X)

    monkeypatch.setattr(homctl.control_laws, "_solve_rows", counting)
    return rows


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_one_norm_solve_per_sample_and_none_after_snap(monkeypatch, kind):
    calls = _count_norm_solves(monkeypatch)
    rows = _count_row_solves(monkeypatch)
    trace = simulate(_nominal([0.7, 0.0], kind=kind))
    snaps = [t for t, label in trace.events if label == "snap_to_zero"]
    if kind is ControllerKind.LINEAR:
        # the linear law never reads s: no scalar solve, and the s column
        # comes from one batched solve after the loop
        assert not snaps
        assert not calls
        assert rows == [len(trace.t)]
        assert np.all(trace.s > 0)
    else:
        k_snap = int(round(snaps[0] / H))
        assert len(calls) == k_snap
        assert not rows
        assert np.all(trace.s[:k_snap] > 0) and np.all(trace.s[k_snap:] == 0)
        # only the first sample starts cold
        assert calls[0] is None and all(g is not None for g in calls[1:])


def _replay_loop(config, trace):
    """Replays the sampled loop's step on its recorded states, with the loop's own warm-start rule.

    Asserts that every recorded ``u`` (and, without noise, ``s``) is the
    context's ``solve`` and ``feedback`` of the point, bit for bit.  The
    noise is drawn as one ``rng.uniform(-a, a, n)`` per sample.
    """
    N = int(round(config.plant.delay / config.h))
    x0 = config.x0
    if N:
        x0 = homctl.predictor.predict(build_tables(config.plant, config.h), x0, np.zeros((N, config.plant.m)))
    ctx = ControlContext(config.controller, config.kind, x0)
    snaps = [t for t, label in trace.events if label in ("snap_to_zero", "predictor_snap_to_zero")]
    K = int(round(snaps[0] / config.h)) if snaps else len(trace.t)
    rng = np.random.default_rng(config.noise.seed) if config.noise.active else None
    a = config.noise.amplitude
    s = s_prev = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            meas = trace.y[k] if N else trace.x[k]
            if rng is not None:
                meas = meas + rng.uniform(-a, a, config.plant.n)
            guess = 2.0 * s - s_prev if s_prev > 0.0 and 2.0 * s > s_prev else s
            s_prev = s if rng is None else 0.0
            s, z = ctx.solve(meas, guess if guess > 0.0 else None)
            if rng is None:
                assert s == trace.s[k]
            np.testing.assert_array_equal(trace.u[k], ctx.feedback(meas, s, z))
    return K


@pytest.mark.parametrize("case", ["oscillator", "chain3-delay", "oscillator-noise"])
def test_loop_step_is_exactly_the_context_pair(case):
    # each sample's (s, u) is ControlContext.solve and feedback of its point,
    # bit for bit; the noisy run pins that a seed gives the per-sample
    # stream of uniform draws
    if case == "chain3-delay":
        ctrl = load_controller(os.path.join(_RECORDS, "chain3.json"))
        config = ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B, delay=0.3), controller=ctrl,
                                x0=np.array([0.5, -0.2, 0.1]), h=H, t_end=2 * ctrl.T + 0.3)
    else:
        noise = NoiseSpec(amplitude=0.01, seed=11) if case == "oscillator-noise" else NoiseSpec()
        config = _nominal([0.7, 0.0], noise=noise)
    trace = simulate(config)
    K = _replay_loop(config, trace)
    assert K > 100
    assert (K < len(trace.t)) == (case == "oscillator")


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_noisy_run_solves_the_measurement_once_per_sample(monkeypatch, kind, tau):
    # the homogeneous feedback solves each noisy measurement, warm-started
    # from the previous measurement's root; the linear law solves nothing.
    # The s column of the true state comes from one batched solve
    roots = []
    calls = _count_norm_solves(monkeypatch, roots)
    rows = _count_row_solves(monkeypatch)
    config = ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=H, t_end=2.0 + tau, kind=kind,
                            noise=NoiseSpec(amplitude=0.01, seed=5))
    trace = simulate(config)
    assert not trace.events
    assert rows == [len(trace.t)]
    assert np.all(trace.s > 0)
    if kind is ControllerKind.LINEAR:
        assert not calls
    else:
        assert len(calls) == len(trace.t)
        assert calls[0] is None and all(g is not None for g in calls[1:])
        # the guess at sample k is the root at k - 1, not an extrapolation
        assert calls[1:] == roots[:-1]


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_dense_run_solves_s0_alone_or_a_fixed_law_s_column_in_one_batch(monkeypatch, kind):
    # the closed form gives (s, z) at every grid point, so a homogeneous run
    # solves s0 alone and records the flow's own s; the linear kind's
    # feedback never reads s, so it solves no s0, and its s column is one
    # batched solve over the states
    calls = {"solve": 0, "solve_rows": []}
    solve, solve_rows = ControlContext.solve, ControlContext.solve_rows

    def counting_solve(self, y, guess=None):
        calls["solve"] += 1
        return solve(self, y, guess)

    def counting_rows(self, Y):
        calls["solve_rows"].append(len(Y))
        return solve_rows(self, Y)

    monkeypatch.setattr(ControlContext, "solve", counting_solve)
    monkeypatch.setattr(ControlContext, "solve_rows", counting_rows)
    scalar = _count_norm_solves(monkeypatch)
    trace = simulate(_nominal([0.7, 0.0], kind=kind, integrator="dense"))
    if kind is ControllerKind.LINEAR:
        assert calls["solve"] == len(scalar) == 0 and calls["solve_rows"] == [len(trace.t)]
    else:
        assert calls["solve"] == len(scalar) == 1 and calls["solve_rows"] == []


def test_delay_run_makes_one_norm_solve_per_sample(monkeypatch):
    calls = _count_norm_solves(monkeypatch)
    config = ScenarioConfig(plant=oscillator_plant(delay=0.5), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=H, t_end=2.5)
    trace = simulate(config)
    assert len(calls) == np.count_nonzero(trace.s)
    assert trace.y is not None


def _capture_index(trace):
    """The sample from which the (predictor) state is captured at zero."""
    snaps = [t for t, label in trace.events if label in ("snap_to_zero", "predictor_snap_to_zero")]
    return int(round(snaps[0] / H)) if snaps else None


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_feedback_runs_only_before_the_capture(monkeypatch, kind, tau):
    calls = []
    feedback = ControlContext.feedback

    def counting(self, y, s, z):
        calls.append(s)
        return feedback(self, y, s, z)

    monkeypatch.setattr(ControlContext, "feedback", counting)
    config = ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=H, t_end=2.0 + tau, kind=kind)
    trace = simulate(config)
    k_snap = _capture_index(trace)
    if kind is ControllerKind.LINEAR:
        assert k_snap is None
        assert len(calls) == len(trace.t)
    else:
        assert 0 < k_snap < len(trace.t)
        assert len(calls) == k_snap


def test_delayed_plant_runs_out_its_inputs_in_flight():
    # after the predictor capture the plant is stepped exactly on the N
    # inputs already sent, row for row, and reads zero from k_snap + N on
    plant = oscillator_plant(delay=0.5)
    config = ScenarioConfig(plant=plant, controller=oscillator_controller(), x0=np.array([0.7, 0.0]),
                            h=H, t_end=2.5)
    trace = simulate(config)
    tables = build_tables(plant, H)
    N, F, gamma = tables.N, tables.F, tables.gamma
    k_snap = _capture_index(trace)
    assert N == 50 and k_snap + N < len(trace.t)
    for k in range(k_snap - 1, k_snap + N - 1):
        assert np.array_equal(trace.x[k + 1], F @ trace.x[k] + gamma @ trace.u[k - N]), k
    assert np.all(trace.x[k_snap + N - 1] != 0.0)
    assert not trace.x[k_snap + N:].any()


# 0.05 |x0| from x0 = (0.7, 0): inside the rejection envelope, so the run captures
_INSIDE = DisturbanceSpec(kind="matched_sin", amplitude=0.05 * 0.7, omega=5.0)


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("dist", [DisturbanceSpec(), _INSIDE], ids=["undisturbed", "matched_sin"])
def test_tail_after_the_capture_is_positive_zero(dist, tau):
    config = ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                            x0=np.array([0.7, 0.0]), h=H, t_end=3.0 + tau, disturbance=dist)
    trace = simulate(config)
    k_snap = _capture_index(trace)
    N = int(round(tau / H))
    assert k_snap is not None and k_snap + N < len(trace.t)
    tails = [trace.x[k_snap + N:], trace.u[k_snap:], trace.s[k_snap:], trace.x_norm[k_snap + N:]]
    if tau:
        tails.append(trace.y[k_snap:])
    for tail in tails:
        assert tail.size and not tail.any() and not np.signbit(tail).any()
    assert trace.settled and trace.settling_time == trace.t[k_snap + N]


def _old_rejection_rate(controller):
    w, V = np.linalg.eigh(0.5 * (controller.X + controller.X.T))
    Xh = (V * np.sqrt(w)) @ V.T
    Xmh = (V / np.sqrt(w)) @ V.T
    Gd = controller.Gd
    return homctl.linalg.min_eig_sym(Xmh @ Gd @ Xh + Xh @ Gd.T @ Xmh)


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2", "rand6x1"])
def test_rejection_rate_is_the_formula_bit_for_bit(name):
    if name == "oscillator":
        ctrl = oscillator_controller()
    else:
        ctrl = load_controller(os.path.join(_RECORDS, f"{name}.json"))
    assert ctrl.rejection_rate == _old_rejection_rate(ctrl)
    assert ctrl.rejection_rate is ctrl.rejection_rate  # formed once per record


def test_rejection_rate_needs_a_positive_definite_X(ctrl):
    bad = dataclasses.replace(ctrl, X=-ctrl.X)
    with pytest.raises(ValueError, match="not positive definite"):
        bad.rejection_rate
    with pytest.raises(ValueError, match="not positive definite"):
        disturbance_bound(bad, 1.0, rho=2.0)


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



def _norm_cases():
    cases = [("oscillator", oscillator_controller())]
    for name in ("chain3", "rand3x2", "rand5x2"):
        cases.append((name, load_controller(os.path.join(_RECORDS, f"{name}.json"))))
    return cases


@pytest.mark.parametrize("name,ctrl", _norm_cases())
def test_trace_norms_match_the_weighted_norm_row_by_row(name, ctrl, rng):
    # x_norm is Dilation.norm of the whole trace at once, its block path;
    # every row must agree with the vector path on that state to 4 ulp
    # (sampled and dense runs)
    D = ctrl.dilation
    for kind in ControllerKind:
        for tau, integrator in ((0.0, "zoh_exact"), (0.3, "zoh_exact"), (0.0, "dense")):
            if integrator == "dense" and kind is not ControllerKind.PRESCRIBED_TIME:
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


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.01, seed=3)], ids=["nominal", "noisy"])
@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.LINEAR])
def test_warm_started_trace_keeps_the_root_tolerance(kind, noise, tau):
    # s is per-sample and warm-started (nominal homogeneous runs) or batched
    # (linear and noisy runs); every row meets the root tolerance either way,
    # re-evaluated through dilate, on the oscillator and the bench records
    for name, ctrl in _norm_cases():
        x0 = np.zeros(ctrl.n)
        x0[0] = 0.7
        config = ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B, delay=tau), controller=ctrl,
                                x0=x0, h=H, t_end=2.0 * ctrl.T + tau, kind=kind, noise=noise)
        trace = simulate(config)
        Y = trace.y if tau else trace.x
        D = ctrl.dilation
        r = D.norm(Y[0])
        assert np.count_nonzero(trace.s) > 90, name
        for y, s in zip(Y, trace.s):
            if s > 0:
                assert abs(D.norm(dilate(D, -math.log(s), y / r)) - 1.0) <= 1e-12, name


def test_overflowing_initial_state_is_rejected():
    # |x0|_P overflows: every x/r would be zero and the run would "settle"
    with pytest.raises(ValueError, match="overflows"):
        simulate(_nominal([1e300, 0.0]))
    with pytest.raises(ValueError, match="overflows"):
        simulate(_nominal([1e300, 0.0], integrator="dense"))
