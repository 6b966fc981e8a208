"""Feedback evaluation: kinds, clamping, the zero-state and zero-reference
branches, and the calibrated gain ``KT`` on the controller record."""

import dataclasses
import math
import os

import numpy as np
import pytest

from homctl import (
    ControllerKind,
    LinearPlant,
    ScenarioConfig,
    dilation_matrix,
    eval_control,
    hom_norm,
    linalg,
    load_controller,
    make_context,
    oscillator_controller,
    simulate,
)

KINDS = list(ControllerKind)


@pytest.fixture
def ctx(ctrl):
    return make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0])


def test_context_reads_the_dilation_from_its_controller(ctx, ctrl):
    assert [f.name for f in dataclasses.fields(ctx)] == ["controller", "kind", "x0_ref"]
    assert ctx.dilation is ctrl.dilation


# ---------------------------------------------------------------------------
# reference values


def test_control_at_reference_state(ctx):
    # on the reference sphere the law is linear: u = (K0 + K d(-ln T)) x0
    np.testing.assert_allclose(eval_control(ctx, [0.2, 0.0]), [-0.9], atol=1e-14)


def test_control_at_zero_state_is_zero(ctx):
    np.testing.assert_array_equal(eval_control(ctx, [0.0, 0.0]), [0.0])


def test_clamp_outside_reference_sphere_is_exactly_linear(ctrl):
    # beyond the reference sphere s clamps to 1 and the law must equal the
    # linear-kind evaluation bit for bit: same branch, no dilation involved
    ctx = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0])
    ctx_lin = make_context(ctrl, ControllerKind.LINEAR, [0.2, 0.0])
    for x in ([0.4, 0.0], [0.0, 1.0], [-3.0, 2.0]):
        np.testing.assert_array_equal(eval_control(ctx, x), eval_control(ctx_lin, x))


def test_prescribed_time_is_unclamped(ctrl):
    ctx_pt = make_context(ctrl, ControllerKind.PRESCRIBED_TIME, [0.2, 0.0])
    ctx_rb = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0])
    x = [0.4, 0.0]  # outside the reference sphere
    u_pt = eval_control(ctx_pt, x)
    u_rb = eval_control(ctx_rb, x)
    assert abs(u_pt[0] - u_rb[0]) > 1e-3
    # inside, both kinds agree
    x_in = [0.1, 0.0]
    np.testing.assert_allclose(eval_control(ctx_pt, x_in), eval_control(ctx_rb, x_in), rtol=1e-12)


def test_fixed_time_equals_robust_for_large_reference(ctrl, rng):
    # |x0| >= 1: the fixed-time floor max(1, |x0|) is inactive
    x0 = [3.0, 0.0]
    ctx_f = make_context(ctrl, ControllerKind.FIXED_TIME, x0)
    ctx_r = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, x0)
    for _ in range(200):
        x = rng.normal(size=2) * 10.0 ** rng.integers(-3, 2)
        np.testing.assert_allclose(eval_control(ctx_f, x), eval_control(ctx_r, x), rtol=1e-10, atol=1e-12)


def test_fixed_time_small_reference_uses_unit_radius(ctrl):
    # |x0| < 1: normalization radius is 1, so s = |x|_d without rescaling
    ctx = make_context(ctrl, ControllerKind.FIXED_TIME, [0.2, 0.0])
    x = np.array([0.05, 0.02])
    s = hom_norm(ctrl.dilation, x)
    assert s < 1
    expected = ctrl.K0 @ x + ctrl.K @ np.linalg.matrix_power(np.diag([1 / s**2, 1 / s]), 1) @ x
    np.testing.assert_allclose(eval_control(ctx, x), expected, rtol=1e-9)


def test_linear_kind_is_constant_gain(ctrl, rng):
    ctx = make_context(ctrl, ControllerKind.LINEAR, [0.2, 0.0])
    Klin = ctrl.K0 + ctrl.K
    for _ in range(50):
        x = rng.normal(size=2)
        np.testing.assert_allclose(eval_control(ctx, x), Klin @ x, rtol=1e-12)


# ---------------------------------------------------------------------------
# zero-reference branches


def test_zero_reference_prescribed_time_degenerates_to_homogeneous_part(ctrl):
    ctx = make_context(ctrl, ControllerKind.PRESCRIBED_TIME, [0.0, 0.0])
    x = np.array([0.3, -0.1])
    np.testing.assert_array_equal(eval_control(ctx, x), ctrl.K0 @ x)


def test_zero_reference_clamped_kinds_fall_back_to_linear(ctrl):
    x = np.array([0.3, -0.1])
    for kind in (ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME):
        ctx = make_context(ctrl, kind, [0.0, 0.0])
        np.testing.assert_array_equal(eval_control(ctx, x), (ctrl.K0 + ctrl.K) @ x)


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME, ControllerKind.PRESCRIBED_TIME_ROBUST,
                                  ControllerKind.LINEAR])
def test_zero_radius_solve_rows_is_the_limit_of_the_norm(ctrl, kind):
    # ||y / r||_d -> inf as r -> 0+ for every nonzero y, the subnormal one
    # included; only a zero row reads 0, the value of a captured sample
    ctx = make_context(ctrl, kind, [0.2, 0.0], x0_noise=[-0.2, 0.0])
    assert ctx.ref_norm == 0.0
    Y = np.array([[0.0, 0.0], [0.2, 0.0], [5e-324, 0.0], [0.0, -3.0]])
    np.testing.assert_array_equal(ctx.solve_rows(Y), [0.0, math.inf, math.inf, math.inf])


_PT, _ROBUST, _FIXED, _LINEAR = KINDS


@pytest.mark.parametrize("kind, x0, c", [
    (_PT, [0.2, 0.0], None), (_ROBUST, [0.2, 0.0], None), (_FIXED, [0.2, 0.0], None), (_LINEAR, [0.2, 0.0], 1.0),
    (_PT, [0.0, 0.0], 0.0), (_ROBUST, [0.0, 0.0], 1.0), (_FIXED, [0.0, 0.0], 1.0), (_LINEAR, [0.0, 0.0], 1.0),
])
def test_context_decides_once_which_law_runs(ctrl, kind, x0, c):
    # the fixed law u = K0 x + c KT x runs where the feedback reads no s;
    # fixed_time's floor gives a zero reference the radius 1, but a zero
    # reference still runs the fixed law
    ctx = make_context(ctrl, kind, x0)
    assert ctx.fixed_c == c and ctx.reads_s == (c is None)
    assert ctx.ref_norm == (max(ctx.r0, 1.0) if kind is _FIXED else ctx.r0)
    if c is not None:
        x = np.array([0.3, -0.1])
        np.testing.assert_array_equal(eval_control(ctx, x), ctrl.K0.dot(x) + c * ctrl.KT.dot(x))


@pytest.mark.parametrize("kind", [_PT, _ROBUST, _FIXED])
def test_subnormal_state_gets_the_k0_branch(ctrl, kind):
    # a nonzero state far below resolvable scale has the norm s = 0 and no
    # root point: the law is u = K0 x, never the zero input
    ctx = make_context(ctrl, kind, [0.2, 0.0])
    x = np.array([5e-324, 1e-320])
    assert ctx.solve(x) == (0.0, None)
    u = eval_control(ctx, x)
    np.testing.assert_array_equal(u, ctrl.K0.dot(x))
    assert u.any()


def test_reference_noise_shifts_normalization(ctrl):
    ctx_clean = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0])
    ctx_noisy = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0], x0_noise=[0.05, 0.0])
    assert ctx_noisy.r0 == pytest.approx(ctrl.dilation.norm([0.25, 0.0]), rel=1e-12)
    x = [0.1, 0.05]
    assert abs(eval_control(ctx_clean, x)[0] - eval_control(ctx_noisy, x)[0]) > 1e-6


# ---------------------------------------------------------------------------
# the feedback formula


_RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")


def _trace_cases():
    cases = [("oscillator", oscillator_controller(), np.array([0.7, -0.2]))]
    for name in ("chain3", "rand3x2", "rand5x2"):
        c = load_controller(os.path.join(_RECORDS, f"{name}.json"))
        cases.append((name, c, np.ones(c.n)))
    return cases


@pytest.mark.parametrize("tau", [0.0, 0.3])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,ctrl,x0", _trace_cases())
def test_sampled_inputs_match_the_feedback_formula(name, ctrl, x0, kind, tau):
    # the loop forms d(-ln s) y from the root point of the norm solve; check
    # every input against K0 y + K d(-ln T) d(-ln min(1, s)) y built from
    # dilation matrices (the linear kind is the law at s = 1).  The largest
    # relative difference measured over these runs was 1.3e-13.
    plant = LinearPlant(ctrl.A, ctrl.B, delay=tau)
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=x0, h=0.01, t_end=2 * ctrl.T + tau,
                                    kind=kind))
    D = ctrl.dilation
    KT = ctrl.K @ dilation_matrix(D, -math.log(ctrl.T))
    ys = trace.x if trace.y is None else trace.y
    for y, s, u in zip(ys, trace.s, trace.u):
        if s == 0.0:
            # captured: y = 0 and so is the input
            assert not y.any() and not u.any()
            continue
        c = 1.0 if kind is ControllerKind.LINEAR else min(1.0, s)
        expected = ctrl.K0 @ y + KT @ dilation_matrix(D, -math.log(c)) @ y
        assert np.max(np.abs(u - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_gain_diverges_toward_origin_for_prescribed_time(ctrl):
    # the scheduled gain grows without bound as the state shrinks - the
    # mechanism behind a settling time independent of the initial state:
    # the homogeneous part |u - K0 x| / |x| grows tenfold and more every
    # two decades of |x|
    ctx = make_context(ctrl, ControllerKind.PRESCRIBED_TIME, [0.2, 0.0])
    gains = []
    for k in range(0, 7, 2):
        x = np.array([0.2 * 10.0**-k, 0.0])
        gains.append(np.linalg.norm(eval_control(ctx, x) - ctrl.K0 @ x) / np.linalg.norm(x))
    assert all(b > 10 * a for a, b in zip(gains, gains[1:]))


def test_control_amplitude_bound_near_origin(ctrl, rng):
    # inside the reference sphere, |u| <= |K0 x| + sqrt(K X K') |x0|: the
    # homogeneous term is bounded by the reference radius even as x -> 0
    amplitude = math.sqrt((ctrl.K @ ctrl.X @ ctrl.K.T).item())
    checked = 0
    while checked < 200:
        x0 = rng.normal(size=2)
        ctx = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, x0)
        x = rng.normal(size=2) * 10.0 ** rng.integers(-9, 0) * ctx.r0
        if not np.any(x) or hom_norm(ctrl.dilation, x / ctx.r0) >= 1.0:
            continue
        u = eval_control(ctx, x)
        limit = np.linalg.norm(ctrl.K0 @ x) + amplitude * ctx.r0
        assert np.linalg.norm(u) <= limit * (1 + 1e-9)
        checked += 1


def test_control_is_continuous_across_clamp_boundary(ctrl):
    ctx = make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, [0.2, 0.0])
    x0 = np.array([0.2, 0.0])
    for eps in (1e-6, 1e-9, 1e-12):
        u_in = eval_control(ctx, (1 - eps) * x0)
        u_out = eval_control(ctx, (1 + eps) * x0)
        assert np.linalg.norm(u_in - u_out) <= 1e2 * eps + 1e-12


def test_eval_control_validates_dimensions(ctx):
    with pytest.raises(ValueError):
        eval_control(ctx, [1.0, 2.0, 3.0])


def test_solve_rejects_a_non_finite_state(ctx):
    with pytest.raises(ValueError, match="x has non-finite entries"):
        ctx.solve(np.array([np.inf, 0.0]))


def test_context_rejects_a_kind_spelt_as_a_string(ctrl):
    with pytest.raises(ValueError, match="kind must be a ControllerKind, got 'linear'"):
        make_context(ctrl, "linear", [0.2, 0.0])


def test_unknown_kind_names_the_known_ones():
    # the scenario file's 'kind' is read by ControllerKind itself, with this message
    with pytest.raises(ValueError) as info:
        ControllerKind("bogus")
    assert str(info.value) == ("unknown controller kind 'bogus' "
                               "(expected one of: prescribed_time, prescribed_time_robust, fixed_time, linear)")


def test_context_requires_matching_reference_dimension(ctrl):
    with pytest.raises(ValueError):
        make_context(ctrl, ControllerKind.LINEAR, [1.0, 2.0, 3.0])


def test_context_kt_gain_uses_settling_time(plant):
    # with T = 2 the calibrated gain is K d(-ln 2)
    from homctl import SynthesisConfig, synthesize

    ctrl2 = synthesize(plant, SynthesisConfig(T=2.0))
    np.testing.assert_allclose(ctrl2.KT, ctrl2.K @ np.diag([0.25, 0.5]), rtol=1e-12)


def _calibration_cases():
    cases = [pytest.param(oscillator_controller(), id="oscillator")]
    for name in ("chain3", "rand3x2", "rand5x2", "rand6x1"):
        cases.append(pytest.param(load_controller(os.path.join(_RECORDS, f"{name}.json")), id=name))
    return cases


@pytest.mark.parametrize("T", [1.0, 2.0])
@pytest.mark.parametrize("record", _calibration_cases())
def test_record_forms_kt_and_p_from_one_calibration(record, T):
    # KT and P both read the record's one d(-ln T) = expm(-ln T Gd), bit for
    # bit as the feedback's gain and the norm weight were formed before
    ctrl = dataclasses.replace(record, T=T)
    Dm = linalg.expm(-math.log(T) * ctrl.Gd)
    np.testing.assert_array_equal(ctrl.KT, ctrl.K @ Dm)
    P = Dm.T @ np.linalg.inv(ctrl.X) @ Dm
    np.testing.assert_array_equal(ctrl.P, 0.5 * (P + P.T))
