"""Delay compensation: the sampled loop's input record and pre-history,
predictor tables against closed-form kernels, the discrete predictor
dynamics, and exact inversion."""

import math
import os

import numpy as np
import pytest

from homctl import (LinearPlant, ScenarioConfig, SynthesisConfig, build_tables, invert, load_controller,
                    oscillator_controller, predict, simulate, synthesize)
from homctl.linalg import expm, solve_linear, zoh_integral
from homctl.predictor import _steps_in_delay


def _osc(delay):
    return LinearPlant([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], delay=delay)


def _config(delay, phi=None, h=0.01, t_end=0.5):
    return ScenarioConfig(plant=_osc(delay), controller=oscillator_controller(),
                          x0=np.array([0.2, -0.1]), h=h, t_end=t_end, phi=phi)


# ---------------------------------------------------------------------------
# pre-history and the sampled loop's input record


def test_zero_prehistory_equals_explicit_zero_phi():
    base = simulate(_config(0.03))
    zero = simulate(_config(0.03, phi=np.zeros((3, 1))))
    for field in ("x", "u", "s", "y"):
        np.testing.assert_array_equal(getattr(base, field), getattr(zero, field))


def test_prehistory_rows_reach_the_plant_earliest_first():
    # phi rows are earliest-first: phi[k] is held over sample k, so a
    # reversed order breaks the first N steps
    phi = np.array([[1.0], [-2.0], [3.0]])
    trace = simulate(_config(0.03, phi=phi))
    plant = _osc(0.03)
    F, Gamma = expm(plant.A * 0.01), zoh_integral(plant.A, plant.B, 0.01)[1]
    for k in range(3):
        np.testing.assert_allclose(trace.x[k + 1], F @ trace.x[k] + Gamma @ phi[k], rtol=1e-14, atol=1e-15)


def test_plant_receives_each_control_n_samples_late():
    # after the pre-history drains, the plant holds u[k - N] over sample k,
    # and the controller saw the predictor of exactly those in-flight inputs
    N = 3
    phi = np.array([[0.5], [0.25], [-0.5]])
    trace = simulate(_config(0.03, phi=phi))
    plant = _osc(0.03)
    tables = build_tables(plant, 0.01)
    F, Gamma = expm(plant.A * 0.01), zoh_integral(plant.A, plant.B, 0.01)[1]
    U = np.vstack([phi, trace.u])
    for k in range(N, len(trace.t) - 1):
        np.testing.assert_allclose(trace.x[k + 1], F @ trace.x[k] + Gamma @ trace.u[k - N], rtol=1e-14, atol=1e-15)
    for k in range(len(trace.t)):
        if trace.s[k] > 0.0:
            np.testing.assert_array_equal(trace.y[k], predict(tables, trace.x[k], U[k:k + N]))


def test_config_normalizes_one_dimensional_phi_for_single_input():
    config = _config(0.03, phi=[0.1, 0.2, 0.3])
    np.testing.assert_array_equal(config.phi, [[0.1], [0.2], [0.3]])


def test_config_reads_one_dimensional_phi_of_one_step_as_a_row():
    # tau = h leaves one row of m = 2 inputs
    plant = LinearPlant([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), delay=0.01)
    ctrl = synthesize(LinearPlant(plant.A, plant.B), SynthesisConfig(1.0))
    config = ScenarioConfig(plant=plant, controller=ctrl, x0=np.array([0.2, -0.1]), h=0.01, t_end=0.5,
                            phi=[0.1, -0.2])
    np.testing.assert_array_equal(config.phi, [[0.1, -0.2]])


@pytest.mark.parametrize(
    "delay, phi, message",
    [
        (0.03, np.zeros((2, 1)), "phi has shape"),
        (0.03, np.zeros((3, 2)), "phi has shape"),
        (0.01, np.array([[np.nan]]), "non-finite"),
        (0.01, np.array([[np.inf]]), "non-finite"),
        (0.0, np.zeros((7, 1)), "no delay"),
        (0.0, np.zeros((0, 1)), "no delay"),
    ],
    ids=["too-few-rows", "too-many-inputs", "nan", "inf", "delay-free", "delay-free-empty"],
)
def test_config_validates_phi(delay, phi, message):
    with pytest.raises(ValueError, match=message):
        _config(delay, phi=phi)


def test_config_off_grid_delay_raises():
    with pytest.raises(ValueError, match="not an integer multiple"):
        _config(0.025, h=0.01)


# ---------------------------------------------------------------------------
# tables


def _kernel(tables, j):
    """``Phi_j``: the block of the stacked kernels paired with ``u(t - j h)``."""
    m = tables.gamma.shape[1]
    return tables.Phi[:, (tables.N - j) * m:(tables.N - j + 1) * m]


def test_tables_zero_delay_is_identity():
    tables = build_tables(_osc(0.0), h=0.01)
    assert tables.N == 0
    assert tables.Phi.shape == (2, 0)
    np.testing.assert_array_equal(tables.E, np.eye(2))


def test_tables_kernels_match_closed_form():
    # Phi_j = A^{-1} (e^{j h A} - e^{(j-1) h A}) B for invertible A
    plant = _osc(0.5)
    h = 0.1
    tables = build_tables(plant, h)
    A, B = plant.A, plant.B
    Ainv = np.linalg.inv(A)
    for j in range(1, tables.N + 1):
        expected = Ainv @ (expm(A * j * h) - expm(A * (j - 1) * h)) @ B
        np.testing.assert_allclose(_kernel(tables, j), expected, atol=1e-12)
    np.testing.assert_allclose(tables.E, expm(A * 0.5), atol=1e-13)


def _table_plants():
    records = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")
    plants = [("oscillator", _osc(0.0))]
    for name in ("chain3", "rand3x2", "rand5x2"):
        ctrl = load_controller(os.path.join(records, f"{name}.json"))
        plants.append((name, LinearPlant(ctrl.A, ctrl.B)))
    return plants


@pytest.mark.parametrize("name,plant", _table_plants())
@pytest.mark.parametrize("N", [1, 2, 3, 5, 50, 100])
def test_tables_doubled_kernels_match_the_sequential_products(name, plant, N):
    # F is the one-step block of the ZOH exponential, the kernels and E = F^N
    # are filled by doubling: each matches F^{j-1} gamma (and F^N) formed one
    # product at a time from that F, and F matches expm(A h)
    h = 0.01
    tables = build_tables(LinearPlant(plant.A, plant.B, delay=N * h), h)
    assert tables.N == N and tables.Phi.shape == (plant.n, N * plant.m)
    F = expm(plant.A * h)
    assert np.linalg.norm(tables.F - F) <= 1e-14 * np.linalg.norm(F)
    np.testing.assert_array_equal(tables.gamma, zoh_integral(plant.A, plant.B, h)[1])
    kernel, power = tables.gamma, np.eye(plant.n)
    for j in range(1, N + 1):
        assert np.linalg.norm(_kernel(tables, j) - kernel) <= 1e-14 * np.linalg.norm(kernel)
        kernel, power = tables.F @ kernel, tables.F @ power
    assert np.linalg.norm(tables.E - power) <= 1e-14 * np.linalg.norm(power)


def test_tables_kernel_sum_is_delay_integral():
    # sum_j Phi_j = int_0^tau e^{A s} B ds
    plant = _osc(0.5)
    tables = build_tables(plant, h=0.01)
    total = sum(_kernel(tables, j) for j in range(1, tables.N + 1))
    np.testing.assert_allclose(total, zoh_integral(plant.A, plant.B, 0.5)[1], atol=1e-10)


def test_tables_off_grid_delay_raises():
    with pytest.raises(ValueError):
        build_tables(_osc(0.505), h=0.01)


@pytest.mark.parametrize("h", [0.0, -0.01, float("nan")])
def test_tables_reject_a_non_positive_sample_period(h):
    with pytest.raises(ValueError, match="sample period h must be a finite number > 0"):
        build_tables(_osc(0.5), h=h)


@pytest.mark.parametrize("tau", [-0.01, float("inf"), float("nan")])
def test_steps_in_delay_rejects_a_negative_or_non_finite_delay(tau):
    # LinearPlant refuses these delays first; the helper keeps its own guard
    with pytest.raises(ValueError, match="delay must be a finite number >= 0"):
        _steps_in_delay(tau, 0.01)


# ---------------------------------------------------------------------------
# predictor identities


def _propagate(plant, h, x0, inputs):
    """Raw delayed dynamics x_{k+1} = F x_k + Gamma u_{k-N} with zero prehistory."""
    F = expm(plant.A * h)
    Gamma = zoh_integral(plant.A, plant.B, h)[1]
    N = int(round(plant.delay / h))
    xs = [np.asarray(x0, dtype=float)]
    for k in range(len(inputs)):
        u_eff = inputs[k - N] if k - N >= 0 else np.zeros(plant.m)
        xs.append(F @ xs[-1] + Gamma @ u_eff)
    return np.array(xs)


def test_predictor_discrete_dynamics_and_shift_identity(rng):
    # y_{k+1} = F y_k + Gamma u_k, and y_k equals x_{k+N} exactly
    plant = _osc(0.5)
    h = 0.1
    N = 5
    tables = build_tables(plant, h)
    F = expm(plant.A * h)
    Gamma = zoh_integral(plant.A, plant.B, h)[1]

    inputs = rng.normal(size=(30, 1))
    xs = _propagate(plant, h, [0.3, -0.2], inputs)

    U = np.vstack([np.zeros((N, 1)), inputs])
    y_prev = None
    for k in range(len(inputs)):
        y_k = predict(tables, xs[k], U[k:k + N])
        if k + N < len(xs):
            np.testing.assert_allclose(y_k, xs[k + N], atol=1e-9)
        if y_prev is not None:
            np.testing.assert_allclose(y_k, F @ y_prev + Gamma @ inputs[k - 1], atol=1e-9)
        y_prev = y_k


def test_predict_constant_history_closed_form(rng):
    # with u identically ubar: y = e^{A tau} x + (int_0^tau e^{As} B ds) ubar
    plant = _osc(0.4)
    tables = build_tables(plant, h=0.02)
    for _ in range(20):
        x = rng.normal(size=2)
        ubar = rng.normal(size=1)
        expected = expm(plant.A * 0.4) @ x + zoh_integral(plant.A, plant.B, 0.4)[1] @ ubar
        np.testing.assert_allclose(predict(tables, x, np.tile(ubar, (tables.N, 1))), expected, atol=1e-10)


def test_predict_invert_round_trip_200_cases(rng):
    plants = [_osc(0.5), _osc(0.3), LinearPlant(rng.normal(size=(3, 3)) * 0.5, rng.normal(size=(3, 2)), delay=0.2)]
    tables_list = [build_tables(p, h=0.1) for p in plants]
    for _ in range(200):
        i = int(rng.integers(len(plants)))
        plant, tables = plants[i], tables_list[i]
        x = rng.normal(size=plant.n) * 10.0 ** rng.integers(-3, 3)
        u_past = rng.normal(size=(tables.N, plant.m))
        y = predict(tables, x, u_past)
        np.testing.assert_allclose(invert(tables, y, u_past), x, rtol=1e-9, atol=1e-10)


def test_stacked_predict_and_invert_match_the_kernel_sum(rng):
    # the stacked product E x + Phi u against the per-kernel sum
    # sum_j Phi_j u(t - j h), with Phi_1 = Gamma and Phi_{j+1} = F Phi_j.
    # Both round their sums in different orders, so they agree to 1e-15 of
    # the summed terms' magnitude |E||x| + sum_j |Phi_j||u_j|; the sum
    # itself may cancel far below that
    h, N = 0.01, 50
    plant = LinearPlant(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), delay=N * h)
    tables = build_tables(plant, h)
    assert (tables.N, tables.Phi.shape) == (N, (3, N * 2))
    F, Gamma = expm(plant.A * h), zoh_integral(plant.A, plant.B, h)[1]
    kernels = [Gamma]
    for _ in range(N - 1):
        kernels.append(F @ kernels[-1])
    kernels = np.array(kernels)
    for _ in range(20):
        x = rng.normal(size=3)
        u_past = rng.normal(size=(N, 2))
        pending = np.einsum("jnm,jm->n", kernels, u_past[::-1])
        scale = np.abs(tables.E) @ np.abs(x) + np.einsum("jnm,jm->n", np.abs(kernels), np.abs(u_past[::-1]))
        y = tables.E @ x + pending
        assert np.all(np.abs(predict(tables, x, u_past) - y) <= 1e-15 * scale)
        x_back = solve_linear(tables.E, y - pending)
        assert np.all(np.abs(tables.E @ (invert(tables, y, u_past) - x_back)) <= 1e-15 * scale)


def test_zero_delay_predict_and_invert_are_identity(rng):
    tables = build_tables(_osc(0.0), h=0.01)
    x = rng.normal(size=2)
    no_inputs = np.zeros((0, 1))
    np.testing.assert_array_equal(predict(tables, x, no_inputs), x)
    np.testing.assert_allclose(invert(tables, x, no_inputs), x, atol=1e-14)


@pytest.mark.parametrize("shape", [(4, 1), (6, 1), (5, 2), (5,), (0, 1)], ids=str)
def test_predict_and_invert_reject_wrong_u_past_shape(shape):
    tables = build_tables(_osc(0.5), h=0.1)
    with pytest.raises(ValueError, match="u_past has shape"):
        predict(tables, [1.0, 0.0], np.zeros(shape))
    with pytest.raises(ValueError, match="u_past has shape"):
        invert(tables, [1.0, 0.0], np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_predict_and_invert_reject_non_finite_in_flight_inputs(bad):
    # a NaN in flight came out as a NaN state, and an inf was refused under
    # the name of solve_linear's right-hand side
    tables = build_tables(_osc(0.02), h=0.01)
    for call in (predict, invert):
        with pytest.raises(ValueError, match=r"^u_past has non-finite entries$"):
            call(tables, [0.2, 0.0], [[bad], [0.0]])


def test_zero_delay_in_flight_inputs_keep_their_shape_check():
    tables = build_tables(_osc(0.0), h=0.01)
    for call in (predict, invert):
        with pytest.raises(ValueError, match=r"^u_past has shape \(1, 1\), expected \(0, 1\)$"):
            call(tables, [0.2, 0.0], [[0.0]])


def test_predict_rejects_wrong_state_size():
    tables = build_tables(_osc(0.5), h=0.1)
    with pytest.raises(ValueError, match="x has size"):
        predict(tables, [1.0, 0.0, 0.0], np.zeros((5, 1)))
