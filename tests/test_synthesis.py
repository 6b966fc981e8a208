"""Controller synthesis: generator equation, feasibility search, verification,
serialization.  The harmonic-oscillator record with T=1 has a closed-form
solution used as the exact oracle throughout."""

import math

import numpy as np
import pytest

from homctl import (
    ControllabilityError,
    LinearPlant,
    SynthesisConfig,
    SynthesisError,
    SynthesizedController,
    controllability_index,
    controllability_matrix,
    load_controller,
    oscillator_plant,
    save_controller,
    solve_generator_equation,
    solve_lmi_feasibility,
    synthesize,
    verify_controller,
)
from homctl.synthesis import controller_from_dict, controller_to_dict

# ---------------------------------------------------------------------------
# plants and controllability


def test_controllability_matrix_oscillator(plant):
    C = controllability_matrix(plant.A, plant.B)
    np.testing.assert_allclose(C, [[0.0, 1.0], [1.0, 0.0]])
    assert controllability_index(plant.A, plant.B) == 2


def test_controllability_index_none_for_uncontrollable():
    assert controllability_index(np.eye(2), np.array([[1.0], [0.0]])) is None


def test_linear_plant_rejects_uncontrollable_pair():
    with pytest.raises(ControllabilityError):
        LinearPlant(np.eye(2), np.array([[1.0], [0.0]]))


def test_linear_plant_rejects_negative_delay(plant):
    with pytest.raises(ValueError):
        LinearPlant(plant.A, plant.B, delay=-0.1)


def test_linear_plant_rejects_bool_delay(plant):
    with pytest.raises(ValueError, match="delay"):
        LinearPlant(plant.A, plant.B, delay=True)


def test_linear_plant_accepts_1d_input_matrix():
    p = LinearPlant([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0])
    assert p.B.shape == (2, 1) and p.n == 2 and p.m == 1


def test_synthesis_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(T=0.0)
    with pytest.raises(ValueError):
        SynthesisConfig(T=1.0, mu=0.0)
    with pytest.raises(ValueError):
        SynthesisConfig(T=1.0, mu=0.5)


def test_synthesis_config_rejects_bool_settling_time():
    with pytest.raises(ValueError, match="settling time"):
        SynthesisConfig(T=True)


# ---------------------------------------------------------------------------
# generator equation


def test_generator_equation_oscillator_least_norm_branch(plant):
    G0, Y0 = solve_generator_equation(plant, SynthesisConfig(T=1.0))
    np.testing.assert_allclose(G0, np.diag([-1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(Y0, [[-2.0, 0.0]], atol=1e-12)


def test_generator_equation_residuals_double_integrator():
    plant = LinearPlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    config = SynthesisConfig(T=1.0)
    G0, Y0 = solve_generator_equation(plant, config)
    A, B = plant.A, plant.B
    np.testing.assert_allclose(A @ G0 - G0 @ A + B @ Y0, A, atol=1e-10)
    np.testing.assert_allclose(G0 @ B, 0.0, atol=1e-10)
    # the induced dilation generator must be anti-Hurwitz
    Gd = np.eye(2) + config.mu * G0
    assert min(np.linalg.eigvals(Gd).real) > 0


def test_generator_equation_random_plants_satisfy_residuals(rng):
    for _ in range(20):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        if controllability_index(A, B) is None:
            continue
        plant = LinearPlant(A, B)
        config = SynthesisConfig(T=1.0)
        G0, Y0 = solve_generator_equation(plant, config)
        scale = max(1.0, np.linalg.norm(A))
        assert np.linalg.norm(A @ G0 - G0 @ A + B @ Y0 - A) <= 1e-8 * scale
        assert np.linalg.norm(G0 @ B) <= 1e-8 * max(1.0, np.linalg.norm(B))
        Gd = np.eye(n) + config.mu * G0
        assert min(np.linalg.eigvals(Gd).real) > 0


# ---------------------------------------------------------------------------
# feasibility search


def test_lmi_feasibility_oscillator_normalized(plant):
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    Gd = np.diag([2.0, 1.0])
    X, Y = solve_lmi_feasibility(A0, plant.B, Gd, SynthesisConfig(T=1.0))
    # normalization pins the smallest eigenvalue of X at one
    lam = np.linalg.eigvalsh((X + X.T) / 2)
    assert lam[0] == pytest.approx(1.0, rel=1e-9)
    # equality constraint and both positivity conditions
    M = (A0 + Gd) @ X + X @ (A0 + Gd).T + plant.B @ Y + Y.T @ plant.B.T
    assert np.linalg.norm(M) <= 1e-8 * np.linalg.norm(X)
    S = Gd @ X + X @ Gd.T
    assert np.linalg.eigvalsh((S + S.T) / 2)[0] > 0


# ---------------------------------------------------------------------------
# full synthesis


def test_synthesize_oscillator_matches_closed_form_gains(plant):
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    np.testing.assert_allclose(ctrl.G0, np.diag([-1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ctrl.Y0, [[-2.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(ctrl.Gd, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(ctrl.K0, [[1.0, 0.0]], atol=1e-10)
    np.testing.assert_allclose(ctrl.A0, [[0.0, 1.0], [0.0, 0.0]], atol=1e-10)
    assert verify_controller(ctrl, plant).all_passed


def test_synthesize_random_plants_all_verify(rng):
    produced = 0
    while produced < 6:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        if controllability_index(A, B) is None:
            continue
        plant = LinearPlant(A, B)
        ctrl = synthesize(plant, SynthesisConfig(T=1.0))
        assert verify_controller(ctrl, plant).all_passed
        produced += 1


def test_synthesize_triple_integrator_chain():
    plant = LinearPlant(np.eye(3, k=1), [[0.0], [0.0], [1.0]])
    ctrl = synthesize(plant, SynthesisConfig(T=2.0))
    report = verify_controller(ctrl, plant)
    assert report.all_passed
    assert ctrl.T == 2.0


def test_synthesize_settling_time_only_rescales_weight(plant):
    # X is T-independent; the weight P carries the settling-time calibration
    c1 = synthesize(plant, SynthesisConfig(T=1.0))
    c2 = synthesize(plant, SynthesisConfig(T=2.0))
    np.testing.assert_allclose(c1.X, c2.X, rtol=1e-10)
    D2 = np.diag([0.25, 0.5])  # d(-ln 2) for Gd = diag(2, 1)
    np.testing.assert_allclose(c2.P, D2.T @ np.linalg.inv(c2.X) @ D2, rtol=1e-9)


# ---------------------------------------------------------------------------
# the closed-form reference record


def test_reference_controller_all_residuals_vanish(ctrl, plant):
    report = verify_controller(ctrl, plant)
    assert report.all_passed
    for check in report.checks:
        if check.kind == "residual":
            assert check.value <= 1e-10, check.name


def test_reference_controller_margins(ctrl):
    report = verify_controller(ctrl)
    # closed-form smallest eigenvalues: quadratic formula on X and GdX+XGd'
    assert report["X_positive_definite"].value == pytest.approx((6.5 - math.sqrt(36.25)) / 2, rel=1e-12)
    assert report["dilation_lyapunov_pd"].value == pytest.approx((15 - math.sqrt(193.0)) / 2, rel=1e-12)


def test_reference_controller_weight_matrix(ctrl):
    # T = 1 makes P the plain inverse of X
    np.testing.assert_allclose(ctrl.P, np.linalg.inv(ctrl.X), atol=1e-12)
    assert ctrl.weighted_norm([0.2, 0.0]) == pytest.approx(0.2 * math.sqrt(11.0 / 3.0), rel=1e-12)


def test_verification_catches_wrong_gain(ctrl):
    broken = SynthesizedController(
        A=ctrl.A, B=ctrl.B, T=ctrl.T, mu=ctrl.mu, G0=ctrl.G0, Y0=ctrl.Y0,
        Gd=ctrl.Gd, A0=ctrl.A0, X=ctrl.X, Y=ctrl.Y, K0=ctrl.K0, K=[[0.0, 0.0]],
    )
    report = verify_controller(broken)
    assert not report.all_passed
    assert not report["gain_K_definition"].passed


def test_verification_catches_wrong_plant(ctrl):
    other = LinearPlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    report = verify_controller(ctrl, other)
    assert not report["plant_A_match"].passed


def test_verification_report_formatting(ctrl):
    text = str(verify_controller(ctrl))
    assert "[PASS]" in text and "generator_equation" in text


# ---------------------------------------------------------------------------
# serialization


def test_controller_dict_round_trip_is_exact(ctrl):
    clone = controller_from_dict(controller_to_dict(ctrl))
    for name in ("A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K"):
        np.testing.assert_array_equal(getattr(clone, name), getattr(ctrl, name))
    assert clone.T == ctrl.T and clone.mu == ctrl.mu


def test_controller_json_round_trip_is_exact(tmp_path, plant):
    # synthesized values exercise non-representable decimals through the file
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    path = tmp_path / "controller.json"
    save_controller(ctrl, path)
    clone = load_controller(path)
    for name in ("A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K"):
        np.testing.assert_array_equal(getattr(clone, name), getattr(ctrl, name))
    assert clone.T == ctrl.T and clone.mu == ctrl.mu


def test_controller_from_dict_rejects_missing_field(ctrl):
    data = controller_to_dict(ctrl)
    del data["K"]
    with pytest.raises((KeyError, ValueError)):
        controller_from_dict(data)


def test_load_controller_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_controller(tmp_path / "nope.json")
