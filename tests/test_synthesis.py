"""Controller synthesis: generator equation, feasibility step, verification,
serialization.  The harmonic-oscillator record with T=1 has a closed-form
solution used as the exact oracle throughout."""

import math
import os
import stat

import numpy as np
import pytest
import scipy.linalg

from homctl import (
    ControllabilityError,
    InfeasibleError,
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
from homctl.synthesis import _RICCATI_STATE_WEIGHT, _generator_operator, controller_from_dict, controller_to_dict


def chain(n):
    return LinearPlant(np.eye(n, k=1), np.eye(n)[:, -1:])


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
    # the degree is fixed at MU = -1: the config has no field for it
    with pytest.raises(TypeError):
        SynthesisConfig(T=1.0, mu=0.0)
    with pytest.raises(TypeError):
        SynthesisConfig(T=1.0, mu=0.5)


def test_synthesis_config_rejects_bool_settling_time():
    with pytest.raises(ValueError, match="settling time"):
        SynthesisConfig(T=True)


# ---------------------------------------------------------------------------
# generator equation


def test_generator_equation_oscillator_least_norm_branch(plant):
    G0, Y0 = solve_generator_equation(plant)
    np.testing.assert_allclose(G0, np.diag([-1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(Y0, [[-2.0, 0.0]], atol=1e-12)


def test_generator_equation_residuals_double_integrator():
    plant = LinearPlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    G0, Y0 = solve_generator_equation(plant)
    A, B = plant.A, plant.B
    np.testing.assert_allclose(A @ G0 - G0 @ A + B @ Y0, A, atol=1e-10)
    np.testing.assert_allclose(G0 @ B, 0.0, atol=1e-10)
    # the induced dilation generator must be anti-Hurwitz
    Gd = np.eye(2) - G0  # mu = -1
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
        G0, Y0 = solve_generator_equation(plant)
        scale = max(1.0, np.linalg.norm(A))
        assert np.linalg.norm(A @ G0 - G0 @ A + B @ Y0 - A) <= 1e-8 * scale
        assert np.linalg.norm(G0 @ B) <= 1e-8 * max(1.0, np.linalg.norm(B))
        Gd = np.eye(n) - G0  # mu = -1
        assert min(np.linalg.eigvals(Gd).real) > 0


def test_generator_least_norm_spectrum_starts_at_one_on_random_plants():
    # every exact solution gives Gd = I - G0 the spectrum {1, 2, ..., nu}, so
    # the least-norm solution is anti-Hurwitz with margin 1 and no plant needs
    # a search over the solution set
    rng = np.random.default_rng(517)
    checked = 0
    while checked < 120:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        if controllability_index(A, B) is None:
            continue
        G0, _ = solve_generator_equation(LinearPlant(A, B))
        assert min(np.linalg.eigvals(np.eye(n) - G0).real) >= 1.0 - 1e-9, (n, m)
        checked += 1


def test_generator_spectrum_on_chains_is_one_to_n():
    for n in range(2, 11):
        G0, _ = solve_generator_equation(chain(n))
        eig = np.sort(np.linalg.eigvals(np.eye(n) - G0).real)
        np.testing.assert_allclose(eig, np.arange(1, n + 1), atol=1e-9)


def test_generator_operator_matches_unit_vector_construction(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        dim = n * n + m * n
        M = np.empty((dim, dim))
        for k in range(dim):
            u = np.zeros(dim)
            u[k] = 1.0
            G0, Y0 = u[: n * n].reshape(n, n), u[n * n :].reshape(m, n)
            M[:, k] = np.concatenate([(A @ G0 - G0 @ A + B @ Y0).ravel(), (G0 @ B).ravel()])
        assert np.array_equal(_generator_operator(A, B), M)


# ---------------------------------------------------------------------------
# feasibility step


def test_lmi_feasibility_oscillator_normalized(plant):
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    Gd = np.diag([2.0, 1.0])
    X, Y = solve_lmi_feasibility(A0, plant.B, Gd)
    # normalization pins the smallest eigenvalue of X at one
    lam = np.linalg.eigvalsh((X + X.T) / 2)
    assert lam[0] == pytest.approx(1.0, rel=1e-9)
    # equality constraint and both positivity conditions
    M = (A0 + Gd) @ X + X @ (A0 + Gd).T + plant.B @ Y + Y.T @ plant.B.T
    assert np.linalg.norm(M) <= 1e-8 * np.linalg.norm(X)
    S = Gd @ X + X @ Gd.T
    assert np.linalg.eigvalsh((S + S.T) / 2)[0] > 0


def test_lmi_feasibility_riccati_weight_solves_equality(plant):
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    Gd = np.diag([2.0, 1.0])
    X, Y = solve_lmi_feasibility(A0, plant.B, Gd, _RICCATI_STATE_WEIGHT)
    assert np.linalg.eigvalsh((X + X.T) / 2)[0] == pytest.approx(1.0, rel=1e-9)
    M = (A0 + Gd) @ X + X @ (A0 + Gd).T + plant.B @ Y + Y.T @ plant.B.T
    assert np.linalg.norm(M) <= 1e-8 * np.linalg.norm(X)
    S = Gd @ X + X @ Gd.T
    assert np.linalg.eigvalsh((S + S.T) / 2)[0] > 0
    # the weight adds a feedback: Y is no longer a multiple of -B'
    assert abs(Y[0, 0]) > 1e-3


def test_lmi_feasibility_riccati_weight_rejects_non_anti_hurwitz_generator(plant):
    # the Riccati feedback makes X positive definite, but Gd X + X Gd' = -2X
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError, match=r"no positive-definite solution found \(lmin\(GdX"):
        solve_lmi_feasibility(A0, plant.B, -np.eye(2), _RICCATI_STATE_WEIGHT)


def test_lmi_feasibility_riccati_failure_is_infeasible(plant, monkeypatch):
    def failing(a, b, q, r):
        raise np.linalg.LinAlgError("Failed to find a finite solution")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_are", failing)
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]), _RICCATI_STATE_WEIGHT)


def test_lmi_feasibility_rejects_non_anti_hurwitz_generator(plant):
    # Gd = -I makes A0 + Gd Hurwitz, so the Lyapunov solution is negative definite
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(A0, plant.B, -np.eye(2))


def test_lmi_feasibility_lyapunov_failure_is_infeasible(plant, monkeypatch):
    def failing(a, q):
        raise np.linalg.LinAlgError("Schur form did not converge")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", failing)
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]))


def test_lmi_feasibility_non_finite_solution_is_infeasible(plant, monkeypatch):
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", lambda a, q: np.full_like(q, np.nan))
    with pytest.raises(InfeasibleError, match=r"lmin\(X\) = nan"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]))


def _random_plant(seed):
    rng = np.random.default_rng([99, seed])
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 3))
    return LinearPlant(rng.standard_normal((n, n)), rng.standard_normal((n, m)))


def _pivot_headroom(M):
    """Smallest Cholesky pivot of M over the 1e-12 * ||M|| floor of the checks."""
    L = np.linalg.cholesky((M + M.T) / 2)
    return float(np.min(np.diag(L) ** 2) / (1e-12 * np.linalg.norm(M, 2)))


@pytest.mark.parametrize("seed", [7, 18, 70, 71])
def test_synthesize_ill_conditioned_random_plants(seed):
    # single-input plants with n = 6, 7 and cond(X) from 3e11 to 5e12: near
    # the limit of double precision, where the choice of X decides whether
    # the Cholesky checks pass.  The smallest pivot of X, Gd X + X Gd' and
    # P Gd + Gd' P sits 7, 20, 34 and 1.4 times above the floor with Y = -B'
    # (seeds 7, 18, 70, 71) and 23 to 84 times with the Riccati weight.
    plant = _random_plant(seed)
    ctrl = synthesize(plant, SynthesisConfig(T=2.0))
    assert verify_controller(ctrl, plant).all_passed


def test_synthesize_reshapes_x_when_plain_closed_form_fails():
    # n = 7, m = 1 at T = 1: with Y = -B' the smallest pivot of P Gd + Gd' P
    # is 0.7 times the floor; the Riccati weight lifts it to 8.4 times
    plant = _random_plant(58)
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    assert verify_controller(ctrl, plant).all_passed
    assert _pivot_headroom(ctrl.P @ ctrl.Gd + ctrl.Gd.T @ ctrl.P) > 4.0


def test_chain_10_is_infeasible_in_double_precision():
    with pytest.raises(InfeasibleError, match="no positive-definite solution"):
        synthesize(chain(10), SynthesisConfig(T=1.0))


def test_chain_8_fails_norm_monotonicity_verification():
    with pytest.raises(SynthesisError, match=r"\[FAIL\] norm_strict_monotonicity"):
        synthesize(chain(8), SynthesisConfig(T=1.0))


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


def test_synthesize_takes_plain_closed_form_when_it_verifies(plant):
    # Y = -B': (A0 + Gd) X + X (A0 + Gd)' = 2 B B' gives
    # X = [[1/6, -1/3], [-1/3, 1]] and K = -B' X^{-1} = [-6, -3]
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    np.testing.assert_allclose(ctrl.X / ctrl.X[0, 0], [[1.0, -2.0], [-2.0, 6.0]], rtol=1e-9)
    np.testing.assert_allclose(ctrl.K, [[-6.0, -3.0]], rtol=1e-9)


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


def test_save_controller_failed_write_leaves_no_file(tmp_path, ctrl, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_controller(ctrl, tmp_path / "c.json")
    assert list(tmp_path.iterdir()) == []


def test_save_controller_file_mode_matches_plain_open(tmp_path, ctrl):
    plain = tmp_path / "plain.json"
    plain.write_text("")
    save_controller(ctrl, tmp_path / "c.json")
    assert stat.S_IMODE((tmp_path / "c.json").stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_controller_rejects_degree_other_than_minus_one(ctrl):
    # a record with another degree passes the algebraic checks but does not
    # settle at T, so it is refused at the door
    data = controller_to_dict(ctrl)
    for mu in (-0.5, -2.0, 0.0, math.nan):
        data["mu"] = mu
        with pytest.raises(ValueError, match="mu"):
            controller_from_dict(data)
    data["mu"] = -1
    assert controller_from_dict(data).mu == -1.0


def test_controller_from_dict_rejects_missing_field(ctrl):
    data = controller_to_dict(ctrl)
    del data["K"]
    with pytest.raises((KeyError, ValueError)):
        controller_from_dict(data)


def test_load_controller_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_controller(tmp_path / "nope.json")
