"""Controller synthesis: generator equation, feasibility step, verification,
serialization.  The harmonic-oscillator record with T=1 has a closed-form
solution used as the exact oracle throughout."""

import dataclasses
import json
import math
import os
import re
import stat

import numpy as np
import pytest
import scipy.linalg

import homctl.synthesis
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
from homctl.synthesis import (
    _RICCATI_STATE_WEIGHT,
    _generator_operator,
    _solve_lyapunov,
    _solve_riccati,
    controller_from_dict,
    controller_to_dict,
)


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


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 10.0, 100.0, 1e3])
def test_controllability_index_does_not_depend_on_the_scale_of_A(scale):
    # the index of (cA, B) is that of (A, B) for every c != 0; a rank test on
    # the unscaled Krylov matrix lost the blocks of size |A|^j against a
    # relative tolerance (chain 4 at A = 1e-3 shift, the census plant below
    # at 100 A)
    rng = np.random.default_rng([99, 5, 1, 0])
    for A, B, index in ((np.eye(4, k=1), np.eye(4)[:, -1:], 4), (rng.standard_normal((5, 5)), rng.standard_normal((5, 1)), 5)):
        assert controllability_index(A, B) == index
        assert controllability_index(scale * A, B) == index
        LinearPlant(scale * A, B)


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


def test_kronecker_operators_are_np_kron_bit_for_bit(rng):
    # the same products, signed zeros included: the generator and Lyapunov
    # operators and hence every solve built on them are unchanged
    for _ in range(10):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        L, R = rng.normal(size=(n, int(rng.integers(1, 5)))), rng.normal(size=(m, n))
        for a, b in ((L, R), (np.eye(n), R), (R, np.eye(n)), (L, L.T)):
            assert homctl.synthesis._kron(a, b).tobytes() == np.kron(a, b).tobytes()


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
    def failing(W, B, q):
        raise np.linalg.LinAlgError("Hamiltonian has 1 stable eigenvalues, expected 2")

    monkeypatch.setattr(homctl.synthesis, "_solve_riccati", failing)
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]), _RICCATI_STATE_WEIGHT)


@pytest.mark.parametrize("size", [1, 3])
def test_lmi_feasibility_refuses_a_generator_of_another_size(plant, size):
    # a 1 x 1 Gd would broadcast into A0 + Gd and fail as infeasible, a 3 x 3 one with numpy's message
    with pytest.raises(ValueError, match=rf"^Gd has shape \({size}, {size}\), expected \(2, 2\)$"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, 2.0 * np.eye(size))


def test_lmi_feasibility_rejects_non_anti_hurwitz_generator(plant):
    # Gd = -I makes A0 + Gd Hurwitz, so the Lyapunov solution is negative definite
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(A0, plant.B, -np.eye(2))


def test_lmi_feasibility_lyapunov_failure_is_infeasible(plant, monkeypatch):
    def failing(F, Q):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(homctl.synthesis, "_solve_lyapunov", failing)
    with pytest.raises(InfeasibleError, match="no positive-definite solution found"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]))


def test_lmi_feasibility_non_finite_solution_is_infeasible(plant, monkeypatch):
    monkeypatch.setattr(homctl.synthesis, "_solve_lyapunov", lambda F, Q: np.full_like(Q, np.nan))
    with pytest.raises(InfeasibleError, match=r"lmin\(X\) = nan"):
        solve_lmi_feasibility(np.array([[0.0, 1.0], [0.0, 0.0]]), plant.B, np.diag([2.0, 1.0]))


def _anti_hurwitz(rng, n):
    M = rng.standard_normal((n, n))
    return M + (0.1 - np.linalg.eigvals(M).real.min()) * np.eye(n)


def test_lyapunov_kronecker_solve_matches_scipy():
    rng = np.random.default_rng([99, 1])
    for n in range(2, 9):
        for _ in range(5):
            F = _anti_hurwitz(rng, n)
            Q = rng.standard_normal((n, n))
            Q = Q + Q.T
            ref = scipy.linalg.solve_continuous_lyapunov(F, Q)
            X = _solve_lyapunov(F, Q)
            assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)


def test_riccati_hamiltonian_solution_matches_scipy_and_stabilizes():
    rng = np.random.default_rng([99, 2])
    for n in range(2, 9):
        for m in range(1, min(n, 3) + 1):
            W, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
            for q in (1.0, _RICCATI_STATE_WEIGHT):
                ref = scipy.linalg.solve_continuous_are(-W, B, q * np.eye(n), np.eye(m))
                Pi = _solve_riccati(W, B, q)
                assert np.array_equal(Pi, Pi.T)
                assert np.linalg.norm(Pi - ref) <= 1e-9 * np.linalg.norm(ref)
                assert np.linalg.eigvals(W + B @ B.T @ Pi).real.min() > 0


def test_riccati_without_n_stable_eigenvalues_raises():
    # W = 0, B = 0: the Hamiltonian [[0, 0], [-q I, 0]] has only zero eigenvalues
    with pytest.raises(np.linalg.LinAlgError, match="0 stable eigenvalues, expected 2"):
        _solve_riccati(np.zeros((2, 2)), np.zeros((2, 1)), 1.0)


def _census_plant(n, m, seed):
    """Plant ``seed`` of the synthesis census: ``A`` then ``B``, standard normal."""
    rng = np.random.default_rng([99, n, m, seed])
    return LinearPlant(rng.standard_normal((n, n)), rng.standard_normal((n, m)))


@pytest.mark.parametrize(("n", "seed", "T"), [(5, 6, 0.3), (6, 2, 1.0)])
def test_synthesize_riccati_only_census_plants(n, seed, T):
    # two of the census cases that verify only through the Riccati branch
    plant = _census_plant(n, 1, seed)
    ctrl = synthesize(plant, SynthesisConfig(T=T))
    assert verify_controller(ctrl, plant).all_passed
    assert not np.allclose(ctrl.Y / np.linalg.norm(ctrl.Y), -plant.B.T / np.linalg.norm(plant.B), atol=1e-6)


@pytest.mark.parametrize("T", [0.3, 1.0, 3.0])
def test_synthesize_census_rand6x2_seed11_is_infeasible(T):
    # cond(G0 - I) ~ 3.9e6 leaves A0 = A + B K0 short of nilpotent: the
    # generator step says so (CLI exit 3), before any feasibility step runs
    with pytest.raises(SynthesisError, match=r"generator equation: A0 = A \+ B K0 is not nilpotent "
                                             r"\(\|A0\^6\| = 2\.27\de-02 > 1\.469e-03, cond\(G0 - I\) = 3\.9\d\de\+06\)"):
        synthesize(_census_plant(6, 2, 11), SynthesisConfig(T=T))


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


def test_chain_8_error_names_the_precision_limit():
    # only norm_strict_monotonicity fails, so the error gives T, cond(X) and
    # the relative smallest eigenvalue of P Gd + Gd'P, below the 1e-12 floor
    with pytest.raises(SynthesisError) as info:
        synthesize(chain(8), SynthesisConfig(T=1.0))
    text = str(info.value)
    assert text.count("[FAIL]") == 1
    limit = re.search(r"norm_strict_monotonicity fails at the limit of double precision: T = 1, "
                      r"cond\(X\) = (\S+), lmin\(P Gd \+ Gd'P\)/\|P Gd \+ Gd'P\| = (\S+) "
                      r"against the Cholesky floor 1e-12$", text)
    assert limit
    cond_x, rel = map(float, limit.groups())
    # the record of the Y = -B' form, whose error synthesize raises
    plant = chain(8)
    G0, Y0 = solve_generator_equation(plant)
    Gd = np.eye(8) - G0
    K0, A0 = homctl.synthesis._closed_loop(plant.A, plant.B, G0, Y0)
    X, _ = solve_lmi_feasibility(A0, plant.B, Gd, 0.0)
    assert cond_x == pytest.approx(np.linalg.cond(X), rel=1e-3)
    assert rel < 1e-12


# ---------------------------------------------------------------------------
# the steps fail on verify_controller's own checks


def _feed_generator_solve(monkeypatch, perturb):
    """Make the generator step's least-norm solve return ``perturb(u)``; the solutions it returned go to the list."""
    solve, fed = homctl.linalg.least_norm_solve, []

    def perturbed(M, b):
        fed.append(perturb(solve(M, b)))
        return fed[-1]

    monkeypatch.setattr(homctl.linalg, "least_norm_solve", perturbed)
    return fed


def _record(plant, G0, Y0, Gd=None, X=None):
    """A record of the plant with the given matrices; the rest is consistent with them or the identity."""
    n = plant.n
    K0, A0 = homctl.synthesis._closed_loop(plant.A, plant.B, G0, Y0)
    X = np.eye(n) if X is None else X
    return SynthesizedController(A=plant.A, B=plant.B, T=1.0, G0=G0, Y0=Y0,
                                 Gd=np.eye(n) - G0 if Gd is None else Gd, A0=A0, X=X, Y=-plant.B.T,
                                 K0=K0, K=np.linalg.solve(X.T, -plant.B).T)


def _null_direction(plant):
    """The unit vector that spans the kernel of the generator operator (one-dimensional for n = 3, m = 2)."""
    return np.linalg.svd(_generator_operator(plant.A, plant.B))[2][-1]


@pytest.mark.parametrize(("name", "plant", "perturb"), [
    # B dY0 enters the equation only
    ("generator_equation", oscillator_plant(), lambda u, p: u + np.r_[np.zeros(4), 1e-3, 0.0]),
    # 1e-3 I commutes with A, so only G0 B moves
    ("generator_kernel", oscillator_plant(), lambda u, p: u + 1e-3 * np.r_[np.eye(2).ravel(), 0.0, 0.0]),
    # another exact solution, 1e6 along the kernel: both residuals stay below
    # 5e-10, while sv_min(G0 - I) / sv_max(G0 - I) falls to about 3.6e-11
    ("generator_shift_invertible", _census_plant(3, 2, 0), lambda u, p: u + 1e6 * _null_direction(p)),
])
def test_generator_step_fails_on_the_verification_check(monkeypatch, name, plant, perturb):
    fed = _feed_generator_solve(monkeypatch, lambda u: perturb(u, plant))
    with pytest.raises(SynthesisError) as info:
        solve_generator_equation(plant)
    n = plant.n
    check = verify_controller(_record(plant, fed[0][: n * n].reshape(n, n), fed[0][n * n :].reshape(-1, n)))[name]
    assert not check.passed and info.value.check == check
    # the failed check's own line names its value and threshold
    assert str(info.value) == f"generator equation: {check}"
    assert f"{check.name}: {check.value:.3e}" in str(info.value) and f"{check.threshold:.3e})" in str(info.value)


def test_generator_step_fails_on_the_nilpotency_check(monkeypatch):
    # census plant rand6x2 seed 11: cond(G0 - I) ~ 3.9e6 costs A0 its nilpotency
    plant = _census_plant(6, 2, 11)
    fed = _feed_generator_solve(monkeypatch, lambda u: u)
    with pytest.raises(SynthesisError) as info:
        solve_generator_equation(plant)
    G0, Y0 = fed[0][:36].reshape(6, 6), fed[0][36:].reshape(2, 6)
    check = verify_controller(_record(plant, G0, Y0))["closed_loop_nilpotent"]
    assert not check.passed and info.value.check == check
    assert str(info.value) == (f"generator equation: A0 = A + B K0 is not nilpotent (|A0^6| = {check.value:.3e} > "
                               f"{check.threshold:.3e}, cond(G0 - I) = {np.linalg.cond(G0 - np.eye(6)):.3e})")


@pytest.mark.parametrize(("name", "Gd", "X", "label"), [
    # an indefinite Lyapunov solution is not rescaled, and its lmin is reported
    ("X_positive_definite", np.diag([2.0, 1.0]), np.diag([1.0, -1.0]), "lmin(X)"),
    # lmin(X) = 1 leaves X as it is; Gd = -I makes Gd X + X Gd' = -2 X
    ("dilation_lyapunov_pd", -np.eye(2), np.diag([1.0, 2.0]), "lmin(GdX+XGd')"),
])
def test_feasibility_step_fails_on_the_verification_check(plant, ctrl, monkeypatch, name, Gd, X, label):
    monkeypatch.setattr(homctl.synthesis, "_solve_lyapunov", lambda F, Q: X.copy())
    with pytest.raises(InfeasibleError) as info:
        solve_lmi_feasibility(ctrl.A0, plant.B, Gd)
    check = verify_controller(_record(plant, ctrl.G0, ctrl.Y0, Gd=Gd, X=X))[name]
    assert not check.passed and check.threshold == 0.0
    assert info.value.check == check
    assert str(info.value) == f"no positive-definite solution found ({label} = {check.value:.3e})"


def test_inconsistent_generator_solve_is_a_synthesis_error():
    # controllable, but the least-norm solve finds the generator system inconsistent
    plant = LinearPlant([[0.0, 1.0], [0.0, 0.0]], [[1e4], [1.0]])
    for step in (solve_generator_equation, lambda p: synthesize(p, SynthesisConfig(T=1.0))):
        with pytest.raises(SynthesisError, match="^generator equation: least_norm_solve: system is inconsistent$") as info:
            step(plant)
        assert info.value.check is None and isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _count_calls(monkeypatch, name):
    """Count the calls of ``homctl.synthesis.<name>``: one list entry per call."""
    fn, calls = getattr(homctl.synthesis, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(homctl.synthesis, name, counted)
    return calls


def test_synthesize_inverts_the_generator_shift_once(plant, monkeypatch):
    calls = _count_calls(monkeypatch, "_closed_loop")
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    assert len(calls) == 1
    # the public step still returns the pair, the record's own G0 and Y0
    G0, Y0 = solve_generator_equation(plant)
    assert G0.tobytes() == ctrl.G0.tobytes() and Y0.tobytes() == ctrl.Y0.tobytes()


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
    assert ctrl.dilation.norm([0.2, 0.0]) == pytest.approx(0.2 * math.sqrt(11.0 / 3.0), rel=1e-12)


def test_verification_catches_wrong_gain(ctrl):
    broken = SynthesizedController(
        A=ctrl.A, B=ctrl.B, T=ctrl.T, G0=ctrl.G0, Y0=ctrl.Y0,
        Gd=ctrl.Gd, A0=ctrl.A0, X=ctrl.X, Y=ctrl.Y, K0=ctrl.K0, K=[[0.0, 0.0]],
    )
    report = verify_controller(broken)
    assert not report.all_passed
    assert not report["gain_K_definition"].passed


def test_verification_catches_wrong_plant(ctrl, plant):
    # the first verify caches the record's checks; the plant checks run on every call
    assert verify_controller(ctrl, plant).all_passed and "checks" in vars(ctrl)
    other = LinearPlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    assert [c.name for c in verify_controller(ctrl, other).failed] == ["plant_A_match"]


def test_synthesize_then_verify_evaluates_the_record_checks_once(plant, monkeypatch):
    calls = _count_calls(monkeypatch, "_record_checks")
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    report = verify_controller(ctrl, plant)
    assert len(calls) == 1 and report.all_passed
    assert report.checks[:15] == ctrl.checks
    assert [c.name for c in report.checks[15:]] == ["plant_A_match", "plant_B_match"]
    # a copy of the record evaluates the same checks afresh
    assert dataclasses.replace(ctrl).checks == ctrl.checks and len(calls) == 2


def _synth_family():
    """``(name, plant)``: the oscillator and the 16 plants of the benchmark's ``synth-family`` workload."""
    yield "oscillator", oscillator_plant()
    for n in range(2, 7):
        yield f"chain{n}", chain(n)
    for n, m in ((n, m) for n in range(3, 9) for m in (1, 2) if (n, m) != (8, 1)):
        rng = np.random.default_rng([7, n, m])
        yield f"rand{n}x{m}", LinearPlant(rng.standard_normal((n, n)), rng.standard_normal((n, m)))


def _exact(check):
    return check.name, check.value.hex(), check.threshold.hex(), check.passed, check.kind


@pytest.mark.parametrize("plant", [p for _, p in _synth_family()], ids=[name for name, _ in _synth_family()])
def test_synthesize_hands_over_exactly_the_checks_a_fresh_record_evaluates(plant):
    # the six checks of the steps become the record's: name, value, threshold,
    # verdict and kind bit for bit those a copy of the record evaluates afresh
    c = synthesize(plant, SynthesisConfig(T=1.0))
    fresh = homctl.synthesis._record_checks(dataclasses.replace(c))
    assert len(c.checks) == 15
    assert [_exact(k) for k in c.checks] == [_exact(k) for k in fresh]


def test_synthesize_evaluates_each_step_check_once(plant, monkeypatch):
    generator = _count_calls(monkeypatch, "_generator_checks")
    nilpotency = _count_calls(monkeypatch, "_nilpotency_check")
    positive = _count_calls(monkeypatch, "_positive_definite")
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    assert verify_controller(ctrl, plant).all_passed
    # X and Gd X + X Gd' in the feasibility step, and no test of the record repeats them
    assert (len(generator), len(nilpotency), [name for name, _ in positive]) == (
        1, 1, ["X_positive_definite", "dilation_lyapunov_pd"])


def test_replaced_record_is_checked_afresh(ctrl):
    assert verify_controller(ctrl).all_passed
    report = verify_controller(dataclasses.replace(ctrl, X=-ctrl.X))
    assert not report["X_positive_definite"].passed
    assert verify_controller(ctrl).all_passed


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


_FIELDS = ("A", "B", "T", "mu", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K")


def _assert_bit_identical(a, b):
    for name in _FIELDS:
        assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes(), name


def test_controller_json_round_trip_is_exact(tmp_path, plant):
    # synthesized values exercise non-representable decimals through the file;
    # -0.0, the smallest subnormal and the largest double keep their bits too
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    for record in (ctrl, dataclasses.replace(ctrl, Y0=[[-0.0, 5e-324]], K0=[[1.7976931348623157e308, 0.1]])):
        path = tmp_path / "controller.json"
        save_controller(record, path)
        _assert_bit_identical(load_controller(path), record)


def test_controller_file_has_one_field_per_line(tmp_path, ctrl):
    path = tmp_path / "c.json"
    save_controller(ctrl, path)
    lines = path.read_text().split("\n")
    data = controller_to_dict(ctrl)
    assert lines[0] == "{" and lines[-2:] == ["}", ""] and len(lines) == len(data) + 3
    for line, (name, value) in zip(lines[1:-2], data.items()):
        assert line.startswith(f'  "{name}": ') and json.loads("{" + line.rstrip(",") + "}") == {name: value}


def test_controller_file_in_indented_layout_loads_bit_identically(tmp_path, plant):
    # records written with json.dumps(indent=2), one number per line, still load
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(controller_to_dict(ctrl), indent=2) + "\n")
    save_controller(ctrl, new)
    assert len(old.read_text().splitlines()) > len(new.read_text().splitlines())
    _assert_bit_identical(load_controller(old), load_controller(new))
    _assert_bit_identical(load_controller(old), ctrl)


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


def test_record_degree_is_a_class_constant(ctrl):
    # mu is no field: the constructor takes none, and every record reads the constant
    assert "mu" not in [f.name for f in dataclasses.fields(SynthesizedController)]
    assert ctrl.mu == SynthesizedController.mu == homctl.MU == -1.0
    with pytest.raises(TypeError, match="mu"):
        dataclasses.replace(ctrl, mu=-1.0)
    # the record file still writes it, second after T
    assert list(controller_to_dict(ctrl))[:3] == ["T", "mu", "A"] and controller_to_dict(ctrl)["mu"] == -1.0


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


@pytest.mark.parametrize("name", ["A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K"])
def test_record_field_of_wrong_shape_names_the_field(ctrl, name):
    with pytest.raises(ValueError, match=rf"^{name} (has shape \(3, 4\), expected|must be square)"):
        dataclasses.replace(ctrl, **{name: np.ones((3, 4))})


def test_single_state_record_reads_one_dimensional_fields():
    # with n = 1, a 1-D n x n field is the 1 x 1 matrix and a 1-D m x n field one column
    c = synthesize(LinearPlant([[0.5]], [[1.0, 2.0]]), SynthesisConfig(1.0))
    fields = ("G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K")
    flat = dataclasses.replace(c, **{k: getattr(c, k).ravel() for k in fields})
    for k in fields:
        np.testing.assert_array_equal(getattr(flat, k), getattr(c, k))
    assert c.Y0.shape == (2, 1)


@pytest.mark.parametrize(("entry", "shown"), [("true", "True"), ('"1.5"', "'1.5'"), ("null", "None"),
                                              ("NaN", "nan"), ("1e400", "inf")])
@pytest.mark.parametrize("name", ["X", "K"])
def test_load_controller_refuses_a_bad_matrix_entry_naming_the_field(tmp_path, ctrl, name, entry, shown):
    path = tmp_path / "c.json"
    save_controller(ctrl, path)
    data = json.loads(path.read_text())
    data[name][0][-1] = "@"
    path.write_text(json.dumps(data).replace('"@"', entry))
    with pytest.raises(ValueError) as info:
        load_controller(path)
    assert str(info.value) == f"{path}: controller record field {name}: entry must be a finite number, got {shown}"


def test_controller_from_dict_reads_ints_and_numpy_floats_as_before(ctrl):
    data = controller_to_dict(ctrl)
    data["A"] = [[0, 1], [-1, 0]]
    data["K"] = [[np.float64(v) for v in row] for row in data["K"]]
    _assert_bit_identical(controller_from_dict(data), ctrl)


def test_controller_from_dict_rejects_missing_field(ctrl):
    data = controller_to_dict(ctrl)
    del data["K"]
    with pytest.raises((KeyError, ValueError)):
        controller_from_dict(data)


def test_load_controller_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_controller(tmp_path / "nope.json")
