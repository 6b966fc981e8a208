"""Dilation group, strict monotonicity, homogeneous norm and its gradient."""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import homctl.dilation
from homctl import (
    ControllerKind,
    Dilation,
    ScenarioConfig,
    check_strict_monotonicity,
    dilate,
    dilation_matrix,
    hom_norm,
    hom_norm_gradient,
    load_controller,
    oscillator_controller,
    oscillator_plant,
    simulate,
)

# a family of strictly monotone dilations used by the property suites:
# (generator, weight) pairs with P > 0 and PG + G'P > 0


def _monotone_family():
    return [
        Dilation(np.diag([2.0, 1.0]), np.array([[11.0, 4.0], [4.0, 2.0]]) / 3.0),
        Dilation(np.diag([2.0, 1.0]), np.eye(2)),
        Dilation(np.diag([3.0, 2.0, 1.0]), np.eye(3)),
        Dilation(np.array([[1.0, 0.8], [0.0, 1.0]]), np.eye(2)),
        Dilation(np.array([[1.5, -0.5], [0.5, 1.0]]), np.eye(2)),
    ]


# ---------------------------------------------------------------------------
# group elements


def test_dilation_matrix_diagonal_closed_form():
    D = Dilation(np.diag([2.0, 1.0]), np.eye(2))
    for s in (-1.0, 0.0, 0.4, 2.0):
        np.testing.assert_allclose(dilation_matrix(D, s), np.diag([math.exp(2 * s), math.exp(s)]), rtol=1e-13)


def test_dilation_matrix_identity_generator():
    D = Dilation(np.eye(3), np.eye(3))
    np.testing.assert_allclose(dilation_matrix(D, 0.7), math.exp(0.7) * np.eye(3), rtol=1e-13)


def test_dilation_matrix_defective_generator_uses_expm():
    # Jordan block: e^{sG} = e^s [[1, s], [0, 1]]; the eigenbasis is useless here
    D = Dilation(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    s = 0.8
    expected = math.exp(s) * np.array([[1.0, s], [0.0, 1.0]])
    np.testing.assert_allclose(dilation_matrix(D, s), expected, rtol=1e-12)


def test_orbit_fallback_maps_a_vector_under_a_column_of_parameters():
    # without a usable eigenbasis each parameter of the column takes its own
    # expm, applied to the one vector: column k is e^{-s_k G} x
    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    D = Dilation(G, np.eye(2))
    assert D._eig is None
    x, s = np.array([0.3, -0.7]), np.array([[-1.0], [0.0], [0.5], [2.0], [0.5]])
    got = homctl.dilation._orbit(D, x)(s)
    assert got.shape == (2, len(s))
    for k, sk in enumerate(s[:, 0]):
        np.testing.assert_array_equal(got[:, k], homctl.linalg.expm(-sk * G) @ x)


def _expm_closed_form(G, t):
    """``e^{tG}`` of a diagonal ``G``, or of a 2x2 ``G`` with eigenvalues ``mu +- i w``."""
    if not np.any(G - np.diag(np.diag(G))):
        return np.diag(np.exp(t * np.diag(G)))
    mu = 0.5 * np.trace(G)
    w = math.sqrt(np.linalg.det(G) - mu * mu)
    return math.exp(mu * t) * (math.cos(w * t) * np.eye(2) + math.sin(w * t) / w * (G - mu * np.eye(2)))


@pytest.mark.parametrize("D", [D for D in _monotone_family() if D._eig is not None])
def test_orbit_vector_path_matches_the_matrix_exponential(D, rng):
    # the family's eigenbases are real, and complex for [[1.5, -0.5], [0.5, 1]];
    # the closed form is the reference, as scipy's expm errs by up to 5e-13 here
    for _ in range(50):
        x, s = rng.standard_normal(D.dim), float(rng.uniform(-3, 3))
        got = homctl.dilation._orbit(D, x)(s)
        ref = _expm_closed_form(D.generator, -s) @ x
        assert got.dtype == np.float64
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_orbit_family_covers_a_complex_eigenbasis():
    real = [D._eig[3] for D in _monotone_family() if D._eig is not None]
    assert True in real and False in real


def test_controller_eigenbases_are_real():
    # a real basis maps its orbit points without taking a real part
    records = [load_controller(os.path.join(_RECORDS, name)) for name in sorted(os.listdir(_RECORDS))]
    assert len(records) == 4
    for ctrl in [oscillator_controller()] + records:
        nw, V, Vinv, real = ctrl.dilation._eig
        assert real and not np.iscomplexobj(V) and not np.iscomplexobj(nw)


@pytest.mark.parametrize("D", _monotone_family()[2:])
def test_orbit_maps_a_vector_under_a_column_of_parameters_column_by_column(D):
    # a vector, or its block x[:, None], under a column s: column k is d(-s_k) x
    x, s = np.linspace(0.3, -0.7, D.dim), np.array([[-1.0], [0.0], [0.5], [2.0], [0.5]])
    for xb in (x, x[:, None]):
        got = homctl.dilation._orbit(D, xb)(s)
        assert got.shape == (D.dim, len(s))
        for k, sk in enumerate(s[:, 0]):
            ref = homctl.dilation._orbit(D, x)(sk)
            assert np.linalg.norm(got[:, k] - ref) <= 1e-14 * np.linalg.norm(ref)


def test_dilation_group_property_200_cases(rng):
    family = _monotone_family()
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        s, t = rng.uniform(-2, 2, size=2)
        left = dilation_matrix(D, s + t)
        right = dilation_matrix(D, s) @ dilation_matrix(D, t)
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_dilate_matches_matrix_action_200_cases(rng):
    family = _monotone_family()
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        s = float(rng.uniform(-3, 3))
        x = rng.normal(size=D.dim)
        np.testing.assert_allclose(dilate(D, s, x), dilation_matrix(D, s) @ x, atol=1e-11)


def test_dilation_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError, match=r"^weight has shape \(3, 3\), expected \(2, 2\)$"):
        Dilation(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        Dilation(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))
    D = Dilation(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        dilation_matrix(D, np.inf)
    with pytest.raises(ValueError):
        dilate(D, 0.5, [1.0, 2.0, 3.0])


def test_one_dimensional_weight_of_a_scalar_dilation_is_read_as_1x1():
    D = Dilation([[1.0]], [2.0])
    np.testing.assert_array_equal(D.weight, [[2.0]])
    assert D.norm([3.0]) == pytest.approx(math.sqrt(18.0))


def test_base_norm_weighted():
    D = Dilation(np.eye(2), np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert D.norm([1.0, 1.0]) == pytest.approx(math.sqrt(3.0))
    assert D.norm([0.0, 0.0]) == 0.0


def test_base_norm_of_a_block_is_the_norm_of_each_row():
    # the block path is the vector path row by row, overflowed rows included:
    # x'Px overflows to inf, or with terms of both signs to NaN or -inf, and
    # such a row reads inf or NaN, never 0; no floating-point warning escapes
    D = Dilation(np.eye(3), _MIXED_P)
    X = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [1e-160, 0.0, 0.0], [1e200, 0.0, 0.0],
                  [math.inf, 0.0, 0.0], math.exp(500) * np.array([-0.05, 0.09, -1.5])])
    got = D.norm(X)
    assert got.shape == (len(X),)
    ref = [D.norm(x) for x in X]
    assert all(isinstance(r, float) for r in ref)
    np.testing.assert_array_equal(got, ref)
    assert got[0] == 0.0 and got[3] == math.inf and math.isnan(got[4]) and math.isnan(got[5])
    assert D.norm(np.zeros((0, 3))).shape == (0,)


# ---------------------------------------------------------------------------
# strict monotonicity certificate


def test_strict_monotonicity_accepts_family():
    for D in _monotone_family():
        assert check_strict_monotonicity(D)


def test_strict_monotonicity_rejects_indefinite_commutator():
    # PG + G'P = [[2, 10], [10, 2]] is indefinite
    D = Dilation(np.array([[1.0, 10.0], [0.0, 1.0]]), np.eye(2))
    assert not check_strict_monotonicity(D)


def test_strict_monotonicity_rejects_non_pd_weight():
    D = Dilation(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not check_strict_monotonicity(D)


# ---------------------------------------------------------------------------
# homogeneous norm


def test_hom_norm_standard_dilation_is_weighted_norm():
    # G = I makes the homogeneous norm coincide with the base norm
    D = Dilation(np.eye(2), np.eye(2))
    for x in ([3.0, 4.0], [0.1, 0.0], [-2.0, 5.0]):
        assert hom_norm(D, x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_hom_norm_diagonal_closed_form():
    # weight-2 axis: |x1|^(1/2); weight-1 axis: |x2|
    D = Dilation(np.diag([2.0, 1.0]), np.eye(2))
    assert hom_norm(D, [4.0, 0.0]) == pytest.approx(2.0, rel=1e-12)
    assert hom_norm(D, [0.0, 0.3]) == pytest.approx(0.3, rel=1e-12)
    assert hom_norm(D, [1e-8, 0.0]) == pytest.approx(1e-4, rel=1e-10)


def test_hom_norm_zero_and_subnormal():
    D = Dilation(np.diag([2.0, 1.0]), np.eye(2))
    assert hom_norm(D, [0.0, 0.0]) == 0.0
    assert hom_norm(D, [1e-200, 0.0]) == 0.0


def test_hom_norm_unit_residual_identity_200_cases(rng):
    # v = |x|_d is defined by |d(-ln v) x|_P = 1
    family = _monotone_family()
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim) * 10.0 ** rng.integers(-6, 7)
        v = hom_norm(D, x)
        assert v > 0
        z = dilate(D, -math.log(v), x)
        assert D.norm(z) == pytest.approx(1.0, abs=1e-9)


def test_hom_norm_homogeneity_200_cases(rng):
    # |d(s) x|_d = e^s |x|_d
    family = _monotone_family()
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim)
        s = float(rng.uniform(-3, 3))
        lhs = hom_norm(D, dilate(D, s, x))
        rhs = math.exp(s) * hom_norm(D, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_hom_norm_extreme_magnitudes():
    D = Dilation(np.diag([2.0, 1.0]), np.eye(2))
    assert hom_norm(D, [1e120, 0.0]) == pytest.approx(1e60, rel=1e-9)
    assert hom_norm(D, [0.0, 1e-120]) == pytest.approx(1e-120, rel=1e-9)


def test_hom_norm_rejects_non_monotone_pair():
    # indefinite commutator: the residual never brackets a root on one side
    D = Dilation(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(RuntimeError):
        hom_norm(D, [2.0, 0.0])


_MIXED_P = [[1.6, -0.4, -2.3], [-0.4, 6.2, 0.6], [-2.3, 0.6, 3.7]]


@pytest.mark.parametrize(
    "P, x, far",
    [
        (np.eye(2), [2.0, 0.0], [math.inf, 0.0]),
        # the terms of z'Pz overflow with both signs and sum to -inf
        (_MIXED_P, [-0.05, 0.09, -1.5], math.exp(500) * np.array([-0.05, 0.09, -1.5])),
    ],
    ids=["nan", "minus-inf"],
)
def test_hom_norm_overflowed_orbit_point_lies_outside(orbit_evaluations, P, x, far):
    # G = -I: |d(-s)x| = e^s |x| grows without a crossing.  Far out the orbit
    # point's z'Pz overflows to NaN or -inf; it must count as outside the
    # sphere, so the outward search runs on instead of bisecting onto it
    D = Dilation(-np.eye(len(x)), np.array(P))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(D.norm(far))
    with pytest.raises(RuntimeError, match="no unit-sphere crossing found"):
        hom_norm(D, x)
    assert orbit_evaluations[0] <= 25


# ---------------------------------------------------------------------------
# gradient


def test_hom_norm_gradient_matches_finite_differences_200_cases(rng):
    family = _monotone_family()
    checked = 0
    while checked < 200:
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim)
        if np.linalg.norm(x) < 0.1:
            continue
        grad = hom_norm_gradient(D, x)
        fd = np.zeros(D.dim)
        eps = 1e-6 * max(1.0, np.linalg.norm(x))
        for i in range(D.dim):
            e = np.zeros(D.dim)
            e[i] = eps
            fd[i] = (hom_norm(D, x + e) - hom_norm(D, x - e)) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)
        checked += 1


def test_hom_norm_gradient_euler_identity_200_cases(rng):
    # <grad |x|_d, G x> = |x|_d, exactly by construction
    family = _monotone_family()
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim) * 10.0 ** rng.integers(-3, 4)
        if np.linalg.norm(x) == 0:
            continue
        grad = hom_norm_gradient(D, x)
        v = hom_norm(D, x)
        np.testing.assert_allclose(grad @ (D.generator @ x), v, rtol=1e-9)


def test_hom_norm_gradient_rejects_zero():
    D = Dilation(np.diag([2.0, 1.0]), np.eye(2))
    with pytest.raises(ValueError):
        hom_norm_gradient(D, [0.0, 0.0])


# ---------------------------------------------------------------------------
# warm-started solve


_RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")


def _warm_start_dilations():
    dils = [("oscillator", oscillator_controller().dilation)]
    for name in ("chain3", "rand3x2", "rand5x2"):
        dils.append((name, load_controller(os.path.join(_RECORDS, f"{name}.json")).dilation))
    # a Jordan-block generator has no eigenbasis: the matrix-exponential path
    dils.append(("jordan", Dilation(np.array([[1.0, 0.8], [0.0, 1.0]]), np.eye(2))))
    return dils


@pytest.mark.parametrize("name,D", _warm_start_dilations())
def test_hom_norm_warm_start_agrees_with_cold(name, D, rng):
    for mag in 10.0 ** np.arange(-4, 5):
        for _ in range(3):
            v = rng.standard_normal(D.dim)
            x = mag * v / np.linalg.norm(v)
            cold = hom_norm(D, x)
            for guess in (1e-8, 1e8, cold, cold * (1 + 1e-6), cold * (1 - 1e-3), cold * 1.5):
                warm = hom_norm(D, x, guess=guess)
                assert abs(D.norm(dilate(D, -math.log(warm), x)) - 1.0) <= 1e-12
                assert warm == pytest.approx(cold, rel=1e-10)


@pytest.fixture
def orbit_evaluations(monkeypatch):
    """Counts the points ``d(-s) x`` the root-find evaluates."""
    count = [0]
    orbit = homctl.dilation._orbit

    def counting_orbit(D, x):
        f = orbit(D, x)

        def evaluate(s):
            count[0] += 1
            return f(s)

        return evaluate

    monkeypatch.setattr(homctl.dilation, "_orbit", counting_orbit)
    return count


def test_hom_norm_guess_evaluation_count(orbit_evaluations):
    D = oscillator_controller().dilation
    x = np.array([0.3, -0.1])
    cold = hom_norm(D, x)
    for guess in (cold * (1 + 1e-4), cold * (1 - 1e-4)):
        orbit_evaluations[0] = 0
        assert hom_norm(D, x, guess=guess) == pytest.approx(cold, rel=1e-12)
        assert orbit_evaluations[0] <= 2
    # a guess eight decades off costs evaluations, never accuracy
    assert hom_norm(D, x, guess=1e-8) == pytest.approx(cold, rel=1e-12)


@pytest.mark.parametrize("name,D", _warm_start_dilations())
def test_hom_norm_cold_evaluation_count(name, D, rng, orbit_evaluations):
    counts = []
    for mag in 10.0 ** np.arange(-6, 7):
        for _ in range(10):
            v = rng.standard_normal(D.dim)
            orbit_evaluations[0] = 0
            hom_norm(D, mag * v / np.linalg.norm(v))
            counts.append(orbit_evaluations[0])
    assert np.mean(counts) <= 4.5
    assert max(counts) <= 8


def test_hom_norm_curvature_guard_keeps_the_steps_near_the_root(monkeypatch):
    # here f f'' > f'^2 at the guess: an unguarded Halley step jumps to
    # s ~ -589, far past the root at s ~ -3.8, and the search spends its
    # evaluations coming back (found by the noise-sensitivity criterion);
    # the guard takes Newton's step instead
    D = oscillator_controller().dilation
    x = np.array([4.0026e-4, -2.002872e-2])
    cold = hom_norm(D, x)
    points = []
    orbit = homctl.dilation._orbit

    def recording_orbit(D, x):
        f = orbit(D, x)

        def evaluate(s):
            points.append(s)
            return f(s)

        return evaluate

    monkeypatch.setattr(homctl.dilation, "_orbit", recording_orbit)
    warm = hom_norm(D, x, guess=0.1040125872919879)
    assert warm == pytest.approx(cold, rel=1e-10)
    assert max(abs(s - math.log(warm)) for s in points) < 5.0
    assert abs(D.norm(dilate(D, -math.log(warm), x)) - 1.0) <= 1e-12


def test_sampled_run_evaluation_count(orbit_evaluations):
    # the warm-started solves of a nominal run, one per sample until the
    # capture (s > 0): 2.27 orbit points per solve
    config = ScenarioConfig(plant=oscillator_plant(), controller=oscillator_controller(),
                            x0=np.array([0.2, 0.0]), h=0.01, t_end=1.5,
                            kind=ControllerKind.PRESCRIBED_TIME_ROBUST)
    solves = np.count_nonzero(simulate(config).s)
    assert solves > 90
    assert orbit_evaluations[0] <= 2.4 * solves


@pytest.mark.parametrize("guess", [0.0, -1.0, math.nan, math.inf])
def test_hom_norm_rejects_invalid_guess(guess):
    D = oscillator_controller().dilation
    with pytest.raises(ValueError, match="guess"):
        hom_norm(D, [0.3, -0.1], guess=guess)


# ---------------------------------------------------------------------------
# states whose weighted norm overflows


def test_hom_norm_of_a_state_whose_weighted_norm_overflows():
    # |x|_P overflows for |x| ~ 1e154 on the oscillator; the cold start is
    # taken at the scale of x instead, so the root is found
    D = oscillator_controller().dilation
    with np.errstate(over="ignore"):
        assert D.norm([1e154, 0.0]) == math.inf
    v = hom_norm(D, [1e154, 0.0])
    assert abs(D.norm(dilate(D, -math.log(v), np.array([1.0, 0.0]))) * 1e154 - 1.0) <= 1e-12


@pytest.mark.parametrize("name,D", _warm_start_dilations())
def test_hom_norm_homogeneity_at_overflowing_scales(name, D, rng):
    # ||d(t) x||_d = e^t ||x||_d for |x| from 1e154 to 1e300, where x'Px overflows
    for mag in (1e154, 1e200, 1e250, 1e300):
        for _ in range(5):
            v = rng.standard_normal(D.dim)
            x = mag * v / np.linalg.norm(v)
            norm = hom_norm(D, x)
            for t in (-20.0, -3.0, -0.5):
                assert hom_norm(D, dilate(D, t, x)) == pytest.approx(math.exp(t) * norm, rel=1e-12)


def test_hom_norm_rejects_a_state_whose_norm_overflows_at_its_own_scale():
    D = Dilation(np.eye(2), np.diag([1e308, 1e308]))
    with pytest.raises(ValueError, match=r"overflows at its scale max\|x\| = 1e\+10"):
        hom_norm(D, [1e10, 1e10])


# ---------------------------------------------------------------------------
# batched root-find over the rows of a block


def _rows_block(D, rng):
    """Rows from 1e-6 to 1e6, zero rows and rows near 1e200, shuffled."""
    rows = []
    for mag in 10.0 ** np.arange(-6, 7):
        for _ in range(3):
            v = rng.standard_normal(D.dim)
            rows.append(mag * v / np.linalg.norm(v))
    rows += [np.zeros(D.dim), np.zeros(D.dim)]
    for _ in range(3):
        v = rng.standard_normal(D.dim)
        rows.append(1e200 * v / np.linalg.norm(v))
    return np.array(rows)[rng.permutation(len(rows))]


@pytest.mark.parametrize("name,D", _warm_start_dilations())
def test_solve_rows_agrees_with_the_scalar_solve_row_by_row(name, D, rng):
    # the Jordan dilation has no usable eigenbasis: its orbit points come
    # from one matrix exponential per row
    assert (D._eig is None) == (name == "jordan")
    X = _rows_block(D, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        # the terms of x'Px overflow, to inf or, with both signs, to NaN
        assert np.count_nonzero(~np.isfinite(np.einsum("ij,jl,il->i", X, D.weight, X))) == 3
        got = homctl.dilation._solve_rows(D, X)
    assert got.shape == (len(X),)
    for x, s in zip(X, got):
        ref = hom_norm(D, x)
        if not x.any():
            assert s == 0.0 and ref == 0.0
            continue
        z = dilate(D, -math.log(s), x)
        assert abs(D.norm(z) - 1.0) <= 1e-12
        # a residual of 1e-12 moves ln s by 1e-12 over the slope -d|d(-s)x|/ds
        slope = float(z @ D.weight @ D.generator @ z)
        assert abs(math.log(s) - math.log(ref)) <= 10 * 1e-12 / slope + 1e-14


def test_solve_rows_of_an_empty_and_an_all_zero_block():
    D = oscillator_controller().dilation
    assert homctl.dilation._solve_rows(D, np.zeros((0, 2))).shape == (0,)
    np.testing.assert_array_equal(homctl.dilation._solve_rows(D, np.zeros((3, 2))), np.zeros(3))


def test_solve_rows_raises_the_scalar_solver_messages(monkeypatch):
    # G = -I has no unit-sphere crossing; a good row beside it does not hide it
    D = Dilation(-np.eye(2), np.eye(2))
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="no unit-sphere crossing found"):
            homctl.dilation._solve_rows(D, X)
    with pytest.raises(RuntimeError, match="no unit-sphere crossing found"):
        hom_norm(D, X[1])
    # a row still off the sphere after the last evaluation
    D = oscillator_controller().dilation
    X = np.array([[0.3, -0.1], [1e-3, 2e-4]])
    monkeypatch.setattr(homctl.dilation, "_MAX_ITER", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="root refinement did not converge"):
            homctl.dilation._solve_rows(D, X)
    with pytest.raises(RuntimeError, match="root refinement did not converge"):
        hom_norm(D, X[0])
    # a row whose norm overflows even at its own scale
    D = Dilation(np.eye(2), np.diag([1e308, 1e308]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"overflows at its scale max\|x\| = 1e\+10"):
            homctl.dilation._solve_rows(D, np.array([[1.0, 0.0], [1e10, 1e10]]))


@pytest.fixture
def handoff(monkeypatch):
    """Records the rows ``_solve_rows`` hands to ``_solve``; ``solve`` is the unrecorded ``_solve``."""
    solve = homctl.dilation._solve
    rec = SimpleNamespace(rows=[], solve=solve)

    def recording(D, x, guess=None):
        rec.rows.append(x.copy())
        return solve(D, x, guess)

    monkeypatch.setattr(homctl.dilation, "_solve", recording)
    return rec


@pytest.mark.filterwarnings("error")
def test_solve_rows_hands_a_row_without_a_usable_step_to_the_scalar_solve(handoff):
    # ln|x| puts the cold orbit point of (0, 1e100) at e^(-50 ln 1e100) 1e100,
    # which underflows to q = 0; (1e-3, 1e100) takes one step, to an orbit
    # point that overflows.  Neither has a usable step there, so _solve's
    # outward search takes over; the plain row stays in the batch
    D = Dilation(np.diag([1.0, 50.0]), np.eye(2))
    X = np.array([[0.0, 1e100], [0.3, 0.2], [1e-3, 1e100], [0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = homctl.dilation._solve_rows(D, X)
        np.testing.assert_array_equal(handoff.rows, X[[0, 2]])
        for i in (0, 2):
            assert got[i] == handoff.solve(D, X[i])[0]
    assert got[1] == pytest.approx(hom_norm(D, X[1]), rel=1e-12)
    assert got[3] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,D", _warm_start_dilations())
def test_solve_rows_hands_a_row_whose_base_norm_overflows_to_the_scalar_solve(name, D, rng, handoff):
    X = _rows_block(D, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        got = homctl.dilation._solve_rows(D, X)
        # the three rows near 1e200, in the order of the block
        big = np.flatnonzero(np.abs(X).max(axis=1) > 1e100)
        np.testing.assert_array_equal(handoff.rows, X[big])
        for i in big:
            assert got[i] == handoff.solve(D, X[i])[0]
