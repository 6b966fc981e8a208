"""Matrix primitives: closed-form oracles plus randomized property suites."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

from homctl import linalg

# ---------------------------------------------------------------------------
# shape validators


def test_as_matrix_accepts_lists():
    M = linalg.as_matrix([[1, 2], [3, 4]])
    assert M.shape == (2, 2) and M.dtype == float


@pytest.mark.parametrize("bad", [3.0, [1, 2, 3], np.zeros((2, 2, 2)), np.zeros((0, 2))])
def test_as_matrix_rejects_non_2d(bad):
    with pytest.raises(ValueError):
        linalg.as_matrix(bad)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[1.0, np.nan], [0.0, 1.0]])


@pytest.mark.parametrize("shape", [(None, None), (2, None), (None, 3), (2, 3)])
def test_as_matrix_free_dimensions_accept_any_size(shape):
    M = linalg.as_matrix(np.arange(6.0).reshape(2, 3), "M", shape)
    np.testing.assert_array_equal(M, np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("shape, read", [
    ((1, 3), (1, 3)),        # one row and a fixed number of columns: a row
    ((3, 1), (3, 1)),
    ((3, None), (3, 1)),
    ((None, 1), (3, 1)),
    ((None, None), (3, 1)),
], ids=["row", "column", "free-columns", "free-rows", "free"])
def test_as_matrix_reads_one_dimensional_input_as_row_or_column(shape, read):
    M = linalg.as_matrix([1.0, 2.0, 3.0], "v", shape)
    assert M.shape == read
    np.testing.assert_array_equal(M.ravel(), [1.0, 2.0, 3.0])


def test_as_matrix_reads_one_dimensional_input_as_column_unless_the_row_is_fixed():
    # (1, None) leaves the number of columns free, so the input is a column
    with pytest.raises(ValueError, match=r"^v has shape \(3, 1\), expected \(1, \*\)$"):
        linalg.as_matrix([1.0, 2.0, 3.0], "v", (1, None))


@pytest.mark.parametrize("shape, expected", [((1, 2), "(1, 2)"), ((3, None), "(3, *)"), ((None, 2), "(*, 2)")])
def test_as_matrix_mismatch_names_the_value_and_both_shapes(shape, expected):
    with pytest.raises(ValueError) as info:
        linalg.as_matrix(np.zeros((2, 3)), "K", shape)
    assert str(info.value) == f"K has shape (2, 3), expected {expected}"


def test_as_matrix_rejects_one_dimensional_input_without_shape():
    with pytest.raises(ValueError, match=r"^B must be 2-D, got shape \(3,\)$"):
        linalg.as_matrix([1.0, 2.0, 3.0], "B")


def test_as_square_rejects_rectangular():
    with pytest.raises(ValueError):
        linalg.as_square(np.zeros((2, 3)))


def test_as_vector_flattens_and_validates():
    v = linalg.as_vector([1.0, 2.0])
    assert v.shape == (2,)
    # higher-dimensional input is flattened, matching column-vector usage
    np.testing.assert_array_equal(linalg.as_vector(np.array([[1.0], [2.0]])), [1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.as_vector(np.zeros(0))
    with pytest.raises(ValueError):
        linalg.as_vector([np.inf])


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (1, 2, 2)], ids=["2x2", "2x3", "1x2x2"])
def test_as_vector_refuses_a_matrix(shape):
    # flattened, a 2 x 2 matrix would read as a 4-vector
    with pytest.raises(ValueError) as info:
        linalg.as_vector(np.ones(shape), "x0", 4)
    assert str(info.value) == f"x0 must be one row or one column, got shape {shape}"


@pytest.mark.parametrize("a", [[[1.0, 2.0]], [[1.0], [2.0]], [[[1.0, 2.0]]], [[[1.0], [2.0]]]],
                         ids=["row", "column", "row-3d", "column-3d"])
def test_as_vector_reads_a_row_or_a_column(a):
    np.testing.assert_array_equal(linalg.as_vector(a, "x0", 2), [1.0, 2.0])
    np.testing.assert_array_equal(linalg.as_vector(3.0), [3.0])


# ---------------------------------------------------------------------------
# scalar validator


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.int32(2), np.float32(2.0), np.float64(2.0)])
def test_as_scalar_returns_a_python_float(value):
    x = linalg.as_scalar(value, "x", gt=1)
    assert type(x) is float and x == 2.0


@pytest.mark.parametrize("value, bounds, message", [
    (True, {}, "x must be a finite number, got True"),
    (np.bool_(False), {}, "x must be a finite number, got np.False_"),
    ("0.1", {}, "x must be a finite number, got '0.1'"),
    (None, {}, "x must be a finite number, got None"),
    (np.array(0.5), {}, "x must be a finite number, got array(0.5)"),
    (1 + 0j, {}, "x must be a finite number, got (1+0j)"),
    (math.inf, {}, "x must be a finite number, got inf"),
    (np.float64(-np.inf), {}, "x must be a finite number, got -inf"),
    (math.nan, {"ge": 0}, "x must be a finite number >= 0, got nan"),
    (10**400, {}, f"x must be a finite number, got {10**400}"),
    (0, {"gt": 0}, "x must be a finite number > 0, got 0"),
    (-1e-300, {"ge": 0}, "x must be a finite number >= 0, got -1e-300"),
    (np.float32(1.0), {"gt": 1}, "x must be a finite number > 1, got 1.0"),
], ids=["bool", "numpy-bool", "string", "none", "0-d-array", "complex", "inf", "numpy-minus-inf", "nan",
        "int-beyond-float", "zero-for-gt-0", "negative-for-ge-0", "one-for-gt-1"])
def test_as_scalar_refuses_with_one_message(value, bounds, message):
    with pytest.raises(ValueError) as info:
        linalg.as_scalar(value, "x", **bounds)
    assert str(info.value) == message


def test_as_scalar_bounds_admit_their_edge():
    assert linalg.as_scalar(0, "x", ge=0) == 0.0
    assert linalg.as_scalar(-5, "x") == -5.0
    assert linalg.as_scalar(1.0000000000000002, "x", gt=1) == 1.0000000000000002


# ---------------------------------------------------------------------------
# expm


def test_expm_rotation_closed_form():
    # exp(theta * [[0,1],[-1,0]]) is the rotation by theta
    for theta in (-2.0, -0.3, 0.0, 0.5, 1.0, 3.14):
        E = linalg.expm(theta * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        R = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
        np.testing.assert_allclose(E, R, atol=1e-13)


def test_expm_diagonal_closed_form():
    E = linalg.expm(np.diag([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(E, np.diag(np.exp([1.0, -2.0, 0.5])), rtol=1e-14)
    # a wide spread of entries takes the scaled branch; off-diagonal entries stay exactly 0
    d = np.array([-30.0, -2.0, 0.0, 1e-3, 0.5, 1.0, 7.0, 40.0])
    E = linalg.expm(np.diag(d))
    np.testing.assert_allclose(np.diag(E), np.exp(d), rtol=1e-12)
    np.testing.assert_array_equal(E - np.diag(np.diag(E)), 0.0)


def test_expm_inverse_property_200_cases(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n))
        prod = linalg.expm(M) @ linalg.expm(-M)
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-10)


def _norm1(M):
    return float(np.abs(M).sum(axis=0).max())


def _rel_diff(E, R):
    return _norm1(E - R) / _norm1(R)


@pytest.fixture
def pade_calls(monkeypatch):
    """Record ``|A|_1`` of every Pade approximant expm evaluates."""
    calls = []
    pade13 = linalg._pade13

    def spy(A):
        calls.append(_norm1(A))
        return pade13(A)

    monkeypatch.setattr(linalg, "_pade13", spy)
    return calls


# worst relative 1-norm difference from scipy allowed per band of |A|_1
_SCIPY_BANDS = ((1.0, 1e-14), (10.0, 1e-11), (100.0, 1e-10), (math.inf, 1e-9))


def test_expm_matches_scipy_on_each_side_of_every_scaling_step(rng, pade_calls):
    for k in range(4):
        for side in (1.0 - 1e-6, 1.0 + 1e-6):
            for _ in range(20):
                n = int(rng.integers(1, 11))
                A = rng.normal(size=(n, n))
                A *= linalg._THETA13 * 2.0**k * side / _norm1(A)
                pade_calls.clear()
                E = linalg.expm(A)
                # just below theta_13 2^k, k squarings reach A; just above, one more
                (scaled,) = pade_calls
                assert scaled <= linalg._THETA13
                assert round(math.log2(_norm1(A) / scaled)) == (k if side < 1.0 else k + 1)
                bound = next(b for top, b in _SCIPY_BANDS if _norm1(A) <= top)
                assert _rel_diff(E, scipy.linalg.expm(A)) <= bound


def test_expm_matches_scipy_on_random_matrices_of_every_scale(rng):
    for _ in range(600):
        n = int(rng.integers(1, 11))
        A = rng.normal(size=(n, n))
        A *= 10.0 ** rng.uniform(-3, 3) / _norm1(A)
        with np.errstate(over="ignore"):
            R = scipy.linalg.expm(A)
        if not np.isfinite(R).all():
            continue
        bound = next(b for top, b in _SCIPY_BANDS if _norm1(A) <= top)
        assert _rel_diff(linalg.expm(A), R) <= bound


def test_expm_large_norm_squares_at_least_ten_times(rng, pade_calls):
    # a skew-symmetric matrix has an orthogonal exponential, so no entry overflows
    for _ in range(20):
        n = int(rng.integers(2, 11))
        S = rng.normal(size=(n, n))
        S = S - S.T
        S *= 6000.0 / _norm1(S)
        pade_calls.clear()
        E = linalg.expm(S)
        (scaled,) = pade_calls
        assert scaled <= linalg._THETA13
        assert 6000.0 / scaled >= 2.0**10
        assert _rel_diff(E, scipy.linalg.expm(S)) <= 1e-9
        np.testing.assert_allclose(E @ E.T, np.eye(n), atol=1e-9)


def test_expm_zero_matrix_is_identity():
    for n in (1, 3, 7):
        np.testing.assert_array_equal(linalg.expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("a", [-700.0, -50.0, -1.0, 0.0, 1e-20, 0.3, 1.0, 50.0, 700.0])
def test_expm_one_by_one_is_scalar_exp(a):
    np.testing.assert_allclose(linalg.expm([[a]]), [[math.exp(a)]], rtol=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_expm_of_a_chain_is_its_finite_series(n):
    J = np.eye(n, k=1)
    for t, atol in ((1.0, 1e-15), (3.0, 1e-13)):
        series = sum(np.linalg.matrix_power(t * J, k) / math.factorial(k) for k in range(n))
        np.testing.assert_allclose(linalg.expm(t * J), series, rtol=0.0, atol=atol)


@pytest.mark.parametrize("bad", [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan]], np.zeros((2, 3)), np.zeros(3),
                                 [[1e308, 0.0], [1e308, 0.0]]])
def test_expm_rejects_non_finite_non_square_and_overflowing_norm(bad):
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        linalg.expm(bad)


# ---------------------------------------------------------------------------
# zoh_integral


def test_zoh_integral_zero_dynamics():
    B = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(linalg.zoh_integral(np.zeros((2, 2)), B, 0.3)[1], 0.3 * B, rtol=1e-14)


def test_zoh_integral_invertible_closed_form():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    h = 0.7
    expected = np.linalg.solve(A, linalg.expm(A * h) - np.eye(2)) @ B
    np.testing.assert_allclose(linalg.zoh_integral(A, B, h)[1], expected, atol=1e-14)


def test_zoh_integral_matches_quadrature_200_cases(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        h = float(rng.uniform(0.05, 1.0))
        direct, _ = quad_vec(lambda s: linalg.expm(A * s) @ B, 0.0, h, epsabs=1e-12, epsrel=1e-12)
        np.testing.assert_allclose(linalg.zoh_integral(A, B, h)[1], direct, atol=1e-9)


def test_zoh_integral_reads_one_dimensional_input_matrix_as_a_column():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for flat, column in zip(linalg.zoh_integral(A, [0.0, 1.0], 0.1), linalg.zoh_integral(A, [[0.0], [1.0]], 0.1)):
        np.testing.assert_array_equal(flat, column)


def test_zoh_integral_transition_block_is_the_exponential(rng):
    # the top-left block of the one exponential is e^{A h}
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        h = float(rng.uniform(0.01, 1.0))
        F, Gamma = linalg.zoh_integral(A, rng.normal(size=(n, m)), h)
        assert F.shape == (n, n) and Gamma.shape == (n, m)
        expected = linalg.expm(A * h)
        assert np.linalg.norm(F - expected) <= 1e-13 * np.linalg.norm(expected)


def test_zoh_integral_rejects_input_matrix_of_other_height():
    with pytest.raises(ValueError, match=r"^B has shape \(3, 1\), expected \(2, \*\)$"):
        linalg.zoh_integral(np.eye(2), np.ones((3, 1)), 0.1)


def test_zoh_integral_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        linalg.zoh_integral(np.eye(2), np.ones((2, 1)), 0.0)


# ---------------------------------------------------------------------------
# eigenvalue helpers


def test_eigenvalues_of_rotation_are_imaginary():
    w = linalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(sorted(w.imag), [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(w.real, 0.0, atol=1e-14)


def test_min_eig_sym_quadratic_formula_200_cases(rng):
    # for [[a,b],[b,c]] the smallest eigenvalue is (a+c - sqrt((a-c)^2+4b^2))/2
    for _ in range(200):
        a, b, c = rng.normal(size=3) * 10
        lam = (a + c - math.hypot(a - c, 2 * b)) / 2
        got = linalg.min_eig_sym(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(got, lam, rtol=1e-12, atol=1e-12)


def test_min_eig_sym_symmetrizes_input():
    # asymmetric input is averaged before the eigenvalue solve
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    assert linalg.min_eig_sym(M) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# chol_pd_check


def test_chol_pd_check_identity():
    ok, L = linalg.chol_pd_check(np.eye(3))
    assert ok
    np.testing.assert_allclose(L, np.eye(3))


def test_chol_pd_check_factorization_reconstructs():
    S = np.array([[4.0, 2.0], [2.0, 3.0]])
    ok, L = linalg.chol_pd_check(S)
    assert ok and np.allclose(np.tril(L), L)
    np.testing.assert_allclose(L @ L.T, S, rtol=1e-14)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[0.0, 0.0], [0.0, 1.0]]),  # semidefinite
        -np.eye(2),
    ],
)
def test_chol_pd_check_rejects_non_pd(M):
    ok, L = linalg.chol_pd_check(M)
    assert not ok and L is None


@pytest.mark.parametrize(("factor", "ok"), [(0.5, False), (2.0, True)])
def test_chol_pd_check_floor_is_relative_to_the_largest_eigenvalue(factor, ok):
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3, so |S|_2 = 3 is no diagonal
    # entry; the decoupled last pivot sits at 0.5x or 2x the floor 1e-12 |S|_2
    S = np.zeros((3, 3))
    S[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    S[2, 2] = factor * 1e-12 * 3.0
    got, L = linalg.chol_pd_check(S)
    assert got is ok and (L is None) is not ok


def test_pd_test_lmin_is_min_eig_sym_bit_for_bit(rng):
    # the one eigvalsh of the test gives the lmin the checks reported before
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        M = M @ M.T * 10.0 ** rng.uniform(-3, 3) - 10.0 ** rng.uniform(-16, 0) * np.eye(n)
        lmin, ok, L = linalg._pd_test(M)
        assert lmin == linalg.min_eig_sym(M) and (L is not None) is ok


def test_chol_pd_check_agrees_with_eigenvalues_200_cases(rng):
    agreed = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        M = rng.normal(size=(n, n))
        S = (M + M.T) / 2
        lam = linalg.min_eig_sym(S)
        if abs(lam) <= 1e-9 * np.linalg.norm(S, 2):
            continue  # inside the pivot-floor band the answer is a judgement call
        ok, _ = linalg.chol_pd_check(S)
        assert ok == (lam > 0)
        agreed += 1
    assert agreed >= 190  # the near-singular band is rare for random matrices


def _chol_loop(S):
    """Reference: the textbook Cholesky loop with the relative pivot floor.

    Returns ``(ok, smallest pivot / floor)``.
    """
    n = S.shape[0]
    floor = 1e-12 * np.linalg.norm(S, 2)
    L = np.zeros_like(S)
    ratio = np.inf
    for j in range(n):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        ratio = min(ratio, pivot / floor)
        if not pivot > floor:
            return False, ratio
        L[j, j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            L[i, j] = (S[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return True, ratio


def test_chol_pd_check_matches_reference_loop_near_the_floor(rng):
    # smallest eigenvalues from 1e-15 to 1 relative to |S| = 1, some negative:
    # both sides of the pivot floor are well represented
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.concatenate([[1.0], rng.uniform(0.1, 1.0, n - 2),
                              [rng.choice((-1.0, 1.0), p=(0.2, 0.8)) * 10.0 ** rng.uniform(-15, 0)]])
        S = (Q * lam) @ Q.T
        S = (S + S.T) / 2
        ok_ref, ratio = _chol_loop(S)
        if 0.5 <= ratio <= 2.0:
            continue  # within rounding of the floor either answer is right
        ok, L = linalg.chol_pd_check(S)
        assert ok == ok_ref
        if ok:
            # near-singular factors differ entrywise between summation orders;
            # both must meet the backward-error bound |S - LL'| <= (n+1) eps |L||L'|
            bound = (n + 1) * np.finfo(float).eps * (np.abs(L) @ np.abs(L).T)
            assert np.all(np.abs(L @ L.T - S) <= bound)
        compared += 1
    assert compared >= 180


# ---------------------------------------------------------------------------
# linear solvers


def test_solve_linear_known_system():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(linalg.solve_linear(A, np.array([2.0, 8.0])), [1.0, 2.0])


def test_solve_linear_singular_raises():
    with pytest.raises(np.linalg.LinAlgError):
        linalg.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_solve_linear_residual_guard_accepts_well_conditioned(rng):
    for _ in range(50):
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        x = rng.normal(size=3)
        got = linalg.solve_linear(A, A @ x)
        np.testing.assert_allclose(got, x, rtol=1e-9, atol=1e-12)


def test_solve_linear_rejects_size_mismatch():
    with pytest.raises(ValueError):
        linalg.solve_linear(np.eye(2), np.ones(3))


def test_least_norm_solve_underdetermined_picks_min_norm():
    # x1 + x2 = 2 has least-norm solution (1, 1)
    x = linalg.least_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)


def test_least_norm_solve_is_orthogonal_to_nullspace(rng):
    for _ in range(50):
        A = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        x = linalg.least_norm_solve(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)
        # least-norm solution lies in the row space: projecting onto the
        # nullspace must give zero
        _, _, Vt = np.linalg.svd(A)
        null = Vt[2:]
        np.testing.assert_allclose(null @ x, 0.0, atol=1e-10)


def test_least_norm_solve_inconsistent_raises():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        linalg.least_norm_solve(A, np.array([1.0, 2.0]))
