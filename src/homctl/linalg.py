"""Dense matrix kernels: exponentials, ZOH integrals, eigenvalues, factorizations.

Thin wrappers around numpy routines that add the validation and error
contracts the rest of the package relies on: :func:`as_scalar` decides what
a valid number is, and :func:`as_vector` and :func:`as_matrix` sizes and
shapes.  The matrix exponential is one degree-13 Pade approximant with
scaling and squaring, written in numpy; no ``homctl`` module imports scipy.
Everything here is pure, operates on small dense float arrays, and raises
``ValueError`` for malformed input and ``numpy.linalg.LinAlgError`` for
rank/consistency failures.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_scalar",
    "as_matrix",
    "as_square",
    "as_vector",
    "expm",
    "zoh_integral",
    "eigenvalues",
    "min_eig_sym",
    "chol_pd_check",
    "solve_linear",
    "least_norm_solve",
]

#: relative pivot floor for the positive-definiteness check
_CHOL_PIVOT_RTOL = 1e-12
#: largest 1-norm the degree-13 Pade approximant serves in double precision
#: (Higham 2005, Table 2.3); expm scales a larger matrix by 2^-s into it
_THETA13 = 5.371920351148152e0
#: numerator coefficients of the [13/13] Pade approximant of e^x, lowest power
#: first, divided by the constant term: with b[0] = 1, expm(0) is I bit for bit
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
#: residual guard for solve_linear, relative to ||b||
_SOLVE_RESIDUAL_RTOL = 1e-10
#: consistency guard for least_norm_solve, relative to ||b||
_LSTSQ_RESIDUAL_RTOL = 1e-8


def as_scalar(value, name: str = "value", gt: float | None = None, ge: float | None = None) -> float:
    """``value`` as a ``float``: a finite int or float, Python or numpy, ``> gt`` or ``>= ge`` where given.

    A ``bool``, a string and any other value raise ``ValueError("<name> must be a finite number …, got …")``.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x) or (gt is not None and not x > gt) or (ge is not None and not x >= ge):
        bound = f" > {gt:g}" if gt is not None else f" >= {ge:g}" if ge is not None else ""
        raise ValueError(f"{name} must be a finite number{bound}, got {value if real else repr(value)}")
    return x


def as_matrix(a, name: str = "matrix", shape: tuple[int | None, int | None] | None = None) -> np.ndarray:
    """Coerce ``a`` to a 2-D float array with finite entries (of ``shape``).

    ``shape`` is the expected ``(rows, cols)``, where ``None`` leaves a
    dimension free.  With a ``shape``, a 1-D input is read as one row where
    the shape fixes one row and the number of columns, and as one column
    otherwise; without one, a 1-D input is rejected.  A mismatch raises
    ``ValueError("<name> has shape …, expected …")``, with ``*`` for a free
    dimension.
    """
    M = np.asarray(a, dtype=float)
    if M.ndim == 1 and shape is not None:
        M = M.reshape((1, -1) if shape[0] == 1 and shape[1] is not None else (-1, 1))
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and any(d is not None and d != s for d, s in zip(shape, M.shape)):
        expected = ", ".join("*" if d is None else str(d) for d in shape)
        raise ValueError(f"{name} has shape {M.shape}, expected ({expected})")
    return M


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square 2-D float array with finite entries."""
    M = as_matrix(a, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_vector(a, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce a scalar, a row or a column ``a`` to a 1-D float array with finite entries (and ``size`` of them)."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        if sum(d > 1 for d in v.shape) > 1:
            raise ValueError(f"{name} must be one row or one column, got shape {v.shape}")
        v = v.reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    if size is not None and v.size != size:
        raise ValueError(f"{name} has size {v.size}, expected {size}")
    return v


def expm(M) -> np.ndarray:
    """Matrix exponential ``e^M`` by scaling and squaring (Higham 2005).

    One degree-13 Pade approximant: ``M`` is scaled by ``2^-s``, with the
    smallest ``s >= 0`` that brings ``|M|_1`` within the degree-13 limit
    ``theta_13 = 5.37``, and the approximant is squared ``s`` times.  Raises
    ``ValueError`` for non-square or non-finite input, and for finite input
    whose 1-norm overflows.
    """
    A = as_square(M)
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("matrix 1-norm overflows")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    E = _pade13(A / 2.0**s)
    for _ in range(s):
        E = E @ E
    return E


def _pade13(A: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant ``(V - U)^{-1} (V + U)`` of ``e^A``."""
    b = _PADE13
    I = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    return np.linalg.solve(V - U, V + U)


def zoh_integral(A, B, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization ``(e^{A h}, int_0^h e^{A s} B ds)``.

    Both are top blocks of the one exponential ``expm(h * [[A, B], [0, 0]])``
    (Van Loan, IEEE TAC 1978): the one-step transition on the left, the
    hold's input integral on the right.  Each is exact up to the accuracy of
    the matrix exponential, and the integral is valid for singular ``A``.

    Parameters
    ----------
    A : (n, n) array_like
    B : (n, m) array_like
        A 1-D ``B`` is one input column.
    h : float
        Strictly positive finite step length (:func:`as_scalar`).
    """
    A = as_square(A, "A")
    B = as_matrix(B, "B", (A.shape[0], None))
    n, m = B.shape
    h = as_scalar(h, "step h", gt=0)
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A
    blk[:n, n:] = B
    E = expm(h * blk)
    return E[:n, :n], E[:n, n:]


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a square matrix as a complex array (unordered)."""
    return np.linalg.eigvals(as_square(M))


def min_eig_sym(M) -> float:
    """Smallest eigenvalue of the symmetric part ``(M + M^T) / 2``.

    The input is expected to be symmetric up to roundoff; it is symmetrized
    before the eigenvalue solve.
    """
    S = _sym_part(as_square(M))
    return float(np.linalg.eigvalsh(S)[0])


def chol_pd_check(M) -> tuple[bool, np.ndarray | None]:
    """Positive-definiteness test via Cholesky with a relative pivot floor.

    Returns ``(True, L)`` with ``M ~ L @ L.T`` (lower triangular ``L``) when
    the symmetrized input ``S`` is positive definite with every pivot above
    ``1e-12 * ||S||_2``, and ``(False, None)`` otherwise; ``||S||_2`` is the
    largest eigenvalue modulus.  Never raises for finite input.
    """
    return _pd_test(as_square(M))[1:]


def _pd_test(M: np.ndarray) -> tuple[float, bool, np.ndarray | None]:
    """``lmin`` of ``S = (M + M') / 2`` and :func:`chol_pd_check` of it, ``||S||_2`` from the same ``eigvalsh``."""
    S = _sym_part(M)
    w = np.linalg.eigvalsh(S)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return float(w[0]), False, None
    # L[j, j]^2 is the j-th pivot of the factorization
    ok = bool(np.all(np.diag(L) ** 2 > _CHOL_PIVOT_RTOL * max(-w[0], w[-1])))
    return float(w[0]), ok, L if ok else None


def solve_linear(A, b) -> np.ndarray:
    """Solve ``A x = b`` for square ``A``, guarding the residual.

    Raises ``numpy.linalg.LinAlgError`` when ``A`` is singular or when the
    computed solution leaves a residual above ``1e-10 * ||b||``.
    """
    A = as_square(A, "A")
    b = as_vector(b, "b", A.shape[0])
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"solve_linear: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("solve_linear: non-finite solution (singular matrix)")
    if np.linalg.norm(A @ x - b) > _SOLVE_RESIDUAL_RTOL * np.linalg.norm(b):
        raise np.linalg.LinAlgError("solve_linear: residual too large (matrix numerically singular)")
    return x


def least_norm_solve(A, b) -> np.ndarray:
    """Minimum-norm solution of the consistent system ``A x = b``.

    Uses the SVD-based least-squares solver; among all solutions of a
    consistent (possibly rank-deficient) system it returns the one of
    smallest Euclidean norm.  Raises ``numpy.linalg.LinAlgError`` when the
    system is inconsistent beyond ``1e-8 * ||b||``.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", A.shape[0])
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ x - b) > _LSTSQ_RESIDUAL_RTOL * np.linalg.norm(b):
        raise np.linalg.LinAlgError("least_norm_solve: system is inconsistent")
    return x


def _sym_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)
