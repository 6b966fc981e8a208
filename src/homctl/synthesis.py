"""Stabilizer synthesis: generator equation, feasibility problem, gain assembly.

For a controllable pair ``(A, B)`` and a settling time ``T`` the synthesis
produces the matrices of a static feedback whose closed loop contracts along
a linear dilation at the constant rate ``1/T``:

1.  Solve the linear generator equation ``A G0 - G0 A + B Y0 = A`` with
    ``G0 B = 0`` (least-norm solution).  The dilation generator is
    ``Gd = I + mu G0`` with the fixed degree ``mu = MU = -1``.  Every exact
    solution gives ``Gd`` the spectrum ``{1 - k mu : k = 0..nu-1}``
    (``nu`` the controllability index), whose smallest eigenvalue is 1, so
    ``Gd`` is anti-Hurwitz without any search over the solution set.
    ``K0 = Y0 (G0 - I)^{-1}`` places ``A0 = A + B K0`` on a nilpotent
    structure that commutes with the dilation: ``A0 Gd = (Gd + mu I) A0``
    and ``Gd B = B``.
2.  Solve the feasibility problem ``A0 X + X A0' + B Y + Y' B' + Gd X +
    X Gd' = 0`` with ``X > 0`` and ``Gd X + X Gd' > 0`` in closed form:
    ``Y = -B'`` and ``X`` from the Lyapunov equation
    ``(A0 + Gd) X + X (A0 + Gd)' = 2 B B'``.  If that controller fails
    verification, a Riccati equation adds a feedback ``B B' Pi`` to
    ``A0 + Gd`` that conditions ``X`` better in the plant's coordinates.
    Both equations are solved in numpy: the Lyapunov equation as one
    ``n^2 x n^2`` Kronecker solve, the Riccati equation from the stable
    eigenvectors of its ``2n x 2n`` Hamiltonian.
3.  Assemble ``K = Y X^{-1}`` and the weighted norm
    ``|x| = sqrt(x' d(-ln T)' X^{-1} d(-ln T) x)`` that calibrates the
    settling time to exactly ``T``.  The record forms ``d(-ln T)`` once;
    the norm weight ``P`` and the feedback's gain ``KT = K d(-ln T)``
    both read it.

``verify_controller`` re-checks every algebraic invariant of the result with
explicit residuals, as the CLI ``verify`` prints; steps 1-2 fail on its checks.
Each check is evaluated once: steps 1-2 hand theirs to the record's cached
``SynthesizedController.checks``, and verifying the returned record again
evaluates only the plant checks.

``save_controller`` writes one JSON field per line, each through the C
encoder of ``json.dumps``; ``load_controller`` reads that and the indented
layout of earlier files alike, and the round trip is bit-exact.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import atomic, linalg
from .dilation import Dilation

__all__ = [
    "MU",
    "ControllabilityError",
    "InfeasibleError",
    "SynthesisError",
    "LinearPlant",
    "SynthesisConfig",
    "SynthesizedController",
    "CheckResult",
    "VerificationReport",
    "controllability_matrix",
    "controllability_index",
    "solve_generator_equation",
    "solve_lmi_feasibility",
    "synthesize",
    "verify_controller",
    "controller_to_dict",
    "controller_from_dict",
    "save_controller",
    "load_controller",
]

log = logging.getLogger(__name__)

#: homogeneity degree of the closed loop: with -1 the homogeneous norm falls
#: at the constant rate 1/T, which is what calibrates the settling time to T;
#: other degrees verify too but settle at other times
MU = -1.0
#: residual tolerance of the algebraic identities (relative to matrix scale)
_IDENTITY_TOL = 1e-8
#: eigenvalue real-part margin for anti-Hurwitz decisions
_ANTI_HURWITZ_MARGIN = 1e-9
#: relative rank tolerance of the controllability test
_CTRB_RTOL = 1e-9
#: state weight of the Riccati equation that reshapes X when Y = -B' fails;
#: of 1, 3, 10, 30 and 100, used alone, it passed the most random plants
#: with n <= 7 at settling times 0.1 to 10
_RICCATI_STATE_WEIGHT = 10.0


class ControllabilityError(ValueError):
    """The pair (A, B) is not controllable."""


class SynthesisError(RuntimeError):
    """Synthesis could not produce a verified controller; ``check`` is the failed check, where one decided it."""

    def __init__(self, message: str, check: CheckResult | None = None):
        super().__init__(message)
        self.check = check


class InfeasibleError(SynthesisError):
    """The feasibility problem admits no positive-definite solution."""


# ---------------------------------------------------------------------------
# plant and configuration


@dataclass(frozen=True)
class LinearPlant:
    """Controllable LTI plant ``x' = A x + B u(t - delay)``."""

    A: np.ndarray
    B: np.ndarray
    delay: float = 0.0

    def __post_init__(self):
        A = linalg.as_square(self.A, "A")
        B = linalg.as_matrix(self.B, "B", (A.shape[0], None))
        object.__setattr__(self, "delay", linalg.as_scalar(self.delay, "delay", ge=0))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if controllability_index(A, B) is None:
            raise ControllabilityError("the pair (A, B) is not controllable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class SynthesisConfig:
    """Settling time ``T`` of the synthesis.

    The homogeneity degree is not a parameter: it is fixed at :data:`MU`,
    the only degree that makes the settling time exactly ``T``.
    """

    T: float

    def __post_init__(self):
        object.__setattr__(self, "T", linalg.as_scalar(self.T, "settling time T", gt=0))


#: the record's matrix fields in file order, each with its shape in the plant's (n, m)
_MATRIX_FIELDS = {"A": "nn", "B": "nm", "G0": "nn", "Y0": "mn", "Gd": "nn", "A0": "nn", "X": "nn", "Y": "mn",
                  "K0": "mn", "K": "mn"}


@dataclass(frozen=True)
class SynthesizedController:
    """Full parameter set of a synthesized stabilizer.

    Carries the plant matrices it was synthesized for, the settling time and
    every matrix of the construction so the record is self-contained for
    verification, simulation and serialization.  The homogeneity degree is
    the class constant ``mu = MU``, not a field: a record of another degree
    can pass every algebraic check of :func:`verify_controller` and still not
    settle at ``T``, so :func:`controller_from_dict` refuses a file that gives one.
    """

    A: np.ndarray
    B: np.ndarray
    T: float
    mu: ClassVar[float] = MU
    G0: np.ndarray
    Y0: np.ndarray
    Gd: np.ndarray
    A0: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    K0: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        n = linalg.as_square(self.A, "A").shape[0]
        dims = {"n": n, "m": linalg.as_matrix(self.B, "B", (n, None)).shape[1]}
        for name, shape in _MATRIX_FIELDS.items():
            object.__setattr__(self, name, linalg.as_matrix(getattr(self, name), name, tuple(dims[d] for d in shape)))
        object.__setattr__(self, "T", linalg.as_scalar(self.T, "settling time T", gt=0))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def DT(self) -> np.ndarray:
        """The settling-time calibration ``d(-ln T) = e^{-ln T Gd}``."""
        return linalg.expm(-math.log(self.T) * self.Gd)

    @cached_property
    def P(self) -> np.ndarray:
        """Weight of the controller norm: ``d(-ln T)' X^{-1} d(-ln T)``."""
        Xinv = np.linalg.inv(self.X)
        P = self.DT.T @ Xinv @ self.DT
        return 0.5 * (P + P.T)

    @cached_property
    def KT(self) -> np.ndarray:
        """The settling-time-calibrated gain ``K d(-ln T)`` of the feedback."""
        return self.K @ self.DT

    @cached_property
    def rejection_rate(self) -> float:
        """The eigenvalue factor of the rejectable-disturbance bound.

        ``lmin(X^{-1/2} Gd X^{1/2} + X^{1/2} Gd' X^{-1/2})``; raises
        ``ValueError`` unless ``X`` is positive definite.
        """
        w, V = np.linalg.eigh(0.5 * (self.X + self.X.T))
        if w[0] <= 0:
            raise ValueError("controller X is not positive definite")
        Xh = (V * np.sqrt(w)) @ V.T
        Xmh = (V / np.sqrt(w)) @ V.T
        Gd = self.Gd
        return linalg.min_eig_sym(Xmh @ Gd @ Xh + Xh @ Gd.T @ Xmh)

    @cached_property
    def dilation(self) -> Dilation:
        """Dilation (generator ``Gd``, weight ``P``) the feedback is scheduled on."""
        return Dilation(self.Gd, self.P)

    @cached_property
    def checks(self) -> tuple[CheckResult, ...]:
        """The record's 15 plant-independent checks of :func:`verify_controller`, evaluated once.

        :func:`synthesize` fills it with the six checks its steps evaluated on
        these matrices.  Like the other cached fields it assumes the matrices are
        not changed in place; ``dataclasses.replace`` builds a new record, checked afresh.
        """
        return _record_checks(self)


# ---------------------------------------------------------------------------
# controllability


def controllability_matrix(A, B) -> np.ndarray:
    """The block matrix ``[B, AB, ..., A^{n-1} B]``."""
    A = linalg.as_square(A, "A")
    B = linalg.as_matrix(B, "B", (A.shape[0], None))
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllability_index(A, B) -> int | None:
    """Smallest ``j`` with ``rank [B, AB, ..., A^{j-1} B] = n``, else None.

    Rank decisions count singular values above ``_CTRB_RTOL`` times the
    largest one, on the Krylov matrix of ``A / |A|_2``: it has the same
    ranks, and its blocks keep the scale of ``B`` however large or small
    ``A`` is.
    """
    A = linalg.as_square(A, "A")
    a = np.linalg.norm(A, 2)
    C = controllability_matrix(A / a if a > 0.0 else A, B)
    n = C.shape[0]
    m = C.shape[1] // n
    for j in range(1, n + 1):
        sv = np.linalg.svd(C[:, : j * m], compute_uv=False)
        if sv[0] > 0 and int(np.sum(sv > _CTRB_RTOL * sv[0])) == n:
            return j
    return None


# ---------------------------------------------------------------------------
# step 1: generator equation


def _generator_operator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix of ``(G0, Y0) -> (A G0 - G0 A + B Y0, G0 B)`` on row-major vectors.

    Uses ``vec(L X R) = (L kron R') vec(X)`` for row-major ``vec``; every
    entry is a single product or a difference of two.
    """
    n, m = B.shape
    I = np.eye(n)
    return np.block([
        [_kron(A, I) - _kron(I, A.T), _kron(B, I)],
        [_kron(I, B.T), np.zeros((n * m, m * n))],
    ])


def _kron(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``np.kron(L, R)``, the same products, as one outer product and one reshape."""
    return (L[:, None, :, None] * R[None, :, None, :]).reshape(L.shape[0] * R.shape[0], L.shape[1] * R.shape[1])


def solve_generator_equation(plant: LinearPlant) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A G0 - G0 A + B Y0 = A`` with ``G0 B = 0`` for ``(G0, Y0)``.

    Returns the least-norm solution.  Every exact solution makes
    ``Gd = I + MU G0`` anti-Hurwitz with smallest eigenvalue 1 (see the
    module docstring), so the solution set is not searched.  Raises
    :class:`SynthesisError` when the least-norm solve finds the system
    inconsistent, and, with the failed check as ``check``, on the first of
    :func:`verify_controller`'s ``generator_equation``, ``generator_kernel``,
    ``generator_shift_invertible`` and ``closed_loop_nilpotent`` that fails;
    the last names ``|A0^n|`` and ``cond(G0 - I)``.
    """
    return _generator_step(plant)[:2]


def _generator_step(plant: LinearPlant) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """:func:`solve_generator_equation` with the ``K0, A0`` of its nilpotency check and its four checks."""
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    try:
        u = linalg.least_norm_solve(_generator_operator(A, B), np.concatenate([A.ravel(), np.zeros(n * m)]))
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"generator equation: {exc}") from exc
    G0, Y0 = u[: n * n].reshape(n, n), u[n * n :].reshape(m, n)
    checks = _generator_checks(A, B, G0, Y0)
    for check in checks:
        if not check.passed:
            raise SynthesisError(f"generator equation: {check}", check)
    # an ill-conditioned G0 - I can cost A0 its nilpotency, which no feasibility step repairs
    K0, A0 = _closed_loop(A, B, G0, Y0)
    check = _nilpotency_check(A, A0)
    if not check.passed:
        raise SynthesisError(f"generator equation: A0 = A + B K0 is not nilpotent (|A0^{n}| = {check.value:.3e} > "
                             f"{check.threshold:.3e}, cond(G0 - I) = {np.linalg.cond(G0 - np.eye(n)):.3e})", check)
    return G0, Y0, K0, A0, (*checks, check)


def _closed_loop(A: np.ndarray, B: np.ndarray, G0: np.ndarray, Y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``K0 = Y0 (G0 - I)^{-1}`` and the nilpotent closed loop ``A0 = A + B K0``."""
    K0 = Y0 @ np.linalg.inv(G0 - np.eye(len(A)))
    return K0, A + B @ K0


# ---------------------------------------------------------------------------
# step 2: feasibility problem


def _solve_lyapunov(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``X`` with ``F X + X F' = Q``, as one Kronecker solve on row-major vectors.

    The operator ``F kron I + I kron F`` has the eigenvalues ``l_i + l_j``
    of ``F``, so it is nonsingular for an anti-Hurwitz ``F``.
    """
    I = np.eye(F.shape[0])
    return np.linalg.solve(_kron(F, I) + _kron(I, F), Q.ravel()).reshape(Q.shape)


def _solve_riccati(W: np.ndarray, B: np.ndarray, q: float) -> np.ndarray:
    """Stabilizing ``Pi`` of ``W' Pi + Pi W + Pi B B' Pi = q I``: ``W + B B' Pi`` is anti-Hurwitz.

    Laub's Hamiltonian method with eigenvectors: the ``n`` stable
    eigenvectors ``[U1; U2]`` of ``[[-W, -B B'], [-q I, W']]`` give
    ``Pi = U2 U1^{-1}``.  Raises ``LinAlgError`` unless there are exactly
    ``n`` of them and ``U1`` is invertible.
    """
    n = W.shape[0]
    lam, V = np.linalg.eig(np.block([[-W, -B @ B.T], [-q * np.eye(n), W.T]]))
    stable = lam.real < 0
    if np.count_nonzero(stable) != n:
        raise np.linalg.LinAlgError(f"Hamiltonian has {np.count_nonzero(stable)} stable eigenvalues, expected {n}")
    Pi = np.linalg.solve(V[:n, stable].T, V[n:, stable].T).T.real
    return 0.5 * (Pi + Pi.T)


def solve_lmi_feasibility(A0, B, Gd, weight: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``X > 0``, ``Y`` of the closed-loop dilation equality.

    Solves

        ``A0 X + X A0' + B Y + Y' B' + Gd X + X Gd' = 0``,
        ``X > 0``,  ``Gd X + X Gd' > 0``.

    With ``W = A0 + Gd``, ``X`` solves the Lyapunov equation
    ``F X + X F' = 2 B B'`` with ``F = W + B B' Pi``, and
    ``Y = B' (Pi X - I)`` meets the equality exactly.  ``weight = 0`` gives
    ``Pi = 0``, that is ``Y = -B'``: ``A0 Gd = (Gd + mu I) A0`` makes ``W``
    anti-Hurwitz, so ``X = 2 int_0^inf e^{-Wt} B B' e^{-W't} dt`` is positive
    definite for a controllable pair.  That ``X`` does not depend on the
    coordinates, and on some single-input plants it is too badly conditioned
    for the checks of :func:`verify_controller`, which work in the plant's
    coordinates.  A positive ``weight`` ``q`` takes ``Pi``, the stabilizing
    solution of ``W' Pi + Pi W + Pi B B' Pi = q I``; ``F`` stays anti-Hurwitz
    and the identity weight shapes ``X`` in the plant's coordinates, at the
    price of larger gains (:func:`_solve_lyapunov`, :func:`_solve_riccati`).

    ``X`` and ``Y`` are rescaled so ``lmin(X) = 1``.  Raises
    :class:`InfeasibleError` when a solve raises ``LinAlgError``, or, with
    the failed check as ``check``, when ``X`` or ``Gd X + X Gd'`` fails
    :func:`verify_controller`'s ``X_positive_definite`` or
    ``dilation_lyapunov_pd``, as happens in double precision for badly
    conditioned plants and for a ``Gd`` that is not anti-Hurwitz.  A
    ``weight`` that is not a finite number ``>= 0`` raises ``ValueError``.
    """
    return _feasibility_step(A0, B, Gd, weight)[:2]


def _feasibility_step(A0, B, Gd, weight: float) -> tuple[np.ndarray, np.ndarray, tuple[CheckResult, CheckResult]]:
    """:func:`solve_lmi_feasibility` with the record's ``X_positive_definite`` and ``dilation_lyapunov_pd``."""
    weight = linalg.as_scalar(weight, "weight", ge=0)
    A0 = linalg.as_square(A0, "A0")
    n = A0.shape[0]
    B = linalg.as_matrix(B, "B", (n, None))
    Gd = linalg.as_matrix(Gd, "Gd", (n, n))
    W = A0 + Gd
    BBt = B @ B.T
    try:
        Pi = _solve_riccati(W, B, weight) if weight > 0.0 else np.zeros((n, n))
        X = _solve_lyapunov(W + BBt @ Pi, 2.0 * BBt)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(f"no positive-definite solution found (solve failed: {exc})") from exc
    X = 0.5 * (X + X.T)
    lam_min = linalg.min_eig_sym(X) if np.isfinite(X).all() else math.nan
    X = X / lam_min if lam_min > 0.0 else X
    # the record's check reads the rescaled X; the step's reads lmin of the unscaled one
    x_pd = _positive_definite("X_positive_definite", X) if lam_min > 0.0 else None
    if x_pd is None or not x_pd.passed:
        raise InfeasibleError(f"no positive-definite solution found (lmin(X) = {lam_min:.3e})",
                              CheckResult("X_positive_definite", lam_min, 0.0, False, "margin"))
    Y = B.T @ (Pi @ X - np.eye(n) / lam_min)
    S = Gd @ X + X @ Gd.T
    check = _positive_definite("dilation_lyapunov_pd", S)
    if not check.passed:
        raise InfeasibleError(f"no positive-definite solution found (lmin(GdX+XGd') = {check.value:.3e})", check)
    if log.isEnabledFor(logging.INFO):
        log.info("feasibility (weight %g): lmin(X)/|X| %.3e, lmin(GdX+XGd')/|.| %.3e, cond(X) %.3e", weight,
                 1.0 / np.linalg.norm(X, 2), check.value / np.linalg.norm(S, 2), np.linalg.cond(X))
    return X, Y, (x_pd, check)


# ---------------------------------------------------------------------------
# steps 3-4: assembly and verification


def synthesize(plant: LinearPlant, config: SynthesisConfig) -> SynthesizedController:
    """Run the full synthesis and return a verified controller record.

    The feasibility step takes ``Y = -B'`` first: of the closed forms tried
    it gives the smallest gains, which sampled loops follow best.  Only when
    that controller fails, it is solved again with the Riccati weight
    ``_RICCATI_STATE_WEIGHT``.  If both fail, the error of the first is
    raised.
    """
    A, B = plant.A, plant.B
    n = plant.n
    G0, Y0, K0, A0, generator_checks = _generator_step(plant)
    Gd = np.eye(n) + MU * G0
    first_error = None
    for weight in (0.0, _RICCATI_STATE_WEIGHT):
        if weight:
            log.info("Y = -B' failed; solving the feasibility step again with Riccati weight %g", weight)
        try:
            X, Y, feasibility_checks = _feasibility_step(A0, B, Gd, weight)
        except InfeasibleError as exc:
            first_error = first_error or exc
            continue
        K = np.linalg.solve(X.T, Y.T).T
        controller = SynthesizedController(
            A=A, B=B, T=config.T,
            G0=G0, Y0=Y0, Gd=Gd, A0=A0, X=X, Y=Y, K0=K0, K=K,
        )
        # the steps evaluated these checks on the record's own matrices: they become its cached checks
        vars(controller)["checks"] = _record_checks(controller, generator_checks, feasibility_checks)
        report = verify_controller(controller, plant)
        if report.all_passed:
            return controller
        first_error = first_error or _verification_error(controller, report)
    raise first_error


def _verification_error(c: SynthesizedController, report: VerificationReport) -> SynthesisError:
    """The report as an error, naming the precision limit where only ``norm_strict_monotonicity`` fails."""
    text = "synthesized controller failed verification:\n" + str(report)
    if [f.name for f in report.failed] == ["norm_strict_monotonicity"]:
        # congruent to dilation_lyapunov_pd, it fails as P = d(-ln T)' X^-1 d(-ln T) is formed in floating point
        M = c.P @ c.Gd + c.Gd.T @ c.P
        text += (f"\nnorm_strict_monotonicity fails at the limit of double precision: T = {c.T:g}, "
                 f"cond(X) = {np.linalg.cond(c.X):.3e}, lmin(P Gd + Gd'P)/|P Gd + Gd'P| = "
                 f"{report.failed[0].value / np.linalg.norm(M, 2):.3e} against the Cholesky floor "
                 f"{linalg._CHOL_PIVOT_RTOL:.0e}")
    return SynthesisError(text)


@dataclass(frozen=True)
class CheckResult:
    """One verification check: measured value vs its acceptance threshold."""

    name: str
    value: float
    threshold: float
    passed: bool
    kind: str = "residual"  # residual (value <= threshold) or margin (value > threshold)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.kind == "residual" else ">"
        return f"[{status}] {self.name}: {self.value:.3e} ({rel} {self.threshold:.3e})"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of all algebraic checks on a controller record."""

    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self):
        lines = [str(c) for c in self.checks]
        verdict = "all checks passed" if self.all_passed else f"{len(self.failed)} check(s) FAILED"
        return "\n".join(lines + [verdict])


def _residual(name: str, value, threshold=_IDENTITY_TOL) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value <= threshold), "residual")


def _margin(name: str, value, threshold) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value > threshold), "margin")


def _tol(M: np.ndarray) -> float:
    return _IDENTITY_TOL * (1.0 + np.linalg.norm(M))


def _positive_definite(name: str, S: np.ndarray) -> CheckResult:
    """``S > 0``: ``lmin(S) > 0`` and the Cholesky test of :func:`linalg.chol_pd_check`, from one ``eigvalsh``."""
    lmin, chol, _ = linalg._pd_test(S)
    return CheckResult(name, lmin, 0.0, lmin > 0.0 and chol, "margin")


def _generator_checks(A, B, G0, Y0) -> tuple[CheckResult, CheckResult, CheckResult]:
    sv = np.linalg.svd(G0 - np.eye(len(A)), compute_uv=False)
    return (_residual("generator_equation", np.linalg.norm(A @ G0 - G0 @ A + B @ Y0 - A), _tol(A)),
            _residual("generator_kernel", np.linalg.norm(G0 @ B), _tol(B)),
            _margin("generator_shift_invertible", sv[-1] / max(sv[0], 1.0), 1e-9))


def _nilpotency_check(A, A0) -> CheckResult:
    return _residual("closed_loop_nilpotent", np.linalg.norm(np.linalg.matrix_power(A0, len(A))),
                     _IDENTITY_TOL * (1.0 + np.linalg.norm(A)) ** len(A))


def _record_checks(c: SynthesizedController, generator=None, feasibility=None) -> tuple[CheckResult, ...]:
    """The record's 15 plant-independent checks in report order, with the steps' own checks where given."""
    I = np.eye(c.n)
    equation, kernel, shift, nilpotent = generator or (*_generator_checks(c.A, c.B, c.G0, c.Y0),
                                                       _nilpotency_check(c.A, c.A0))
    x_pd, lyapunov_pd = feasibility or (_positive_definite("X_positive_definite", c.X),
                                        _positive_definite("dilation_lyapunov_pd", c.Gd @ c.X + c.X @ c.Gd.T))
    lmi = c.A0 @ c.X + c.X @ c.A0.T + c.B @ c.Y + c.Y.T @ c.B.T + c.Gd @ c.X + c.X @ c.Gd.T
    # check_strict_monotonicity on (Gd, P); P inverts X, so without a positive-definite X it fails unevaluated
    lam_p, ok_m, _ = linalg._pd_test(c.P @ c.Gd + c.Gd.T @ c.P) if x_pd.passed else (math.nan, False, None)
    ok_p = ok_m and linalg.chol_pd_check(c.P)[0]
    return (
        equation, kernel,
        _residual("dilation_generator_definition", np.linalg.norm(c.Gd - (I + c.mu * c.G0))),
        _margin("dilation_generator_anti_hurwitz", np.min(np.real(linalg.eigenvalues(c.Gd))), _ANTI_HURWITZ_MARGIN),
        shift,
        _residual("gain_K0_definition", np.linalg.norm(c.K0 @ (c.G0 - I) - c.Y0), _tol(c.Y0)),
        _residual("closed_loop_definition", np.linalg.norm(c.A0 - (c.A + c.B @ c.K0)), _tol(c.A)),
        nilpotent,
        _residual("homogeneity_commutation", np.linalg.norm(c.A0 @ c.Gd - (c.Gd + c.mu * I) @ c.A0), _tol(c.A)),
        _residual("input_direction_invariance", np.linalg.norm(c.Gd @ c.B - c.B), _tol(c.B)),
        _residual("feasibility_equality", np.linalg.norm(lmi), _tol(c.X)),
        x_pd,
        lyapunov_pd,
        _residual("gain_K_definition", np.linalg.norm(c.K @ c.X - c.Y), _tol(c.Y)),
        CheckResult("norm_strict_monotonicity", lam_p, 0.0, ok_p, "margin"),
    )


def _distance(M: np.ndarray, N: np.ndarray) -> float:
    """``‖M − N‖``, or ``inf`` when the shapes differ: no broadcast may match them."""
    return np.linalg.norm(M - N) if M.shape == N.shape else np.inf


def verify_controller(controller: SynthesizedController, plant: LinearPlant | None = None) -> VerificationReport:
    """Re-check every algebraic invariant of a controller record.

    Residual checks (value must stay below the threshold) cover the
    generator equation, the commutation identities, the feasibility equality
    and the gain definitions; margin checks (value must exceed the
    threshold) cover anti-Hurwitzness, positive definiteness and the strict
    monotonicity of the induced norm.  Optionally also checks the record
    against a plant.  The record's own checks are its cached
    :attr:`SynthesizedController.checks`, so only the plant checks are
    evaluated again on a record verified before.
    """
    c = controller
    checks = c.checks
    if plant is not None:
        checks += (_residual("plant_A_match", _distance(c.A, plant.A), 1e-12 * (1.0 + np.linalg.norm(c.A))),
                   _residual("plant_B_match", _distance(c.B, plant.B), 1e-12 * (1.0 + np.linalg.norm(plant.B))))
    report = VerificationReport(checks)
    if not report.all_passed:
        log.info("verification failed: %s", ", ".join(c.name for c in report.failed))
    return report


# ---------------------------------------------------------------------------
# serialization


def controller_to_dict(controller: SynthesizedController) -> dict:
    """Plain-dict form of a controller (row-major nested lists), with its constant ``mu``."""
    return {"T": controller.T, "mu": controller.mu, **{k: getattr(controller, k).tolist() for k in _MATRIX_FIELDS}}


def controller_from_dict(data: dict) -> SynthesizedController:
    """Rebuild a controller from its plain-dict form; a malformed field is a ``ValueError`` naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"controller record must be a JSON object, got {type(data).__name__}")
    missing = [k for k in ("T", "mu", *_MATRIX_FIELDS) if k not in data]
    if missing:
        raise ValueError(f"controller record is missing fields: {', '.join(missing)}")
    kwargs = {"T": linalg.as_scalar(data["T"], "controller record field T")}
    if (mu := linalg.as_scalar(data["mu"], "controller record field mu")) != MU:
        raise ValueError(f"homogeneity degree mu must be {MU}, got {mu}")
    for name in _MATRIX_FIELDS:
        entries = np.asarray(data[name], dtype=object)
        # only finite Python floats skip the scalar contract: a bool or a numeric string would convert silently
        if set(map(type, entries.flat)) != {float} or not np.isfinite(entries.astype(float)).all():
            for entry in entries.flat:
                linalg.as_scalar(entry, f"controller record field {name}: entry")
        kwargs[name] = entries.astype(float)
    return SynthesizedController(**kwargs)


def save_controller(controller: SynthesizedController, path) -> None:
    """Write a controller record to ``path`` as JSON, one field per line (atomic replace).

    Each field is one ``json.dumps`` call, which takes the C encoder; the
    numbers are the same shortest ``repr`` an indented ``json.dumps`` writes.
    """
    fields = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in controller_to_dict(controller).items())
    atomic.write_text(path, "{\n" + ",\n".join(fields) + "\n}\n")


def load_controller(path) -> SynthesizedController:
    """Read a controller record written by :func:`save_controller`; a ``ValueError`` names ``path`` first."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return controller_from_dict(json.load(fh))
        except ValueError as exc:  # a json.JSONDecodeError too
            raise ValueError(f"{path}: {exc}") from None
