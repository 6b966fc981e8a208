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
3.  Assemble ``K = Y X^{-1}`` and the weighted norm
    ``|x| = sqrt(x' d(-ln T)' X^{-1} d(-ln T) x)`` that calibrates the
    settling time to exactly ``T``.  The record forms ``d(-ln T)`` once;
    the norm weight ``P`` and the feedback's gain ``KT = K d(-ln T)``
    both read it.

``verify_controller`` re-checks every algebraic invariant of the result with
explicit residuals, which is also what the CLI ``verify`` command prints.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import atomic, linalg
from .dilation import Dilation, check_strict_monotonicity

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


class InfeasibleError(RuntimeError):
    """The feasibility problem admits no positive-definite solution."""


class SynthesisError(RuntimeError):
    """Synthesis could not produce a verified controller."""


# ---------------------------------------------------------------------------
# plant and configuration


def _is_real(v) -> bool:
    """True for an int or float; a bool is not accepted as a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class LinearPlant:
    """Controllable LTI plant ``x' = A x + B u(t - delay)``."""

    A: np.ndarray
    B: np.ndarray
    delay: float = 0.0

    def __post_init__(self):
        A = linalg.as_square(self.A, "A")
        B = _as_tall(self.B, A.shape[0], "B")
        if not (_is_real(self.delay) and math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(f"delay must be a finite number >= 0, got {self.delay}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "delay", float(self.delay))
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
        if not (_is_real(self.T) and math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"settling time T must be positive, got {self.T}")
        object.__setattr__(self, "T", float(self.T))


@dataclass(frozen=True)
class SynthesizedController:
    """Full parameter set of a synthesized stabilizer.

    Carries the plant matrices it was synthesized for, the settling time and
    homogeneity degree, and every matrix of the construction so the record is
    self-contained for verification, simulation and serialization.  A degree
    other than :data:`MU` is rejected: such a record can pass every algebraic
    check of :func:`verify_controller` and still not settle at ``T``.
    """

    A: np.ndarray
    B: np.ndarray
    T: float
    mu: float
    G0: np.ndarray
    Y0: np.ndarray
    Gd: np.ndarray
    A0: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    K0: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        A = linalg.as_square(self.A, "A")
        n = A.shape[0]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", _as_tall(self.B, n, "B"))
        for name in ("G0", "Gd", "A0", "X"):
            M = linalg.as_square(getattr(self, name), name)
            if M.shape[0] != n:
                raise ValueError(f"{name} has shape {M.shape}, expected ({n}, {n})")
            object.__setattr__(self, name, M)
        m = self.B.shape[1]
        for name in ("Y0", "Y", "K0", "K"):
            M = _as_wide(getattr(self, name), m, n, name)
            object.__setattr__(self, name, M)
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        if self.mu != MU:
            raise ValueError(f"homogeneity degree mu must be {MU}, got {self.mu}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "mu", float(self.mu))

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
    def dilation(self) -> Dilation:
        """Dilation (generator ``Gd``, weight ``P``) the feedback is scheduled on."""
        return Dilation(self.Gd, self.P)

    def weighted_norm(self, x) -> float:
        """The controller's state norm ``sqrt(x' P x)``."""
        return self.dilation.norm(x)


def _as_tall(B, n: int, name: str) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    B = linalg.as_matrix(B, name)
    if B.shape[0] != n:
        raise ValueError(f"{name} has shape {B.shape}, expected ({n}, m)")
    return B


def _as_wide(M, m: int, n: int, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    M = linalg.as_matrix(M, name)
    if M.shape != (m, n):
        raise ValueError(f"{name} has shape {M.shape}, expected ({m}, {n})")
    return M


# ---------------------------------------------------------------------------
# controllability


def controllability_matrix(A, B) -> np.ndarray:
    """The block matrix ``[B, AB, ..., A^{n-1} B]``."""
    A = linalg.as_square(A, "A")
    B = _as_tall(B, A.shape[0], "B")
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllability_index(A, B, rtol: float = _CTRB_RTOL) -> int | None:
    """Smallest ``j`` with ``rank [B, AB, ..., A^{j-1} B] = n``, else None.

    Rank decisions use singular values relative to the largest one.
    """
    C = controllability_matrix(A, B)
    n = C.shape[0]
    m = C.shape[1] // n
    for j in range(1, n + 1):
        sv = np.linalg.svd(C[:, : j * m], compute_uv=False)
        if sv[0] > 0 and int(np.sum(sv > rtol * sv[0])) == n:
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
        [np.kron(A, I) - np.kron(I, A.T), np.kron(B, I)],
        [np.kron(I, B.T), np.zeros((n * m, m * n))],
    ])


def solve_generator_equation(plant: LinearPlant) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A G0 - G0 A + B Y0 = A`` with ``G0 B = 0`` for ``(G0, Y0)``.

    Returns the least-norm solution.  Every exact solution makes
    ``Gd = I + MU G0`` anti-Hurwitz with smallest eigenvalue 1 (see the
    module docstring), so the solution set is not searched.
    """
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    M = _generator_operator(A, B)
    rhs = np.concatenate([A.ravel(), np.zeros(n * m)])
    u = linalg.least_norm_solve(M, rhs)
    G0, Y0 = u[: n * n].reshape(n, n), u[n * n :].reshape(m, n)

    # sanity: the defining equations and the shift invertibility
    scale = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A @ G0 - G0 @ A + B @ Y0 - A) > _IDENTITY_TOL * scale:
        raise SynthesisError("generator equation residual out of tolerance")
    if np.linalg.norm(G0 @ B) > _IDENTITY_TOL * (1.0 + np.linalg.norm(B)):
        raise SynthesisError("generator kernel residual out of tolerance")
    sv = np.linalg.svd(G0 - np.eye(n), compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1.0):
        raise SynthesisError("G0 - I is numerically singular")
    return G0, Y0


# ---------------------------------------------------------------------------
# step 2: feasibility problem


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
    price of larger gains.

    ``X`` and ``Y`` are rescaled so ``lmin(X) = 1``.  Raises
    :class:`InfeasibleError` when a solve fails or when ``X`` or
    ``Gd X + X Gd'`` fails the Cholesky test of :func:`verify_controller`,
    as happens in double precision for badly conditioned plants and for a
    ``Gd`` that is not anti-Hurwitz.
    """
    # the only scipy user in the package: simulate/verify/experiment never load it
    import scipy.linalg

    A0 = linalg.as_square(A0, "A0")
    n = A0.shape[0]
    B = _as_tall(B, n, "B")
    Gd = linalg.as_square(Gd, "Gd")
    W = A0 + Gd
    BBt = B @ B.T
    try:
        if weight > 0.0:
            Pi = scipy.linalg.solve_continuous_are(-W, B, weight * np.eye(n), np.eye(B.shape[1]))
        else:
            Pi = np.zeros((n, n))
        X = scipy.linalg.solve_continuous_lyapunov(W + BBt @ Pi, 2.0 * BBt)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(f"no positive-definite solution found (solve failed: {exc})") from exc
    X = 0.5 * (X + X.T)
    lam_min = linalg.min_eig_sym(X) if np.isfinite(X).all() else math.nan
    if not (lam_min > 0.0 and linalg.chol_pd_check(X / lam_min)[0]):
        raise InfeasibleError(f"no positive-definite solution found (lmin(X) = {lam_min:.3e})")
    X /= lam_min
    Y = B.T @ (Pi @ X - np.eye(n) / lam_min)
    S = Gd @ X + X @ Gd.T
    if not linalg.chol_pd_check(S)[0]:
        raise InfeasibleError(f"no positive-definite solution found (lmin(GdX+XGd') = {linalg.min_eig_sym(S):.3e})")
    if log.isEnabledFor(logging.INFO):
        log.info("feasibility (weight %g): lmin(X)/|X| %.3e, lmin(GdX+XGd')/|.| %.3e, cond(X) %.3e", weight,
                 1.0 / np.linalg.norm(X, 2), linalg.min_eig_sym(S) / np.linalg.norm(S, 2), np.linalg.cond(X))
    return X, Y


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
    G0, Y0 = solve_generator_equation(plant)
    Gd = np.eye(n) + MU * G0
    K0 = Y0 @ np.linalg.inv(G0 - np.eye(n))
    A0 = A + B @ K0
    first_error = None
    for weight in (0.0, _RICCATI_STATE_WEIGHT):
        if weight:
            log.info("Y = -B' failed; solving the feasibility step again with Riccati weight %g", weight)
        try:
            X, Y = solve_lmi_feasibility(A0, B, Gd, weight)
        except InfeasibleError as exc:
            first_error = first_error or exc
            continue
        K = np.linalg.solve(X.T, Y.T).T
        controller = SynthesizedController(
            A=A, B=B, T=config.T, mu=MU,
            G0=G0, Y0=Y0, Gd=Gd, A0=A0, X=X, Y=Y, K0=K0, K=K,
        )
        report = verify_controller(controller, plant)
        if report.all_passed:
            return controller
        first_error = first_error or SynthesisError("synthesized controller failed verification:\n" + str(report))
    raise first_error


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


def verify_controller(controller: SynthesizedController, plant: LinearPlant | None = None) -> VerificationReport:
    """Re-check every algebraic invariant of a controller record.

    Residual checks (value must stay below the threshold) cover the
    generator equation, the commutation identities, the feasibility equality
    and the gain definitions; margin checks (value must exceed the
    threshold) cover anti-Hurwitzness, positive definiteness and the strict
    monotonicity of the induced norm.  Optionally also checks the record
    against a plant.
    """
    c = controller
    n, m = c.n, c.m
    I = np.eye(n)
    checks: list[CheckResult] = []

    def residual(name, value, threshold=_IDENTITY_TOL):
        checks.append(CheckResult(name, float(value), float(threshold), bool(value <= threshold), "residual"))

    def margin(name, value, threshold):
        checks.append(CheckResult(name, float(value), float(threshold), bool(value > threshold), "margin"))

    a_scale = 1.0 + np.linalg.norm(c.A)
    residual("generator_equation", np.linalg.norm(c.A @ c.G0 - c.G0 @ c.A + c.B @ c.Y0 - c.A), _IDENTITY_TOL * a_scale)
    residual("generator_kernel", np.linalg.norm(c.G0 @ c.B), _IDENTITY_TOL * (1.0 + np.linalg.norm(c.B)))
    residual("dilation_generator_definition", np.linalg.norm(c.Gd - (I + c.mu * c.G0)))
    margin("dilation_generator_anti_hurwitz", float(np.min(np.real(linalg.eigenvalues(c.Gd)))), _ANTI_HURWITZ_MARGIN)
    sv = np.linalg.svd(c.G0 - I, compute_uv=False)
    margin("generator_shift_invertible", float(sv[-1] / max(sv[0], 1.0)), 1e-9)
    residual("gain_K0_definition", np.linalg.norm(c.K0 @ (c.G0 - I) - c.Y0), _IDENTITY_TOL * (1.0 + np.linalg.norm(c.Y0)))
    residual("closed_loop_definition", np.linalg.norm(c.A0 - (c.A + c.B @ c.K0)), _IDENTITY_TOL * a_scale)
    residual("closed_loop_nilpotent", np.linalg.norm(np.linalg.matrix_power(c.A0, n)), _IDENTITY_TOL * a_scale**n)
    residual("homogeneity_commutation", np.linalg.norm(c.A0 @ c.Gd - (c.Gd + c.mu * I) @ c.A0), _IDENTITY_TOL * a_scale)
    residual("input_direction_invariance", np.linalg.norm(c.Gd @ c.B - c.B), _IDENTITY_TOL * (1.0 + np.linalg.norm(c.B)))
    lmi = c.A0 @ c.X + c.X @ c.A0.T + c.B @ c.Y + c.Y.T @ c.B.T + c.Gd @ c.X + c.X @ c.Gd.T
    residual("feasibility_equality", np.linalg.norm(lmi), _IDENTITY_TOL * (1.0 + np.linalg.norm(c.X)))
    ok_x, _ = linalg.chol_pd_check(c.X)
    lam_x = linalg.min_eig_sym(c.X)
    checks.append(CheckResult("X_positive_definite", lam_x, 0.0, ok_x, "margin"))
    S = c.Gd @ c.X + c.X @ c.Gd.T
    ok_s, _ = linalg.chol_pd_check(S)
    lam_s = linalg.min_eig_sym(S)
    checks.append(CheckResult("dilation_lyapunov_pd", lam_s, 0.0, ok_s, "margin"))
    residual("gain_K_definition", np.linalg.norm(c.K @ c.X - c.Y), _IDENTITY_TOL * (1.0 + np.linalg.norm(c.Y)))
    checks.append(CheckResult("norm_strict_monotonicity", linalg.min_eig_sym(c.P @ c.Gd + c.Gd.T @ c.P), 0.0,
                              check_strict_monotonicity(c.dilation), "margin"))

    if plant is not None:
        residual("plant_A_match", np.linalg.norm(c.A - plant.A), 1e-12 * a_scale)
        residual("plant_B_match", np.linalg.norm(c.B - plant.B), 1e-12 * (1.0 + np.linalg.norm(plant.B)))

    report = VerificationReport(tuple(checks))
    if not report.all_passed:
        log.info("verification failed: %s", ", ".join(c.name for c in report.failed))
    return report


# ---------------------------------------------------------------------------
# serialization


_FIELDS_MATRIX = ("A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K")
_FIELDS_SCALAR = ("T", "mu")


def controller_to_dict(controller: SynthesizedController) -> dict:
    """Plain-dict form of a controller (row-major nested lists)."""
    out: dict = {}
    for name in _FIELDS_SCALAR:
        out[name] = getattr(controller, name)
    for name in _FIELDS_MATRIX:
        out[name] = getattr(controller, name).tolist()
    return out


def controller_from_dict(data: dict) -> SynthesizedController:
    """Rebuild a controller from its plain-dict form."""
    missing = [k for k in _FIELDS_SCALAR + _FIELDS_MATRIX if k not in data]
    if missing:
        raise ValueError(f"controller record is missing fields: {', '.join(missing)}")
    kwargs = {name: float(data[name]) for name in _FIELDS_SCALAR}
    kwargs.update({name: np.asarray(data[name], dtype=float) for name in _FIELDS_MATRIX})
    return SynthesizedController(**kwargs)


def save_controller(controller: SynthesizedController, path) -> None:
    """Write a controller record to ``path`` as JSON (atomic replace)."""
    atomic.write_text(path, json.dumps(controller_to_dict(controller), indent=2) + "\n")


def load_controller(path) -> SynthesizedController:
    """Read a controller record written by :func:`save_controller`."""
    with open(path, "r", encoding="utf-8") as fh:
        return controller_from_dict(json.load(fh))
