"""Stabilizer synthesis: generator equation, feasibility problem, gain assembly.

For a controllable pair ``(A, B)`` and a settling time ``T`` the synthesis
produces the matrices of a static feedback whose closed loop contracts along
a linear dilation at the constant rate ``1/T``:

1.  Solve the linear generator equation ``A G0 - G0 A + B Y0 = A`` with
    ``G0 B = 0`` (least-norm solution).  The dilation generator is
    ``Gd = I + mu * G0`` (anti-Hurwitz for the admissible degrees ``mu``),
    and ``K0 = Y0 (G0 - I)^{-1}`` places ``A0 = A + B K0`` on a nilpotent
    structure that commutes with the dilation: ``A0 Gd = (Gd + mu I) A0``
    and ``Gd B = B``.
2.  Solve the feasibility problem ``A0 X + X A0' + B Y + Y' B' + Gd X +
    X Gd' = 0`` with ``X > 0`` and ``Gd X + X Gd' > 0`` by subgradient
    ascent over the nullspace of the equality constraint.
3.  Assemble ``K = Y X^{-1}`` and the weighted norm
    ``|x| = sqrt(x' d(-ln T)' X^{-1} d(-ln T) x)`` that calibrates the
    settling time to exactly ``T``.

``verify_controller`` re-checks every algebraic invariant of the result with
explicit residuals, which is also what the CLI ``verify`` command prints.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .dilation import Dilation, check_strict_monotonicity

__all__ = [
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

#: residual tolerance of the algebraic identities (relative to matrix scale)
_IDENTITY_TOL = 1e-8
#: eigenvalue real-part margin for anti-Hurwitz decisions
_ANTI_HURWITZ_MARGIN = 1e-9
#: relative rank tolerance of the controllability test
_CTRB_RTOL = 1e-9


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
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        B = linalg.as_matrix(B, "B")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"A and B have incompatible shapes {A.shape} / {B.shape}")
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
    """Settling time and solver knobs of the synthesis.

    ``mu`` is the homogeneity degree of the closed loop; any negative value
    with ``|mu| <= 1`` works for controllable pairs and ``-1`` is the
    canonical choice, so the field is read-only with that default.
    """

    T: float
    mu: float = -1.0
    feasibility_tol: float = 1e-4
    max_iter: int = 2000

    def __post_init__(self):
        if not (_is_real(self.T) and math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"settling time T must be positive, got {self.T}")
        if not (_is_real(self.mu) and math.isfinite(self.mu) and self.mu < 0):
            raise ValueError(f"homogeneity degree mu must be negative, got {self.mu}")
        if not self.feasibility_tol > 0:
            raise ValueError("feasibility_tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "mu", float(self.mu))


@dataclass(frozen=True)
class SynthesizedController:
    """Full parameter set of a synthesized stabilizer.

    Carries the plant matrices it was synthesized for, the settling time and
    homogeneity degree, and every matrix of the construction so the record is
    self-contained for verification, simulation and serialization.
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
        if not (math.isfinite(self.mu) and self.mu < 0):
            raise ValueError(f"mu must be negative, got {self.mu}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def P(self) -> np.ndarray:
        """Weight of the controller norm: ``d(-ln T)' X^{-1} d(-ln T)``."""
        Dm = linalg.expm(-math.log(self.T) * self.Gd)
        Xinv = np.linalg.inv(self.X)
        P = Dm.T @ Xinv @ Dm
        return 0.5 * (P + P.T)

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
    A = linalg.as_square(A, "A")
    B = _as_tall(B, A.shape[0], "B")
    n = A.shape[0]
    blocks = [B]
    for j in range(1, n + 1):
        C = np.hstack(blocks)
        sv = np.linalg.svd(C, compute_uv=False)
        if sv[0] > 0 and int(np.sum(sv > rtol * sv[0])) == n:
            return j
        blocks.append(A @ blocks[-1])
    return None


# ---------------------------------------------------------------------------
# step 1: generator equation


def solve_generator_equation(plant: LinearPlant, config: SynthesisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A G0 - G0 A + B Y0 = A`` with ``G0 B = 0`` for ``(G0, Y0)``.

    Returns the least-norm solution.  If the induced generator
    ``Gd = I + mu * G0`` is not anti-Hurwitz, the affine solution set is
    searched along its nullspace directions (line search on the smallest
    eigenvalue real part) before giving up.
    """
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m

    def apply(G0: np.ndarray, Y0: np.ndarray) -> np.ndarray:
        r1 = A @ G0 - G0 @ A + B @ Y0
        r2 = G0 @ B
        return np.concatenate([r1.ravel(), r2.ravel()])

    def unpack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return u[: n * n].reshape(n, n), u[n * n :].reshape(m, n)

    # build the linear operator column by column from unit basis matrices
    dim = n * n + m * n
    M = np.empty((n * n + n * m, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        M[:, k] = apply(*unpack(e))
    rhs = np.concatenate([A.ravel(), np.zeros(n * m)])

    u = linalg.least_norm_solve(M, rhs)
    G0, Y0 = unpack(u)

    def hurwitz_margin(G0c: np.ndarray) -> float:
        return float(np.min(np.real(linalg.eigenvalues(np.eye(n) + config.mu * G0c))))

    margin = hurwitz_margin(G0)
    if margin <= _ANTI_HURWITZ_MARGIN:
        # walk the solution set: u + null(M) keeps both equations satisfied
        _, sv, Vt = np.linalg.svd(M)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        null_dirs = Vt[rank:]
        log.info("least-norm generator branch not anti-Hurwitz (margin %.3e), searching %d nullspace directions", margin, len(null_dirs))
        best_u, best_margin = u, margin
        for _ in range(20):
            improved = False
            for d in null_dirs:
                for t in (1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 8.0, -8.0, 0.5, -0.5):
                    cand = best_u + t * d
                    cm = hurwitz_margin(unpack(cand)[0])
                    if cm > best_margin:
                        best_u, best_margin = cand, cm
                        improved = True
            if best_margin > _ANTI_HURWITZ_MARGIN or not improved:
                break
        u, margin = best_u, best_margin
        G0, Y0 = unpack(u)
        if margin <= _ANTI_HURWITZ_MARGIN:
            raise SynthesisError(
                f"no solution branch of the generator equation makes I + mu*G0 anti-Hurwitz (best margin {margin:.3e})"
            )

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


def solve_lmi_feasibility(A0, B, Gd, config: SynthesisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Find ``X > 0``, ``Y`` with the closed-loop dilation inequality.

    Solves the constraint system

        ``A0 X + X A0' + B Y + Y' B' + Gd X + X Gd' = 0``,
        ``Gd X + X Gd' > 0``,  ``X > 0``

    by parametrizing the (linear) solution set of the equality and running a
    multi-start projected subgradient ascent of
    ``t(z) = min(lmin(X), lmin(Gd X + X Gd'))`` over it.  Stops as soon as
    ``t`` clears ``feasibility_tol`` (relative to ``||X||``), then rescales
    so ``lmin(X) = 1``.  Raises :class:`InfeasibleError` when no positive
    ``t`` is found within the iteration budget.
    """
    A0 = linalg.as_square(A0, "A0")
    n = A0.shape[0]
    B = _as_tall(B, n, "B")
    m = B.shape[1]
    Gd = linalg.as_square(Gd, "Gd")
    W = A0 + Gd

    # symmetric X parametrized by its upper triangle
    sym_basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            sym_basis.append(E)
    q = len(sym_basis)
    dim = q + m * n
    iu = np.triu_indices(n)

    def unpack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.zeros((n, n))
        for c, E in zip(z[:q], sym_basis):
            X += c * E
        return X, z[q:].reshape(m, n)

    M = np.empty((len(iu[0]), dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        Xk, Yk = unpack(e)
        Lk = W @ Xk + Xk @ W.T + B @ Yk + Yk.T @ B.T
        M[:, k] = Lk[iu]

    # the equality constraint is homogeneous: its solution set is null(M)
    _, sv, Vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0))) if sv.size else 0
    null_dirs = Vt[rank:]
    if len(null_dirs) == 0:
        raise InfeasibleError("feasibility equality admits only the trivial solution")

    x_parts = [unpack(d)[0] for d in null_dirs]
    s_parts = [Gd @ Xp + Xp @ Gd.T for Xp in x_parts]

    def assemble(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = sum(c * Xp for c, Xp in zip(z, x_parts))
        S = sum(c * Sp for c, Sp in zip(z, s_parts))
        return X, S

    def eval_t(z: np.ndarray):
        X, S = assemble(z)
        wx, vx = np.linalg.eigh(0.5 * (X + X.T))
        ws, vs = np.linalg.eigh(0.5 * (S + S.T))
        return X, float(wx[0]), vx[:, 0], float(ws[0]), vs[:, 0]

    def subgradient(z: np.ndarray, which_x: bool, v: np.ndarray) -> np.ndarray:
        parts = x_parts if which_x else s_parts
        return np.array([float(v @ Pk @ v) for Pk in parts])

    k = len(null_dirs)
    rng = np.random.default_rng(0)
    starts = [np.eye(k)[i] for i in range(k)] + [-np.eye(k)[i] for i in range(k)]
    starts += [rng.standard_normal(k) for _ in range(max(4, k))]

    best_z, best_t = None, -math.inf
    iters_left = config.max_iter
    for z0 in starts:
        z = z0 / np.linalg.norm(z0)
        X, lx, vx, ls, vs = eval_t(z)
        t = min(lx, ls)
        alpha = 0.5
        while iters_left > 0:
            iters_left -= 1
            scale = max(np.linalg.norm(X, 2), 1e-30)
            if t > config.feasibility_tol * scale:
                break
            g = subgradient(z, lx <= ls, vx if lx <= ls else vs)
            gn = np.linalg.norm(g)
            if gn == 0.0:
                break
            improved = False
            a = alpha
            for _ in range(12):
                z2 = z + a * (g / gn)
                z2 /= np.linalg.norm(z2)
                X2, lx2, vx2, ls2, vs2 = eval_t(z2)
                t2 = min(lx2, ls2)
                if t2 > t + 1e-15:
                    z, X, lx, vx, ls, vs, t = z2, X2, lx2, vx2, ls2, vs2, t2
                    alpha = min(2.0 * a, 1.0)
                    improved = True
                    break
                a *= 0.5
            if not improved:
                break
        scale = max(np.linalg.norm(X, 2), 1e-30)
        if t / scale > best_t:
            best_z, best_t = z, t / scale
        if best_t > config.feasibility_tol:
            break
        if iters_left <= 0:
            break

    if best_z is None or best_t <= 0.0:
        raise InfeasibleError(f"no positive-definite solution found (best margin {best_t:.3e})")
    X, _ = assemble(best_z)
    X = 0.5 * (X + X.T)
    Y = sum(c * unpack(d)[1] for c, d in zip(best_z, null_dirs))
    lam_min = linalg.min_eig_sym(X)
    if lam_min <= 0.0:
        raise InfeasibleError(f"no positive-definite solution found (lmin(X) = {lam_min:.3e})")
    X /= lam_min
    Y /= lam_min
    log.info("feasibility margin %.3e after ascent, nullspace dimension %d", best_t, k)
    return X, Y


# ---------------------------------------------------------------------------
# steps 3-4: assembly and verification


def synthesize(plant: LinearPlant, config: SynthesisConfig) -> SynthesizedController:
    """Run the full synthesis and return a verified controller record."""
    A, B = plant.A, plant.B
    n = plant.n
    G0, Y0 = solve_generator_equation(plant, config)
    Gd = np.eye(n) + config.mu * G0
    K0 = Y0 @ np.linalg.inv(G0 - np.eye(n))
    A0 = A + B @ K0
    X, Y = solve_lmi_feasibility(A0, B, Gd, config)
    K = np.linalg.solve(X.T, Y.T).T
    controller = SynthesizedController(
        A=A, B=B, T=config.T, mu=config.mu,
        G0=G0, Y0=Y0, Gd=Gd, A0=A0, X=X, Y=Y, K0=K0, K=K,
    )
    report = verify_controller(controller, plant)
    if not report.all_passed:
        raise SynthesisError("synthesized controller failed verification:\n" + str(report))
    return controller


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
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(controller_to_dict(controller), fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def load_controller(path) -> SynthesizedController:
    """Read a controller record written by :func:`save_controller`."""
    with open(path, "r", encoding="utf-8") as fh:
        return controller_from_dict(json.load(fh))
