"""Linear dilation groups and the canonical homogeneous norm.

A dilation is the one-parameter matrix group ``d(s) = e^{s G}`` generated by
an anti-Hurwitz matrix ``G``, paired with a weighted Euclidean norm
``|x| = sqrt(x' P x)``.  When the pair is strictly monotone
(``P G + G' P > 0`` and ``P > 0``) the map ``s -> |d(-s) x|`` is strictly
decreasing, so every nonzero ``x`` crosses the unit sphere along its dilation
orbit exactly once.  The crossing parameter defines the homogeneous norm
``||x||_d = e^{s_x}`` with ``|d(-s_x) x| = 1``, the scalar the feedback laws
in :mod:`homctl.control_laws` are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "Dilation",
    "dilation_matrix",
    "dilate",
    "check_strict_monotonicity",
    "hom_norm",
    "hom_norm_gradient",
]

#: accepted residual | |d(-s)x| - 1 | at the root
HOM_NORM_RESIDUAL_TOL = 1e-12
#: inputs with |x| below this are treated as exactly zero
_TINY_NORM = 1e-150
#: orbit evaluations allowed per root-find
_MAX_ITER = 100
#: eigenbasis condition limit for the fast d(s)x evaluation path
_EIG_COND_LIMIT = 1e3


@dataclass(frozen=True)
class Dilation:
    """Dilation group generator ``G`` and weight ``P`` of the base norm.

    Construction validates shapes and finiteness only; whether the pair is
    actually strictly monotone (and hence defines a homogeneous norm) is a
    separate question answered by :func:`check_strict_monotonicity`.
    """

    generator: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        G = linalg.as_square(self.generator, "generator")
        P = linalg.as_square(self.weight, "weight")
        if G.shape != P.shape:
            raise ValueError(f"generator {G.shape} and weight {P.shape} differ in size")
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "weight", P)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def norm(self, x) -> float:
        """Weighted Euclidean norm ``sqrt(x' P x)`` of the base space.

        NaN when ``x' P x`` is NaN (an overflowed ``x``), so such a point
        never reads as the origin.
        """
        x = np.asarray(x, dtype=float)
        q = float(x.dot(self.weight).dot(x))
        if math.isnan(q):
            return math.nan
        return math.sqrt(q) if q > 0.0 else 0.0

    @cached_property
    def _eig(self):
        # Diagonalization for cheap e^{sG} application.  Used only when the
        # eigenvector basis is well conditioned enough to keep evaluation
        # noise well below the root residual tolerance; otherwise fall back
        # to the matrix exponential.
        try:
            w, V = np.linalg.eig(self.generator)
            Vinv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(Vinv)) or np.linalg.cond(V) > _EIG_COND_LIMIT:
            return None
        return w, V, Vinv

    @cached_property
    def _PG(self) -> np.ndarray:
        # the root-find's slope is u' P G u
        return self.weight @ self.generator


def dilation_matrix(D: Dilation, s: float) -> np.ndarray:
    """The group element ``d(s) = e^{s G}`` as a matrix: its action on ``I``."""
    if not math.isfinite(s):
        raise ValueError(f"dilation parameter must be finite, got {s}")
    with np.errstate(over="ignore"):
        return _orbit(D, np.eye(D.dim))(-s)


def dilate(D: Dilation, s: float, x) -> np.ndarray:
    """Apply the group element: ``d(s) x``."""
    if not math.isfinite(s):
        raise ValueError(f"dilation parameter must be finite, got {s}")
    with np.errstate(over="ignore"):
        return _orbit(D, linalg.as_vector(x, "x", D.dim))(-s)


def check_strict_monotonicity(D: Dilation) -> bool:
    """True iff ``P > 0`` and ``P G + G' P > 0`` (Cholesky-tested).

    This is the algebraic certificate that ``|d(-s) x|`` is strictly
    decreasing in ``s``, i.e. that the homogeneous norm is well defined.
    """
    ok_p, _ = linalg.chol_pd_check(D.weight)
    if not ok_p:
        return False
    G, P = D.generator, D.weight
    ok_m, _ = linalg.chol_pd_check(P @ G + G.T @ P)
    return ok_m


def hom_norm(D: Dilation, x, guess: float | None = None) -> float:
    """Canonical homogeneous norm ``||x||_d`` induced by the dilation.

    Defined by ``||x||_d = e^{s_x}`` where ``s_x`` solves
    ``|d(-s_x) x| = 1`` in the weighted base norm, and ``||0||_d = 0``.
    The root is found by Newton steps on ``ln|d(-s)x|``, whose slope
    ``-z'PGz/|z|^2`` stays between fixed negative bounds for a strictly
    monotone pair.  Every residual narrows a sign bracket on ``s``; a step
    that leaves the bracket is replaced by bisection, and while one side is
    still open and the slope unusable the search doubles outward.  It stops
    at residual ``| |d(-s)x| - 1 | <= 1e-12``.

    ``guess`` is an optional estimate of the norm.  The search starts from
    ``ln guess`` when given and from ``ln|x|`` otherwise (taken as
    ``ln m + ln|x/m|``, ``m = max|x|``, where ``x'Px`` overflows), so a
    poor guess costs evaluations, never accuracy.

    Raises ``RuntimeError`` when no root can be located, which for finite
    input means the supplied pair is not strictly monotone, and
    ``ValueError`` when ``|x|`` overflows even at the scale of ``x``.
    """
    x = linalg.as_vector(x, "x", D.dim)
    if guess is not None and not (math.isfinite(guess) and guess > 0):
        raise ValueError(f"guess must be a positive finite number, got {guess!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve(D, x, guess)[0]


def _orbit(D: Dilation, x: np.ndarray):
    """The map ``s -> d(-s) x`` for a vector or an ``(n, k)`` block ``x``.

    ``V^{-1} x`` is formed once.
    """
    eig = D._eig
    if eig is None:
        G = D.generator
        return lambda s: linalg.expm(-s * G) @ x
    w, V, Vinv = eig
    # transposed, a block's eigen-coordinates broadcast against exp(-s w)
    # row by row; a vector's are unchanged
    cT = (Vinv @ x).T
    return lambda s: V.dot((np.exp(-s * w) * cT).T).real


def _log_base_norm(D: Dilation, x: np.ndarray) -> float:
    """``ln|x|``, or ``-inf`` when ``x' P x`` is not positive.

    Where ``x' P x`` over- or underflows it is taken as
    ``ln m + ln|x/m|`` with ``m = max|x|``.
    """
    P = D.weight
    q = float(x.dot(P).dot(x))
    if _TINY_NORM**2 <= q < math.inf:
        return math.log(math.sqrt(q))
    m = float(np.abs(x).max())
    if m == 0.0:
        return -math.inf
    u = x / m
    q = float(u.dot(P).dot(u))
    if not q < math.inf:
        raise ValueError(f"hom_norm: the weighted norm of x overflows at its scale max|x| = {m:.6g}")
    return math.log(m) + math.log(math.sqrt(q)) if q > 0.0 else -math.inf


def _solve(D: Dilation, x: np.ndarray, guess: float | None = None) -> tuple[float, np.ndarray | None]:
    """``(||x||_d, z)`` for a finite vector ``x``, with ``z = d(-ln ||x||_d) x``.

    ``z`` is the unit-sphere point at which the root-find stopped; it is
    None at (or numerically below) the origin, where the norm is 0.  The
    caller validates ``x`` and ``guess`` and silences floating-point
    warnings: orbit points far from the root may overflow.
    """
    ln_base = _log_base_norm(D, x)
    if ln_base < math.log(_TINY_NORM):
        return 0.0, None
    # ln|x|: the exact root for G = I, the natural cold start in general
    s = ln_base if guess is None else math.log(guess)
    orbit = _orbit(D, x)
    P, PG = D.weight, D._PG
    lo, hi, step = -math.inf, math.inf, 1.0
    for _ in range(_MAX_ITER):
        z = orbit(s)
        q = float(z.dot(P).dot(z))
        # NaN (an overflowed orbit point) stays NaN
        zn = 0.0 if q < 0.0 else math.sqrt(q)
        if abs(zn - 1.0) <= HOM_NORM_RESIDUAL_TOL:
            return math.exp(s), z
        # an overflowed orbit point (zn inf or NaN) lies outside the sphere
        outside = not zn <= 1.0
        if outside:
            lo = s
        else:
            hi = s
        # -d ln|z|/ds = z'PGz/|z|^2, between fixed positive bounds for a
        # strictly monotone pair; evaluated on z/|z| so it cannot overflow
        rate = math.nan
        if 0.0 < zn < math.inf:
            u = z / zn
            rate = float(u.dot(PG).dot(u))
        newton = s + math.log(zn) / rate if math.isfinite(rate) and rate > 0.0 else math.nan
        if lo < newton < hi:
            s = newton
        elif math.isfinite(lo) and math.isfinite(hi):
            s = 0.5 * (lo + hi)
        else:
            # no usable slope and the root's side is open: double outward
            if step > 1e6:
                raise RuntimeError("hom_norm: no unit-sphere crossing found (dilation not strictly monotone?)")
            s += step if outside else -step
            step *= 2.0
    raise RuntimeError("hom_norm: root refinement did not converge (dilation not strictly monotone?)")


def hom_norm_gradient(D: Dilation, x) -> np.ndarray:
    """Gradient of the homogeneous norm at ``x != 0``.

    With ``v = ||x||_d`` and ``z = d(-ln v) x`` the gradient is

        ``v * d(-ln v)' P z / (z' P G z)``,

    the closed form obtained by implicit differentiation of
    ``|d(-ln v) x| = 1``.  Raises ``ValueError`` at the origin where the
    norm is not differentiable.
    """
    x = linalg.as_vector(x, "x", D.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        v, z = _solve(D, x)
    if v == 0.0:
        raise ValueError("hom_norm_gradient: undefined at the origin")
    Dm = dilation_matrix(D, -math.log(v))
    denom = float(z @ D._PG @ z)
    return v * (Dm.T @ (D.weight @ z)) / denom
