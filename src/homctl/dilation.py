"""Linear dilation groups and the canonical homogeneous norm.

A dilation is the one-parameter matrix group ``d(s) = e^{s G}`` generated by
an anti-Hurwitz matrix ``G``, paired with a weighted Euclidean norm
``|x| = sqrt(x' P x)``.  When the pair is strictly monotone
(``P G + G' P > 0`` and ``P > 0``) the map ``s -> |d(-s) x|`` is strictly
decreasing, so every nonzero ``x`` crosses the unit sphere along its dilation
orbit exactly once.  The crossing parameter defines the homogeneous norm
``||x||_d = e^{s_x}`` with ``|d(-s_x) x| = 1``, the scalar the feedback laws
in :mod:`homctl.control_laws` are built on.

One map, :func:`_orbit`, forms every orbit point ``d(-s) x``: of a vector,
of a block under one ``s`` (:func:`dilation_matrix`), and of each column of
a block under its own ``s`` (the batched root-find).  One method,
:meth:`Dilation.norm`, forms the weighted norm of a state or of each row of
a block, the simulation traces' norms included.
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
#: inputs with |x| below this (x'Px below its square) are treated as exactly zero
_TINY_NORM = 1e-150
_TINY_Q, _LN_TINY_NORM = _TINY_NORM**2, math.log(_TINY_NORM)
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
        object.__setattr__(self, "generator", G)
        object.__setattr__(self, "weight", linalg.as_matrix(self.weight, "weight", G.shape))

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def norm(self, x) -> float | np.ndarray:
        """Weighted Euclidean norm ``sqrt(x' P x)`` of the base space.

        Of a vector, or of each row of a ``(k, n)`` block.  ``inf`` where
        ``x' P x`` overflows, NaN where it is NaN or ``-inf`` (the terms
        overflowed with both signs), so an overflowed ``x`` never reads as
        the origin.
        """
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        with np.errstate(over="ignore", invalid="ignore"):
            q = (X[:, None, :] @ self.weight @ X[:, :, None]).reshape(-1)
        r = np.sqrt(np.where(q > -math.inf, np.maximum(q, 0.0), math.nan))
        return float(r[0]) if x.ndim == 1 else r

    @cached_property
    def _eig(self):
        # Diagonalization for cheap e^{sG} application, as (-w, V, V^{-1},
        # whether V is real).  Used only when the eigenvector basis is well
        # conditioned enough to keep evaluation noise well below the root
        # residual tolerance; otherwise fall back to the matrix exponential.
        try:
            w, V = np.linalg.eig(self.generator)
            Vinv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(Vinv)) or np.linalg.cond(V) > _EIG_COND_LIMIT:
            return None
        return -w, V, Vinv, not np.iscomplexobj(V)

    @cached_property
    def _forms(self) -> np.ndarray:
        # [P; PG; H] with H = G'PG + sym(PG^2): one product gives z'Pz and
        # the orbit's -d(z'Pz)/2ds = z'PGz and -d(z'PGz)/ds = z'Hz
        G, P = self.generator, self.weight
        PG2 = P @ G @ G
        return np.vstack([P, P @ G, G.T @ P @ G + 0.5 * (PG2 + PG2.T)])


def dilation_matrix(D: Dilation, s: float) -> np.ndarray:
    """The group element ``d(s) = e^{s G}`` as a matrix: its action on ``I``."""
    s = linalg.as_scalar(s, "dilation parameter s")
    with np.errstate(over="ignore"):
        return _orbit(D, np.eye(D.dim))(-s)


def dilate(D: Dilation, s: float, x) -> np.ndarray:
    """Apply the group element: ``d(s) x``."""
    s = linalg.as_scalar(s, "dilation parameter s")
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
    The root is found on ``f(s) = ln|z|``, ``z = d(-s)x``, whose slope
    ``f' = -z'PGz/|z|^2`` stays between fixed negative bounds for a strictly
    monotone pair.  One product of ``z`` with the stacked ``[P; PG; H]``
    gives ``f``, ``f'`` and ``f'' = z'Hz/|z|^2 - 2f'^2``; the step is
    Halley's where ``f f'' <= f'^2`` and Newton's elsewhere.  Every residual
    narrows a sign bracket on ``s``; a step that leaves the bracket is
    replaced by bisection, and while one side is still open and the slope
    unusable the search doubles outward.  It stops at residual
    ``| |d(-s)x| - 1 | <= 1e-12``.

    ``guess`` is an optional estimate of the norm.  The search starts from
    ``ln guess`` when given and from ``ln|x|`` otherwise (taken as
    ``ln m + ln|x/m|``, ``m = max|x|``, where ``x'Px`` overflows), so a
    poor guess costs evaluations, never accuracy.

    Raises ``RuntimeError`` when no root can be located, which for finite
    input means the supplied pair is not strictly monotone, and
    ``ValueError`` when ``|x|`` overflows even at the scale of ``x``.
    """
    x = linalg.as_vector(x, "x", D.dim)
    if guess is not None:
        guess = linalg.as_scalar(guess, "guess", gt=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve(D, x, guess)[0]


def _orbit(D: Dilation, x: np.ndarray):
    """The map ``s -> d(-s) x`` for a vector or an ``(n, k)`` block ``x``.

    ``s`` is one parameter for all of ``x``, or a ``(k, 1)`` column of them,
    one per column of the block.  ``V^{-1} x`` is formed once, and the real
    part taken only for a complex basis.
    """
    eig = D._eig
    if eig is None:
        G = D.generator
        return lambda s: (np.column_stack([linalg.expm(-si * G) @ c for si, c in zip(s[:, 0], x.T * np.ones_like(s))])
                          if np.ndim(s) else linalg.expm(-s * G) @ x)
    nw, V, Vinv, real = eig
    # transposed, a block's eigen-coordinates broadcast against exp(-s w)
    # row by row, and a column s gives each row its own; a vector's are
    # unchanged
    cT = Vinv.dot(x).T
    point = lambda s: V.dot((np.exp(s * nw) * cT).T)
    return point if real else lambda s: point(s).real


def _log_base_norm(D: Dilation, x: np.ndarray) -> float:
    """``ln|x| = ln m + ln|x/m|``, ``m = max|x|``, for ``x' P x`` out of range; ``-inf`` where not positive."""
    m = float(np.abs(x).max())
    if m == 0.0:
        return -math.inf
    u = x / m
    q = float(u.dot(D.weight).dot(u))
    if not q < math.inf:
        raise ValueError(f"hom_norm: the weighted norm of x overflows at its scale max|x| = {m:.6g}")
    return math.log(m) + math.log(math.sqrt(q)) if q > 0.0 else -math.inf


def _solve(D: Dilation, x: np.ndarray, guess: float | None = None) -> tuple[float, np.ndarray | None]:
    """``(||x||_d, z)`` for a finite vector ``x``, with ``z = d(-ln ||x||_d) x``.

    ``z`` is the unit-sphere point at which the root-find stopped; it is
    None at (or numerically below) the origin, where the norm is 0.  Every
    rule beyond the plain step lives here alone: :func:`_solve_rows` hands
    over each row it cannot step.  The caller validates ``x`` and ``guess``
    and silences floating-point warnings: orbit points far from the root
    may overflow.
    """
    q = float(x.dot(D.weight).dot(x))
    ln_base = math.log(math.sqrt(q)) if _TINY_Q <= q < math.inf else _log_base_norm(D, x)
    if ln_base < _LN_TINY_NORM:
        return 0.0, None
    # ln|x|: the exact root for G = I, the natural cold start in general
    s = ln_base if guess is None else math.log(guess)
    orbit = _orbit(D, x)
    forms, n = D._forms, len(x)
    lo, hi, step = -math.inf, math.inf, 1.0
    for _ in range(_MAX_ITER):
        z = orbit(s)
        q, g, hq = forms.dot(z).reshape(3, n).dot(z).tolist()
        # NaN or -inf (an overflowed orbit point) reads NaN
        zn = math.sqrt(q) if q > 0.0 else 0.0 if q > -math.inf else math.nan
        if -HOM_NORM_RESIDUAL_TOL <= zn - 1.0 <= HOM_NORM_RESIDUAL_TOL:
            return math.exp(s), z
        # an overflowed orbit point (zn inf or NaN) lies outside the sphere
        outside = not zn <= 1.0
        if outside:
            lo = s
        else:
            hi = s
        # f = ln|z| = ln(q)/2 has the slope f' = -z'PGz/|z|^2, between fixed
        # negative bounds for a strictly monotone pair, and the curvature
        # f'' = z'Hz/|z|^2 - 2f'^2.  Halley's step where f f'' <= f'^2 keeps
        # its denominator >= f'^2 > 0; elsewhere the step is Newton's
        s_next = math.nan
        if 0.0 < q < math.inf:
            f, d1 = 0.5 * math.log(q), -g / q
            d1sq, fd2 = d1 * d1, f * (hq / q - 2.0 * d1 * d1)
            if d1 < 0.0 < d1sq:
                s_next = s - (2.0 * f * d1 / (2.0 * d1sq - fd2) if fd2 <= d1sq else f / d1)
        if lo < s_next < hi:
            s = s_next
        elif math.isfinite(lo) and math.isfinite(hi):
            s = 0.5 * (lo + hi)
        else:
            # no usable slope and the root's side is open: double outward
            if step > 1e6:
                raise RuntimeError("hom_norm: no unit-sphere crossing found (dilation not strictly monotone?)")
            s += step if outside else -step
            step *= 2.0
    raise RuntimeError("hom_norm: root refinement did not converge (dilation not strictly monotone?)")


def _solve_rows(D: Dilation, X: np.ndarray) -> np.ndarray:
    """``||x||_d`` for every row ``x`` of a finite ``(k, n)`` block.

    The plain step of :func:`_solve` from its cold start, with every row's
    orbit point, residual and step formed at once; rows leave the batch as
    they converge, and the orbit map of :func:`_orbit` is rebuilt on the
    rows that remain.  A row the plain step cannot solve (``x'Px`` out of
    range, a step unusable or out of its bracket, or ``_MAX_ITER`` steps
    spent) is solved by :func:`_solve` itself, so the batch raises what it
    raises.  The caller silences floating-point warnings.
    """
    k, n = X.shape
    out = np.zeros(k)
    q = np.einsum("ij,jl,il->i", X, D.weight, X)
    ok = (_TINY_Q <= q) & (q < math.inf)
    # a nonzero row whose x'Px over- or underflowed goes to _solve
    handed = ~ok & X.any(axis=1)
    rows = np.nonzero(ok)[0]
    s = np.log(np.sqrt(q[rows]))
    orbit = _orbit(D, X[rows].T)
    forms = D._forms
    lo, hi = np.full(len(rows), -math.inf), np.full(len(rows), math.inf)
    for _ in range(_MAX_ITER):
        if not len(rows):
            break
        Z = orbit(s[:, None]).T
        q, g, hq = np.einsum("kjl,kl->jk", Z.dot(forms.T).reshape(len(rows), 3, n), Z)
        # NaN or -inf (an overflowed orbit point) reads NaN
        zn = np.where(q > -math.inf, np.sqrt(np.maximum(q, 0.0)), math.nan)
        done = np.abs(zn - 1.0) <= HOM_NORM_RESIDUAL_TOL
        out[rows[done]] = np.exp(s[done])
        # an overflowed orbit point (zn inf or NaN) lies outside the sphere
        outside = ~(zn <= 1.0)
        lo = np.where(outside, s, lo)
        hi = np.where(outside, hi, s)
        # _solve's guarded Halley/Newton step, NaN where q or the slope is
        # not usable; those rows divide by stand-ins, never by zero
        usable = (0.0 < q) & (q < math.inf)
        qs = np.where(usable, q, 1.0)
        d1 = -g / qs
        usable &= (d1 < 0.0) & (0.0 < d1 * d1)
        f, d1 = np.where(usable, 0.5 * np.log(qs), 0.0), np.where(usable, d1, -1.0)
        d1sq = d1 * d1
        fd2 = f * (hq / qs - 2.0 * d1sq)
        halley = fd2 <= d1sq
        delta = np.where(halley, 2.0 * f * d1 / np.where(halley, 2.0 * d1sq - fd2, 1.0), f / d1)
        s = np.where(usable, s - delta, math.nan)
        # a row whose step is NaN or leaves its bracket is not plain
        stepped = (lo < s) & (s < hi)
        handed[rows[~done & ~stepped]] = True
        keep = ~done & stepped
        if not keep.all():
            rows, s, lo, hi = rows[keep], s[keep], lo[keep], hi[keep]
            orbit = _orbit(D, X[rows].T)
    handed[rows] = True
    for i in np.nonzero(handed)[0]:
        out[i] = _solve(D, X[i])[0]
    return out


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
    denom = float(z @ D._forms[D.dim:2 * D.dim] @ z)
    return v * (Dm.T @ (D.weight @ z)) / denom
