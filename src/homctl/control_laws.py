"""Static state feedbacks scheduled on the homogeneous norm of the state.

All variants share the structure

    ``u(x) = K0 x + K d(-ln T) d(-ln s) x``,

where ``d`` is the controller's dilation and ``s`` is the homogeneous norm
of the state normalized by the initial condition.  The variants differ only
in how ``s`` is formed:

* ``prescribed_time``         — ``s = ||x / r||_d`` with ``r = |x0|``; the
  nominal law whose closed loop settles at exactly ``t = T``.
* ``prescribed_time_robust``  — same ``s`` clamped to ``min(1, s)``, so the
  feedback degenerates to the linear law ``(K0 + K d(-ln T)) x`` whenever
  the state is outside the ``|x0|``-ball (the variant that stays safe under
  perturbations that push the state back out).
* ``fixed_time``              — the clamped law with ``r = max(|x0|, 1)``;
  settling time ``T`` for ``|x0| >= 1`` and ``T ||x0||_d <= T`` below.
* ``linear``                  — the plain linear law, for comparison runs.

:attr:`ControlContext.fixed_c` decides once which law runs: the fixed law
``u = K0 x + c KT x``, with ``c = 1`` for the linear kind and a clamped kind
with a zero reference and ``c = 0`` for prescribed_time with a zero
reference, or else the homogeneous law, with ``u(0) = 0``.

The calibrated gain ``K d(-ln T)`` is the controller record's ``KT``.  The
per-sample step is the pair :meth:`ControlContext.solve`, which returns
``s`` and the unit-sphere point ``z = d(-ln s)(x / r)`` of its root-find,
and :meth:`ControlContext.feedback`, whose homogeneous term ``r KT z`` needs
no dilation; the context binds its dilation and ``r KT`` once.
:func:`eval_control` and the sampled loop of
:mod:`homctl.simulate` solve where :attr:`ControlContext.reads_s` holds; the
dense mode forms ``K0 x + r KT z`` from its flow's ``z``.  A run that does not
solve its states takes their ``s`` from :meth:`ControlContext.solve_rows`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .dilation import Dilation, _solve, _solve_rows
from .synthesis import SynthesizedController

__all__ = ["ControllerKind", "ControlContext", "make_context", "eval_control"]


class ControllerKind(enum.Enum):
    """Feedback variants; values double as the scenario-file spelling."""

    PRESCRIBED_TIME = "prescribed_time"
    PRESCRIBED_TIME_ROBUST = "prescribed_time_robust"
    FIXED_TIME = "fixed_time"
    LINEAR = "linear"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown controller kind {value!r} (expected one of: {', '.join(k.value for k in cls)})")

    def radius(self, r0: float) -> float:
        """The normalization radius for a reference of weighted norm ``r0``: floored at 1 for fixed_time."""
        return max(r0, 1.0) if self is ControllerKind.FIXED_TIME else r0


@dataclass(frozen=True)
class ControlContext:
    """Controller gains plus the frozen initial-condition reference.

    The context is what makes the feedback *static but initial-state
    dependent*: it pins the normalization radius and the law that runs
    (:attr:`fixed_c`) once, at ``t0``, and every later evaluation is a pure
    function of the current state.
    """

    controller: SynthesizedController
    kind: ControllerKind
    x0_ref: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0_ref", linalg.as_vector(self.x0_ref, "x0_ref", self.controller.n))
        if not math.isfinite(self.r0):
            # an infinite radius would scale every state to zero: a false capture
            raise ValueError("the weighted norm of the initial state overflows; rescale the problem")
        if not isinstance(self.kind, ControllerKind):
            raise ValueError(f"kind must be a ControllerKind, got {self.kind!r}")

    @cached_property
    def dilation(self) -> Dilation:
        return self.controller.dilation

    @cached_property
    def r0(self) -> float:
        """Weighted norm of the reference initial state."""
        return self.dilation.norm(self.x0_ref)

    @cached_property
    def ref_norm(self) -> float:
        """Normalization radius: ``|x0|``, floored at 1 for fixed_time."""
        return self.kind.radius(self.r0)

    @cached_property
    def _rKT(self) -> np.ndarray:
        """``r KT``: the homogeneous term of :meth:`feedback` is ``r KT z``."""
        return self.ref_norm * self.controller.KT

    @cached_property
    def fixed_c(self) -> float | None:
        """``c`` of the fixed law ``u = K0 y + c KT y`` that runs in place of the homogeneous one, else None.

        1.0 for the linear kind and a clamped kind with a zero reference;
        0.0 (the ``K0`` branch) for prescribed_time with a zero reference.
        """
        if self.kind is ControllerKind.LINEAR:
            return 1.0
        if self.r0 == 0.0:
            return 0.0 if self.kind is ControllerKind.PRESCRIBED_TIME else 1.0
        return None

    @property
    def reads_s(self) -> bool:
        """Whether :meth:`feedback` reads ``s``: where no fixed law runs."""
        return self.fixed_c is None

    def solve(self, y: np.ndarray, guess: float | None = None) -> tuple[float, np.ndarray | None]:
        """The unclamped ``s = ||y / r||_d`` and its root point ``z = d(-ln s)(y / r)``.

        ``(0.0, None)`` at the origin; called only where :attr:`reads_s`
        holds, so ``r > 0``.  ``guess`` warm-starts the root-find.  Raises
        ``ValueError`` for a non-finite ``y / r``; the caller silences
        floating-point warnings, as orbit points far from the root overflow.
        """
        yr = y / self.ref_norm
        # a finite y'y proves every entry finite without the elementwise test
        if not math.isfinite(yr.dot(yr)) and not np.isfinite(yr).all():
            raise ValueError("x has non-finite entries")
        return _solve(self.dilation, yr, guess)

    def solve_rows(self, Y: np.ndarray) -> np.ndarray:
        """The unclamped ``s = ||y / r||_d`` for every row ``y`` of ``Y``, in one batched root-find.

        For a zero radius ``r``, the limit as ``r -> 0+``: ``inf`` for a
        nonzero row and 0 for a zero row.  Otherwise as :meth:`solve`, row by
        row, from the cold start and without the root points.
        """
        r = self.ref_norm
        if r == 0.0:
            return np.where(Y.any(axis=1), math.inf, 0.0)
        Yr = Y / r
        if not np.isfinite(Yr).all():
            raise ValueError("x has non-finite entries")
        return _solve_rows(self.dilation, Yr)

    def feedback(self, y: np.ndarray, s: float, z: np.ndarray | None) -> np.ndarray:
        """The input at a finite state ``y`` from ``(s, z) = solve(y)``.

        ``d(-ln s) y = r z`` needs no dilation.  ``s`` and ``z`` are read
        only where :attr:`reads_s` holds.
        """
        K0, KT = self.controller.K0, self.controller.KT
        c = self.fixed_c
        if c is None:
            if s == 0.0 and not y.any():
                return np.zeros(self.controller.m)
            # the clamped scheduling scalar min(1, s); a nonzero state far below resolvable scale (s = 0) gets c = 0
            c = s if self.kind is ControllerKind.PRESCRIBED_TIME else s if s < 1.0 else 1.0
        if c == 1.0:
            # the linear law (a fixed law, or the clamp active), evaluated
            # without the identity dilation so the equality is exact
            return K0.dot(y) + KT.dot(y)
        if c == 0.0:
            return K0.dot(y)
        return K0.dot(y) + self._rKT.dot(z)


def make_context(controller: SynthesizedController, kind: ControllerKind, x0, x0_noise=None) -> ControlContext:
    """Build a :class:`ControlContext`, optionally with a corrupted reference.

    ``x0_noise`` models an imprecisely known initial condition: it is added
    to ``x0`` in the controller's reference only, never in the plant.
    """
    x0 = linalg.as_vector(x0, "x0", controller.n)
    if x0_noise is not None:
        x0 = x0 + linalg.as_vector(x0_noise, "x0_noise", controller.n)
    return ControlContext(controller, kind, x0)


def eval_control(ctx: ControlContext, x) -> np.ndarray:
    """Evaluate the feedback at state ``x``; returns the input vector.

    A validating wrapper over :meth:`ControlContext.solve` and
    :meth:`ControlContext.feedback` that solves the norm only where the
    feedback reads it (:attr:`ControlContext.reads_s`).
    """
    x = linalg.as_vector(x, "x", ctx.controller.n)
    s, z = 0.0, None
    if ctx.reads_s:
        with np.errstate(over="ignore", invalid="ignore"):
            s, z = ctx.solve(x)
    return ctx.feedback(x, s, z)
