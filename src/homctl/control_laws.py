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

The dispatch at the degenerate points (zero state, zero reference) follows
the closed-loop solution concept: ``u(0) = 0``, and a zero reference selects
the linear (respectively ``K0``) branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .dilation import Dilation, dilate, dilation_matrix, hom_norm
from .synthesis import SynthesizedController

__all__ = ["ControllerKind", "ControlContext", "make_context", "eval_control", "gain_matrix"]


class ControllerKind(enum.Enum):
    """Feedback variants; values double as the scenario-file spelling."""

    PRESCRIBED_TIME = "prescribed_time"
    PRESCRIBED_TIME_ROBUST = "prescribed_time_robust"
    FIXED_TIME = "fixed_time"
    LINEAR = "linear"


@dataclass(frozen=True)
class ControlContext:
    """Controller gains plus the frozen initial-condition reference.

    The context is what makes the feedback *static but initial-state
    dependent*: it pins the normalization radius once, at ``t0``, and every
    later evaluation is a pure function of the current state.
    """

    controller: SynthesizedController
    kind: ControllerKind
    x0_ref: np.ndarray

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0_ref, "x0_ref", self.controller.n)
        with np.errstate(over="ignore"):
            if not math.isfinite(self.dilation.norm(x0)):
                # an infinite radius would scale every state to zero: a false capture
                raise ValueError("the weighted norm of the initial state overflows; rescale the problem")
        if not isinstance(self.kind, ControllerKind):
            raise ValueError(f"kind must be a ControllerKind, got {self.kind!r}")
        object.__setattr__(self, "x0_ref", x0)

    @property
    def dilation(self) -> Dilation:
        return self.controller.dilation

    @cached_property
    def KT(self) -> np.ndarray:
        """The settling-time-calibrated gain ``K d(-ln T)``."""
        return self.controller.K @ dilation_matrix(self.dilation, -math.log(self.controller.T))

    @cached_property
    def r0(self) -> float:
        """Weighted norm of the reference initial state."""
        return self.dilation.norm(self.x0_ref)

    @cached_property
    def ref_norm(self) -> float:
        """Normalization radius: ``|x0|``, floored at 1 for fixed_time."""
        if self.kind is ControllerKind.FIXED_TIME:
            return max(self.r0, 1.0)
        return self.r0


def make_context(controller: SynthesizedController, kind: ControllerKind, x0, x0_noise=None) -> ControlContext:
    """Build a :class:`ControlContext`, optionally with a corrupted reference.

    ``x0_noise`` models an imprecisely known initial condition: it is added
    to ``x0`` in the controller's reference only, never in the plant.
    """
    x0 = linalg.as_vector(x0, "x0")
    if x0_noise is not None:
        x0 = x0 + linalg.as_vector(x0_noise, "x0_noise")
    return ControlContext(controller, kind, x0)


def _schedule(ctx: ControlContext, x: np.ndarray, s: float | None) -> float | None:
    """The clamped scheduling scalar of the feedback at ``x``.

    ``1.0`` selects the linear law ``K0 + K d(-ln T)``, ``0.0`` the ``K0``
    branch, and None marks the zero state.  ``s`` is the unclamped
    ``||x / r||_d`` when the caller already has it.
    """
    if ctx.kind is ControllerKind.LINEAR:
        return 1.0
    if ctx.r0 == 0.0:
        # zero reference: prescribed_time degenerates to the K0 branch, the
        # clamped kinds to the linear law
        return 0.0 if ctx.kind is ControllerKind.PRESCRIBED_TIME else 1.0
    if not x.any():
        return None
    if s is None:
        s = hom_norm(ctx.dilation, x / ctx.ref_norm)
    if ctx.kind is not ControllerKind.PRESCRIBED_TIME:
        s = min(1.0, s)
    # s <= 0: subnormal state far below resolvable scale
    return max(s, 0.0)


def eval_control(ctx: ControlContext, x, s: float | None = None) -> np.ndarray:
    """Evaluate the feedback at state ``x``; returns the input vector.

    ``s``, when given, must be the unclamped ``||x / ctx.ref_norm||_d``; it
    spares the norm solve.
    """
    x = linalg.as_vector(x, "x", ctx.controller.n)
    s = _schedule(ctx, x, s)
    K0 = ctx.controller.K0
    if s is None:
        return np.zeros(ctx.controller.m)
    if s == 1.0:
        # clamp active (or exactly on the reference sphere): linear law,
        # evaluated without the identity dilation so the equality is exact
        return K0 @ x + ctx.KT @ x
    if s == 0.0:
        return K0 @ x
    return K0 @ x + ctx.KT @ dilate(ctx.dilation, -math.log(s), x)


def gain_matrix(ctx: ControlContext, x) -> np.ndarray:
    """State-dependent gain ``K0 + K d(-ln T) d(-ln s)`` at ``x``.

    Consistent with :func:`eval_control`: ``gain_matrix(ctx, x) @ x``
    reproduces the control.  Undefined at ``x = 0`` and for a zero
    reference (except for the linear kind, whose gain is constant).
    """
    x = linalg.as_vector(x, "x", ctx.controller.n)
    s = _schedule(ctx, x, None)
    K0 = ctx.controller.K0
    if s is None:
        raise ValueError("gain_matrix: undefined at x = 0")
    if s == 1.0:
        return K0 + ctx.KT
    if s == 0.0:
        return K0.copy()
    return K0 + ctx.KT @ dilation_matrix(ctx.dilation, -math.log(s))
