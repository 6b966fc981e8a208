"""Finite-horizon state predictor that trades an input delay for none.

For the plant ``x'(t) = A x(t) + B u(t - tau)`` with a known delay
``tau = N h`` the predictor state

    ``y(t) = e^{A tau} x(t) + sum_j Phi_j u(t - j h)``,
    ``Phi_j = int_{(j-1)h}^{jh} e^{A sigma} dsigma B``  (j = 1..N),

satisfies the delay-free dynamics ``y' = A y + B u(t)`` exactly as long as
the input is piecewise constant on the sampling grid, so any delay-free
feedback applied to ``y`` controls the delayed plant, shifted by ``tau``.
The kernels ``Phi_j`` are exact: ``Phi_1`` is the ZOH input integral over
one step and ``Phi_{j+1} = e^{A h} Phi_j``.

The predictor keeps no state of its own: :func:`predict` and :func:`invert`
take the ``N`` inputs still in flight, ``u(t - N h), ..., u(t - h)``, as an
``(N, m)`` array, earliest first (the row order of the pre-history ``phi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = ["PredictorTables", "build_tables", "predict", "invert"]

#: accepted relative mismatch when checking tau is a multiple of h
_GRID_RTOL = 1e-9


def _steps_in_delay(tau: float, h: float) -> int:
    """The integer N with tau = N h, or raise when off the sampling grid."""
    if not h > 0:
        raise ValueError(f"sample period h must be positive, got {h}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"delay must be finite and >= 0, got {tau}")
    N = int(round(tau / h))
    if abs(tau - N * h) > _GRID_RTOL * max(h, tau):
        raise ValueError(f"delay {tau} is not an integer multiple of the sample period {h}")
    return N


@dataclass(frozen=True)
class PredictorTables:
    """Exact sampled matrices for one (plant, sample period) pair."""

    E: np.ndarray        # e^{A tau}
    kernels: np.ndarray  # (N, n, m); kernels[j-1] = Phi_j
    F: np.ndarray        # e^{A h}, the one-sample state transition
    gamma: np.ndarray    # int_0^h e^{A s} ds B, the one-sample input integral

    @property
    def N(self) -> int:
        return self.kernels.shape[0]

    @property
    def n(self) -> int:
        return self.E.shape[0]


def build_tables(plant, h: float) -> PredictorTables:
    """Exact predictor tables for ``plant`` sampled with period ``h``.

    Requires the plant delay to sit on the sampling grid.  A zero delay
    yields the identity transform (``E = I``, no kernels), so the predictor
    degenerates to ``y = x``.
    """
    A, B = plant.A, plant.B
    N = _steps_in_delay(plant.delay, h)
    n, m = B.shape
    F = linalg.expm(A * h)
    gamma = linalg.zoh_integral(A, B, h)
    kernels = np.zeros((N, n, m))
    if N == 0:
        return PredictorTables(E=np.eye(n), kernels=kernels, F=F, gamma=gamma)
    kernels[0] = gamma
    for j in range(1, N):
        kernels[j] = F @ kernels[j - 1]
    return PredictorTables(E=np.linalg.matrix_power(F, N), kernels=kernels, F=F, gamma=gamma)


def _in_flight(tables: PredictorTables, u_past) -> np.ndarray:
    """``sum_j Phi_j u(t - j h)`` for the in-flight inputs, earliest first."""
    u_past = np.asarray(u_past, dtype=float)
    N, _, m = tables.kernels.shape
    if u_past.shape != (N, m):
        raise ValueError(f"u_past has shape {u_past.shape}, expected ({N}, {m})")
    # the last row is u(t - h), paired with Phi_1
    return np.einsum("jnm,jm->n", tables.kernels, u_past[::-1])


def predict(tables: PredictorTables, x, u_past) -> np.ndarray:
    """Predictor state ``y = e^{A tau} x + sum_j Phi_j u(t - j h)``.

    ``u_past`` is the ``(N, m)`` array of in-flight inputs, earliest first.
    """
    x = linalg.as_vector(x, "x", tables.n)
    pending = _in_flight(tables, u_past)
    y = tables.E @ x
    return y + pending if tables.N else y


def invert(tables: PredictorTables, y, u_past) -> np.ndarray:
    """Recover the physical state from a predictor state: inverse of predict."""
    y = linalg.as_vector(y, "y", tables.n)
    pending = _in_flight(tables, u_past)
    return linalg.solve_linear(tables.E, y - pending if tables.N else y)
