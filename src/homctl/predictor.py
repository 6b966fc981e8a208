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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = ["ControlHistory", "PredictorTables", "build_tables", "predict", "invert"]

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


@dataclass
class ControlHistory:
    """Ring buffer of the last ``N = tau/h`` control samples.

    Holds exactly the inputs still in flight toward the plant: at sample
    time ``t`` the buffer contains ``u(t - h), ..., u(t - N h)``.  The
    initial content is the pre-history ``phi`` (chronological, earliest
    first); ``phi=None`` means the zero pre-history.
    """

    h: float
    tau: float
    m: int
    phi: np.ndarray | None = None
    _buf: deque = field(init=False, repr=False)

    def __post_init__(self):
        N = _steps_in_delay(self.tau, self.h)
        if not self.m >= 1:
            raise ValueError(f"input dimension must be >= 1, got {self.m}")
        if self.phi is None:
            samples = np.zeros((N, self.m))
        else:
            samples = np.asarray(self.phi, dtype=float)
            if samples.ndim == 1:
                samples = samples.reshape(-1, self.m) if self.m == 1 else samples.reshape(1, -1)
            if samples.shape != (N, self.m):
                raise ValueError(f"phi has shape {samples.shape}, expected ({N}, {self.m})")
            if not np.all(np.isfinite(samples)):
                raise ValueError("phi has non-finite entries")
        self._buf = deque((samples[i].copy() for i in range(N)), maxlen=N)
        object.__setattr__(self, "phi", None if self.phi is None else samples)

    @property
    def N(self) -> int:
        return int(round(self.tau / self.h))

    def push(self, u) -> None:
        """Record the control applied from the current sample on."""
        u = linalg.as_vector(u, "u", self.m)
        if self._buf.maxlen:
            self._buf.append(u.copy())

    def recent(self, j: int) -> np.ndarray:
        """The control applied ``j`` samples ago, ``1 <= j <= N``."""
        if not 1 <= j <= self.N:
            raise ValueError(f"history lookback must be in 1..{self.N}, got {j}")
        if len(self._buf) != self.N:
            raise RuntimeError("control history is not filled")
        return self._buf[-j]

    def stacked(self) -> np.ndarray:
        """All held samples as an array with row ``j-1`` = ``recent(j)``."""
        if len(self._buf) != self.N:
            raise RuntimeError("control history is not filled")
        if self.N == 0:
            return np.zeros((0, self.m))
        return np.asarray(self._buf)[::-1]


@dataclass(frozen=True)
class PredictorTables:
    """Precomputed predictor matrices for one (plant, sample period) pair."""

    E: np.ndarray        # e^{A tau}
    kernels: np.ndarray  # (N, n, m); kernels[j-1] = Phi_j
    h: float
    tau: float

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
    kernels = np.zeros((N, n, m))
    if N == 0:
        return PredictorTables(E=np.eye(n), kernels=kernels, h=float(h), tau=float(plant.delay))
    F = linalg.expm(A * h)
    kernels[0] = linalg.zoh_integral(A, B, h)
    for j in range(1, N):
        kernels[j] = F @ kernels[j - 1]
    E = np.linalg.matrix_power(F, N)
    return PredictorTables(E=E, kernels=kernels, h=float(h), tau=float(plant.delay))


def _check_compatible(tables: PredictorTables, hist: ControlHistory) -> None:
    if hist.N != tables.N or abs(hist.h - tables.h) > _GRID_RTOL * tables.h:
        raise ValueError(
            f"history (N={hist.N}, h={hist.h}) does not match tables (N={tables.N}, h={tables.h})"
        )


def predict(tables: PredictorTables, x, hist: ControlHistory) -> np.ndarray:
    """Predictor state ``y = e^{A tau} x + sum_j Phi_j u(t - j h)``."""
    x = linalg.as_vector(x, "x", tables.n)
    _check_compatible(tables, hist)
    y = tables.E @ x
    if tables.N:
        y = y + np.einsum("jnm,jm->n", tables.kernels, hist.stacked())
    return y


def invert(tables: PredictorTables, y, hist: ControlHistory) -> np.ndarray:
    """Recover the physical state from a predictor state: inverse of predict."""
    y = linalg.as_vector(y, "y", tables.n)
    _check_compatible(tables, hist)
    acc = y.copy()
    if tables.N:
        acc = acc - np.einsum("jnm,jm->n", tables.kernels, hist.stacked())
    return linalg.solve_linear(tables.E, acc)
