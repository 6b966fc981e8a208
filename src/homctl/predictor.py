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
The tables hold the kernels side by side as one ``(n, N m)`` matrix
``Phi = [Phi_N, ..., Phi_1]``, so the sum is the single product
``Phi u`` with the flattened in-flight inputs, and the predictor state is
``E x + Phi u`` in :func:`predict` and in the sampled loop alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = ["PredictorTables", "build_tables", "predict", "invert"]

#: accepted relative mismatch when checking tau is a multiple of h
_GRID_RTOL = 1e-9


def _steps_in_delay(tau: float, h: float) -> int:
    """The integer N with tau = N h, or raise when off the sampling grid."""
    h = linalg.as_scalar(h, "sample period h", gt=0)
    tau = linalg.as_scalar(tau, "delay", ge=0)
    N = int(round(tau / h))
    if abs(tau - N * h) > _GRID_RTOL * max(h, tau):
        raise ValueError(f"delay {tau} is not an integer multiple of the sample period {h}")
    return N


@dataclass(frozen=True)
class PredictorTables:
    """Exact sampled matrices for one (plant, sample period) pair."""

    E: np.ndarray      # e^{A tau}
    Phi: np.ndarray    # (n, N m) [Phi_N, ..., Phi_1], paired with the in-flight inputs earliest first
    F: np.ndarray      # e^{A h}, the one-sample state transition
    gamma: np.ndarray  # int_0^h e^{A s} ds B = Phi_1, the one-sample input integral

    @property
    def N(self) -> int:
        return self.Phi.shape[1] // self.gamma.shape[1]

    @property
    def n(self) -> int:
        return self.E.shape[0]


def build_tables(plant, h: float) -> PredictorTables:
    """Exact predictor tables for ``plant`` sampled with period ``h``.

    ``F = e^{A h}`` and ``gamma`` are the top blocks of the one exponential
    of ``h [[A, B], [0, 0]]``, both from :func:`~homctl.linalg.zoh_integral`.
    The ``N`` kernels and ``E = F^N`` follow by doubling: from
    ``[Phi_j, ..., Phi_1]`` and ``F^j``, one step prepends ``F^j`` times the
    whole block, giving ``[Phi_2j, ..., Phi_1]`` and ``F^2j``, and a set bit
    of ``N`` prepends ``Phi_{j+1} = F^j gamma``, about ``2 log2 N`` products
    in all.  Requires the plant delay to sit on the sampling grid.  A zero
    delay yields the identity transform (``E = I``, no kernels), so the
    predictor degenerates to ``y = x``.
    """
    A, B = plant.A, plant.B
    N = _steps_in_delay(plant.delay, h)
    F, gamma = linalg.zoh_integral(A, B, h)
    # Phi = [Phi_j, ..., Phi_1] and E = F^j, from j = 0 along the bits of N;
    # the products with E = I are exact
    Phi, E = np.zeros((B.shape[0], 0)), np.eye(B.shape[0])
    for bit in bin(N)[2:]:
        Phi, E = np.hstack([E @ Phi, Phi]), E @ E
        if bit == "1":
            Phi, E = np.hstack([E @ gamma, Phi]), E @ F
    return PredictorTables(E=E, Phi=Phi, F=F, gamma=gamma)


def _in_flight(tables: PredictorTables, u_past) -> np.ndarray:
    """The in-flight inputs, checked to be a finite ``(N, m)`` array, flattened earliest first."""
    u_past = np.asarray(u_past, dtype=float)
    shape = (tables.N, tables.gamma.shape[1])
    if u_past.shape != shape:
        raise ValueError(f"u_past has shape {u_past.shape}, expected {shape}")
    if not np.isfinite(u_past).all():
        raise ValueError("u_past has non-finite entries")
    return u_past.reshape(-1)


def _shift(tables: PredictorTables, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``E x + Phi u`` for a checked state and flat in-flight inputs."""
    return tables.E.dot(x) + tables.Phi.dot(u)


def predict(tables: PredictorTables, x, u_past) -> np.ndarray:
    """Predictor state ``y = e^{A tau} x + sum_j Phi_j u(t - j h)``.

    ``u_past`` is the ``(N, m)`` array of in-flight inputs, earliest first.
    """
    return _shift(tables, linalg.as_vector(x, "x", tables.n), _in_flight(tables, u_past))


def invert(tables: PredictorTables, y, u_past) -> np.ndarray:
    """Recover the physical state from a predictor state: inverse of predict."""
    y = linalg.as_vector(y, "y", tables.n)
    return linalg.solve_linear(tables.E, y - tables.Phi.dot(_in_flight(tables, u_past)))
