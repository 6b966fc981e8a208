"""Closed-loop simulation by exact flows only.

The plant ``x' = A x + B u(t - tau) + q2(t)`` is stepped exactly between
samples (matrix exponential plus ZOH input integral); the control is
recomputed once per sample — from the measured state, or from the predictor
state when the input delay is active — and held.  A disturbance is the
output ``q2 = C v`` of a small exosystem ``v' = S v``, so its per-sample
term is one block of a single augmented matrix exponential.  The dense mode
is the closed-form solution of the continuous closed loop over a whole grid
at once, the exact reference of its settle at ``T s0``; nothing is integrated.

Because the homogeneous feedback contracts the scheduling scalar ``s`` at
the exact rate ``-1/T`` in continuous time, an unperturbed sampled run snaps
the state to exactly zero one sample after ``s`` first drops below ``2h/T``
(the zero crossing happens within that band and zero is invariant; two ideal
decay steps of margin keep sampling wobble from hopping the band).  The
snap applies only where the context reads ``s``
(:attr:`~homctl.control_laws.ControlContext.reads_s`), never where its fixed
law runs.  Under a *matched* disturbance it stays enabled as long as the
disturbance is strictly inside the rejection envelope ``|q2|_P < r lam /
(2T)``, the supremum of :func:`disturbance_bound` over ``rho``: there the
continuous closed loop still reaches exactly zero.  Outside the envelope,
for unmatched disturbances, and under measurement noise the snap is
disabled and the trace keeps its raw floor.

Each sample of the loop takes the controller's point (the state or the
predictor state, plus any measurement noise), solves its norm where the
context reads ``s``, evaluates the feedback and takes the one plant step.
From the capture on, the plant runs out the ``N`` inputs in flight behind a
delay of ``N`` samples, and the loop ends; later rows stay the zeros the
trace arrays are allocated as.  Runs that solve no norm in the loop, every
noisy run and a dense run of a fixed law fill the trace's ``s`` column in
one batched root-find.  The trace's norm column is
:meth:`~homctl.dilation.Dilation.norm` of all its states at once, and
:func:`simulate` measures settling on it for either mode.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import atomic, linalg
from .control_laws import ControlContext, ControllerKind, make_context
from .dilation import Dilation, _orbit
from .predictor import _shift, _steps_in_delay, build_tables, predict
from .synthesis import LinearPlant, SynthesizedController, verify_controller

__all__ = [
    "DisturbanceSpec",
    "NoiseSpec",
    "ScenarioConfig",
    "SimulationTrace",
    "simulate",
    "measure_settling",
    "disturbance_bound",
    "trace_to_csv",
    "trace_summary",
]

log = logging.getLogger(__name__)

#: default settling thresholds (weighted norm)
_SETTLE_EPS_NOMINAL = 1e-9
_SETTLE_EPS_PERTURBED = 1e-6
#: rounding slack on s0 <= 1 before a clamped kind leaves the closed form
_DENSE_CLAMP_TOL = 1e-9


#: the fields each disturbance kind reads; a field it does not read must keep its default
_READS = {"none": (), "matched_sin": ("amplitude", "omega"), "constant": ("vector",)}


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive state disturbance ``q2(t)``, the output of an exosystem.

    Kinds: ``none``; ``matched_sin`` (``q2 = B * a sin(omega t)``, the
    sinusoid entering through every input channel); ``constant`` (a fixed
    vector).  :meth:`exosystem` writes each kind as ``q2(t) = C e^{St} v0``.
    """

    kind: str = "none"
    amplitude: float = 0.0
    omega: float = 0.0
    vector: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for f in fields(self)[1:]:  # the fields after kind
            value = getattr(self, f.name)
            given = value is not None if f.default is None else value != f.default
            if given and f.name not in _READS[self.kind]:
                raise ValueError(f"disturbance {self.kind!r} takes no {f.name}, got {value!r}")
        if self.kind == "matched_sin":
            for key in ("amplitude", "omega"):
                object.__setattr__(self, key, linalg.as_scalar(getattr(self, key), f"matched_sin {key}"))
        if self.kind == "constant":
            if self.vector is None:
                raise ValueError("constant disturbance needs a vector")
            object.__setattr__(self, "vector", linalg.as_vector(self.vector, "vector"))

    @property
    def active(self) -> bool:
        return self.kind != "none"

    def exosystem(self, B: np.ndarray):
        """``(C, S, v0)`` with ``q2(t) = C e^{St} v0``, or None when inactive.

        ``matched_sin`` runs ``v = (sin wt, cos wt)`` and reads its first
        entry; ``constant`` holds ``v = 1``.
        """
        if self.kind == "matched_sin":
            w = self.omega
            C = self.amplitude * np.outer(B @ np.ones(B.shape[1]), [1.0, 0.0])
            return C, np.array([[0.0, w], [-w, 0.0]]), np.array([0.0, 1.0])
        if self.kind == "constant":
            return self.vector[:, None], np.zeros((1, 1)), np.ones(1)
        return None


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform measurement noise on the state fed to the controller; ``seed`` is None or an int >= 0."""

    amplitude: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "amplitude", linalg.as_scalar(self.amplitude, "noise amplitude", ge=0))
        seed = self.seed
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0):
            raise ValueError(f"noise seed must be a non-negative integer, got {seed!r}")
        if self.amplitude > 0 and seed is None:
            raise ValueError("noise requires an explicit seed for reproducibility")

    @property
    def active(self) -> bool:
        return self.amplitude > 0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop run needs."""

    plant: LinearPlant
    controller: SynthesizedController
    x0: np.ndarray
    h: float
    t_end: float
    kind: ControllerKind = ControllerKind.PRESCRIBED_TIME_ROBUST
    x0_noise: np.ndarray | None = None
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    phi: np.ndarray | None = None
    integrator: str = "zoh_exact"
    settle_epsilon: float | None = None

    def __post_init__(self):
        if self.controller.n != self.plant.n or self.controller.m != self.plant.m:
            raise ValueError("plant and controller dimensions differ")
        object.__setattr__(self, "x0", linalg.as_vector(self.x0, "x0", self.plant.n))
        if self.x0_noise is not None:
            object.__setattr__(self, "x0_noise", linalg.as_vector(self.x0_noise, "x0_noise", self.plant.n))
        if self.disturbance.kind == "constant":
            linalg.as_vector(self.disturbance.vector, "disturbance vector", self.plant.n)
        object.__setattr__(self, "h", linalg.as_scalar(self.h, "sample period h", gt=0))
        N = _steps_in_delay(self.plant.delay, self.h)
        if self.phi is not None:
            if N == 0:
                raise ValueError("phi is the input pre-history of a delayed plant; this plant has no delay")
            object.__setattr__(self, "phi", linalg.as_matrix(self.phi, "phi", (N, self.plant.m)))
        object.__setattr__(self, "t_end", linalg.as_scalar(self.t_end, "t_end", gt=0))
        if self.integrator not in ("zoh_exact", "dense"):
            raise ValueError(f"unknown integrator {self.integrator!r} (known: zoh_exact, dense)")
        if self.settle_epsilon is not None:
            object.__setattr__(self, "settle_epsilon", linalg.as_scalar(self.settle_epsilon, "settle_epsilon", gt=0))
        if not isinstance(self.kind, ControllerKind):
            raise ValueError(f"kind must be a ControllerKind, got {self.kind!r}")

    @property
    def perturbed(self) -> bool:
        return self.disturbance.active or self.noise.active

    @property
    def effective_settle_epsilon(self) -> float:
        if self.settle_epsilon is not None:
            return self.settle_epsilon
        return _SETTLE_EPS_PERTURBED if self.perturbed else _SETTLE_EPS_NOMINAL


@dataclass
class SimulationTrace:
    """Sampled closed-loop run: states, inputs, scheduling scalar, events."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s: np.ndarray
    x_norm: np.ndarray
    y: np.ndarray | None = None
    settled: bool = False
    settling_time: float | None = None
    settle_epsilon: float = _SETTLE_EPS_NOMINAL
    events: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[1]


def measure_settling(trace: SimulationTrace, epsilon: float) -> float | None:
    """First sample time from which the weighted norm stays <= ``epsilon``.

    Returns None when the trace never enters and stays in the band —
    in particular for merely exponentially decaying (linear-feedback) runs
    at tight thresholds.
    """
    ok = trace.x_norm <= linalg.as_scalar(epsilon, "epsilon", gt=0)
    if not ok[-1]:
        return None
    if ok.all():
        return float(trace.t[0])
    last_bad = int(np.nonzero(~ok)[0][-1])
    return float(trace.t[last_bad + 1])


def simulate(config: ScenarioConfig) -> SimulationTrace:
    """Run one closed-loop scenario and return its trace.

    The one entry point of both modes: the exact-ZOH sampled loop (the
    default) handles delays, disturbances, noise and snap-to-zero, and
    ``integrator = "dense"`` runs the closed-form dense mode.  Settling is
    measured on either trace, in the controller's weighted norm.
    """
    trace = _simulate_dense(config) if config.integrator == "dense" else _simulate_zoh(config)
    eps = config.effective_settle_epsilon
    st = measure_settling(trace, eps)
    trace.settle_epsilon = eps
    trace.settling_time = st
    trace.settled = st is not None
    return trace


def _sample_times(h: float, t_end: float) -> np.ndarray:
    steps = int(math.floor(t_end / h + 1e-9))
    return h * np.arange(steps + 1)


def _matched_sup_norm(C: np.ndarray, B: np.ndarray, P: np.ndarray) -> float | None:
    """Supremum of ``|q2(t)|_P`` for a matched ``q2 = C e^{St} v0``, else None.

    Matched: ``C`` lies in the range of ``B``.  The exosystem state
    ``e^{St} v0`` sweeps the unit circle (``matched_sin``) or stays at
    ``v0 = 1`` (``constant``), so the supremum is ``sqrt(lmax(C'PC))``.
    """
    G, *_ = np.linalg.lstsq(B, C, rcond=None)
    if np.linalg.norm(B @ G - C) > 1e-9 * max(np.linalg.norm(C), 1.0):
        return None
    return math.sqrt(np.linalg.eigvalsh(C.T @ P @ C)[-1])


def _envelope(controller: SynthesizedController, radius: float, rho: float = 1.0) -> float:
    """The rejectable matched-disturbance magnitude ``radius * lam / (2 rho T)``; ``rho = 1`` is its supremum."""
    return radius * controller.rejection_rate / (2.0 * rho * controller.T)


def _snap_enabled(config: ScenarioConfig, ctx: ControlContext, exo) -> bool:
    if not ctx.reads_s or config.noise.active:
        return False
    if exo is None:
        return True
    sup = _matched_sup_norm(exo[0], config.plant.B, config.controller.P)
    return sup is not None and sup < _envelope(config.controller, ctx.ref_norm)


def _simulate_zoh(config: ScenarioConfig) -> SimulationTrace:
    # One loop for both settings: a zero delay is the N = 0 predictor, y = x.
    # With a delay the controller acts on the predictor state y, the plant
    # receives the input of N samples earlier, and the capture reaches the
    # physical state one pipeline flush (tau) after the predictor state.
    plant, ctrl = config.plant, config.controller
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    h = config.h
    times = _sample_times(h, config.t_end)
    K = len(times)

    tables = build_tables(plant, h)
    N, F, gamma = tables.N, tables.F, tables.gamma
    exo = config.disturbance.exosystem(B)
    if exo is not None:
        # with q2 = C v and v' = S v, e^{h [[A, C], [0, S]]} holds the exact
        # per-sample term int_0^h e^{A(h-s)} C e^{Ss} ds v_k = Ed v_k and
        # the exosystem step v_{k+1} = Ev v_k
        C, S, v = exo
        E = linalg.expm(h * np.block([[A, C], [np.zeros((len(v), n)), S]]))
        Ed, Ev = E[:n, n:], E[n:, n:]
    # the measurement noise of every sample, drawn at once: the same stream as
    # one draw of n per sample
    a = config.noise.amplitude
    noise = np.random.default_rng(config.noise.seed).uniform(-a, a, (K, n)) if config.noise.active else None

    # the loop's only record of inputs: rows 0..N-1 hold the pre-history,
    # row k + N the control computed at sample k; the plant holds U[k] over
    # sample k and the inputs in flight at sample k are U[k:k+N]
    U = np.zeros((N + K, m))
    if config.phi is not None:
        U[:N] = config.phi
    x0_ctx = config.x0 if config.x0_noise is None else config.x0 + config.x0_noise
    if N:
        x0_ctx = predict(tables, x0_ctx, U[:N])
    ctx = ControlContext(ctrl, config.kind, x0_ctx)
    # the point is solved only where the feedback reads its norm, the only
    # runs that may snap; the trace's s column is that solve only without
    # noise, other runs refill it after the loop in one batched solve
    solve = ctx.reads_s
    snap_enabled = _snap_enabled(config, ctx, exo)
    # two ideal decay steps: s shrinks by h/T per sample along the exact
    # trajectory, so a band of one step has no margin against sampling
    # wobble and trajectories can hop across it
    snap_delta = 2.0 * h / ctrl.T

    # rows past the capture keep these zeros: y, s and u from snap_at on,
    # the plant state from snap_at + N on; without a delay y is x
    xs = np.zeros((K, n))
    ys = np.zeros((K, n)) if N else xs
    ss = np.zeros(K)
    events: list = []
    U_flat = U.reshape(-1)  # the inputs in flight at sample k are U_flat[k m:(k + N) m]

    x = config.x0.copy()
    # K (past the last sample) while no snap is scheduled
    snap_at = K
    s = s_prev = 0.0
    z = None
    # orbit points far from a root may overflow; a diverging plant state
    # overflows its weighted norm and then fails the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            if k == snap_at + N:
                break
            xs[k] = x
            # from the capture on the plant runs out the N inputs in flight
            if k < snap_at:
                y = x if N == 0 else _shift(tables, x, U_flat[k * m:(k + N) * m])
                meas = y if noise is None else y + noise[k]
                if solve:
                    # warm-started from the linear extrapolation of the last
                    # two roots, else the last (alone under noise), else cold;
                    # the feedback reuses s and the root point z = d(-ln s)(meas/r)
                    guess = 2.0 * s - s_prev if s_prev > 0.0 and 2.0 * s > s_prev else s
                    s_prev = s if noise is None else 0.0
                    s, z = ctx.solve(meas, guess if guess > 0.0 else None)
                    ss[k] = s
                U[k + N] = ctx.feedback(meas, s, z)
                if N:
                    ys[k] = y
                if snap_enabled and s <= snap_delta:
                    snap_at = k + 1
                    events.append((times[k] + h, "predictor_snap_to_zero" if N else "snap_to_zero"))
                    if N:
                        events.append((times[k] + h + plant.delay, "state_snap_to_zero"))
                    log.debug("snap scheduled after t=%.6f (s=%.3e <= %.3e)", times[k], s, snap_delta)
            if k + 1 < K:
                x = F.dot(x) + gamma.dot(U[k])
                if exo is not None:
                    x = x + Ed.dot(v)
                    v = Ev.dot(v)
        if noise is not None or not solve:
            ss[:] = ctx.solve_rows(ys)

    return SimulationTrace(t=times, x=xs, u=U[N:], s=ss, x_norm=ctx.dilation.norm(xs), y=ys if N else None,
                           events=events)


def _simulate_dense(config: ScenarioConfig) -> SimulationTrace:
    """Exact continuous-feedback run, sampled on a dense grid.

    For degree -1 the closed loop ``x' = A x + B u(x)`` solves in closed
    form: ``x(t) = r d(ln s) e^{H sigma} z0`` with ``s = s0 - t/T``,
    ``sigma = -T ln(1 - t/(T s0))``, ``H = A0 + B K d(-ln T) + Gd/T`` and
    ``z0 = d(-ln s0) x0/r``.  (``d(p) A0 = e^p A0 d(p)`` and ``d(p) B = e^p
    B`` give ``dz/dsigma = H z`` for ``z = d(-ln s) x/r``, and ``H`` is skew
    in ``P``.)  The state reaches the origin, an equilibrium, at ``T s0``:
    the grid up to ``t_end`` gets that point, and the rows from it on are
    ``x = 0``, ``u = 0``, ``s = 0``.  Where the context's fixed law ``u = K0 x
    + c KT x`` runs, the run is ``e^{(A0 + c B KT) t} x0`` up to ``t_end``.
    Each flow is one orbit map over the grid from one eigenbasis (``expm``
    per point only where that basis is ill-conditioned); ``z`` turns as ``L'z``
    under the skew part of ``L'HL^{-T}``, ``P = LL'``, on a unitary basis.  The
    trace records the flow's own ``s``, and each law's input is one product over
    the grid.  :func:`simulate`, the only caller, measures settling.

    Raises ``ValueError`` where the formula does not hold: a delay, noise or
    a disturbance, a record that fails :func:`verify_controller`, or a
    clamped kind started outside its reference sphere (``s0 > 1``, which
    only ``x0_noise`` can cause).
    """
    plant, ctrl = config.plant, config.controller
    if plant.delay > 0:
        raise ValueError("the dense mode supports delay-free plants only")
    if config.noise.active:
        raise ValueError("the dense mode does not support measurement noise")
    if config.disturbance.active:
        raise ValueError("the dense mode has no closed form under a disturbance")
    failed = [c.name for c in verify_controller(ctrl, plant).failed]
    if failed:
        raise ValueError(f"the dense mode needs a controller that passes verification (failed: {', '.join(failed)})")
    x0 = config.x0
    ctx = make_context(ctrl, config.kind, x0, config.x0_noise)
    T = ctrl.T
    grid = np.linspace(0.0, config.t_end, max(int(round(config.t_end / config.h)) * 4, 200))
    if not ctx.reads_s:
        X = _orbit(Dilation(-(ctrl.A0 + ctx.fixed_c * (ctrl.B @ ctrl.KT)), ctrl.P), x0)(grid[1:, None])
        xs = np.vstack([x0, X.T])
        us = xs @ ctrl.K0.T + xs @ (ctx.fixed_c * ctrl.KT).T
        with np.errstate(over="ignore", invalid="ignore"):
            ss = ctx.solve_rows(xs)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            s0, z0 = ctx.solve(x0)
        if s0 > 1.0 + _DENSE_CLAMP_TOL and config.kind is not ControllerKind.PRESCRIBED_TIME:
            raise ValueError(f"the dense mode: {config.kind.value} starts clamped (s0 = {s0:.6g} > 1)")
        if T * s0 < config.t_end:
            grid = np.union1d(grid, T * s0)
        k = int(np.searchsorted(grid, T * s0))
        xs, us, ss = np.zeros((len(grid), len(x0))), np.zeros((len(grid), ctrl.m)), np.zeros(len(grid))
        ss[:k] = s0 - grid[:k] / T
        xs[0], us[0] = x0, ctx.feedback(x0, s0, z0)
        if k > 1:
            # with P = LL', w = L'z turns under the skew S = L'HL^{-T}, whose
            # eigenbasis is unitary; each row strictly inside (0, T s0), where
            # no clamp acts (s < s0 <= 1 for a clamped kind), has its own point
            L = np.linalg.cholesky(ctrl.P)
            S = np.linalg.solve(L, (L.T @ (ctrl.A0 + ctrl.B @ ctrl.KT + ctrl.Gd / T)).T).T
            W = _orbit(Dilation(0.5 * (S.T - S), np.eye(len(x0))), L.T @ z0)(-T * np.log(ss[1:k, None] / s0))
            Z = np.linalg.solve(L.T, W)
            xs[1:k] = ctx.ref_norm * _orbit(ctx.dilation, Z)(-np.log(ss[1:k, None])).T
            us[1:k] = xs[1:k] @ ctrl.K0.T + Z.T @ ctx._rKT.T
    return SimulationTrace(t=grid, x=xs, u=us, s=ss, x_norm=ctx.dilation.norm(xs))


def disturbance_bound(controller: SynthesizedController, x0_norm: float, rho: float,
                      kind: ControllerKind = ControllerKind.PRESCRIBED_TIME_ROBUST) -> float:
    """Largest matched-disturbance magnitude with guaranteed settling.

    For the clamped feedback started at ``|x0| = x0_norm``, disturbances
    with ``|B gamma(t)| <= x0_norm * lmin(X^{-1/2} Gd X^{1/2} + X^{1/2} Gd'
    X^{-1/2}) / (2 rho T)`` (``rho > 1``) still settle, no later than
    ``rho T / (rho - 1)``.  The radius is :meth:`ControllerKind.radius`
    (floored at one for fixed_time).  Raises ``ValueError`` unless ``rho``
    is a finite number ``> 1`` and ``x0_norm`` one ``>= 0``, and for a
    ``kind`` that is not a homogeneous :class:`ControllerKind`: the linear
    law certifies no settling time.
    """
    if not isinstance(kind, ControllerKind) or kind is ControllerKind.LINEAR:
        raise ValueError(f"kind must be a homogeneous ControllerKind, got {kind!r}")
    rho = linalg.as_scalar(rho, "rho", gt=1)
    radius = kind.radius(linalg.as_scalar(x0_norm, "x0_norm", ge=0))
    return _envelope(controller, radius, rho)


# ---------------------------------------------------------------------------
# export


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Write the trace as CSV: ``t,x1..xn,u1..um,s,settled`` (+ ``y1..yn``).

    Floats carry 17 significant digits so a round-trip through the file is
    exact; ``settled`` is 0/1 per row (1 from the settling sample on).
    """
    n, m, st = trace.n, trace.m, trace.settling_time
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)] + ["s", "settled"]
    settled = trace.t >= (math.inf if st is None else st)
    blocks = [trace.t[:, None], trace.x, trace.u, trace.s[:, None], settled[:, None]]
    fmt = ["%.17g"] * (n + m + 2) + ["%d"]
    if trace.y is not None:
        cols += [f"y{i+1}" for i in range(n)]
        blocks.append(trace.y)
        fmt += ["%.17g"] * n
    table = np.hstack(blocks)
    text = ",".join(cols) + "\n" + ((",".join(fmt) + "\n") * len(table)) % tuple(table.ravel().tolist())
    if hasattr(path, "write"):
        path.write(text)
    else:
        atomic.write_text(path, text)


def _finite_or_none(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


def trace_summary(trace: SimulationTrace) -> dict:
    """Headline numbers of a run, JSON-ready.

    A norm or input that overflowed (NaN or inf) reads None, which JSON
    writes as ``null``: ``NaN`` and ``Infinity`` are not JSON.
    """
    return {
        "samples": int(len(trace.t)),
        "t_end": float(trace.t[-1]),
        "settled": bool(trace.settled),
        "settling_time": None if trace.settling_time is None else float(trace.settling_time),
        "settle_epsilon": float(trace.settle_epsilon),
        "max_norm": _finite_or_none(np.max(trace.x_norm)),
        "final_norm": _finite_or_none(trace.x_norm[-1]),
        "max_input": _finite_or_none(np.max(np.abs(trace.u))) if trace.u.size else 0.0,
        "events": [[float(t), str(lbl)] for t, lbl in trace.events],
    }
