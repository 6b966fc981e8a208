"""Closed-loop sampled-data simulation with exact ZOH propagation.

The plant ``x' = A x + B u(t - tau) + q2(t)`` is stepped exactly between
samples (matrix exponential plus ZOH input integral); the control is
recomputed once per sample — from the measured state, or from the predictor
state when the input delay is active — and held.  An optional dense mode
re-evaluates the feedback continuously with an adaptive Runge-Kutta pair,
for decay-rate property checks.

Because the homogeneous feedback contracts the scheduling scalar ``s`` at
the exact rate ``-1/T`` in continuous time, an unperturbed sampled run snaps
the state to exactly zero one sample after ``s`` first drops below ``2h/T``
(the zero crossing happens within that band and zero is invariant; two ideal
decay steps of margin keep sampling wobble from hopping the band).  The
snap applies only to the homogeneous controller kinds.  Under a *matched*
disturbance it stays sound — and stays enabled — as long as the disturbance
is strictly inside the rejection envelope ``|q2|_P < r * lam / (2T)``
(the supremum of the rejectable-magnitude bound over its free parameter):
there the continuous closed loop still reaches exactly zero and zero stays
invariant, the feedback absorbing the disturbance.  Outside the envelope,
for unmatched or tabulated disturbances, and under measurement noise the
snap is disabled and the trace keeps its raw floor.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .control_laws import ControlContext, ControllerKind, eval_control, make_context
from .dilation import hom_norm
from .predictor import ControlHistory, build_tables, predict
from .synthesis import LinearPlant, SynthesizedController

__all__ = [
    "DisturbanceSpec",
    "NoiseSpec",
    "ScenarioConfig",
    "SimulationTrace",
    "simulate",
    "simulate_dense",
    "measure_settling",
    "disturbance_bound",
    "trace_to_csv",
    "trace_summary",
]

log = logging.getLogger(__name__)

#: substeps of the per-sample disturbance quadrature
_DISTURBANCE_SUBSTEPS = 16
#: default settling thresholds (weighted norm)
_SETTLE_EPS_NOMINAL = 1e-9
_SETTLE_EPS_PERTURBED = 1e-6
#: dense-mode integration tolerances and stop level
_DENSE_RTOL = 1e-10
_DENSE_ATOL = 1e-13
_DENSE_STOP_S = 0.02


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive state disturbance ``q2(t)``.

    Kinds: ``none``; ``matched_sin`` (``q2 = B * a sin(omega t)``, the
    sinusoid entering through every input channel); ``constant`` (a fixed
    vector); ``table`` (per-sample held values, row ``k`` applied on
    ``[t_k, t_{k+1})``).
    """

    kind: str = "none"
    amplitude: float = 0.0
    omega: float = 0.0
    vector: np.ndarray | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "matched_sin", "constant", "table"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "matched_sin":
            if not (math.isfinite(self.amplitude) and math.isfinite(self.omega)):
                raise ValueError("matched_sin needs finite amplitude and omega")
        if self.kind == "constant":
            if self.vector is None:
                raise ValueError("constant disturbance needs a vector")
            object.__setattr__(self, "vector", linalg.as_vector(self.vector, "vector"))
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table disturbance needs a table")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or not np.all(np.isfinite(tab)):
                raise ValueError("disturbance table must be a finite 2-D array")
            object.__setattr__(self, "table", tab)

    @property
    def active(self) -> bool:
        return self.kind != "none"

    def function(self, B: np.ndarray, h: float):
        """Time function ``q2(t) -> (n,)`` or None when inactive."""
        if self.kind == "none":
            return None
        if self.kind == "matched_sin":
            direction = B @ np.ones(B.shape[1])
            a, w = self.amplitude, self.omega
            return lambda t: direction * (a * math.sin(w * t))
        if self.kind == "constant":
            v = self.vector
            return lambda t: v
        tab = self.table
        last = len(tab) - 1
        return lambda t: tab[min(max(int(math.floor(t / h + 0.5)), 0), last)]


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform measurement noise on the state fed to the controller."""

    amplitude: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"noise amplitude must be >= 0, got {self.amplitude}")
        if self.amplitude > 0 and self.seed is None:
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
    snap_delta: float | None = None

    def __post_init__(self):
        if self.controller.n != self.plant.n or self.controller.m != self.plant.m:
            raise ValueError("plant and controller dimensions differ")
        object.__setattr__(self, "x0", linalg.as_vector(self.x0, "x0", self.plant.n))
        if self.x0_noise is not None:
            object.__setattr__(self, "x0_noise", linalg.as_vector(self.x0_noise, "x0_noise", self.plant.n))
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"sample period h must be positive, got {self.h}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.integrator not in ("zoh_exact", "dense_rk"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.settle_epsilon is not None and not self.settle_epsilon > 0:
            raise ValueError("settle_epsilon must be positive")
        if self.snap_delta is not None and not self.snap_delta > 0:
            raise ValueError("snap_delta must be positive")
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

    @property
    def effective_snap_delta(self) -> float:
        if self.snap_delta is not None:
            return self.snap_delta
        # two ideal decay steps: s shrinks by h/T per sample along the exact
        # trajectory, so a band of one step has no margin against sampling
        # wobble and trajectories can hop across it
        return 2.0 * self.h / self.controller.T


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
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    ok = trace.x_norm <= epsilon
    if not ok[-1]:
        return None
    if ok.all():
        return float(trace.t[0])
    last_bad = int(np.nonzero(~ok)[0][-1])
    return float(trace.t[last_bad + 1])


def simulate(config: ScenarioConfig) -> SimulationTrace:
    """Run one closed-loop scenario and return its trace.

    Dispatches on the configured integrator; the default exact-ZOH sampled
    loop handles delays, disturbances, noise and snap-to-zero.  The state
    norm used for settling is the controller's weighted norm.
    """
    if config.integrator == "dense_rk":
        return simulate_dense(config)
    trace = _simulate_zoh(config)
    eps = config.effective_settle_epsilon
    st = measure_settling(trace, eps)
    trace.settle_epsilon = eps
    trace.settling_time = st
    trace.settled = st is not None
    return trace


def _sample_times(h: float, t_end: float) -> np.ndarray:
    steps = int(math.floor(t_end / h + 1e-9))
    return h * np.arange(steps + 1)


def _rejection_rate(controller: SynthesizedController) -> float:
    """The eigenvalue factor of the rejectable-disturbance bound."""
    w, V = np.linalg.eigh(0.5 * (controller.X + controller.X.T))
    if w[0] <= 0:
        raise ValueError("controller X is not positive definite")
    Xh = (V * np.sqrt(w)) @ V.T
    Xmh = (V / np.sqrt(w)) @ V.T
    Gd = controller.Gd
    return linalg.min_eig_sym(Xmh @ Gd @ Xh + Xh @ Gd.T @ Xmh)


def _matched_sup_norm(dist: DisturbanceSpec, B: np.ndarray, controller: SynthesizedController) -> float | None:
    """Supremum of ``|q2(t)|_P`` for matched disturbances, else None.

    Only the analytic kinds are classified: a sinusoid through ``B`` is
    matched by construction, a constant vector is matched when it lies in
    the range of ``B``; tabulated disturbances are not classified.
    """
    if dist.kind == "matched_sin":
        v = B @ np.ones(B.shape[1])
        return abs(dist.amplitude) * controller.weighted_norm(v)
    if dist.kind == "constant":
        v = dist.vector
        g, *_ = np.linalg.lstsq(B, v, rcond=None)
        if np.linalg.norm(B @ g - v) > 1e-9 * max(np.linalg.norm(v), 1.0):
            return None
        return controller.weighted_norm(v)
    return None


def _snap_enabled(config: ScenarioConfig, ref_norm: float) -> bool:
    if config.kind is ControllerKind.LINEAR or ref_norm <= 0.0:
        return False
    if config.noise.active:
        return False
    if not config.disturbance.active:
        return True
    sup = _matched_sup_norm(config.disturbance, config.plant.B, config.controller)
    if sup is None:
        return False
    envelope = ref_norm * _rejection_rate(config.controller) / (2.0 * config.controller.T)
    return sup < envelope


def _disturbance_step(Fs: np.ndarray, Gs: np.ndarray, q2, t0: float, hs: float) -> np.ndarray:
    # exact-ZOH quadrature of int_0^h e^{A(h-s)} q2(t0+s) ds on substeps,
    # sampling q2 at substep midpoints
    D = np.zeros(Fs.shape[0])
    for i in range(_DISTURBANCE_SUBSTEPS):
        D = Fs @ D + Gs @ q2(t0 + (i + 0.5) * hs)
    return D


def _warm_guess(s_prev: float, s_prev2: float) -> float | None:
    """Linear extrapolation of the last two norms, else the last, else None."""
    if not s_prev > 0.0:
        return None
    guess = 2.0 * s_prev - s_prev2
    return guess if s_prev2 > 0.0 and guess > 0.0 else s_prev


def _simulate_zoh(config: ScenarioConfig) -> SimulationTrace:
    # One loop for both settings: a zero delay is the N = 0 predictor, y = x.
    # With a delay the controller acts on the predictor state y, the plant
    # receives the input of N samples earlier, and the capture reaches the
    # physical state one pipeline flush (tau) after the predictor state.
    plant, ctrl = config.plant, config.controller
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    h = config.h
    tau = plant.delay
    times = _sample_times(h, config.t_end)
    K = len(times)

    tables = build_tables(plant, h)
    N = tables.N
    F = linalg.expm(A * h)
    gamma = linalg.zoh_integral(A, B, h)
    q2 = config.disturbance.function(B, h)
    if q2 is not None:
        hs = h / _DISTURBANCE_SUBSTEPS
        Fs = linalg.expm(A * hs)
        Gs = linalg.zoh_integral(A, np.eye(n), hs)
    rng = np.random.default_rng(config.noise.seed) if config.noise.active else None

    hist = None
    x0_ctx = config.x0 if config.x0_noise is None else config.x0 + config.x0_noise
    if tau > 0:
        hist = ControlHistory(h=h, tau=tau, m=m, phi=config.phi)
        x0_ctx = predict(tables, x0_ctx, hist)
    ctx = ControlContext(ctrl, ctrl.dilation, config.kind, x0_ctx)
    dil = ctx.dilation
    r = ctx.ref_norm
    snap_enabled = _snap_enabled(config, r)
    snap_delta = config.effective_snap_delta

    xs = np.empty((K, n))
    us = np.empty((K, m))
    ys = np.empty((K, n)) if hist is not None else None
    ss = np.empty(K)
    norms = np.empty(K)
    events: list = []

    x = config.x0.copy()
    y_snap_at: int | None = None
    x_snap_at: int | None = None
    s_prev = s_prev2 = 0.0
    for k in range(K):
        if x_snap_at is not None and k >= x_snap_at:
            x = np.zeros(n)
        snapped = y_snap_at is not None and k >= y_snap_at
        if snapped:
            y = np.zeros(n)
        else:
            y = x if N == 0 else predict(tables, x, hist)
        # s is solved once per sample, warm-started from the last samples;
        # the feedback reuses it (with r = 0 or y = 0 it needs no s at all)
        s = 0.0
        if r > 0 and not snapped:
            s = hom_norm(dil, y / r, _warm_guess(s_prev, s_prev2))
        s_prev, s_prev2 = s, s_prev
        if rng is None:
            u = eval_control(ctx, y, s)
        else:
            meas = y + rng.uniform(-config.noise.amplitude, config.noise.amplitude, n)
            s_meas = hom_norm(dil, meas / r, s if s > 0 else None) if r > 0 else None
            u = eval_control(ctx, meas, s_meas)
        xs[k], us[k], ss[k] = x, u, s
        if ys is not None:
            ys[k] = y
        norms[k] = dil.norm(x)
        if snap_enabled and y_snap_at is None and s <= snap_delta:
            y_snap_at = k + 1
            x_snap_at = k + 1 + N
            events.append((times[k] + h, "snap_to_zero" if hist is None else "predictor_snap_to_zero"))
            if hist is not None:
                events.append((times[k] + h + tau, "state_snap_to_zero"))
            log.debug("snap scheduled after t=%.6f (s=%.3e <= %.3e)", times[k], s, snap_delta)
        if k + 1 < K:
            x = F @ x + gamma @ (hist.recent(N) if N >= 1 else u)
            if q2 is not None:
                x = x + _disturbance_step(Fs, Gs, q2, times[k], hs)
            if hist is not None:
                hist.push(u)

    return SimulationTrace(t=times, x=xs, u=us, s=ss, x_norm=norms, y=ys, events=events)


def simulate_dense(config: ScenarioConfig) -> SimulationTrace:
    """Continuous-feedback reference run with an adaptive RK45 pair.

    Delay-free and noise-free only; integrates until the scheduling scalar
    ``s`` falls to 0.02 (or ``t_end``), recording ``s`` on a dense grid.
    Used by the decay-rate acceptance checks: along unperturbed runs
    ``s(t) = 1 - t/T`` up to integration error.
    """
    import scipy.integrate  # its only user: `import homctl` does not load it

    plant, ctrl = config.plant, config.controller
    if plant.delay > 0:
        raise ValueError("simulate_dense supports delay-free plants only")
    if config.noise.active:
        raise ValueError("simulate_dense does not support measurement noise")
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    q2 = config.disturbance.function(B, config.h)

    ctx = make_context(ctrl, config.kind, config.x0, config.x0_noise)
    dil = ctx.dilation
    r = ctx.ref_norm
    eps = config.effective_settle_epsilon

    if not np.any(config.x0):
        times = _sample_times(config.h, config.t_end)
        return SimulationTrace(t=times, x=np.zeros((len(times), n)), u=np.zeros((len(times), m)),
                               s=np.zeros(len(times)), x_norm=np.zeros(len(times)),
                               settled=True, settling_time=0.0, settle_epsilon=eps)
    if r == 0.0:
        raise ValueError("simulate_dense needs a nonzero reference for a nonzero state")

    def rhs(t, x):
        dx = A @ x + B @ eval_control(ctx, x)
        if q2 is not None:
            dx = dx + q2(t)
        return dx

    def stop(t, x):
        return hom_norm(dil, x / r) - _DENSE_STOP_S

    stop.terminal = True
    stop.direction = -1

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, config.t_end), config.x0, method="RK45",
        rtol=_DENSE_RTOL, atol=_DENSE_ATOL, dense_output=True, events=[stop],
    )
    if not sol.success:
        raise RuntimeError(f"dense integration failed: {sol.message}")
    t_last = sol.t[-1]
    grid = np.linspace(0.0, t_last, max(int(round(t_last / config.h)) * 4, 200))
    xs = sol.sol(grid).T
    ss = np.array([hom_norm(dil, x / r) for x in xs])
    us = np.array([eval_control(ctx, x, s) for x, s in zip(xs, ss)])
    norms = np.array([dil.norm(x) for x in xs])
    events = [(float(te[0]), "dense_stop") for te in sol.t_events if len(te)]
    return SimulationTrace(t=grid, x=xs, u=us, s=ss, x_norm=norms,
                           settled=False, settling_time=None, settle_epsilon=eps,
                           events=events)


def disturbance_bound(controller: SynthesizedController, x0_norm: float, rho: float,
                      kind: ControllerKind = ControllerKind.PRESCRIBED_TIME_ROBUST) -> float:
    """Largest matched-disturbance magnitude with guaranteed settling.

    For the clamped feedback started at ``|x0| = x0_norm``, disturbances
    with ``|B gamma(t)| <= x0_norm * lmin(X^{-1/2} Gd X^{1/2} + X^{1/2} Gd'
    X^{-1/2}) / (2 rho T)`` (``rho > 1``) still settle, no later than
    ``rho T / (rho - 1)``.  For the fixed_time kind the radius is floored at
    one, mirroring its normalization.
    """
    if not rho > 1:
        raise ValueError(f"rho must exceed 1, got {rho}")
    if not (math.isfinite(x0_norm) and x0_norm >= 0):
        raise ValueError(f"x0_norm must be finite and >= 0, got {x0_norm}")
    lam = _rejection_rate(controller)
    radius = max(1.0, x0_norm) if kind is ControllerKind.FIXED_TIME else x0_norm
    return radius * lam / (2.0 * rho * controller.T)


# ---------------------------------------------------------------------------
# export


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Write the trace as CSV: ``t,x1..xn,u1..um,s,settled`` (+ ``y1..yn``).

    Floats carry 17 significant digits so a round-trip through the file is
    exact; ``settled`` is 0/1 per row (1 from the settling sample on).
    """
    n, m = trace.n, trace.m
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)] + ["s", "settled"]
    if trace.y is not None:
        cols += [f"y{i+1}" for i in range(n)]
    lines = [",".join(cols)]
    st = trace.settling_time
    for k in range(len(trace.t)):
        vals = [trace.t[k], *trace.x[k], *trace.u[k], trace.s[k]]
        row = [f"{v:.17g}" for v in vals]
        row.append("1" if (st is not None and trace.t[k] >= st) else "0")
        if trace.y is not None:
            row += [f"{v:.17g}" for v in trace.y[k]]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)


def trace_summary(trace: SimulationTrace) -> dict:
    """Headline numbers of a run, JSON-ready."""
    return {
        "samples": int(len(trace.t)),
        "t_end": float(trace.t[-1]),
        "settled": bool(trace.settled),
        "settling_time": None if trace.settling_time is None else float(trace.settling_time),
        "settle_epsilon": float(trace.settle_epsilon),
        "max_norm": float(np.max(trace.x_norm)),
        "final_norm": float(trace.x_norm[-1]),
        "max_input": float(np.max(np.abs(trace.u))) if trace.u.size else 0.0,
        "events": [[float(t), str(lbl)] for t, lbl in trace.events],
    }
