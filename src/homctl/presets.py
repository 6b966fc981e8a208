"""Bundled demonstration scenarios with machine-checkable expectations.

`oscillator_controller` is the reference stabilizer for the harmonic
oscillator (settling time T = 1), written out in closed form so the presets
run without a synthesis step.  Each preset names a closed-loop run and a list
of expectations on its trace (settling window, boundedness, residual level);
``run_preset`` executes one and reports which expectations held.  Presets are
grouped into suites: ``paper`` (the eight figure-style runs fig1..fig8) and
``scaling`` (one nominal run per initial-state magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .simulate import (
    DisturbanceSpec,
    NoiseSpec,
    ScenarioConfig,
    SimulationTrace,
    simulate,
    trace_summary,
)
from .synthesis import LinearPlant, SynthesizedController

__all__ = [
    "oscillator_plant",
    "oscillator_controller",
    "builtin_controller",
    "Expectation",
    "ExperimentPreset",
    "PRESETS",
    "SUITES",
    "run_preset",
]

#: default sample period of all presets
_H = 0.01
#: default noise seed of the noisy presets (overridable per run)
_NOISE_SEED = 42


def oscillator_plant(delay: float = 0.0) -> LinearPlant:
    """Harmonic oscillator ``x1' = x2, x2' = -x1 + u`` with optional input delay."""
    return LinearPlant(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], delay=delay)


def oscillator_controller() -> SynthesizedController:
    """Closed-form reference stabilizer for the oscillator with T = 1, mu = -1.

    The record satisfies every verification check exactly (all residuals are
    zero in floating point), which makes it the natural fixture for tests and
    for scenario files that should not depend on the numerical feasibility
    search.
    """
    return SynthesizedController(
        A=[[0.0, 1.0], [-1.0, 0.0]],
        B=[[0.0], [1.0]],
        T=1.0,
        G0=[[-1.0, 0.0], [0.0, 0.0]],
        Y0=[[-2.0, 0.0]],
        Gd=[[2.0, 0.0], [0.0, 1.0]],
        A0=[[0.0, 1.0], [0.0, 0.0]],
        X=[[1.0, -2.0], [-2.0, 5.5]],
        Y=[[0.5, -5.5]],
        K0=[[1.0, 0.0]],
        K=[[-5.5, -3.0]],
    )


def builtin_controller(name: str) -> SynthesizedController:
    """Look up a named built-in controller (for scenario files); only ``oscillator`` is built in."""
    if name != "oscillator":
        raise ValueError(f"unknown builtin controller {name!r} (known: oscillator)")
    return oscillator_controller()


@dataclass(frozen=True)
class Expectation:
    """A named pass/fail check on a finished trace."""

    name: str
    check: Callable[[SimulationTrace, ScenarioConfig], tuple[bool, str]]

    def evaluate(self, trace: SimulationTrace, config: ScenarioConfig) -> dict:
        passed, detail = self.check(trace, config)
        return {"name": self.name, "passed": bool(passed), "detail": detail}


def settles_within(lo: float, hi: float) -> Expectation:
    """Settling time (weighted norm below the scenario threshold) in [lo, hi]."""

    def check(trace, config):
        st = trace.settling_time
        if st is None:
            return False, f"never settled below {trace.settle_epsilon:g}"
        return lo <= st <= hi, f"settling_time={st:.6g} (window [{lo:g}, {hi:g}])"

    return Expectation(f"settles_within_{lo:g}_{hi:g}", check)


def never_settles() -> Expectation:
    """The trace must not settle (persistent excitation keeps it away from zero)."""

    def check(trace, config):
        st = trace.settling_time
        if st is None:
            return True, f"no settling below {trace.settle_epsilon:g}, as expected"
        return False, f"unexpectedly settled at t={st:.6g}"

    return Expectation("never_settles", check)


def stays_bounded(factor: float) -> Expectation:
    """Weighted norm never exceeds ``factor`` times its initial value."""

    def check(trace, config):
        peak = float(np.max(trace.x_norm))
        limit = factor * float(trace.x_norm[0])
        return peak <= limit, f"max_norm={peak:.6g} (limit {limit:.6g})"

    return Expectation(f"stays_bounded_{factor:g}x", check)


def enters_band(level: float) -> Expectation:
    """Weighted norm dips below ``level`` at least once."""

    def check(trace, config):
        low = float(np.min(trace.x_norm))
        return low <= level, f"min_norm={low:.6g} (band {level:g})"

    return Expectation(f"enters_band_{level:g}", check)


def ends_at_zero() -> Expectation:
    """Final state is exactly zero (terminal capture happened)."""

    def check(trace, config):
        final = float(trace.x_norm[-1])
        return final == 0.0, f"final_norm={final:.6g}"

    return Expectation("ends_at_zero", check)


def residual_rms_below(limit: float) -> Expectation:
    """RMS of the weighted norm after the nominal settling horizon stays small.

    The horizon is the controller's settling time plus the plant's input
    delay; under persistent measurement noise the state cannot reach zero,
    so the meaningful statement is a residual level, not a settling time.
    """

    def check(trace, config):
        horizon = config.controller.T + config.plant.delay
        tail = trace.x_norm[trace.t > horizon]
        if tail.size == 0:
            return False, f"no samples after t={horizon:g}"
        rms = float(math.sqrt(float(np.mean(tail**2))))
        return rms <= limit, f"post-horizon rms={rms:.6g} (limit {limit:g})"

    return Expectation(f"residual_rms_below_{limit:g}", check)


@dataclass(frozen=True)
class ExperimentPreset:
    """A named scenario factory plus the expectations its trace must meet."""

    name: str
    description: str
    build: Callable[[int | None], ScenarioConfig]
    expectations: tuple[Expectation, ...]


def _oscillator(x0, t_end: float = 2.0, tau: float = 0.0,
                disturbance: DisturbanceSpec = DisturbanceSpec(), noise: float = 0.0):
    """Scenario factory for the oscillator with input delay ``tau``.

    ``noise`` is the measurement-noise amplitude, seeded by the run's seed
    (default :data:`_NOISE_SEED`).
    """

    def build(seed=None):
        return ScenarioConfig(plant=oscillator_plant(delay=tau), controller=oscillator_controller(),
                              x0=np.asarray(x0, dtype=float), h=_H, t_end=t_end, disturbance=disturbance,
                              noise=NoiseSpec(amplitude=noise, seed=_NOISE_SEED if seed is None else seed))

    return build


#: settling windows: T (plus delay where applicable) to within two samples
_WINDOW = (1.0 - 2 * _H, 1.0 + 2 * _H)
_WINDOW_DELAYED = (1.5 - 2 * _H, 1.5 + 2 * _H)
#: the matched disturbance sin(5t) of fig3 and fig4
_SIN5 = DisturbanceSpec(kind="matched_sin", amplitude=1.0, omega=5.0)

_FIGURES = (
    ExperimentPreset(
        "fig1", "nominal run, small initial state x0 = (0.2, 0)",
        _oscillator([0.2, 0.0]),
        (settles_within(*_WINDOW), stays_bounded(1.001), ends_at_zero()),
    ),
    ExperimentPreset(
        "fig2", "nominal run, large initial state x0 = (0.7, 0)",
        _oscillator([0.7, 0.0]),
        (settles_within(*_WINDOW), stays_bounded(1.001), ends_at_zero()),
    ),
    ExperimentPreset(
        "fig3", "matched sinusoidal disturbance sin(5t), small initial state",
        _oscillator([0.2, 0.0], t_end=3.0, disturbance=_SIN5),
        (stays_bounded(2.0), enters_band(0.1), never_settles()),
    ),
    ExperimentPreset(
        "fig4", "matched sinusoidal disturbance sin(5t), large initial state",
        _oscillator([0.7, 0.0], t_end=3.0, disturbance=_SIN5),
        (stays_bounded(2.0), never_settles()),
    ),
    ExperimentPreset(
        "fig5", "uniform measurement noise 0.01, small initial state",
        _oscillator([0.2, 0.0], t_end=3.0, noise=0.01),
        (stays_bounded(2.0), residual_rms_below(0.1)),
    ),
    ExperimentPreset(
        "fig6", "uniform measurement noise 0.01, large initial state",
        _oscillator([0.7, 0.0], t_end=3.0, noise=0.01),
        (stays_bounded(2.0), residual_rms_below(0.1)),
    ),
    ExperimentPreset(
        "fig7", "input delay 0.5 with predictor feedback, small initial state",
        _oscillator([0.2, 0.0], t_end=2.5, tau=0.5),
        (settles_within(*_WINDOW_DELAYED), ends_at_zero()),
    ),
    ExperimentPreset(
        "fig8", "input delay 0.5 with predictor feedback, large initial state",
        _oscillator([0.7, 0.0], t_end=2.5, tau=0.5),
        (settles_within(*_WINDOW_DELAYED), ends_at_zero()),
    ),
)

_SCALES = (1e-2, 1.0, 1e2, 1e5)

_SCALING = tuple(
    ExperimentPreset(
        f"scale-{lam:g}", f"nominal run scaled by {lam:g}: x0 = {lam:g} * (0.2, 0)",
        _oscillator([0.2 * lam, 0.0]),
        (settles_within(*_WINDOW), stays_bounded(1.001)),
    )
    for lam in _SCALES
)

PRESETS: dict[str, ExperimentPreset] = {p.name: p for p in (*_FIGURES, *_SCALING)}

SUITES: dict[str, tuple[str, ...]] = {
    "paper": tuple(p.name for p in _FIGURES),
    "scaling": tuple(p.name for p in _SCALING),
}


def run_preset(preset: ExperimentPreset, seed: int | None = None) -> tuple[SimulationTrace, dict]:
    """Simulate one preset and evaluate its expectations.

    Returns the trace and a JSON-ready report: run summary, one entry per
    expectation, and an overall ``passed`` flag.
    """
    config = preset.build(seed)
    trace = simulate(config)
    results = [e.evaluate(trace, config) for e in preset.expectations]
    report = {
        "preset": preset.name,
        "description": preset.description,
        "summary": trace_summary(trace),
        "expectations": results,
        "passed": all(r["passed"] for r in results),
    }
    return trace, report
