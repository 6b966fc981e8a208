"""Every scalar input runs through ``linalg.as_scalar``: one type rule, one bound check, one message.

One table lists each entry point that takes a scalar, the name its message
gives the scalar and the bound it checks.  Each entry must accept a numpy
integer or float in range, and refuse a ``bool``, a string, a non-finite
value and a value at its bound with ``<name> must be a finite number …``.
A ``RuntimeWarning`` is an error in this suite, so a value that reaches the
numerics before it is refused fails here too.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from homctl import (
    DisturbanceSpec,
    LinearPlant,
    NoiseSpec,
    ScenarioConfig,
    SynthesisConfig,
    oscillator_controller,
    oscillator_plant,
)
from homctl.dilation import dilate, dilation_matrix, hom_norm
from homctl.linalg import zoh_integral
from homctl.predictor import _steps_in_delay
from homctl.simulate import SimulationTrace, disturbance_bound, measure_settling
from homctl.synthesis import solve_lmi_feasibility

CTRL = oscillator_controller()
PLANT = oscillator_plant()
TRACE = SimulationTrace(t=np.array([0.0, 1.0]), x=np.zeros((2, 2)), u=np.zeros((2, 1)), s=np.zeros(2),
                        x_norm=np.array([1.0, 0.0]))


def _scenario(**values):
    return ScenarioConfig(**{"plant": PLANT, "controller": CTRL, "x0": [0.2, 0.0], "h": 0.5, "t_end": 1.0, **values})


#: entry point -> (the scalar's name in the message, its bound, a call taking the scalar,
#: an integral value in range, a value at the bound or None where there is none)
ENTRIES = {
    "LinearPlant.delay": ("delay", " >= 0", lambda v: LinearPlant(PLANT.A, PLANT.B, delay=v), 1, -0.5),
    "SynthesisConfig.T": ("settling time T", " > 0", lambda v: SynthesisConfig(T=v), 1, 0),
    "SynthesizedController.T": ("settling time T", " > 0", lambda v: dataclasses.replace(CTRL, T=v), 1, 0),
    "solve_lmi_feasibility.weight": ("weight", " >= 0",
                                     lambda v: solve_lmi_feasibility(CTRL.A0, CTRL.B, CTRL.Gd, weight=v), 0, -1),
    "DisturbanceSpec.amplitude": ("matched_sin amplitude", "",
                                  lambda v: DisturbanceSpec("matched_sin", amplitude=v, omega=1.0), 1, None),
    "DisturbanceSpec.omega": ("matched_sin omega", "",
                              lambda v: DisturbanceSpec("matched_sin", amplitude=1.0, omega=v), 1, None),
    "NoiseSpec.amplitude": ("noise amplitude", " >= 0", lambda v: NoiseSpec(amplitude=v, seed=1), 1, -0.5),
    "ScenarioConfig.h": ("sample period h", " > 0", lambda v: _scenario(h=v), 1, 0),
    "ScenarioConfig.t_end": ("t_end", " > 0", lambda v: _scenario(t_end=v), 1, 0),
    "ScenarioConfig.settle_epsilon": ("settle_epsilon", " > 0", lambda v: _scenario(settle_epsilon=v), 1, 0),
    "measure_settling.epsilon": ("epsilon", " > 0", lambda v: measure_settling(TRACE, v), 1, 0),
    "disturbance_bound.rho": ("rho", " > 1", lambda v: disturbance_bound(CTRL, 0.5, v), 2, 1),
    "disturbance_bound.x0_norm": ("x0_norm", " >= 0", lambda v: disturbance_bound(CTRL, v, 2.0), 1, -0.5),
    "_steps_in_delay.h": ("sample period h", " > 0", lambda v: _steps_in_delay(1.0, v), 1, 0),
    "_steps_in_delay.tau": ("delay", " >= 0", lambda v: _steps_in_delay(v, 0.5), 1, -0.5),
    "zoh_integral.h": ("step h", " > 0", lambda v: zoh_integral(PLANT.A, PLANT.B, v), 1, 0),
    "dilate.s": ("dilation parameter s", "", lambda v: dilate(CTRL.dilation, v, [0.2, 0.0]), 1, None),
    "dilation_matrix.s": ("dilation parameter s", "", lambda v: dilation_matrix(CTRL.dilation, v), 1, None),
    "hom_norm.guess": ("guess", " > 0", lambda v: hom_norm(CTRL.dilation, [0.2, 0.0], guess=v), 1, 0),
}
BAD = {"bool": True, "numpy-bool": np.bool_(True), "string": "0.1", "inf": math.inf, "minus-inf": -math.inf,
       "nan": math.nan}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("convert", [int, float, np.int64, np.float32, np.float64])
def test_entry_point_accepts_a_python_or_numpy_number(entry, convert):
    _, _, call, good, _ = ENTRIES[entry]
    call(convert(good))


@pytest.mark.parametrize("entry, bad", [(e, b) for e, spec in ENTRIES.items()
                                        for b in [*BAD] + (["at-bound"] if spec[4] is not None else [])])
def test_entry_point_refuses_with_the_contract_message(entry, bad):
    name, bound, call, _, at_bound = ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{name} must be a finite number{bound}, got ')}"):
        call(at_bound if bad == "at-bound" else BAD[bad])


def test_accepted_numpy_scalars_are_stored_as_python_floats():
    # a numpy scalar in range is read as the Python float it equals
    assert type(SynthesisConfig(T=np.int64(1)).T) is float
    assert LinearPlant(PLANT.A, PLANT.B, delay=np.float32(0.5)).delay == 0.5
    config = _scenario(h=np.float32(0.5), t_end=np.int64(1), settle_epsilon=np.float64(1e-3))
    assert all(type(v) is float for v in (config.h, config.t_end, config.settle_epsilon))
