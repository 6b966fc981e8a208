"""homctl: stabilizers with a prescribed constant settling time for LTI systems.

The package synthesizes, verifies and simulates static state feedbacks that
drive a controllable linear plant ``x' = A x + B u`` (optionally with a known
input delay) to the origin in a settling time that is the same for every
initial condition — the gain is scheduled on a homogeneous norm of the state
normalized by the initial condition.  Sampled-data simulation uses exact
zero-order-hold propagation between samples.
"""

from .linalg import (
    chol_pd_check,
    eigenvalues,
    expm,
    least_norm_solve,
    min_eig_sym,
    solve_linear,
    zoh_integral,
)
from .dilation import (
    Dilation,
    check_strict_monotonicity,
    dilate,
    dilation_matrix,
    hom_norm,
    hom_norm_gradient,
)
from .synthesis import (
    ControllabilityError,
    InfeasibleError,
    LinearPlant,
    SynthesisConfig,
    SynthesisError,
    SynthesizedController,
    VerificationReport,
    controllability_index,
    controllability_matrix,
    load_controller,
    save_controller,
    solve_generator_equation,
    solve_lmi_feasibility,
    synthesize,
    verify_controller,
)
from .control_laws import (
    ControlContext,
    ControllerKind,
    eval_control,
    make_context,
)
from .predictor import (
    PredictorTables,
    build_tables,
    invert,
    predict,
)
from .simulate import (
    DisturbanceSpec,
    NoiseSpec,
    ScenarioConfig,
    SimulationTrace,
    disturbance_bound,
    measure_settling,
    simulate,
    simulate_dense,
    trace_summary,
    trace_to_csv,
)
from .scenario import load_plant, load_scenario, parse_matrix, parse_vector
from .presets import (
    PRESETS,
    SUITES,
    Expectation,
    ExperimentPreset,
    builtin_controller,
    oscillator_controller,
    oscillator_plant,
    run_preset,
)

__version__ = "0.1.0"
