"""homctl: stabilizers with a prescribed constant settling time for LTI systems.

The package synthesizes, verifies and simulates static state feedbacks that
drive a controllable linear plant ``x' = A x + B u`` (optionally with a known
input delay) to the origin in a settling time that is the same for every
initial condition — the gain is scheduled on a homogeneous norm of the state
normalized by the initial condition.  Sampled-data simulation uses exact
zero-order-hold propagation between samples.
"""

# each module's __all__ is the one list of its public names
from .linalg import *
from .dilation import *
from .synthesis import *
from .control_laws import *
from .predictor import *
from .simulate import *
from .scenario import *
from .presets import *

__version__ = "0.1.0"
