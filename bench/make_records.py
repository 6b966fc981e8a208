"""Regenerate the fixed controller records the simulation workloads load.

    python3 bench/make_records.py

Each record is synthesized with today's ``homctl.synthesize`` from the plant
its generator seed gives, at T = 1, and saved with ``save_controller``.  The
simulation workloads load these files instead of synthesizing, so their
figures do not move when synthesis changes.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from homctl import LinearPlant, SynthesisConfig, save_controller, synthesize  # noqa: E402

#: record name -> (n, m, generator seed); seed None is the integrator chain
RECORDS = {
    "chain3": (3, 1, None),
    "rand3x2": (3, 2, 0),
    "rand5x2": (5, 2, 0),
    # verified by synthesize, yet simulate raises hom_norm non-convergence
    "rand6x1": (6, 1, 0),
}


def plant(n: int, m: int, seed: int | None) -> LinearPlant:
    if seed is None:
        A = np.diag(np.ones(n - 1), 1)
        B = np.zeros((n, m))
        B[-1, 0] = 1.0
        return LinearPlant(A, B)
    rng = np.random.default_rng(seed)
    return LinearPlant(rng.standard_normal((n, n)), rng.standard_normal((n, m)))


def main() -> None:
    out = os.path.join(HERE, "records")
    os.makedirs(out, exist_ok=True)
    for name, (n, m, seed) in RECORDS.items():
        save_controller(synthesize(plant(n, m, seed), SynthesisConfig(T=1.0)), os.path.join(out, f"{name}.json"))
        print(f"wrote records/{name}.json")


if __name__ == "__main__":
    main()
