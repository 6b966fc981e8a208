"""Per-layer tracing: wrap ``homctl``'s public functions at every binding.

A function is reachable under several names: ``homctl.dilation.hom_norm``,
the copy ``homctl.control_laws`` imported, the one ``homctl.simulate``
imported, and the package-level re-export.  :class:`Tracer` replaces every
module attribute that *is* a traced function with one wrapper, so calls made
inside the package (``hom_norm`` calling ``dilate``, ``simulate`` calling
``eval_control``) are counted too.  Each wrapper keeps, per function, the
number of calls, the total time and the self time (total minus the time of
traced callees), on a per-thread stack so a thread pool stays consistent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

#: module -> public functions whose calls are counted and timed
TARGETS = {
    "linalg": ("expm", "zoh_integral", "chol_pd_check", "least_norm_solve", "min_eig_sym"),
    "dilation": ("hom_norm", "dilate", "dilation_matrix", "check_strict_monotonicity"),
    "control_laws": ("eval_control", "make_context"),
    "predictor": ("build_tables", "predict"),
    "simulate": ("simulate", "trace_to_csv", "trace_summary"),
    "synthesis": ("solve_generator_equation", "solve_lmi_feasibility", "verify_controller",
                  "save_controller", "load_controller"),
    "scenario": ("load_scenario", "load_plant"),
    "presets": ("run_preset",),
    "cli": ("main",),
}

KEYS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        #: (caller, callee) call counts between traced functions
        self.edges = Counter()
        #: samples of every trace returned by simulate.simulate
        self.samples = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1][0] if st else None
            frame = [key, 0.0]
            st.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.pop()
                if st:
                    st[-1][1] += dt
                with tracer._lock:
                    tracer.calls[key] += 1
                    tracer.total[key] += dt
                    tracer.self_time[key] += dt - frame[1]
                    tracer.edges[(parent, key)] += 1
            if key == "simulate.simulate":
                with tracer._lock:
                    tracer.samples += len(result.t)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every ``homctl`` module attribute bound to a target function."""
        import homctl.cli  # noqa: F401  (the CLI module is traced too)

        mods = [m for name, m in sorted(sys.modules.items()) if name == "homctl" or name.startswith("homctl.")]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"homctl.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation counts and times of every target, plus the ratios."""
        out: dict[str, tuple[float, str]] = {}
        for key in KEYS:
            out[f"{key}.calls"] = (self.calls[key] / ops, "count")
            out[f"{key}.self_ms"] = (1e3 * self.self_time[key] / ops, "ms")
            out[f"{key}.total_ms"] = (1e3 * self.total[key] / ops, "ms")
        hom = self.calls["dilation.hom_norm"]
        dilate_in_norm = self.edges[("dilation.hom_norm", "dilation.dilate")]
        samples = self.samples
        out["dilation.hom_norm.per_sample"] = (hom / samples if samples else 0.0, "count")
        out["dilation.dilate.per_hom_norm"] = (dilate_in_norm / hom if hom else 0.0, "count")
        out["predictor.predict.per_sample"] = (self.calls["predictor.predict"] / samples if samples else 0.0, "count")
        return out
