"""Plant and scenario description files (INI-style ``key = value`` sections).

Matrices are written as semicolon-separated rows with whitespace-separated
entries, e.g. ``A = 0 1; -1 0``.  A scenario file has the sections

* ``[plant]``          — ``A``, ``B``, optional ``delay``
* ``[controller]``     — ``file`` (JSON controller record, relative to the
  scenario file) or ``builtin`` (a named preset controller), plus ``kind``
* ``[sim]``            — ``x0``, ``h``, ``t_end`` and optional ``integrator``,
  ``settle_epsilon``
* ``[perturbations]``  — optional ``disturbance``, ``noise`` + ``seed``,
  ``x0_noise``, ``phi``

Parse errors, and any section or key not listed above, raise ``ValueError``
with the offending key in the message.
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from .control_laws import ControllerKind
from .simulate import DisturbanceSpec, NoiseSpec, ScenarioConfig
from .synthesis import LinearPlant, SynthesizedController, load_controller

__all__ = ["parse_matrix", "parse_vector", "load_plant", "load_scenario"]

#: the keys each scenario-file section accepts
_KEYS = {
    "plant": ("A", "B", "delay"),
    "controller": ("file", "builtin", "kind"),
    "sim": ("x0", "h", "t_end", "integrator", "settle_epsilon"),
    "perturbations": ("disturbance", "noise", "seed", "x0_noise", "phi"),
}


def parse_matrix(text: str, name: str = "matrix") -> np.ndarray:
    """Parse ``"0 1; -1 0"`` into a 2-D float array."""
    rows = [r.strip() for r in text.split(";")]
    try:
        data = [[float(v) for v in r.split()] for r in rows if r]
    except ValueError as exc:
        raise ValueError(f"{name}: cannot parse {text!r} as a matrix") from exc
    if not data or any(len(r) != len(data[0]) for r in data):
        raise ValueError(f"{name}: rows of {text!r} have inconsistent lengths")
    return np.asarray(data, dtype=float)


def parse_vector(text: str, name: str = "vector") -> np.ndarray:
    """Parse whitespace-separated numbers into a 1-D float array."""
    try:
        vals = [float(v) for v in text.replace(";", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{name}: cannot parse {text!r} as a vector") from exc
    if not vals:
        raise ValueError(f"{name}: empty vector")
    return np.asarray(vals, dtype=float)


def _read(path) -> configparser.ConfigParser:
    # ';' separates matrix rows, so only '#' starts an inline comment
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keep key case: A and B are matrix names
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    return cp


def _check_keys(cp, sections, path) -> None:
    """Reject a section or key that no loader reads: a typo would drop it silently."""
    for section in sections:
        if section not in _KEYS:
            raise ValueError(f"{path}: unknown section [{section}] (expected one of: {', '.join(_KEYS)})")
        unknown = [k for k in cp.options(section) if k not in _KEYS[section]] if cp.has_section(section) else []
        if unknown:
            raise ValueError(f"{path}: unknown key {', '.join(map(repr, unknown))} in [{section}] "
                             f"(expected one of: {', '.join(_KEYS[section])})")


def _require(cp, section: str, key: str, path) -> str:
    if not cp.has_section(section):
        raise ValueError(f"{path}: missing [{section}] section")
    if not cp.has_option(section, key):
        raise ValueError(f"{path}: missing key {key!r} in [{section}]")
    return cp.get(section, key)


def _plant_from(cp, path) -> LinearPlant:
    A = parse_matrix(_require(cp, "plant", "A", path), "A")
    B = parse_matrix(_require(cp, "plant", "B", path), "B")
    delay = cp.getfloat("plant", "delay", fallback=0.0)
    return LinearPlant(A, B, delay=delay)


def load_plant(path) -> LinearPlant:
    """Read a plant description file (just the ``[plant]`` section)."""
    cp = _read(path)
    _check_keys(cp, ["plant"], path)
    return _plant_from(cp, path)


def _kind_from(cp, path) -> ControllerKind:
    kind_text = cp.get("controller", "kind", fallback="prescribed_time_robust")
    try:
        return ControllerKind(kind_text)
    except ValueError:
        valid = ", ".join(k.value for k in ControllerKind)
        raise ValueError(f"{path}: unknown controller kind {kind_text!r} (expected one of: {valid})") from None


def _controller_from(cp, path) -> SynthesizedController:
    if not cp.has_section("controller"):
        raise ValueError(f"{path}: missing [controller] section")
    if cp.has_option("controller", "file"):
        ref = cp.get("controller", "file")
        full = ref if os.path.isabs(ref) else os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        try:
            return load_controller(full)
        except FileNotFoundError as exc:
            raise ValueError(f"{path}: controller file {full!r} not found") from exc
    if cp.has_option("controller", "builtin"):
        from . import presets

        return presets.builtin_controller(cp.get("controller", "builtin"))
    raise ValueError(f"{path}: [controller] needs either 'file' or 'builtin'")


def _disturbance_from(text: str, path) -> DisturbanceSpec:
    parts = text.split()
    if not parts or parts[0] == "none":
        return DisturbanceSpec()
    if parts[0] == "matched_sin":
        if len(parts) != 3:
            raise ValueError(f"{path}: disturbance 'matched_sin' needs amplitude and omega")
        return DisturbanceSpec(kind="matched_sin", amplitude=float(parts[1]), omega=float(parts[2]))
    if parts[0] == "constant":
        if len(parts) < 2:
            raise ValueError(f"{path}: disturbance 'constant' needs vector entries")
        return DisturbanceSpec(kind="constant", vector=[float(v) for v in parts[1:]])
    raise ValueError(f"{path}: unknown disturbance {parts[0]!r}")


def load_scenario(path, controller_override=None, seed_override: int | None = None) -> ScenarioConfig:
    """Read a full scenario file into a :class:`ScenarioConfig`.

    ``controller_override`` (a path to a controller JSON) replaces the
    scenario's controller reference; ``seed_override`` replaces the noise
    seed.
    """
    cp = _read(path)
    _check_keys(cp, cp.sections(), path)
    plant = _plant_from(cp, path)
    kind = _kind_from(cp, path)
    if controller_override is not None:
        controller = load_controller(controller_override)
    else:
        controller = _controller_from(cp, path)

    x0 = parse_vector(_require(cp, "sim", "x0", path), "x0")
    h = float(_require(cp, "sim", "h", path))
    t_end = float(_require(cp, "sim", "t_end", path))
    kwargs = {}
    if cp.has_option("sim", "integrator"):
        kwargs["integrator"] = cp.get("sim", "integrator")
    if cp.has_option("sim", "settle_epsilon"):
        kwargs["settle_epsilon"] = cp.getfloat("sim", "settle_epsilon")

    disturbance = DisturbanceSpec()
    noise = NoiseSpec()
    if cp.has_section("perturbations"):
        if cp.has_option("perturbations", "disturbance"):
            disturbance = _disturbance_from(cp.get("perturbations", "disturbance"), path)
        if cp.has_option("perturbations", "noise"):
            amplitude = cp.getfloat("perturbations", "noise")
            seed = seed_override if seed_override is not None else cp.getint("perturbations", "seed", fallback=None)
            noise = NoiseSpec(amplitude=amplitude, seed=seed)
        if cp.has_option("perturbations", "x0_noise"):
            kwargs["x0_noise"] = parse_vector(cp.get("perturbations", "x0_noise"), "x0_noise")
        if cp.has_option("perturbations", "phi"):
            phi_text = cp.get("perturbations", "phi").strip()
            if phi_text != "zero":
                kwargs["phi"] = parse_matrix(phi_text, "phi")

    return ScenarioConfig(plant=plant, controller=controller, x0=x0, h=h, t_end=t_end,
                          kind=kind, disturbance=disturbance, noise=noise, **kwargs)
