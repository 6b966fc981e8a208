"""Plant and scenario description files (INI-style ``key = value`` sections).

Matrices are written as semicolon-separated rows with whitespace-separated
entries, e.g. ``A = 0 1; -1 0``, and a vector as one row or one column.  A
scenario file has the sections ``[plant]``, ``[controller]`` (``file``, a
JSON controller record relative to the scenario file, or ``builtin``, plus
``kind``), ``[sim]`` and the optional ``[perturbations]``; a plant file
needs only ``[plant]``.

Every file is read through one table, ``_KEYS``: section → key → parser.
Values are literal, ``[DEFAULT]`` is an ordinary section, and a file that
cannot be read, decoded as UTF-8 or split into sections raises ``ValueError``
naming it.  ``_section`` rejects a key the table does not list, reports a
missing required key or section, and parses each given value; a value that
does not parse raises ``ValueError`` naming the file, the section and the
key.  A key that is absent is not passed on, so :class:`LinearPlant` or
:class:`ScenarioConfig` owns its default, as it owns every bound: a value out
of range raises that class's error, which names the key, after the file.
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from . import linalg
from .control_laws import ControllerKind
from .presets import builtin_controller
from .simulate import DisturbanceSpec, NoiseSpec, ScenarioConfig
from .synthesis import ControllabilityError, LinearPlant, SynthesizedController, load_controller

__all__ = ["parse_matrix", "parse_vector", "load_plant", "load_scenario"]


def parse_matrix(text: str) -> np.ndarray:
    """Parse ``"0 1; -1 0"`` into a 2-D float array."""
    rows = [r.strip() for r in text.split(";")]
    try:
        data = [[float(v) for v in r.split()] for r in rows if r]
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as a matrix") from exc
    if not data:
        raise ValueError("empty value")
    if any(len(r) != len(data[0]) for r in data):
        raise ValueError(f"rows of {text!r} have inconsistent lengths")
    return np.asarray(data, dtype=float)


def parse_vector(text: str) -> np.ndarray:
    """Parse one row (``"1 2"``) or one column (``"1; 2"``) into a 1-D float array."""
    return linalg.as_vector(parse_matrix(text), "vector")


def _number(kind):
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as {kind.__name__}") from None
    return parse


_float = _number(float)


def _disturbance(text: str) -> DisturbanceSpec:
    kind, *values = text.split() or ["none"]
    if kind == "none" and not values:
        return DisturbanceSpec()
    if kind == "matched_sin" and len(values) == 2:
        return DisturbanceSpec(kind, *map(_float, values))
    if kind == "constant" and values:
        return DisturbanceSpec(kind, vector=parse_vector(" ".join(values)))
    needs = {"none": "takes no values", "matched_sin": "needs amplitude and omega", "constant": "needs vector entries"}
    raise ValueError(f"disturbance {kind!r} {needs[kind]}" if kind in needs else f"unknown disturbance {kind!r}")


#: section -> key -> parser of its value: every key a scenario or plant file accepts
_KEYS = {
    "plant": {"A": parse_matrix, "B": parse_matrix, "delay": _float},
    "controller": {"file": str, "builtin": builtin_controller, "kind": ControllerKind},
    "sim": {"x0": parse_vector, "h": _float, "t_end": _float, "integrator": str, "settle_epsilon": _float},
    "perturbations": {"disturbance": _disturbance, "noise": _float, "seed": _number(int),
                      "x0_noise": parse_vector, "phi": parse_matrix},
}
#: the keys a section must give; a section with none of them may be left out
_REQUIRED = {"plant": ("A", "B"), "sim": ("x0", "h", "t_end")}


def _read(path) -> configparser.ConfigParser:
    # ';' separates matrix rows, so only '#' starts an inline comment; values
    # are literal, and [DEFAULT] is an ordinary section, unknown to _KEYS
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    cp.optionxform = str  # keep key case: A and B are matrix names
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    return cp


def _section(cp, path, section: str) -> dict:
    """The given keys of ``[section]``, each parsed by its entry in ``_KEYS``."""
    table, required = _KEYS[section], _REQUIRED.get(section, ())
    if not cp.has_section(section):
        if required:
            raise ValueError(f"{path}: missing [{section}] section")
        return {}
    items = dict(cp.items(section))
    unknown = [k for k in items if k not in table]
    if unknown:
        # a typo would otherwise drop its setting silently
        raise ValueError(f"{path}: unknown key {', '.join(map(repr, unknown))} in [{section}] "
                         f"(expected one of: {', '.join(table)})")
    for key in required:
        if key not in items:
            raise ValueError(f"{path}: missing key {key!r} in [{section}]")
    parsed = {}
    for key, text in items.items():
        try:
            parsed[key] = table[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r} in [{section}]: {exc}") from None
    return parsed


def _build(path, cls, /, **values):
    """``cls(**values)``, naming ``path`` in its ``ValueError``; a ``ControllabilityError`` passes unchanged."""
    try:
        return cls(**values)
    except ControllabilityError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_plant(path) -> LinearPlant:
    """Read a plant description file (just the ``[plant]`` section)."""
    return _build(path, LinearPlant, **_section(_read(path), path, "plant"))


def _controller_from(cp, path, ctrl: dict) -> SynthesizedController:
    if "file" in ctrl and "builtin" in ctrl:
        raise ValueError(f"{path}: [controller] takes either 'file' or 'builtin', not both")
    if "file" in ctrl:
        # an absolute path replaces the scenario file's directory
        full = os.path.join(os.path.dirname(os.path.abspath(path)), ctrl["file"])
        try:
            return load_controller(full)
        except FileNotFoundError as exc:
            raise ValueError(f"{path}: controller file {full!r} not found") from exc
        except OSError as exc:
            raise ValueError(f"{path}: cannot read controller file {full!r}: {exc.strerror}") from None
    if "builtin" in ctrl:
        return ctrl["builtin"]
    if not cp.has_section("controller"):
        raise ValueError(f"{path}: missing [controller] section")
    raise ValueError(f"{path}: [controller] needs either 'file' or 'builtin'")


def load_scenario(path, controller_override=None, seed_override: int | None = None) -> ScenarioConfig:
    """Read a full scenario file into a :class:`ScenarioConfig`.

    ``controller_override`` (a path to a controller JSON) replaces the
    scenario's controller reference; ``seed_override`` replaces the noise
    seed.  A ``seed`` is parsed even without ``noise``, and is then inert;
    with ``noise`` it must be a non-negative integer.
    """
    cp = _read(path)
    for section in cp.sections():
        if section not in _KEYS:
            raise ValueError(f"{path}: unknown section [{section}] (expected one of: {', '.join(_KEYS)})")
    plant = _build(path, LinearPlant, **_section(cp, path, "plant"))
    ctrl = _section(cp, path, "controller")
    if controller_override is not None:
        controller = load_controller(controller_override)
    else:
        controller = _controller_from(cp, path, ctrl)
    sim = _section(cp, path, "sim")
    perturbations = _section(cp, path, "perturbations")
    seed = perturbations.pop("seed", None)
    if "noise" in perturbations:
        perturbations["noise"] = _build(path, NoiseSpec, amplitude=perturbations["noise"],
                                        seed=seed if seed_override is None else seed_override)
    kind = {"kind": ctrl["kind"]} if "kind" in ctrl else {}
    return _build(path, ScenarioConfig, plant=plant, controller=controller, **kind, **sim, **perturbations)
