"""Benchmark workloads: seeded inputs, one round of operations, their checks.

A workload is a fixed list of operations (one *round*) built from the seed.
The benchmark repeats whole rounds, so every round attempts the same
operations and the share of failed ones is the same in every run.  The first
round's outputs go through the independent checks in :mod:`checks`; every
later round must reproduce them bit for bit (compared by digest).

Importing this module imports ``homctl``; building a workload is the
"loading the workload's inputs" part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.linalg

# operations call homctl's functions through the package at call time, so
# that the traced run's wrappers see them
import homctl
from homctl import ControllerKind, DisturbanceSpec, LinearPlant, NoiseSpec, ScenarioConfig, SynthesisConfig
from homctl.presets import oscillator_controller

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDS = os.path.join(HERE, "records")
SRC = os.path.join(os.path.dirname(HERE), "src")

H = 0.01
KINDS = tuple(ControllerKind)
#: the message of the simulation fault kept as a failing operation
NONCONVERGENCE = "hom_norm: root refinement did not converge"


@dataclass
class Op:
    """One operation: ``run()`` produces an output that ``check`` judges."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    #: message of a fault that makes this operation fail today
    expect: str | None = None
    #: in-process variant (the CLI workload's traced run)
    run_inproc: Callable[[], Any] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    #: CLI operations run as child processes; their peak RSS is collected here
    child_rss_kb: list[int] = field(default_factory=list)
    #: called with the round index before each round
    on_round: Callable[[int], None] | None = None
    #: checks across operations of the checked round
    final_check: Callable[[], list[str]] = lambda: []
    #: each operation runs pinned to one CPU (single-threaded operations only)
    pin_cpu: bool = True


# ---------------------------------------------------------------------------
# helpers


def record_dict(c) -> dict:
    """Plain arrays of a controller record (read straight off its fields)."""
    out = {k: np.asarray(getattr(c, k)) for k in ("A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K")}
    out["T"], out["mu"] = float(c.T), float(c.mu)
    return out


def trace_dict(tr) -> dict:
    return {
        "t": tr.t, "x": tr.x, "u": tr.u, "s": tr.s, "x_norm": tr.x_norm, "y": tr.y,
        "settled": tr.settled, "settling_time": tr.settling_time, "events": list(tr.events),
    }


def digest_arrays(d: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(d):
        val = d[key]
        h.update(key.encode())
        if isinstance(val, np.ndarray):
            h.update(str(val.shape).encode())
            h.update(np.ascontiguousarray(val).tobytes())
        else:
            h.update(repr(val).encode())
    return h.hexdigest()


def unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def chain(n: int) -> LinearPlant:
    A = np.diag(np.ones(n - 1), 1)
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return LinearPlant(A, B)


def load_record(name: str):
    return homctl.load_controller(os.path.join(RECORDS, f"{name}.json"))


# ---------------------------------------------------------------------------
# simulation workloads


def sim_op(name, controller, x0, kind, t_end, delay=0.0, disturbance=None, noise=None,
           settle=False, decay=False, expect=None) -> Op:
    """A ``simulate`` run plus the checks that apply to its setting.

    ``settle``: the run settles at ``s[0] T`` after the delay; ``s[0] = 1``
    unless a fixed-time run starts inside the unit ball.
    """
    plant = LinearPlant(controller.A, controller.B, delay=delay)
    config = ScenarioConfig(plant=plant, controller=controller, x0=x0, h=H, t_end=t_end, kind=kind,
                            disturbance=disturbance or DisturbanceSpec(), noise=noise or NoiseSpec())
    ctrl = record_dict(controller)
    N = int(round(delay / H))
    q = None
    if disturbance is not None and disturbance.kind == "matched_sin":
        direction = ctrl["B"] @ np.ones(ctrl["B"].shape[1])
        a, w = disturbance.amplitude, disturbance.omega
        q = lambda t: direction * (a * math.sin(w * t))  # noqa: E731
    elif disturbance is not None and disturbance.kind == "constant":
        vec = np.asarray(disturbance.vector, float)
        q = lambda t: vec  # noqa: E731

    def check(tr: dict) -> list[str]:
        problems = checks.check_steps(ctrl["A"], ctrl["B"], H, tr, delay_steps=N, q=q)
        if delay:
            z0 = scipy.linalg.expm(ctrl["A"] * delay) @ np.asarray(x0, float)
            Z = tr["y"]
            if disturbance is None and noise is None:
                problems += checks.check_predictor(tr, N)
        else:
            z0, Z = np.asarray(x0, float), tr["x"]
        r = checks.reference_radius(ctrl, kind.value, z0)
        U = None if noise is not None else tr["u"]
        problems += checks.check_inputs(ctrl, kind.value, r, Z, U, tr["s"])
        if settle:
            t_settle = checks.initial_s(ctrl, kind.value, z0) * ctrl["T"] + delay
            problems += checks.check_settling(tr, t_settle - 2 * H, t_settle + 2 * H)
        if decay:
            problems += checks.check_decay_profile(tr, ctrl["T"], H)
        return problems

    return Op(name, lambda: trace_dict(homctl.simulate(config)), check, digest_arrays, expect)


def sim_nominal(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    osc = oscillator_controller()
    T = osc.T
    ops = []
    # the oscillator at one magnitude per decade in [1e-4, 1e4), every kind
    for kind in KINDS:
        for i in range(8):
            x0 = unit(rng, 2) * 10.0 ** (-4 + i + rng.uniform())
            homogeneous = kind is not ControllerKind.LINEAR
            ops.append(sim_op(f"osc-{kind.value}-{i}", osc, x0, kind, 2 * T, settle=homogeneous, decay=homogeneous))
    # fixed records: one magnitude per two decades, every kind
    for name in ("chain3", "rand3x2", "rand5x2"):
        c = load_record(name)
        for i, kind in enumerate(KINDS):
            x0 = unit(rng, c.n) * 10.0 ** (-4 + 2 * i + 2 * rng.uniform())
            ops.append(sim_op(f"{name}-{kind.value}", c, x0, kind, 2 * c.T))
    # kept although it fails today: the input does not depend on the seed
    c6 = load_record("rand6x1")
    ops.append(sim_op("rand6x1-fails", c6, np.ones(6), ControllerKind.PRESCRIBED_TIME_ROBUST, 2 * c6.T,
                      expect=NONCONVERGENCE))
    warm = [sim_op("warm-osc", osc, np.array([0.2, 0.0]), ControllerKind.PRESCRIBED_TIME_ROBUST, 2 * T)]
    return Workload(ops, warm)


def sim_delay_perturbed(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    osc = oscillator_controller()
    T, Bv = osc.T, osc.B[:, 0]
    robust = ControllerKind.PRESCRIBED_TIME_ROBUST
    ops = []

    def x0_at(i: int) -> np.ndarray:
        return unit(rng, 2) * 10.0 ** (-4 + 2 * i + 2 * rng.uniform())

    # the predictor runs make up most of the round, so the median operation
    # is a delay run; the heavier disturbed and noisy runs follow
    for tau in (0.5, 1.0):
        for i in range(7):
            ops.append(sim_op(f"delay{tau:g}-{i}", osc, x0_at(i % 4), robust, 2 * T + tau, delay=tau,
                              settle=True))
    # disturbances and noise are sized relative to |x0|, so the normalized
    # closed loop (and the work per run) does not depend on the magnitude;
    # the small ones stay inside the rejection envelope and the run snaps
    for i, alpha in enumerate((0.05, 5.0)):
        x0 = x0_at(i)
        dist = DisturbanceSpec(kind="matched_sin", amplitude=alpha * np.linalg.norm(x0), omega=5.0)
        ops.append(sim_op(f"sin{alpha:g}", osc, x0, robust, 3 * T, disturbance=dist))
    for i, beta in enumerate((0.05, 2.0)):
        x0 = x0_at(i + 2)
        dist = DisturbanceSpec(kind="constant", vector=Bv * beta * np.linalg.norm(x0) * rng.choice((-1.0, 1.0)))
        ops.append(sim_op(f"const{beta:g}", osc, x0, robust, 3 * T, disturbance=dist))
    for i in range(2):
        x0 = x0_at(2 * i + 1)
        noise = NoiseSpec(amplitude=0.05 * np.linalg.norm(x0), seed=int(rng.integers(2**31)))
        ops.append(sim_op(f"noise-{i}", osc, x0, robust, 3 * T, noise=noise))
    warm = [sim_op("warm-delay", osc, np.array([0.2, 0.0]), robust, 2.5 * T, delay=0.5)]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# synthesis workload

#: generator seed of the random family members
FAMILY_SEED = 7
#: (n, m) of the random family; (8, 1) is absent: that draw fails synthesis
#: at every settling time tried, like chain 8 (see README)
FAMILY_SHAPES = tuple((n, m) for n in range(3, 9) for m in (1, 2) if (n, m) != (8, 1))


def family_plants() -> list[tuple[str, LinearPlant]]:
    plants = [(f"chain{n}", chain(n)) for n in range(2, 7)]
    for n, m in FAMILY_SHAPES:
        rng = np.random.default_rng([FAMILY_SEED, n, m])
        plants.append((f"rand{n}x{m}", LinearPlant(rng.standard_normal((n, n)), rng.standard_normal((n, m)))))
    return plants


def synth_op(name: str, plant: LinearPlant, T: float, path: str, states: np.ndarray, expect=None) -> Op:
    config = SynthesisConfig(T=T)

    def run():
        c = homctl.synthesize(plant, config)
        report = homctl.verify_controller(c, plant)
        homctl.save_controller(c, path)
        return {"ctrl": record_dict(c), "passed": report.all_passed, "loaded": record_dict(homctl.load_controller(path))}

    def check(out) -> list[str]:
        problems = [] if out["passed"] else ["verify_controller reports a failure"]
        if out["ctrl"]["T"] != T:
            problems.append(f"controller settling time {out['ctrl']['T']!r}, requested {T!r}")
        return problems + checks.check_controller(out["ctrl"], out["loaded"], plant.A, plant.B, states)

    def digest(out) -> str:
        return digest_arrays({**out["ctrl"], "passed": out["passed"]})

    return Op(name, run, check, digest, expect)


def synth_family(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for name, plant in family_plants():
        # T in [1, 3]: below 1 some members fail verification (see README)
        T = 10.0 ** rng.uniform(0.0, math.log10(3.0))
        states = np.array([unit(rng, plant.n) * 10.0 ** rng.uniform(-2, 2) for _ in range(4)])
        ops.append(synth_op(name, plant, T, os.path.join(workdir, f"{name}.json"), states))
    # kept although they fail today: fixed inputs, independent of the seed
    ones = np.ones((1, 8))
    ops.append(synth_op("chain8-fails", chain(8), 1.0, os.path.join(workdir, "chain8.json"), ones,
                        expect="norm_strict_monotonicity"))
    ops.append(synth_op("chain10-fails", chain(10), 1.0, os.path.join(workdir, "chain10.json"), np.ones((1, 10)),
                        expect="no positive-definite solution"))
    warm = [synth_op("warm-chain2", chain(2), 1.0, os.path.join(workdir, "warm.json"), np.ones((1, 2)))]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# CLI workload


def fmt_matrix(M) -> str:
    # rows joined by "; " with no space before the ';' (see README)
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(M))


def fmt_vector(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def write_plant_ini(path, A, B, delay=0.0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[plant]\nA = {fmt_matrix(A)}\nB = {fmt_matrix(B)}\ndelay = {delay!r}\n")


def write_scenario_ini(path, A, B, controller_line: str, kind: str, x0, t_end: float, delay=0.0) -> None:
    write_plant_ini(path, A, B, delay)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"\n[controller]\n{controller_line}\nkind = {kind}\n")
        fh.write(f"\n[sim]\nx0 = {fmt_vector(x0)}\nh = {H!r}\nt_end = {t_end!r}\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("HOMCTL_LOG", None)
    return env


def run_child(argv: list[str], outdir: str, rss_kb: list[int]) -> int:
    """Run ``python -m homctl.cli ARGV`` to completion; record its peak RSS.

    Standard output goes to ``stdout.txt`` in ``outdir``.
    """
    with open(os.path.join(outdir, "stdout.txt"), "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "homctl.cli", *argv], stdout=out, stderr=err,
                                env=child_env(), cwd=outdir)
        # wait4 rather than wait: it returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kb.append(usage.ru_maxrss)
    return proc.returncode


def run_inproc(argv: list[str], outdir: str) -> int:
    """Call ``homctl.cli.main`` in this process (the traced run)."""
    import homctl.cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = homctl.cli.main(argv)
    finally:
        os.chdir(cwd)
    with open(os.path.join(outdir, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return code


def dir_digest(path: str, code: int) -> str:
    """Digest of the exit code and every file the invocation left (stdout included)."""
    h = hashlib.sha256(f"exit {code}\n".encode())
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


#: what the independent step check needs to know about each preset
PRESET_SETTINGS = {
    **{f"fig{i}": {} for i in (1, 2, 5, 6)},
    **{f"fig{i}": {"sin": (1.0, 5.0)} for i in (3, 4)},
    **{f"fig{i}": {"delay": 0.5} for i in (7, 8)},
}


class CliRounds:
    """Output directories: round 0 keeps its files for checking, later rounds reuse one."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.round = 0

    def start(self, index: int) -> None:
        self.round = index

    def dir(self, op_name: str) -> str:
        d = os.path.join(self.workdir, "r0" if self.round == 0 else "rest", op_name)
        if os.path.isdir(d):
            shutil.rmtree(d)
        os.makedirs(d)
        return d


def cli_op(name: str, argv_for: Callable[[str], list[str]], rounds: CliRounds, rss_kb: list[int],
           check_dir: Callable[[str], list[str]]) -> Op:
    def make(runner):
        def run():
            d = rounds.dir(name)
            code = runner(argv_for(d), d)
            return {"dir": d, "code": code, "digest": dir_digest(d, code)}
        return run

    def check(out) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        return check_dir(out["dir"])

    return Op(name, make(lambda argv, d: run_child(argv, d, rss_kb)), check, lambda out: out["digest"],
              run_inproc=make(run_inproc))


def check_experiment_dir(d: str, names) -> list[str]:
    osc = record_dict(oscillator_controller())
    report = checks.read_json(os.path.join(d, "report.json"))
    problems = [] if report.get("passed") is True else ["report.json does not say passed"]
    for run in report["runs"]:
        name = run["preset"]
        tr = checks.read_trace_csv(os.path.join(d, f"{name}.csv"))
        tr["events"] = run["summary"]["events"]
        setting = PRESET_SETTINGS.get(name, {})
        q = None
        if "sin" in setting:
            a, w = setting["sin"]
            q = lambda t, a=a, w=w: osc["B"][:, 0] * (a * math.sin(w * t))  # noqa: E731
        N = int(round(setting.get("delay", 0.0) / H))
        problems += [f"{name}: {p}" for p in checks.check_steps(osc["A"], osc["B"], H, tr, N, q)]
    if [r["preset"] for r in report["runs"]] != list(names):
        problems.append("report.json lists other presets than requested")
    return problems


def cli_experiment(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    rounds = CliRounds(workdir)
    rss: list[int] = []
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    noise_seed = int(rng.integers(2**31))
    paper = homctl.SUITES["paper"]
    scaling = homctl.SUITES["scaling"]

    ops = []
    for workers in (1, 2):
        ops.append(cli_op(f"paper-w{workers}",
                          lambda d, w=workers: ["experiment", "--suite", "paper", "--out", d,
                                                "--workers", str(w), "--seed", str(noise_seed)],
                          rounds, rss, lambda d: check_experiment_dir(d, paper)))
    ops.append(cli_op("scaling", lambda d: ["experiment", "--suite", "scaling", "--out", d],
                      rounds, rss, lambda d: check_experiment_dir(d, scaling)))

    # scenario files: builtin and file controllers, one delayed plant
    osc = oscillator_controller()
    records = {name: load_record(name) for name in ("chain3", "rand3x2")}
    for name in records:
        shutil.copy(os.path.join(RECORDS, f"{name}.json"), os.path.join(inputs, f"{name}.json"))
        write_plant_ini(os.path.join(inputs, f"{name}.ini"), records[name].A, records[name].B)
    scen = [
        ("sim-builtin", osc, "builtin = oscillator", "prescribed_time_robust", 0.0),
        ("sim-delayed", osc, "builtin = oscillator", "prescribed_time_robust", 0.5),
        ("sim-chain3", records["chain3"], "file = chain3.json", "prescribed_time", 0.0),
        ("sim-rand3x2", records["rand3x2"], "file = rand3x2.json", "fixed_time", 0.0),
    ]
    for name, c, line, kind, delay in scen:
        x0 = unit(rng, c.n) * 10.0 ** rng.uniform(-2, 2)
        path = os.path.join(inputs, f"{name}.ini")
        write_scenario_ini(path, c.A, c.B, line, kind, x0, 2 * c.T + delay, delay)
        ctrl = record_dict(c)

        def check_sim(d, ctrl=ctrl, N=int(round(delay / H))):
            tr = checks.read_trace_csv(os.path.join(d, "trace.csv"))
            tr["events"] = checks.read_json(os.path.join(d, "trace.summary.json"))["events"]
            return checks.check_steps(ctrl["A"], ctrl["B"], H, tr, N)

        ops.append(cli_op(name, lambda d, p=path: ["simulate", "--scenario", p, "--out", os.path.join(d, "trace.csv")],
                          rounds, rss, check_sim))
    for name in records:
        ops.append(cli_op(f"verify-{name}",
                          lambda d, n=name: ["verify", "--controller", os.path.join(inputs, f"{n}.json"),
                                             "--plant", os.path.join(inputs, f"{n}.ini")],
                          rounds, rss,
                          check_verified))
    return Workload(ops, [], rss, on_round=rounds.start,
                    final_check=lambda: check_workers_identical(workdir), pin_cpu=False)


def check_verified(d: str) -> list[str]:
    with open(os.path.join(d, "stdout.txt"), encoding="utf-8") as fh:
        return [] if "verification passed" in fh.read() else ["verify did not report passed"]


def check_workers_identical(workdir: str) -> list[str]:
    """``--workers 2`` writes byte-identical files to ``--workers 1``."""
    a, b = (os.path.join(workdir, "r0", f"paper-w{w}") for w in (1, 2))
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return ["--workers 2 wrote other files than --workers 1"]
    problems = []
    for n in names:
        with open(os.path.join(a, n), "rb") as fa, open(os.path.join(b, n), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"--workers 2 {n} differs from --workers 1")
    return problems


WORKLOADS = {
    "sim-nominal": sim_nominal,
    "sim-delay-perturbed": sim_delay_perturbed,
    "synth-family": synth_family,
    "cli-experiment": cli_experiment,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)

