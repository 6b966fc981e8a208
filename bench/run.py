"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one operation at a time, from this single
process) for about ``S`` seconds of whole rounds, checks every output, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from a
traced run.  End-to-end times are scaled to a reference machine speed
measured by a calibration kernel (see :mod:`calibration`); the wall-time
figures are printed above the result line.  The program is imported from
``src/`` next to this directory; without it the command exits with status 2
and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every child it starts; set before
# numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: set-up is measured this many times per CPU and run
SETUP_PROBES_PER_CPU = 3
#: the CPUs this process may use, and the two its operations take turns on
ALL_CPUS = os.sched_getaffinity(0)
CPUS = sorted(ALL_CPUS)[:2]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sim-nominal", "sim-delay-perturbed", "synth-family", "cli-experiment"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def on_cpu(k: int) -> None:
    """Pin this process (and the children it starts) to its ``k``-th CPU."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def probe_setup(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has built the inputs.

    Returns the wall time and the time at the reference speed, scaled by the
    median of ten calibration kernels around the probe on this process's CPU.
    """
    import calibration

    cpus = sorted(os.sched_getaffinity(0))
    kernel_s = [calibration.measure(cpus) for _ in range(5)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", workload,
                             "--seed", str(seed), "--seconds", "0", "--setup-probe", workdir],
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed")
    shutil.rmtree(workdir, ignore_errors=True)
    kernel_s += [calibration.measure(cpus) for _ in range(5)]
    return elapsed, elapsed * calibration.REFERENCE_S / statistics.median(kernel_s)


def run_round(wl, index: int, inproc: bool = False) -> list[dict]:
    """Run every operation of one round, one at a time.

    Operation ``i`` of round ``r`` runs on CPU ``(r + i) mod 2``, so over a
    pair of rounds every operation runs once on each of two CPUs: the two
    vCPUs of a shared host slow down at different times.  Workloads whose
    operations may use several CPUs (the CLI's ``--workers`` pool) are not
    pinned.

    A calibration kernel runs before each operation on the operation's CPU
    (on every CPU for an unpinned one).  Each result carries the wall time
    ``dt`` and ``ref_dt``, the time at the reference speed: ``dt`` scaled by
    ``REFERENCE_S`` over the median kernel time on that CPU in this round.
    """
    import calibration

    if wl.on_round is not None:
        wl.on_round(index)
    results = []
    for i, op in enumerate(wl.ops):
        fn = op.run_inproc if inproc and op.run_inproc is not None else op.run
        cpus = (CPUS[(index + i) % len(CPUS)],) if wl.pin_cpu else tuple(CPUS)
        if wl.pin_cpu:
            on_cpu(index + i)
        kernel_s = calibration.measure(cpus)
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        # only the first round's outputs are kept, for the checks; later
        # rounds keep a digest, so memory does not grow with the run
        results.append({"op": op, "out": out if index == 0 else None, "err": err, "dt": dt,
                        "cpus": cpus, "kernel_s": kernel_s, "digest": None if err else op.digest(out)})
    os.sched_setaffinity(0, ALL_CPUS)
    for cpus in {r["cpus"] for r in results}:
        on = [r for r in results if r["cpus"] == cpus]
        scale = calibration.REFERENCE_S / statistics.median(r["kernel_s"] for r in on)
        for r in on:
            r["ref_dt"] = r["dt"] * scale
    return results


def run_rounds(wl, seconds: float, inproc: bool = False, between=None, tracer=None) -> tuple[list, float]:
    """Rounds for about ``seconds``; returns the rounds and their wall time.

    Rounds come in groups (pairs, so that every operation runs once on each
    CPU; with a tracer, groups of four ``U T T U`` so that traced and
    untraced rounds see both CPUs and the same spells of machine speed).
    Another group starts only while less than ``seconds`` minus half a group
    has passed.  ``between()`` runs after each round, outside the measured
    time.
    """
    group = 2 if tracer is None else 4
    rounds = []
    elapsed = 0.0
    while True:
        for _ in range(group):
            index = len(rounds)
            traced = tracer is not None and index % 4 in (1, 2)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rounds.append(run_round(wl, index, inproc))
            finally:
                elapsed += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if between is not None:
                between()
        if elapsed >= seconds - 0.5 * group * elapsed / len(rounds):
            return rounds, elapsed


def median_op_ms(rounds: list[list[dict]], key: str = "ref_dt") -> float:
    """Median over operations of each operation's mean time across the rounds."""
    per_op = zip(*[[r[key] for r in rnd] for rnd in rounds])
    ok = zip(*[[r["err"] is None for r in rnd] for rnd in rounds])
    means = [statistics.fmean(t) for t, good in zip(per_op, ok) if all(good)]
    return 1e3 * statistics.median(means)


def verify(rounds: list[list[dict]], reference: list[dict]) -> list[str]:
    """Check the reference round independently; every round must reproduce it."""
    problems = []
    for res in reference:
        op = res["op"]
        if res["err"] is not None:
            if not (op.expect and op.expect in res["err"]):
                problems.append(f"{op.name}: unexpected failure: {res['err']}")
            continue
        problems += [f"{op.name}: {p}" for p in op.check(res["out"])]
        if op.expect:
            print(f"note: {op.name} no longer fails ({op.expect})", file=sys.stderr)
    for i, rnd in enumerate(rounds, 1):
        for res, ref in zip(rnd, reference):
            if (res["err"] is None) != (ref["err"] is None) or res["digest"] != ref["digest"]:
                problems.append(f"{res['op'].name}: round {i} output differs from the checked round")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homctl", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import homctl  # noqa: F401

    import_ms = 1e3 * (time.perf_counter() - t0)
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.setup_probe)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    try:
        return run(args, workloads, workdir, import_ms)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))


def run(args, workloads, workdir: str, import_ms: float) -> int:
    import calibration

    wl = workloads.build(args.workload, args.seed, os.path.join(workdir, "main"))
    setup: list[list[float]] = [[] for _ in CPUS]
    n_probes = SETUP_PROBES_PER_CPU * len(CPUS)

    def probe() -> None:
        # spread over the run and over the CPUs, so that one slow spell of
        # the machine or one slow CPU weighs less
        k = sum(map(len, setup))
        if k < n_probes:
            on_cpu(k)
            setup[k % len(CPUS)].append(probe_setup(args.workload, args.seed, os.path.join(workdir, f"probe{k}")))
            os.sched_setaffinity(0, ALL_CPUS)

    for op in wl.warmup:
        op.run()

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        rounds, _ = run_rounds(wl, args.seconds, inproc=True, tracer=tracer)
        traced = [rnd for i, rnd in enumerate(rounds) if i % 4 in (1, 2)]
        untraced = [rnd for i, rnd in enumerate(rounds) if i % 4 not in (1, 2)]

        def total(rnds):
            return sum(r["dt"] for rnd in rnds for r in rnd)

        metrics = tracer.metrics(len(traced) * len(wl.ops))
        metrics["import.homctl_ms"] = (import_ms, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (total(traced) / total(untraced) - 1.0), "%")
    else:
        probe()
        rounds, wall = run_rounds(wl, args.seconds, between=probe)
        while sum(map(len, setup)) < n_probes:
            probe()
        done = sum(1 for rnd in rounds for r in rnd if r["err"] is None)
        ops_s = sum(r["ref_dt"] for rnd in rounds for r in rnd)
        if wl.child_rss_kb:
            rss_kb = max(wl.child_rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (done / ops_s, "1/s"),
            "op_ms_p50": (median_op_ms(rounds), "ms"),
            "setup_s": (statistics.fmean(statistics.median(ref for _, ref in v) for v in setup), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        kernel_ms = 1e3 * statistics.median(r["kernel_s"] for rnd in rounds for r in rnd)
        print(f"at the machine's own speed: ops_per_s = {done / wall:.6g} 1/s, "
              f"op_ms_p50 = {median_op_ms(rounds, 'dt'):.6g} ms, "
              f"setup_s = {statistics.fmean(statistics.median(w for w, _ in v) for v in setup):.6g} s; "
              f"calibration kernel median {kernel_ms:.4g} ms (reference {1e3 * calibration.REFERENCE_S:g} ms)")

    problems = verify(rounds[1:], rounds[0]) + wl.final_check()
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd if r["err"] is not None)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    round_s = [sum(r["dt"] for r in rnd) for rnd in rounds]
    print("round seconds: " + " ".join(f"{x:.3f}" for x in round_s), file=sys.stderr)
    print(f"rounds = {len(rounds)}, attempted = {attempted}, failed = {failed}, checks {'passed' if not problems else 'FAILED'}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
