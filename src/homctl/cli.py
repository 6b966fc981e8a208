"""Command-line front end.

Subcommands
-----------
* ``homctl synth``      — synthesize a stabilizer for a plant file, save JSON
* ``homctl verify``     — re-run all algebraic checks on a saved controller
* ``homctl simulate``   — run one scenario file, write the trace as CSV
* ``homctl experiment`` — run bundled presets or a suite, write a report

Exit codes: 0 success; 2 bad input (unparseable files, bad flags); 3 synthesis
infeasible; 4 verification or expectation failure; 5 unexpected runtime error.
Set ``HOMCTL_LOG=debug|info|warning`` to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__, atomic
from .presets import PRESETS, SUITES, run_preset
from .scenario import load_plant, load_scenario
from .simulate import simulate, trace_summary, trace_to_csv
from .synthesis import (
    ControllabilityError,
    SynthesisConfig,
    SynthesisError,
    load_controller,
    save_controller,
    synthesize,
    verify_controller,
)

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4
EXIT_RUNTIME = 5


def _setup_logging() -> None:
    level_name = os.environ.get("HOMCTL_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_json(path, obj) -> None:
    atomic.write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homctl", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"homctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a stabilizer for a plant file")
    p.add_argument("--plant", required=True, help="plant description file (INI)")
    p.add_argument("--T", type=float, required=True, dest="T", help="prescribed settling time")
    p.add_argument("--out", required=True, help="output controller JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="re-run all algebraic checks on a controller JSON")
    p.add_argument("--controller", required=True, help="controller JSON path")
    p.add_argument("--plant", help="optional plant file to check the record against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run one scenario file")
    p.add_argument("--scenario", required=True, help="scenario file (INI)")
    p.add_argument("--controller", help="controller JSON overriding the scenario's reference")
    p.add_argument("--out", help="trace CSV path (summary JSON written next to it)")
    p.add_argument("--seed", type=int, help="noise seed override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run bundled presets and check expectations")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--preset", action="append", choices=sorted(PRESETS),
                       help="preset name (repeatable)")
    group.add_argument("--suite", choices=sorted(SUITES), help="run a whole suite")
    p.add_argument("--out", help="output directory for per-run CSVs and report.json")
    p.add_argument("--seed", type=int, help="noise seed override for noisy presets")
    p.add_argument("--workers", type=int, default=1, help="accepted if >= 1; presets run one after another")
    p.set_defaults(func=cmd_experiment)
    return parser


def cmd_synth(args) -> int:
    plant = load_plant(args.plant)
    config = SynthesisConfig(T=args.T)
    controller = synthesize(plant, config)
    report = verify_controller(controller, plant)
    save_controller(controller, args.out)
    print(report)
    print(f"controller saved to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    controller = load_controller(args.controller)
    plant = load_plant(args.plant) if args.plant else None
    report = verify_controller(controller, plant)
    print(report)
    if not report.all_passed:
        print(f"verification FAILED: {', '.join(c.name for c in report.failed)}")
        return EXIT_VERIFICATION
    print("verification passed")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario, controller_override=args.controller,
                           seed_override=args.seed)
    trace = simulate(config)
    summary = trace_summary(trace)
    if args.out:
        trace_to_csv(trace, args.out)
        root, _ = os.path.splitext(args.out)
        _write_json(root + ".summary.json", summary)
        log.info("trace written to %s", args.out)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_experiment(args) -> int:
    names = list(args.preset or SUITES[args.suite or "paper"])  # --preset and --suite exclude each other
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    reports = []
    for name in names:
        trace, report = run_preset(PRESETS[name], seed=args.seed)
        reports.append(report)
        if args.out:
            trace_to_csv(trace, os.path.join(args.out, f"{name}.csv"))

    width = max(len(n) for n in names)
    print(f"{'preset':<{width}}  {'status':6}  {'settling':>10}  {'max_norm':>10}  expectations")
    for report in reports:
        s = report["summary"]
        st = "-" if s["settling_time"] is None else f"{s['settling_time']:.4g}"
        ok = sum(1 for e in report["expectations"] if e["passed"])
        total = len(report["expectations"])
        status = "pass" if report["passed"] else "FAIL"
        print(f"{report['preset']:<{width}}  {status:6}  {st:>10}  {s['max_norm']:>10.4g}  {ok}/{total}")
        for e in report["expectations"]:
            marker = "ok " if e["passed"] else "BAD"
            print(f"{'':<{width}}    [{marker}] {e['name']}: {e['detail']}")

    passed = all(r["passed"] for r in reports)
    master = {"presets": names, "seed": args.seed, "passed": passed, "runs": reports}
    if args.out:
        _write_json(os.path.join(args.out, "report.json"), master)
    print(f"overall: {'PASS' if passed else 'FAIL'} ({sum(r['passed'] for r in reports)}/{len(reports)} presets)")
    return EXIT_OK if passed else EXIT_VERIFICATION


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        return args.func(args)
    except (ControllabilityError, SynthesisError) as exc:
        log.debug("synthesis failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, KeyError) as exc:
        log.debug("bad input", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        log.debug("unexpected failure", exc_info=True)
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
