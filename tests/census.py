"""The synthesis census: one row per case over a fixed family of plants and settling times.

The cases are the random plants ``default_rng([99, n, m, s])`` (``A`` then
``B``, standard normal) with ``n`` 2-8, ``m`` 1-3, ``m < n`` and ``s`` 0-24,
plus the integrator chains 2-10, each at ``T = 0.3, 1, 3``: 1377 cases.
Each row holds

- ``outcome``: ``ok`` or the exception type, with the ``failed`` checks and
  the first line of the ``message``;
- ``record``: a digest of every record synthesis built for the case, the
  returned one and those that failed verification, field by field;
- ``checks``: a digest of every check those records were verified with
  (name, value, threshold, verdict and kind), and of the failed check an
  error carries;
- ``headroom``: the smallest margin of the case's positive-definiteness
  tests over the ``1e-12`` Cholesky pivot floor, ``lmin(S) / (1e-12 |S|_2)``
  over ``X`` and ``Gd X + X Gd'`` of every feasibility solve and ``P`` and
  ``P Gd + Gd'P`` of every record (``None`` where no ``X`` was solved).
  Every Cholesky pivot is at least ``lmin(S)``, so this bounds the pivots'
  headroom from below, and it is defined for an indefinite ``S`` too;
- ``cond_X``: ``cond(X)`` of the last record built (``None`` without one).

A run is bit-deterministic on the platform that wrote the table (numpy,
machine and Python), so there :func:`compare` holds every field of every
case to the table, the outcome included: only a change to the code can move
a row.  Another numpy or BLAS rounds differently, so elsewhere it holds the
outcome and the failed checks, and a case the table puts within 10x of the
pivot floor (``|headroom| < 10``) may take the other outcome: rounding alone
can move it across the floor.

Run from the repository root; it imports ``homctl`` from this tree's ``src``::

    python tests/census.py --compare            # diff a run against tests/data/census.json
    python tests/census.py --write              # rewrite the table from this tree
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "data", "census.json")
#: the source tree the census runs
SRC = os.path.join(os.path.dirname(HERE), "src")
#: settling times of every plant
TIMES = (0.3, 1.0, 3.0)
#: relative pivot floor of the positive-definiteness tests (linalg._CHOL_PIVOT_RTOL)
FLOOR = 1e-12
#: a case whose |headroom| is below this may take either outcome
NEAR_FLOOR = 10.0


def platform_key() -> dict:
    """What a bit-exact row depends on besides the source."""
    return {"numpy": np.__version__, "machine": platform.machine(), "python": platform.python_version()}


def plants():
    """``(name, A, B)`` of the census plants, in table order."""
    for n in range(2, 9):
        for m in range(1, min(n, 4)):
            for s in range(25):
                rng = np.random.default_rng([99, n, m, s])
                A = rng.standard_normal((n, n))
                yield f"rand{n}x{m}-s{s}", A, rng.standard_normal((n, m))
    for n in range(2, 11):
        yield f"chain{n}", np.eye(n, k=1), np.eye(n)[:, -1:]


def _headroom(S: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    scale = max(-w[0], w[-1])
    return float(w[0] / (FLOOR * scale)) if scale > 0.0 else -math.inf


def _check_key(k) -> bytes:
    return repr((k.name, k.value.hex(), k.threshold.hex(), k.passed, k.kind)).encode()


def _digest(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


@contextlib.contextmanager
def _recording(synthesis, seen: list, solved: list):
    """Record the controllers ``synthesize`` verifies and the ``X`` of each Lyapunov solve."""
    verify, lyapunov = synthesis.verify_controller, synthesis._solve_lyapunov

    def verify_rec(controller, plant=None):
        report = verify(controller, plant)
        seen.append((controller, report))
        return report

    def lyapunov_rec(F, Q):
        X = lyapunov(F, Q)
        solved.append(X)
        return X

    synthesis.verify_controller, synthesis._solve_lyapunov = verify_rec, lyapunov_rec
    try:
        yield
    finally:
        synthesis.verify_controller, synthesis._solve_lyapunov = verify, lyapunov


def run_case(homctl, name: str, A, B, T: float) -> dict:
    """The census row of one case."""
    synthesis = homctl.synthesis
    seen, solved = [], []
    row = {"case": f"{name}-T{T:g}", "outcome": "ok", "failed": [], "message": ""}
    checks = hashlib.sha256()
    try:
        plant = homctl.LinearPlant(A, B)
        with _recording(synthesis, seen, solved):
            homctl.synthesize(plant, homctl.SynthesisConfig(T=T))
    except Exception as exc:  # every exception is an outcome of the census
        row["outcome"] = type(exc).__name__
        row["message"] = str(exc).splitlines()[0] if str(exc) else ""
        check = getattr(exc, "check", None)
        if check is not None:
            row["failed"] = [check.name]
            checks.update(_check_key(check))
        elif seen:
            row["failed"] = [f.name for f in seen[0][1].failed]
    record = hashlib.sha256()
    head = []
    if solved:
        G0, _ = synthesis.solve_generator_equation(plant)
        Gd = np.eye(plant.n) + synthesis.MU * G0
        for X in solved:
            if np.isfinite(X).all():
                head += [_headroom(X), _headroom(Gd @ X + X @ Gd.T)]
            else:
                head.append(-math.inf)
    for c, report in seen:
        record.update(repr((c.T, c.mu)).encode())
        _digest(record, *(getattr(c, f) for f in ("A", "B", "G0", "Y0", "Gd", "A0", "X", "Y", "K0", "K")))
        for k in report.checks:
            checks.update(_check_key(k))
        if report["X_positive_definite"].passed:
            head += [_headroom(c.P), _headroom(c.P @ c.Gd + c.Gd.T @ c.P)]
    row["record"] = record.hexdigest()[:16]
    row["checks"] = checks.hexdigest()[:16]
    row["headroom"] = min(head) if head else None
    row["cond_X"] = float(np.linalg.cond(seen[-1][0].X)) if seen else None
    return row


def census(homctl) -> list[dict]:
    """Every row, in table order."""
    return [run_case(homctl, name, A, B, T) for name, A, B in plants() for T in TIMES]


def near_floor(row: dict) -> bool:
    """Whether the row's headroom lies within 10x of the pivot floor."""
    return row["headroom"] is not None and abs(row["headroom"]) < NEAR_FLOOR


def compare(rows: list[dict], table: dict) -> tuple[list[str], list[str]]:
    """``(differences, flips)`` of ``rows`` against ``table``, one line per case.

    Where the table was written on this platform every field must match.
    Elsewhere the outcome and the failed checks must, except that a case
    the table puts near the floor may take the other outcome: a flip, not
    a difference.  The census reproduces when ``differences`` is empty.
    """
    exact = table["platform"] == platform_key()
    fields = ("outcome", "failed", "message", "record", "checks", "headroom", "cond_X") if exact \
        else ("outcome", "failed")
    want = table["rows"]
    if [r["case"] for r in rows] != [r["case"] for r in want]:
        return ["the cases differ from the table's"], []
    diffs, flips = [], []
    for got, ref in zip(rows, want):
        bad = [f for f in fields if got[f] != ref[f]]
        if not bad:
            continue
        line = f"{got['case']}: " + "; ".join(f"{f} {ref[f]!r} -> {got[f]!r}" for f in bad)
        flipped = got["outcome"] != ref["outcome"] or got["failed"] != ref["failed"]
        (flips if flipped and not exact and near_floor(ref) else diffs).append(line)
    return diffs, flips


def load_table() -> dict:
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def write_table(rows: list[dict]) -> None:
    """The table as JSON, one row per line."""
    head = json.dumps({"platform": platform_key(), "cases": len(rows)})[:-1]
    body = ",\n".join(json.dumps(r) for r in rows)
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write(f'{head}, "rows": [\n{body}\n]}}\n')


def summary(rows: list[dict]) -> str:
    counts = collections.Counter(r["outcome"] + (f" ({', '.join(r['failed'])})" if r["failed"] else "") for r in rows)
    near = sum(near_floor(r) for r in rows)
    return "\n".join([f"{len(rows)} cases, {near} within 10x of the pivot floor"]
                     + [f"  {v:5d}  {k}" for k, v in counts.most_common()])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write the table")
    mode.add_argument("--compare", action="store_true", help="diff a run against the table case by case")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    import homctl
    import homctl.synthesis

    rows = census(homctl)
    print(summary(rows))
    if args.write:
        write_table(rows)
        return 0
    table = load_table()
    diffs, flips = compare(rows, table)
    exact = "every field" if table["platform"] == platform_key() else "outcomes only (another platform)"
    print(f"compared with {TABLE}, {exact}: {len(diffs)} case(s) differ, "
          f"{len(flips)} near the floor took the other outcome")
    for line in diffs + [f"near the floor: {f}" for f in flips]:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
