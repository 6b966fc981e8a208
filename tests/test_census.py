"""The synthesis census reproduces its committed table case by case (tests/census.py)."""

import copy

import census
import homctl
import homctl.synthesis


def test_census_reproduces_the_committed_table():
    # every field of every case, the outcome included, where the table was
    # written on this platform; elsewhere the outcome and the failed checks,
    # and a case the table puts within 10x of the Cholesky pivot floor may
    # take either outcome there
    diffs, _ = census.compare(census.census(homctl), census.load_table())
    assert not diffs, "\n".join(diffs)


def test_census_table_covers_every_case():
    table = census.load_table()
    cases = [f"{name}-T{T:g}" for name, _, _ in census.plants() for T in census.TIMES]
    assert len(cases) == table["cases"] == 1377
    assert [r["case"] for r in table["rows"]] == cases


def _table(*rows, platform=None):
    return {"platform": platform or census.platform_key(), "cases": len(rows), "rows": list(rows)}


def _row(outcome="ok", headroom=1e6, record="r0"):
    return {"case": "c", "outcome": outcome, "failed": [] if outcome == "ok" else ["X_positive_definite"],
            "message": "", "record": record, "checks": "k0", "headroom": headroom, "cond_X": 2.0}


def _other_platform():
    other = copy.deepcopy(census.platform_key())
    other["numpy"] += "-other"
    return other


def test_compare_on_another_platform_lets_only_a_case_the_table_puts_near_the_floor_flip():
    other = _other_platform()
    diffs, flips = census.compare([_row("InfeasibleError", headroom=11.0)], _table(_row(headroom=9.0), platform=other))
    assert (diffs, len(flips)) == ([], 1)
    # the run's headroom does not count: a regression drags a case towards the floor
    diffs, flips = census.compare([_row("InfeasibleError", headroom=9.0)], _table(_row(headroom=11.0), platform=other))
    assert (len(diffs), flips) == (1, [])


def test_compare_on_the_table_platform_lets_no_case_flip():
    # a run there is bit-deterministic, so only a code change moves a case near the floor
    diffs, flips = census.compare([_row("InfeasibleError", headroom=9.0)], _table(_row(headroom=9.0)))
    assert (len(diffs), flips) == (1, [])
    assert "outcome" in diffs[0]


def test_compare_holds_a_case_near_the_floor_to_the_table_when_it_keeps_its_outcome():
    diffs, _ = census.compare([_row(headroom=9.0, record="r1")], _table(_row(headroom=9.0)))
    assert len(diffs) == 1 and "record" in diffs[0]


def test_compare_on_another_platform_holds_outcomes_only():
    other = _other_platform()
    diffs, flips = census.compare([_row(record="r1")], _table(_row(), platform=other))
    assert (diffs, flips) == ([], [])
    diffs, _ = census.compare([_row("SynthesisError")], _table(_row(), platform=other))
    assert len(diffs) == 1 and "outcome" in diffs[0]
