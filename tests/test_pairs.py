"""The summary math of ``tools/pairs.py`` on canned result lines."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _line(cell_s, rate, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 20, "failed": failed,
                       "metrics": {"cell_s": {"value": cell_s, "unit": "s"},
                                   "impute_rows_per_s": {"value": rate, "unit": "1/s"}}})


BETTER = {"cell_s": "lower", "impute_rows_per_s": "higher", "rmse": "lower"}
BOUNDS = {"cell_s": 0.25, "impute_rows_per_s": 0.25, "rmse": 0.01}


def test_result_line_is_the_last_json_object_or_none():
    assert pairs.result_line('{"environment": {}}\n' + _line(2.0, 10.0))["failed"] == 0
    assert pairs.result_line("") is None
    assert pairs.result_line("Traceback (most recent call last):\n  boom") is None
    assert pairs.result_line('{"environment": {}}') is None  # no metrics: not a result


def test_quartiles_interpolate_between_ranks():
    assert pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summary_counts_wins_by_direction_and_failures_per_side():
    base = [_line(3.0, 10.0), _line(2.8, 12.0), _line(3.2, 11.0), _line(2.9, 9.0, failed=1)]
    change = [_line(2.0, 11.0), _line(2.9, 13.0), _line(2.1, 10.0), None]
    summary = pairs.summarize([{"base": pairs.result_line(b),
                                "change": c and pairs.result_line(c)}
                               for b, c in zip(base, change)], BETTER, BOUNDS)
    cell = summary["metrics"]["cell_s"]
    assert cell["base"] == {"median": 2.95, "q1": 2.875, "q3": 3.05, "runs": 4}
    assert cell["change"] == {"median": 2.1, "q1": 2.05, "q3": 2.5, "runs": 3}
    assert (cell["change_wins"], cell["pairs_compared"]) == (2, 3)
    assert cell["median_gap_beyond_base_iqr"]  # 0.85 > 0.175
    rate = summary["metrics"]["impute_rows_per_s"]
    assert (rate["change_wins"], rate["pairs_compared"]) == (2, 3)  # higher is better
    assert not rate["median_gap_beyond_base_iqr"]  # the change's median is lower
    assert "rmse" not in summary["metrics"]  # no run reported it
    assert summary["failed"] == {"base": {"operations": 1, "runs_without_result": 0},
                                 "change": {"operations": 0, "runs_without_result": 1}}


def test_a_tie_is_no_win_either_way():
    same = pairs.result_line(_line(2.0, 10.0))
    for direction in ("lower", "higher"):
        cell = pairs.summarize([{"base": same, "change": same}],
                               {"cell_s": direction}, {"cell_s": 0.0})["metrics"]["cell_s"]
        assert cell["change_wins"] == 0 and not cell["median_gap_beyond_base_iqr"]


def test_worse_beyond_bound_compares_the_median_gap_with_bound_times_the_base_median():
    """The reading that refused two changes on ``setup_s`` alone: +27% and +32%
    against a bound of 0.25.  A better median is never worse beyond it."""
    def median_pair(name, base, change):
        return [{"base": {"failed": 0, "metrics": {name: {"value": base}}},
                 "change": {"failed": 0, "metrics": {name: {"value": change}}}}]

    cases = [("lower", 0.25, 0.268, 0.340, True), ("lower", 0.25, 0.355, 0.469, True),
             ("lower", 0.25, 0.4, 0.49, False), ("lower", 0.25, 0.4, 0.1, False),
             ("higher", 0.25, 100.0, 74.0, True), ("higher", 0.25, 100.0, 76.0, False),
             ("higher", 0.25, 100.0, 200.0, False), ("lower", 0.01, 0.62, 0.6263, True)]
    for better, bound, base, change, worse in cases:
        entry = pairs.summarize(median_pair("m", base, change), {"m": better},
                                {"m": bound})["metrics"]["m"]
        assert entry["worse_beyond_bound"] is worse, (better, bound, base, change)


def test_per_pair_gives_each_pairs_seed_order_and_values():
    """Both orders, a run without a result line, and a metric one side lacks."""
    runs = [{"seed": 300, "first": "base", "base": pairs.result_line(_line(3.0, 10.0)),
             "change": pairs.result_line(_line(2.5, 12.0))},
            {"seed": 301, "first": "change", "base": pairs.result_line(_line(3.1, 11.0)),
             "change": None},
            {"seed": 302, "first": "base",
             "base": {"failed": 0, "metrics": {"cell_s": {"value": 2.9}}},
             "change": pairs.result_line(_line(2.7, 9.0))}]
    assert pairs.per_pair(runs, BETTER) == [
        {"seed": 300, "first": "base", "base": {"cell_s": 3.0, "impute_rows_per_s": 10.0},
         "change": {"cell_s": 2.5, "impute_rows_per_s": 12.0}},
        {"seed": 301, "first": "change", "base": {"cell_s": 3.1, "impute_rows_per_s": 11.0},
         "change": None},
        {"seed": 302, "first": "base", "base": {"cell_s": 2.9},
         "change": {"cell_s": 2.7, "impute_rows_per_s": 9.0}}]
    summary = pairs.summarize(runs, BETTER, BOUNDS)  # the extra keys change nothing
    assert summary["metrics"]["cell_s"]["change_wins"] == 2


def test_unresolved_when_the_base_spreads_wider_than_the_bound_unless_the_change_wins_every_run():
    """Ten self-pairs of one commit read ``setup_s`` from 0.224 to 0.472 s, an
    interquartile range wider than a quarter of the median, so a 0.25 bound cannot
    tell a change from noise; it can when every change run beats every base run."""
    def runs(name, base, change):
        return [{"base": {"failed": 0, "metrics": {name: {"value": b}}},
                 "change": {"failed": 0, "metrics": {name: {"value": c}}}}
                for b, c in zip(base, change)]

    wide = [0.224, 0.30, 0.36, 0.405, 0.472]  # iqr 0.105 > 0.25 * 0.36
    narrow = [0.34, 0.35, 0.36, 0.37, 0.38]  # iqr 0.02
    cases = [("lower", wide, [0.25, 0.35, 0.40, 0.45, 0.30], True),
             ("lower", wide, [0.20, 0.21, 0.22, 0.21, 0.20], False),  # each below 0.224
             ("lower", wide, [0.20, 0.21, 0.23, 0.21, 0.20], True),  # 0.23 > 0.224
             ("lower", narrow, [0.50, 0.51, 0.52, 0.50, 0.51], False),  # resolved, and worse
             ("higher", [100.0, 40.0, 160.0, 70.0, 130.0], [170.0] * 5, False),  # iqr 60
             ("higher", [100.0, 40.0, 160.0, 70.0, 130.0], [120.0] * 5, True)]
    for better, base, change, unresolved in cases:
        entry = pairs.summarize(runs("m", base, change), {"m": better},
                                {"m": 0.25})["metrics"]["m"]
        assert entry["unresolved"] is unresolved, (better, base, change)
