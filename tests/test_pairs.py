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
