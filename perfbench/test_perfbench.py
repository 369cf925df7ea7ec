"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _written(workload, seed, directory):
    tables = workloads.setup_tables(workload, seed, directory)
    return [{name: (inputs.directory / name).read_bytes()
             for name in (workloads.TABLE, workloads.SCHEMA, workloads.CONFIG)}
            for inputs in tables]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path, workload):
    first = _written(workload, 3, tmp_path / "a")
    assert _written(workload, 3, tmp_path / "b") == first
    other = _written(workload, 4, tmp_path / "c")
    tables = {t[workloads.TABLE] for t in first + other}
    assert len(tables) == 2 * workloads.TABLES


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [Span(0, None, 0, "cli.main", 0.0, 10.0),
             Span(1, 0, 0, "training.train", 1.0, 4.0),
             Span(2, 1, 0, "tensor.matmul", 2.0, 2.5),
             Span(3, 0, 0, "evaluation.rf_fit", 3.5, 6.0),  # overlaps its sibling
             Span(4, 0, 0, "evaluation.rf_predict", 8.0, 12.0)]  # runs past its parent
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - (6.0 - 1.0) - (10.0 - 8.0), 1: 2.5, 2: 0.5,
                                 3: 2.5, 4: 4.0})


def test_layer_metrics_average_over_cells_and_split_self_time_by_layer():
    tracer = tracing.Tracer(targets=[])
    for cell, offset in ((0, 0.0), (1, 100.0)):
        base = 10 * cell
        tracer.spans += [Span(base, None, cell, "cli.main", offset, offset + 10.0),
                         Span(base + 1, base, cell, "training.train", offset + 1, offset + 7),
                         Span(base + 2, base + 1, cell, "training.rmsprop",
                              offset + 2, offset + 3),
                         Span(base + 3, base + 1, cell, "tensor.matmul", offset + 4, offset + 5),
                         Span(base + 4, base + 1, cell, "training.validation",
                              offset + 5, offset + 6.5),
                         Span(base + 5, base + 4, cell, "tensor.add", offset + 5, offset + 6)]
    tracer.measures += [(0, "training.epoch", [1.0, 2.0]), (1, "training.epoch", [3.0]),
                        (0, "tensor.matmul_flops", 8.0), (1, "tensor.matmul_flops", 8.0)]
    out = tracing.layer_metrics(tracer, [0, 1], overhead_ratio=1.25)
    assert out["cli.cell_self_s"] == pytest.approx(4.0)
    assert out["training.self_s"] == pytest.approx(2.5 + 1.0 + 0.5)
    assert out["tensor.self_s"] == pytest.approx(2.0)
    assert out["training.train_s"] == pytest.approx(6.0)
    assert out["training.steps"] == 1.0
    assert out["tensor.op_calls_per_step"] == 1.0  # the add sits under validation
    assert out["tensor.matmul_flops"] == 8.0
    assert out["training.epoch_s"] == 2.0
    assert out["training.epoch_samples"] == 3.0
    assert out["training.epoch_tail_s"] == 0.0  # fewer than 11 samples
    assert out["trace.overhead_ratio"] == 1.25
    assert set(out) == set(tracing.per_layer_units())


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(range(10)) == (None, None)
    assert tracing.tail_percentile(range(20)) == (9, 50.0)
    assert tracing.tail_percentile(range(100)) == (89, 90.0)


def test_names_and_units_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


def test_traced_run_reports_every_layer_metric_and_leaves_nothing_wrapped(capsys):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracing.default_targets()]
    originals.append((workloads.cli, "_impute_all", workloads.cli._impute_all))
    code = run.main(["--workload", "egg-impute", "--seed", "5", "--seconds", "1",
                     "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.per_layer_units())
    assert result["metrics"]["tensor.matmul_calls"]["value"] > 0
    assert result["metrics"]["objectives.triplet_calls"]["value"] == 0
    assert result["metrics"]["evaluation.rf_fit_calls"]["value"] == 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{attr} is still wrapped"
