"""Pipeline benchmark for eggimpute.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload egg-impute --seed 0 --seconds 45 --trace 0

One process, one client, closed loop: after set-up and one untimed
reference cell, the benchmark runs cells of the workload back to back
until ``--seconds`` have passed, checks each cell's outputs, and prints
every metric.  The timed cells cycle through tables generated from
``--seed``.  The reference cell runs on a fixed table and warms the
process up; the quality metrics come from it, so they read the same in
every run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run spends half
its time on untraced cells and half on traced ones, and reports the
per-layer metrics from the traced cells together with the tracing
overhead.  Lines before the last hold the environment and the metrics
that exist only on some workloads.  Work files go under ``.perfbench/``
in the checkout and are removed at exit; traced runs leave their spans
there as ``trace-<workload>-seed<seed>.jsonl.gz``.

The benchmark unsets ``EGGIMPUTE_OUT`` for its own process, because that
variable silently overrides the ``--out`` flag every cell passes.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 8

END_TO_END = {"setup_s": "s", "cell_s": "s", "impute_rows_per_s": "1/s", "rmse": "1",
              "peak_rss_mb": "MB"}
# Defined only on some workloads, so printed but not in the result line.
WORKLOAD_ONLY = {"train_rows_per_s": "1/s", "downstream_accuracy": "1", "cat_accuracy": "1",
                 "failed_frac": "1"}

# Runs in a fresh interpreter: import, generate, write and load the tables.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup_tables(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "blas_threads_effective": _blas_threads(),
            "cpu_model": cpu, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def setup_samples(workload, seed, run_dir):
    samples = []
    for i in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", _PROBE, str(HERE), str(SRC), workload,
                               str(seed), str(run_dir / f"probe{i}")],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "eggimpute" / "__init__.py").is_file():
        print(f"error: no eggimpute sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EGGIMPUTE_OUT", None)
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        tables = workloads.setup_tables(args.workload, args.seed, run_dir / "seeded")
        setup = [time.perf_counter() - t_start]
        setup += setup_samples(args.workload, args.seed, run_dir)
        reference = workloads.setup(args.workload, workloads.REFERENCE_SEED,
                                    run_dir / "reference")
        report = measure(workloads, reference, tables, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["environment"] = environment()
    report["setup_samples_s"] = setup
    return emit(report, args, setup)


def measure(workloads, reference, tables, args):
    """Reference cell, then timed cells; traced cells in the second half if asked.

    Timed cells cycle through the seed's tables.  A traced run keeps to
    the first table, so its counts repeat exactly and its traced and
    untraced cells do the same work.
    """
    import tracing
    cells, errors = [], []
    first = {}  # table directory -> fingerprint of its first timed cell
    if args.trace:
        tables = tables[:1]

    def one(label, inputs, tracer=None):
        out = f"cell{len(cells)}"
        if tracer is not None:
            tracer.cell = len(cells)
        try:
            cell = workloads.run_cell(inputs, out)
        except Exception as err:  # a crashing cell is a failed cell; keep measuring
            cell = workloads.Cell(errors=[f"raised {err!r}"])
        workloads.check_cell(inputs, out, cell)
        if label != "reference" and cell.fingerprint:
            if first.setdefault(inputs.directory, cell.fingerprint) != cell.fingerprint:
                cell.errors.append("outputs differ from the first timed cell's on this table")
        shutil.rmtree(inputs.directory / out, ignore_errors=True)
        for e in cell.errors:
            errors.append(f"cell {len(cells)} ({label}): {e}")
            print(f"error: cell {len(cells)} ({label}): {e}", file=sys.stderr)
        cells.append((label, cell))

    with workloads.captured_imputations() as seen:
        one("reference", reference)
    for e in workloads.check_imputations(seen):
        cells[0][1].errors.append(e)
        errors.append(f"cell 0 (reference): {e}")

    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    while time.perf_counter() < untraced_until or len(cells) < 2:
        one("timed", tables[(len(cells) - 1) % len(tables)])
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while time.perf_counter() < start + args.seconds or cells[-1][0] != "traced":
                one("traced", tables[0], tracer)
        finally:
            tracer.uninstall()
        still = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.targets
                 if tracing.is_traced(getattr(owner, attr, None))]
        if still:
            errors.append(f"still wrapped after the traced run: {still}")
    return {"cells": cells, "errors": errors, "tracer": tracer}


def emit(report, args, setup):
    import tracing
    cells = report["cells"]
    reference = cells[0][1] if not cells[0][1].errors else None
    timed = [c for label, c in cells if label == "timed" and not c.errors]
    attempted = len(cells)
    failed = sum(1 for _, c in cells if c.errors)
    correct = not report["errors"]
    values = {
        "setup_s": _median(setup),
        "cell_s": _median([c.cell_s for c in timed]),
        "impute_rows_per_s": _median([c.impute_rows_per_s for c in timed]),
        "rmse": reference.rmse if reference else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_rows_per_s": _median([c.train_rows_per_s for c in timed
                                     if c.train_rows_per_s is not None]),
        "downstream_accuracy": reference.downstream_accuracy if reference else None,
        "cat_accuracy": reference.cat_accuracy if reference else None,
        "failed_frac": failed / attempted,
    }
    stages = {}
    for c in timed:
        for stage, seconds in c.stages.items():
            stages.setdefault(f"stage.{stage}_s", []).append(seconds)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "cells": {"reference": 1, "timed": len(timed),
                         "traced": sum(1 for label, _ in cells if label == "traced")},
               "cell_s_samples": [c.cell_s for c in timed],
               "metrics": {k: {"value": v, "unit": {**END_TO_END, **WORKLOAD_ONLY}[k]}
                           for k, v in values.items() if v is not None},
               "stages_median_s": {k: _median(v) for k, v in stages.items()},
               "seeded_quality": {k: getattr(timed[0], k) for k in
                                  ("rmse", "downstream_accuracy", "cat_accuracy")}
               if timed else None,
               "setup_samples_s": report["setup_samples_s"],
               "errors": report["errors"]}
    if report["tracer"] is not None:
        summary["not_traced"] = report["tracer"].missing
    print(json.dumps({"environment": report["environment"]}))
    print(json.dumps(summary))

    if args.trace:
        tracer = report["tracer"]
        traced = [i for i, (label, c) in enumerate(cells) if label == "traced"]
        traced_s = _median([cells[i][1].cell_s for i in traced])
        overhead = traced_s / values["cell_s"] if traced_s and values["cell_s"] else 0.0
        layer = tracing.layer_metrics(tracer, traced, overhead)
        units = tracing.per_layer_units()
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        write_spans(args, report, tracer)
    else:
        missing = [k for k in END_TO_END if values[k] is None]
        if missing:
            print(f"error: no successful timed cell to measure {missing}", file=sys.stderr)
            return 1
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_spans(args, report, tracer):
    """Spans as JSON lines: [id, parent, cell, name, start, end]."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"environment": report["environment"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.as_list()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
