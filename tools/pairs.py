"""Alternating-pairs comparison of two commits of this repository.

Usage, from anywhere inside the repository:

    python3 tools/pairs.py --base <git ref> [--change <git ref>] --workload W --pairs 10 \
        --seed S [--seconds 45]

The tool measures commits, not uncommitted edits: commit a change before
comparing it.  ``--change`` defaults to ``HEAD``.  Each ref is checked out
the same way, by ``git worktree add`` into a sibling directory of one
temporary directory, so neither side runs from a path laid out differently
from the other's.  Pair i runs
``perfbench/run.py --workload W --seed S+i --seconds ... --trace 0`` once on
each side, the base first on even pairs and the change first on odd
ones, so drift in the host's speed falls on both sides alike.  Standard
output is one JSON object: for each end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, how many pairs the change won (by the
metric's ``better`` direction), whether the gap between the medians
exceeds the base's interquartile range, and whether the change's median is
worse than the base's by more than the metric's ``bound`` times the base's
median (``worse_beyond_bound``), and whether the base's own interquartile
range is wider than that bound times its median, so that a gap within it
says nothing, unless every change run beats every base run
(``unresolved``); for each side, the failed operations the runs reported
and the runs that printed no result line; and ``pairs``,
one entry per pair with its seed, the side that ran ``first`` and each
side's value of every end-to-end metric (null for a run with no result
line), so a gap can be traced to the pairs that made it.
Both worktrees are removed on every exit.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git ref to compare against")
    p.add_argument("--change", default="HEAD", help="git ref to measure (default HEAD)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=45)
    return p.parse_args(argv)


def result_line(stdout):
    """The benchmark's result object (its last stdout line), or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values):
    """(first quartile, median, third quartile), interpolating between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better, bounds):
    """The summary of ``pairs``, a list of {"base": result, "change": result}
    where a result is a parsed result line or None; ``better`` maps each
    metric to "lower" or "higher", and ``bounds`` to its bound fraction."""
    failed = {side: {"operations": sum(p[side]["failed"] for p in pairs if p[side]),
                     "runs_without_result": sum(1 for p in pairs if not p[side])}
              for side in SIDES}
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if p[side] and name in p[side]["metrics"]] for side in SIDES}
        if not all(values.values()):
            continue
        both = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs if p["base"] and p["change"]
                and name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        sign = 1 if direction == "lower" else -1
        entry = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": len(values[side])}
        entry["change_wins"] = sum(1 for b, c in both if sign * (b - c) > 0)
        entry["pairs_compared"] = len(both)
        gap = sign * (entry["base"]["median"] - entry["change"]["median"])
        entry["median_gap_beyond_base_iqr"] = gap > entry["base"]["q3"] - entry["base"]["q1"]
        entry["worse_beyond_bound"] = -gap > bounds[name] * abs(entry["base"]["median"])
        entry["unresolved"] = (
            entry["base"]["q3"] - entry["base"]["q1"] > bounds[name] * abs(entry["base"]["median"])
            and not all(sign * (b - c) > 0 for b in values["base"] for c in values["change"]))
        metrics[name] = entry
    return {"metrics": metrics, "failed": failed}


def per_pair(pairs, names):
    """One entry per pair of ``pairs`` (each holding "seed", "first" and a result
    per side, as in ``summarize``): the seed, the side that ran first, and each
    side's value of every metric in ``names`` it reported, or None without a result."""
    return [{"seed": p["seed"], "first": p["first"],
             **{side: p[side] and {name: p[side]["metrics"][name]["value"]
                                   for name in names if name in p[side]["metrics"]}
                for side in SIDES}}
            for p in pairs]


def run_side(root, workload, seed, seconds):
    done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    return result_line(done.stdout)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None):
    args = parse_args(argv)
    if args.pairs < 1:
        print(f"error: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.base, args.change))}
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the finally below runs
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                _git("worktree", "add", "--detach", str(roots[side]), commits[side])
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                pair.update((side, run_side(roots[side], args.workload, seed, args.seconds))
                            for side in order)
                pairs.append(pair)
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        finally:
            for root in roots.values():
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                str(root)], capture_output=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
    summary = summarize(pairs, better, bounds)
    print(json.dumps({"workload": args.workload, "base": args.base, "change": args.change,
                      "base_commit": commits["base"], "change_commit": commits["change"],
                      "seeds": [args.seed, args.seed + args.pairs - 1], **summary,
                      "pairs": per_pair(pairs, better)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
