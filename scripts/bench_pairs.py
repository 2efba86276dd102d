#!/usr/bin/env python3
"""Run ``perfbench/run.py`` alternately in two checkouts and record the runs.

Usage, from anywhere (standard library only)::

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_12.json \\
        [--pairs 10] [--seconds 30]

PARENT and CHANGE are checkout roots; they may be the same directory.  The
workloads and the default run length come from CHANGE's ``BENCHMARK.json``;
every run uses seed 0.  For each workload, each pair runs both sides
untraced, the parent first in even pairs and the change first in odd ones,
so drift favours neither.  The output JSON holds each checkout's git commit
and ``src/`` tree (with ``dirty`` set when the working tree differs from the
commit), the Python version, the CPU count, every run's digest line and
last-line JSON, each side's failed operations and runs not ``correct``, and
per metric: the medians and quartiles of each side and the pairs the change
won (by the ``better`` direction that ``BENCHMARK.json`` declares).  The exit
status is 1 when any run is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 0


def git(root: Path, *argv: str) -> str | None:
    done = subprocess.run(["git", "-C", str(root), *argv], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def checkout(root: Path) -> dict:
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        "src_tree": git(root, "rev-parse", "HEAD:src"),
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
    }


def run_once(root: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    return {
        "digest": next((line for line in lines if line.startswith("digest ")), None),
        "oracle": next((line for line in lines if line.startswith("oracle: ")), None),
        "result": json.loads(lines[-1]),
    }


def summary(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    def values(side, name):
        return [run["result"]["metrics"][name]["value"] for run in runs[side]]

    def spread(xs):
        low, _, high = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        return {"median": statistics.median(xs), "quartiles": [low, high]}

    metrics = {}
    for name, direction in better.items():
        before, after = values("parent", name), values("change", name)
        sign = 1 if direction == "higher" else -1
        metrics[name] = {
            "better": direction,
            "parent": spread(before),
            "change": spread(after),
            "change_won": sum(sign * (b - a) > 0 for a, b in zip(before, after)),
            "pairs": len(before),
        }
    return {
        "failed": {side: sum(run["result"]["failed"] for run in runs[side]) for side in runs},
        "not_correct": {side: sum(run["result"]["correct"] is not True for run in runs[side])
                        for side in runs},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    record = {
        "parent": checkout(args.parent),
        "change": checkout(args.change),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
                print(f"{workload} pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr)
                runs[side].append(run_once(getattr(args, side), workload, seconds))
        record["workloads"][workload] = {"runs": runs, **summary(runs, better)}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return int(any(sum(w["not_correct"].values()) for w in record["workloads"].values()))


if __name__ == "__main__":
    raise SystemExit(main())
