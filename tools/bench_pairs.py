"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W
           [--pairs N] [--seed S] [--seconds T]

Copies each checkout's ``src``, ``bench`` and ``BENCHMARK.json`` into a
temporary directory of its own, under names of equal length, and compiles
them there, so that nothing is written into either checkout and the two
sides differ only in their code.  Each pair then runs both copies' own
``bench/run.py --workload W --seed S --seconds T --trace 0``, one after the
other, in ABBA order: the parent first in odd pairs and the change first in
even ones, so that a machine whose speed drifts during the run favours
neither side.  The last line a run prints is its result.

Metric names and directions are read from the ``end_to_end`` list of the
parent's ``BENCHMARK.json``.  Each run's values go to standard error as it
finishes; standard output gets one line per metric: the median and the
quartiles of each side, the ratio of the medians (change over parent) and
the number of pairs the change won (ties win for neither side).  Exits 1 if
a run reports ``correct: false`` or a failed op, 2 on a usage error.
Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COPIED = ("src", "bench", "BENCHMARK.json")


def copy_checkout(checkout: Path, dest: Path) -> Path:
    """The benchmark's inputs of ``checkout``, copied to ``dest`` and compiled."""
    for name in COPIED:
        source = checkout / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, dest / name)
    compileall.compile_dir(dest, quiet=1)
    return dest


def run_once(root: Path, args) -> dict:
    """The result line of one ``bench/run.py`` run in ``root``."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for side, checkout in checkouts.items():
        if not all((checkout / name).exists() for name in COPIED):
            parser.error(f"{side} checkout {checkout} lacks one of {', '.join(COPIED)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]

    values = {side: {name: [] for name, _, _ in metrics} for side in SIDES}
    bad = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: copy_checkout(checkouts[side], Path(tmp) / side) for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in (SIDES if pair % 2 else SIDES[::-1]):
                result = run_once(roots[side], args)
                if not result["correct"] or result["failed"]:
                    bad.append(f"pair {pair} {side}: correct={result['correct']} "
                               f"failed={result['failed']} of {result['attempted']}")
                for name, _, _ in metrics:
                    values[side][name].append(result["metrics"][name]["value"])
                shown = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                                 for name, _, _ in metrics)
                print(f"pair {pair} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s per run, "
          f"{args.pairs} pairs")
    for name, unit, better in metrics:
        parent, change = values["parent"][name], values["change"][name]
        sign = 1 if better == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(parent), spread(change)
        ratio = f"{cm / pm:.3f}" if pm else "n/a"
        print(f"{name} ({unit}, {better} is better): parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}] "
              f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] ratio {ratio} "
              f"change won {won} of {args.pairs}")
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
