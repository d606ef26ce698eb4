"""Time the start-up import of ``chainstab.cli`` in two or more source trees.

Usage: python3 tools/import_time.py OLD_SRC NEW_SRC [SRC_DIR ...] [--runs N] [--modules]

Runs the benchmark's own start-up timing (``SETUP_CODE`` of
``bench/run.py``, read from that file, not imported) in fresh
``python -I`` interpreters, N times per tree (default 20).  Each round
times every tree once, in alternating order, so that a slow stretch of
the machine falls on all of them alike.  One uncounted run per tree comes
first, so byte-code caches are written before timing.  For each tree it
prints the median and the quartiles of the import time, in ms, and the
modules that importing ``chainstab.cli`` added to ``sys.modules``.  Each
tree after the first is then set against the first, as
``tools/bench_pairs.py`` states a claim: the ratio of the medians (that
tree over the first) and the number of rounds each of the two was faster
in (ties count for neither).

With ``--modules``, each round also imports ``chainstab.cli`` once per
tree under ``python -X importtime``, in the same order, and the tool
prints the median self time of each ``chainstab.*`` module, in ms, one
column per tree, so that start-up is attributed by module.  Those runs
are separate from the timed ones, whose numbers ``-X importtime`` would
inflate.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import chainstab.cli"
ADDED_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
              "import chainstab.cli; print(' '.join(sorted(set(sys.modules) - before)))")


def setup_code() -> str:
    """The value of ``SETUP_CODE`` in ``bench/run.py``."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SETUP_CODE"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no SETUP_CODE assignment in {RUN_PY}")


def child(code: str, src: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", *flags, "-c", code, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)


def module_self_times(src: Path) -> dict[str, float]:
    """The self time in ms of each ``chainstab.*`` module that importing
    ``chainstab.cli`` from ``src`` loads, as ``-X importtime`` reports it."""
    times = {}
    for line in child(IMPORT_CODE, src, "-X", "importtime").stderr.splitlines():
        # import time: self [us] | cumulative | imported package
        self_us, _, name = line.partition(":")[2].split("|")
        if name.strip().startswith("chainstab"):
            times[name.strip()] = int(self_us) / 1000
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="SRC_DIR",
                        help="a source tree holding chainstab/cli.py")
    parser.add_argument("--runs", type=int, default=20, help="timed imports per tree")
    parser.add_argument("--modules", action="store_true",
                        help="also print each chainstab module's median self time")
    args = parser.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "chainstab" / "cli.py").is_file():
            parser.error(f"{tree} holds no chainstab/cli.py")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    code = setup_code()
    for tree in trees:
        child(code, tree)
    times = {tree: [] for tree in trees}
    modules = {tree: [] for tree in trees}
    for i in range(args.runs):
        for tree in (trees if i % 2 == 0 else trees[::-1]):
            times[tree].append(float(child(code, tree).stdout) * 1000)
            if args.modules:
                modules[tree].append(module_self_times(tree))
    medians = {}
    for tree in trees:
        q1, medians[tree], q3 = statistics.quantiles(times[tree], n=4)
        print(f"{tree}: median {medians[tree]:.2f} ms [q1 {q1:.2f}, q3 {q3:.2f}] "
              f"over {args.runs} imports")
        print(f"  added: {child(ADDED_CODE, tree).stdout.strip()}")
    first = trees[0]
    for tree in trees[1:]:
        won = sum(t < f for f, t in zip(times[first], times[tree]))
        lost = sum(t > f for f, t in zip(times[first], times[tree]))
        print(f"{tree} against {first}: ratio of medians {medians[tree] / medians[first]:.3f}, "
              f"faster in {won} of {args.runs} rounds, slower in {lost}")
    if args.modules:
        names = sorted({name for tree in trees for run in modules[tree] for name in run})
        print(f"self time per module, median over {args.runs} imports, ms "
              f"(trees in the order given):")
        for name in names:
            cells = [f"{statistics.median(run.get(name, 0.0) for run in modules[tree]):8.3f}"
                     for tree in trees]
            print(f"  {name:<24}{''.join(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
