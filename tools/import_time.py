"""Time the start-up import of ``chainstab.cli`` in two or more source trees.

Usage: python3 tools/import_time.py SRC_DIR [SRC_DIR ...]

Runs the benchmark's own start-up timing (``SETUP_CODE`` of
``bench/run.py``, read from that file, not imported) in fresh
``python -I`` interpreters, 20 times per tree, alternating the trees so
that a slow stretch of the machine falls on all of them alike.  One
uncounted run per tree comes first, so byte-code caches are written
before timing.  For each tree it prints the median and the quartiles of
the import time, in ms, and the modules that importing ``chainstab.cli``
added to ``sys.modules``.  Standard library only.
"""

from __future__ import annotations

import ast
import statistics
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
RUNS = 20
ADDED_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
              "import chainstab.cli; print(' '.join(sorted(set(sys.modules) - before)))")


def setup_code() -> str:
    """The value of ``SETUP_CODE`` in ``bench/run.py``."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SETUP_CODE"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no SETUP_CODE assignment in {RUN_PY}")


def child(code: str, src: Path) -> str:
    res = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    return res.stdout.strip()


def main(argv: list[str]) -> int:
    trees = [Path(a).resolve() for a in argv[1:]]
    if not trees or not all((t / "chainstab" / "cli.py").is_file() for t in trees):
        print("usage: python3 tools/import_time.py SRC_DIR [SRC_DIR ...]", file=sys.stderr)
        return 2
    code = setup_code()
    for tree in trees:
        child(code, tree)
    times = {tree: [] for tree in trees}
    for i in range(RUNS):
        for tree in (trees if i % 2 == 0 else trees[::-1]):
            times[tree].append(float(child(code, tree)) * 1000)
    for tree in trees:
        q1, median, q3 = statistics.quantiles(times[tree], n=4)
        print(f"{tree}: median {median:.2f} ms [q1 {q1:.2f}, q3 {q3:.2f}] over {RUNS} imports")
        print(f"  added: {child(ADDED_CODE, tree)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
