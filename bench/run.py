"""chainstab benchmark: each workload is measured in a child process of its own.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads and metrics are described in ``BENCHMARK.json`` and
``bench/METRICS.md``.  With ``--trace 0`` the last line of standard output
is the end-to-end result, with ``--trace 1`` the per-layer one; without
``--workload`` every workload runs, each in its own child, and prints its
own line.  A readable summary goes to standard error, and ``--report FILE``
also writes every detail (environment, histograms, counts, spans) as JSON.
Uses the standard library only and runs the sources under ``src/``, never
an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from program import ROOT, SRC

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170          # the whole run, child included, ends before this
SETUP_RUNS = 7

# Times the import a command-line process pays before its first op.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import chainstab.cli; "
              "print(time.perf_counter() - t)")


def setup_seconds() -> list[float]:
    """Import time of ``chainstab.cli`` in fresh interpreters; the first run,
    which may write byte-code caches, is not counted."""
    out = []
    for i in range(SETUP_RUNS + 1):
        res = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            out.append(float(res.stdout))
    return out


def git_sha() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(args, workload: str) -> dict:
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": workload, "seconds": args.seconds, "trace": args.trace}


def summary(env: dict, result: dict, details: dict) -> str:
    lines = [" ".join(f"{k}={v}" for k, v in env.items())]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in details:
        lines.append(f"  op_ms_tail is p{details['tail_percentile']}; {details['samples']} "
                     f"samples over {details['passes']} passes in {details['blocks']} blocks")
    if "fail_ratio" in details:
        lines.append(f"  fail_ratio {details['fail_ratio']:.6g} ratio "
                     f"({result['failed']} of {result['attempted']} ops)")
    if "setup_runs" in details:
        lines.append(f"  setup_s runs: {', '.join(f'{s:.4f}' for s in details['setup_runs'])}")
    if "counts_per_pass" in details:
        lines.append(f"  cProfile counts per pass {details['counts_per_pass']}, repeat "
                     f"exactly: {details['counts_repeat_exactly']}")
    lines.append(f"  output mix {details['mix']}")
    lines.append(f"  evidence conflicts {details['conflicts']}")
    lines += ["  " + line for line in details["oracle_lines"]]
    for item in details["problems"]:
        lines.append(f"  FAILED op {item['op']} ({item['command']}): {item['problems']}")
    for missed in details["selftest_missed"]:
        lines.append(f"  SELFTEST {missed}")
    return "\n".join(lines)


def run_workload(args, workload: str) -> tuple[dict, dict]:
    """(result line, details) of one workload, measured in its own child."""
    started = time.monotonic()
    workloads.build(workload, args.seed)     # refuses oversized work before any run
    setup = setup_seconds() if args.trace == 0 else []
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.report:
        cmd.append("--spans")
    try:
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload {workload} did not finish in time")
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: worker for {workload} exited with {child.returncode}")
    out = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out["metrics"].items()}
    details = out["details"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        details["setup_runs"] = setup
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *sorted(workloads.WORKLOADS)],
                        help="one workload, or all of them one after the other (default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write every detail to this JSON file")
    args = parser.parse_args()
    if not (SRC / "chainstab" / "cli.py").is_file():
        print(f"error: no chainstab sources under {SRC}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("error: --seconds must be between 1 and 60", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    report = []
    lines = []
    for name in names:
        result, details = run_workload(args, name)
        env = environment(args, name)
        print(summary(env, result, details), file=sys.stderr)
        report.append({"environment": env, "result": result, "details": details})
        lines.append(json.dumps(result if len(names) == 1 else dict(workload=name, **result)))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
