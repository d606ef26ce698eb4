"""Child process of ``run.py``: runs one workload and prints one JSON line.

Single thread, closed loop, one caller: each op starts when the previous
one has returned.  The pass (see ``workloads``) is repeated until
``--seconds`` have gone by and at least the workload's ``min_passes`` are
complete.  Outputs are hashed inside the loop, outside the op's timer; after
the loop every distinct op runs once more, is verified in full, and must
hash the same as every repeat, so every output is checked.

``--trace 1`` instead runs the pass untraced and traced (see ``layers``)
by turns, then twice under ``cProfile``, and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter

import layers
import program
import selftest
import verify
import workloads

clock = time.perf_counter

CRITERIA = ("kernel-restrictions-semistable", "endpoint-degree-excess", "middle-degree-excess",
            "all-twists-degree-ratio", "two-component-kernel-sections", "genus-bound",
            "weight-system-infeasible", "none")
REFUSALS = ("ContradictoryHypotheses", "UnsupportedData", "ValidationError")


def digest(status: str, text: str) -> bytes:
    return hashlib.blake2b(f"{status}:{text}".encode(), digest_size=16).digest()


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def tail_quantile(workload: str, pass_len: int) -> float:
    """The highest ladder quantile with at least ten samples beyond it in the
    fewest samples a run can take; fixed per workload, so a faster program
    is not judged at a stricter percentile."""
    least = workloads.WORKLOADS[workload].min_passes * pass_len
    return max(q for q in TAIL_LADDER if least * (1 - q) >= 10)


def timed_passes(cli, verr, ops, seconds: float, min_passes: int):
    """Latencies per pass, output digests, ops whose output changed between
    passes, and the peak RSS in MB once the first pass is over: every op has
    run by then, while later passes only grow the stored latencies, which a
    faster program would make look like a larger one."""
    digests = [None] * len(ops)
    unstable = set()
    passes = []
    peak_rss_mb = 0.0
    deadline = clock() + seconds
    while len(passes) < min_passes or clock() < deadline:
        times = []
        for i, op in enumerate(ops):
            start = clock()
            status, text = program.run_op(cli, verr, op)
            times.append(clock() - start)
            d = digest(status, text)
            if digests[i] is None:
                digests[i] = d
            elif digests[i] != d:
                unstable.add(i)
        passes.append(times)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, digests, unstable, peak_rss_mb


def verify_pass(cli, verr, ops, digests, unstable) -> dict:
    """Runs each op once more, verifies it, and aggregates what was observed."""
    failed = []
    problems = []
    mix = Counter()
    conflicts = Counter()
    oracle_lines = []
    oracle = Counter()
    for i, op in enumerate(ops):
        status, text = program.run_op(cli, verr, op)
        found = []
        if i in unstable or (digests is not None and digest(status, text) != digests[i]):
            found.append("output differs between repeats of the same op")
        if status == "crashed":
            found.append(f"raised {text}")
        elif status == "refused":
            mix["refused." + text.split(":", 1)[0]] += 1
        else:
            obs = verify.verify(op, text)
            found += obs["problems"]
            if "kind" in obs:
                mix["verdict." + obs["kind"]] += 1
                mix["criterion." + str(obs["criterion"])] += 1
                for crit in obs.get("fired", []):
                    mix["fired." + crit] += 1
            for name in obs["conflicts"]:
                conflicts[name] += 1
            if "oracle" in obs:
                o = obs["oracle"]
                oracle.update(o)
                oracle_lines.append(
                    f"oracle op {i}: D={op.denominator} n={len(op.data['curve']['genera'])} "
                    f"B={op.twist_range}: estimated {o['grid_points']} grid points and "
                    f"{o['estimated_checks']} destabilizer checks; counted "
                    f"witness_checks={o['witness_checks']}, grid survivors={o['grid_count']}")
        if found:
            failed.append(i)
            problems.append({"op": i, "command": op.command, "problems": found[:5]})
    return {"failed": failed, "problems": problems[:20], "mix": dict(sorted(mix.items())),
            "conflicts": dict(conflicts), "oracle": dict(oracle), "oracle_lines": oracle_lines}


def measure(args, cli, verr, ops) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    passes, digests, unstable, peak_rss_mb = timed_passes(cli, verr, ops, args.seconds,
                                                          spec.min_passes)
    checked = verify_pass(cli, verr, ops, digests, unstable)
    q_tail = tail_quantile(args.workload, len(ops))
    # Latency quantiles are taken per block of min_passes passes, the smallest
    # run, and the median over blocks is reported, so that a burst of
    # interference from outside the program moves them less.
    count = max(1, len(passes) // spec.min_passes)
    blocks = [passes[i * spec.min_passes:(i + 1) * spec.min_passes] for i in range(count - 1)]
    blocks.append(passes[(count - 1) * spec.min_passes:])
    blocks = [sorted(t for times in block for t in times) for block in blocks]
    attempted = len(ops) * len(passes)
    failed = len(checked["failed"]) * len(passes)
    metrics = {
        "ops_per_s": (statistics.median(len(t) / sum(t) for t in passes), "1/s"),
        "op_ms_p50": (statistics.median(percentile(b, 0.5) for b in blocks) * 1000, "ms"),
        "op_ms_tail": (statistics.median(percentile(b, q_tail) for b in blocks) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = dict(checked, passes=len(passes), blocks=len(blocks), samples=attempted,
                   tail_percentile=round(100 * q_tail, 3), fail_ratio=failed / attempted)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details}


def trace(args, cli, verr, ops, keep_spans: bool) -> dict:
    tracer = layers.Tracer()

    def one_pass(traced: bool) -> float:
        total = 0.0
        for i, op in enumerate(ops):
            if traced:
                tracer.begin_op(i)
            start = clock()
            program.run_op(cli, verr, op)
            total += clock() - start
        return total

    ratios = []
    started = clock()
    while not ratios or clock() - started < args.seconds / 2:
        untraced = one_pass(False)
        tracer.install()
        try:
            traced = one_pass(True)
        finally:
            tracer.uninstall()
        ratios.append(traced / untraced)
    reps = len(ratios)
    counts = layers.profile_counts(lambda: one_pass(False))
    repeat = layers.profile_counts(lambda: one_pass(False))
    checked = verify_pass(cli, verr, ops, None, set())

    n_ops = len(ops)
    traced_ops = reps * n_ops
    own = tracer.layer_self_seconds()
    mix = checked["mix"]
    oracle = checked["oracle"]
    indices = sum(len(op.data["curve"]["genera"]) for op in ops) * reps
    sweep_s = tracer.inclusive("oracle.cross_validate") - tracer.inclusive(
        "oracle.brute_force_region")
    grid_s = tracer.inclusive("oracle.brute_force_region")
    per_op = traced_ops / 1e3       # seconds over this give ms per op
    m = {
        "cli.parse_ms_per_op": (tracer.inclusive("cli.parse_scenario") / per_op, "ms"),
        "cli.serialize_ms_per_op": ((sum(tracer.own(f"cli.cmd_{c}")
                                         for c in ("check", "polarize", "oracle"))
                                     + tracer.inclusive("cli.canonical_json")) / per_op, "ms"),
        "cli.refused_ratio": (sum(v for k, v in mix.items() if k.startswith("refused."))
                              / n_ops, "ratio"),
        "curve_model.ms_per_op": (own["curve_model"] / per_op, "ms"),
        "curve_model.validate_pair_per_op": (counts["validate_pair"] / n_ops, "count"),
        "curve_model.kernel_numerics_per_op": (counts["kernel_numerics"] / n_ops, "count"),
        "feasibility.ms_per_op": (own["feasibility"] / per_op, "ms"),
        "feasibility.ms_per_index": (own["feasibility"] / indices * 1e3, "ms"),
        "feasibility.sweeps_per_op": (counts["sweep"] / n_ops, "count"),
        "feasibility.fraction_new_per_op": (counts["fraction_new"] / n_ops, "count"),
        "feasibility.certificates_per_op": (counts["certificate"] / n_ops, "count"),
        "stability.ms_per_op": (own["stability"] / per_op, "ms"),
        "stability.rule_calls_per_op": (sum(tracer.calls(f"stability.{r}")
                                            for r in layers.RULES) / traced_ops, "count"),
        "oracle.grid_points_per_s": (reps * oracle.get("grid_points", 0) / grid_s
                                     if grid_s else 0.0, "1/s"),
        "oracle.checks_per_s": (reps * oracle.get("witness_checks", 0) / sweep_s
                                if oracle.get("witness_checks") else 0.0, "1/s"),
        "oracle.survivor_ratio": (oracle["grid_count"] / oracle["grid_points"]
                                  if oracle.get("grid_points") else 0.0, "ratio"),
        "trace.overhead_ratio": (statistics.median(ratios), "ratio"),
    }
    for name in (verify.CONFLICT_UNSTABLE_VS_FEASIBLE, verify.CONFLICT_WITNESS_VS_BOUNDS):
        m[f"stability.evidence_conflicts.{name}"] = (checked["conflicts"].get(name, 0), "count")
    for key in ([f"verdict.{k}" for k in verify.KINDS] + [f"criterion.{c}" for c in CRITERIA]
                + [f"refused.{r}" for r in REFUSALS]):
        m[f"mix.{key}"] = (mix.get(key, 0), "count")
    details = dict(checked, reps=reps, counts_per_pass=counts,
                   counts_repeat_exactly=counts == repeat,
                   layer_self_ms={k: v / traced_ops * 1e3 for k, v in own.items()},
                   functions={k: {"calls": c, "incl_s": i, "self_s": s}
                              for k, (c, i, s) in sorted(tracer.totals.items()) if c})
    if keep_spans:
        details["spans"] = tracer.spans
    return {"attempted": n_ops, "failed": len(checked["failed"]), "metrics": m,
            "details": details}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args()
    cli, verr = program.load()
    ops = workloads.build(args.workload, args.seed)
    missed = selftest.run(cli, verr)
    if args.trace:
        out = trace(args, cli, verr, ops, args.spans)
    else:
        out = measure(args, cli, verr, ops)
    correct = (out["failed"] == 0 and not missed
               and out["details"].get("counts_repeat_exactly", True))
    out["details"]["selftest_missed"] = missed
    out["correct"] = correct
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
