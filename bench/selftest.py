"""Feeds the verifier corrupted outputs and checks that it catches each one.

Run on its own with ``python3 bench/selftest.py`` (exit code 0 when every
corruption is caught); every benchmark run also runs it and reports
``correct: false`` if it does not pass.
"""

from __future__ import annotations

import json
import sys

import program
import verify
from workloads import README_PAIR, TRIVIAL_BUNDLE, Op


def run(cli, validation_error) -> list[str]:
    """Names of the checks that did not behave; empty when all pass."""
    missed = []
    witness_op = Op("polarize", TRIVIAL_BUNDLE)
    cert_op = Op("check", README_PAIR)
    texts = {}
    for name, op in (("witness", witness_op), ("certificate", cert_op)):
        status, text = program.run_op(cli, validation_error, op)
        if status != "ok" or verify.verify(op, text)["problems"]:
            missed.append(f"clean {name} output did not verify")
        texts[name] = text if status == "ok" else None
    if texts["witness"] is not None:
        bad = json.loads(texts["witness"])
        bad["region"]["witness"] = ["1/10", "9/10"]      # S_1 = 1/10 is outside [1/3, 2/3]
        problems = verify.verify(witness_op, _canonical(bad))["problems"]
        if not any("slope inequality" in p for p in problems):
            missed.append("corrupted witness was not caught")
    if texts["certificate"] is not None:
        bad = json.loads(texts["certificate"])
        cert = bad["verdict"]["certificate"]
        cert["lower"], cert["upper"] = cert["upper"], cert["lower"]   # no longer clashes
        problems = verify.verify(cert_op, _canonical(bad))["problems"]
        if not any("does not clash" in p for p in problems):
            missed.append("corrupted certificate was not caught")
        problems = verify.verify(cert_op, texts["certificate"] + "\n")["problems"]
        if not any("round-trip" in p for p in problems):
            missed.append("non-canonical JSON was not caught")
    return missed


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def main() -> int:
    missed = run(*program.load())
    for line in missed:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: " + ("FAIL" if missed else "ok"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
