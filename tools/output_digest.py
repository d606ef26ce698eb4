"""Digest the output of every benchmark op, to compare two source trees.

Usage: python3 tools/output_digest.py SRC_DIR

Runs every op of ``bench/workloads.build(w, s)``, for w in corpus,
long_chain and oracle and s in 11 and 12, through the ``chainstab`` package
under SRC_DIR, by the same library path the benchmark uses
(``bench/program.run_op``).  For each (w, s) it prints one line: the counts
of ok, refused and crashed ops, a blake2b digest of every op's
``status:text``, in order, and, as ``text_blake2b``, one of the
``render_text`` output of every ok op's payload.  Two trees print the same
lines exactly when every op gives the same status, the same canonical JSON
or refusal text, and the same text report.
Reads ``bench/`` without writing to it.  Standard library only.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("corpus", "long_chain", "oracle")
SEEDS = (11, 12)


def load(src: Path):
    """(cli module, ValidationError) of the chainstab package under ``src``."""
    sys.path.insert(0, str(src))
    from chainstab import cli
    from chainstab.errors import ValidationError
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: chainstab was imported from {cli.__file__}, not {src}")
    return cli, ValidationError


def text_report(cli, op) -> str:
    """The ``--format text`` report of an op that ran ok."""
    scn = cli.parse_scenario(op.data)
    if op.command == "check":
        return cli.render_text(cli.cmd_check(scn))
    if op.command == "polarize":
        return cli.render_text(cli.cmd_polarize(scn))
    return cli.render_text(cli.cmd_oracle(scn, op.denominator, op.twist_range))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not (Path(argv[1]) / "chainstab" / "cli.py").is_file():
        print("usage: python3 tools/output_digest.py SRC_DIR", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import program
    import workloads
    cli, validation_error = load(Path(argv[1]).resolve())
    for workload in WORKLOADS:
        for seed in SEEDS:
            counts = Counter()
            digest, text_digest = hashlib.blake2b(digest_size=16), hashlib.blake2b(digest_size=16)
            for op in workloads.build(workload, seed):
                status, text = program.run_op(cli, validation_error, op)
                counts[status] += 1
                digest.update(f"{status}:{text}\n".encode("utf-8", "backslashreplace"))
                if status == "ok":
                    text_digest.update(f"{text_report(cli, op)}\n".encode("utf-8",
                                                                           "backslashreplace"))
            print(f"{workload} {seed} ok={counts['ok']} refused={counts['refused']} "
                  f"crashed={counts['crashed']} blake2b={digest.hexdigest()} "
                  f"text_blake2b={text_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
