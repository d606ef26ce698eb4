"""Loads chainstab from this checkout's ``src`` and runs one op through it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """(cli module, ValidationError) from ``src``; never an installed copy."""
    if not (SRC / "chainstab" / "cli.py").is_file():
        raise SystemExit(f"error: no chainstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from chainstab import cli
    from chainstab.errors import ValidationError
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: chainstab was imported from {cli.__file__}, not {SRC}")
    return cli, ValidationError


def run_op(cli, validation_error, op) -> tuple[str, str]:
    """One op through the library path a caller uses.

    Returns ("ok", canonical JSON), ("refused", the ValidationError) or
    ("crashed", any other exception); argparse and file I/O are left out.
    """
    try:
        scn = cli.parse_scenario(op.data)
        if op.command == "check":
            payload = cli.cmd_check(scn)
        elif op.command == "polarize":
            payload = cli.cmd_polarize(scn)
        else:
            payload = cli.cmd_oracle(scn, op.denominator, op.twist_range)
        return "ok", cli.canonical_json(payload)
    except validation_error as exc:
        return "refused", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # any other exception is a failed op, recorded and counted
        return "crashed", f"{type(exc).__name__}: {exc}"
