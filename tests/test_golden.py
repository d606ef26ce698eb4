"""Frozen canonical output of ``check`` and ``polarize`` for a fixed scenario set.

``data/golden.json`` holds sixty-four scenarios: seeded random pairs and sheaves
that cover every criterion, twisted and untwisted, and every refusal, plus
the README and acceptance scenarios.  Next to each scenario it keeps the
canonical JSON that both commands printed for it, or the refusal.  Any
change to a verdict, certificate, witness, region or note fails here, and
so does any change to the bytes of the canonical JSON: they must equal
``json.dumps(..., sort_keys=True, indent=2)`` of the frozen output.
After an intended output change, rewrite the expected outputs with

    PYTHONPATH=src python tests/test_golden.py

and account for every changed output in the change description.
"""

import json
from pathlib import Path
from typing import Optional

import pytest

from chainstab import cli
from chainstab.errors import ValidationError

GOLDEN = Path(__file__).with_name("data") / "golden.json"
COMMANDS = ("check", "polarize")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(command: str, scenario: dict) -> tuple[dict, Optional[str]]:
    """The output in its frozen form, and the canonical JSON (None when refused)."""
    try:
        scn = cli.parse_scenario(scenario)
        payload = cli.cmd_check(scn) if command == "check" else cli.cmd_polarize(scn)
    except ValidationError as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}, None
    text = cli.canonical_json(payload)
    return json.loads(text), text


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_is_frozen(case):
    for command in COMMANDS:
        frozen, text = run(command, case["scenario"])
        assert frozen == case[command], command
        if text is not None:
            assert text == json.dumps(case[command], sort_keys=True, indent=2), command


def test_set_covers_every_criterion_and_refusal():
    checks = [case["check"] for case in CASES]
    criteria = {c["verdict"]["criterion"] for c in checks if "verdict" in c}
    fired = {f for c in checks for f in c.get("fired", [])}
    refusals = {c["refused"] for c in checks if "refused" in c}
    assert criteria >= {"kernel-restrictions-semistable", "endpoint-degree-excess",
                        "middle-degree-excess", "all-twists-degree-ratio",
                        "weight-system-infeasible", "none"}
    assert "two-component-kernel-sections" in fired
    assert "genus-bound" in fired
    assert refusals == {"ContradictoryHypotheses", "UnsupportedData"}
    assert any(case["scenario"].get("twist") for case in CASES)


def main() -> None:
    for case in CASES:
        for command in COMMANDS:
            case[command] = run(command, case["scenario"])[0]
    GOLDEN.write_text(json.dumps(CASES, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
