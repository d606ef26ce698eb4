"""Command-line front end: JSON scenarios in, canonical reports out.

Input files are plain JSON with integer data only; every rational in the
output is a reduced "p/q" string, so no floating-point number ever appears
on either side.  JSON output is canonical and round-trips byte-identically:
keys sorted, two-space indent, ``": "`` after each key, non-ASCII characters
escaped as ``\\uXXXX``, integers written in full.

Parsing checks a scenario's JSON shape only; its values and lengths are
checked by the ``curve_model`` constructors and functions, whose refusals
name the scenario field ("curve.genera: expected an integer, got 0.5"), so
library callers and the command line get one text for each fault.

Exit codes: 0 analysis completed (whatever the verdict), 2 invalid input,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from typing import Optional

from .curve_model import PAIR_FLAGS, ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics
from .errors import InternalInvariantError, ValidationError
from .feasibility import (FeasibleRegion, InfeasibilityCertificate, IntervalChain, Polarization,
                          _ratio, simplex_intersect, weight_system)
from .oracle import ORACLE_WORK_LIMIT, GridSpec, cross_validate
from .stability import Report, Verdict, analyze, analyze_sheaf

# Longest chain a scenario may describe: 10x the longest benchmark chain.
# The benchmark's n = 10^4 ``check`` op takes ~4.5 us per component from
# parsing to canonical JSON (in-process, 2-core x86 machine); a whole
# ``chainstab check`` at the limit takes about 0.8 s.
CHAIN_LENGTH_LIMIT = 100_000

SCHEMA_TEXT = """\
Scenario file format (a single JSON object):

{
  "curve":   {"genera": [g1, ..., gn]},              # integers >= 2, 2 <= n <= {chain}
  "subject": {"sheaf": {...}} or {"pair": {...}},    # exactly one
  "twist":   {"multidegree": [t1, ..., tn]}          # optional line-bundle twist
}

sheaf fields:
  multirank:    [r, ..., r]     one positive rank, repeated n times
  multidegree:  [d1, ..., dn]   integers

pair fields:
  rank:         positive integer (rank of the generated bundle)
  sections:     integer > rank (dimension of the generating section space)
  multidegree:  [d1, ..., dn]   non-negative integers
  optional hypothesis flags, each a list of n booleans (default all false):
    restriction_semistable, restriction_stable,
    kernel_restriction_semistable, kernel_restriction_stable,
    ker_rho_nonzero, twisted_sections_nonzero, h1_vanishes

Commands:
  polarize  feasibility region and witness for the subject's weight system
  check     full criterion analysis with certificates
  oracle    brute-force grid cross-validation of the (twisted) subject's weight
            system (--denominator, --twist-range); runs estimated above
            {limit} units of work are refused with exit code 2
  schema    print this description

A curve of more than {chain} components is refused with exit code 2
before any analysis runs.  All numbers in scenario files are integers;
rationals appear only in output, as reduced "p/q" strings.  Exit codes:
0 analysis completed, 2 invalid input, 3 internal invariant violation.
""".replace("{limit}", f"{ORACLE_WORK_LIMIT:,}").replace("{chain}", f"{CHAIN_LENGTH_LIMIT:,}")


class Scenario(namedtuple("Scenario", "curve subject twist")):
    """A scenario's curve, its subject (sheaf numerics or a generated pair)
    and its twist, ``None`` when the scenario gives none.

    Fields::

        curve: ChainCurve
        subject: SheafNumerics | GeneratedPairData
        twist: Optional[LineBundleTwist]
    """

    __slots__ = ()


def _expect(obj, key, where):
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return obj[key]


def _as_dict(value, where):
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _as_list(value, where):
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _no_unknown(obj, allowed, where):
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")


def parse_scenario(data: dict) -> Scenario:
    """The scenario that the decoded JSON ``data`` describes.

    Checks objects, lists, required and unknown fields, and the chain-length
    limit.  The ``curve_model`` constructors check every value; a pair or
    twist of another length than the curve is refused when a command builds
    the weight system (``validate_pair``, ``twist``).
    """
    data = _as_dict(data, "scenario")
    _no_unknown(data, ("curve", "subject", "twist"), "scenario")
    curve_obj = _as_dict(_expect(data, "curve", "scenario"), "curve")
    _no_unknown(curve_obj, ("genera",), "curve")
    genera = _as_list(_expect(curve_obj, "genera", "curve"), "curve.genera")
    if len(genera) > CHAIN_LENGTH_LIMIT:
        raise ValidationError(f"curve.genera: {len(genera):,} components exceed the chain-length "
                              f"limit of {CHAIN_LENGTH_LIMIT:,}")
    curve = ChainCurve(genera)

    subject_obj = _as_dict(_expect(data, "subject", "scenario"), "subject")
    if set(subject_obj) == {"sheaf"}:
        sh = _as_dict(subject_obj["sheaf"], "subject.sheaf")
        ranks = _as_list(_expect(sh, "multirank", "subject.sheaf"), "sheaf.multirank")
        degs = _as_list(_expect(sh, "multidegree", "subject.sheaf"), "sheaf.multidegree")
        _no_unknown(sh, ("multirank", "multidegree"), "subject.sheaf")
        subject = SheafNumerics(curve, ranks, degs)
    elif set(subject_obj) == {"pair"}:
        pr = _as_dict(subject_obj["pair"], "subject.pair")
        _no_unknown(pr, ("rank", "sections", "multidegree", *PAIR_FLAGS), "subject.pair")
        flags = {name: _as_list(pr[name], f"pair.{name}") for name in PAIR_FLAGS if name in pr}
        subject = GeneratedPairData(
            rank=_expect(pr, "rank", "subject.pair"),
            sections=_expect(pr, "sections", "subject.pair"),
            multidegree=_as_list(_expect(pr, "multidegree", "subject.pair"), "pair.multidegree"),
            **flags)
    else:
        raise ValidationError("subject: provide exactly one of 'sheaf' or 'pair'")

    line = None
    if "twist" in data and data["twist"] is not None:
        tw = _as_dict(data["twist"], "twist")
        _no_unknown(tw, ("multidegree",), "twist")
        line = LineBundleTwist(_as_list(_expect(tw, "multidegree", "twist"), "twist.multidegree"))
    return Scenario(curve, subject, line)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, over-long integer literals
        raise ValidationError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to parse") from exc
    return parse_scenario(data)


# --------------------------------------------------------------------------
# Canonical serialization: rationals as reduced "p/q" strings, sorted keys.
# --------------------------------------------------------------------------

def _witness_json(w: Optional[Polarization]):
    if w is None:
        return None
    den, gcd = w.den, math.gcd
    return [f"{a // (g := gcd(a, den))}/{den // g}" for a in w.nums]


def _region_json(region: FeasibleRegion) -> dict:
    # the chain itself: ``_emit`` and ``render_text`` write its intervals
    return {"status": region.status, "s_intervals": region.s_intervals,
            "witness": _witness_json(region.witness)}


def _certificate_json(cert: Optional[InfeasibilityCertificate]):
    if cert is None:
        return None
    return {
        "quantity": cert.quantity,
        "lower": _ratio(cert.lower, cert.den, slash=True),
        "lower_open": cert.lower_open,
        "lower_reason": cert.lower_reason,
        "upper": _ratio(cert.upper, cert.den, slash=True),
        "upper_open": cert.upper_open,
        "upper_reason": cert.upper_reason,
        "verified": cert.verify(),
    }


def _verdict_json(v: Verdict, witness: Optional[list]) -> dict:
    """``witness`` is ``v.witness`` already formatted."""
    return {
        "kind": v.kind,
        "criterion": v.criterion,
        "witness": witness,
        "certificate": _certificate_json(v.certificate),
        "notes": list(v.notes),
    }


def _sheaf_json(s: SheafNumerics) -> dict:
    return {
        "multirank": list(s.multirank),
        "multidegree": list(s.multidegree),
        "chi_components": list(s.chi_components),
        "chi": s.chi,
    }


def _report_json(report: Report) -> dict:
    verdict = report.verdict
    region = None if report.region is None else _region_json(report.region)
    # a verdict's witness is only ever its region's: formatted once for both
    out = {
        "verdict": _verdict_json(verdict, None if verdict.witness is None else region["witness"]),
        "region": region,
        "sheaf": _sheaf_json(report.sheaf),
        "fired": list(report.fired),
        "obstructions": list(report.obstructions),
        "notes": list(report.notes),
    }
    if report.k_bound is None:
        out["k_bound"] = None
    else:
        kb = report.k_bound
        out["k_bound"] = {
            "bound": kb.bound,
            "k_within_bound": kb.k_within_bound,
            "h0_per_component": list(kb.per_component),
            "h0_methods": list(kb.methods),
        }
    return out


# The JSON text of every scalar a payload may hold, by exact type.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _emit(value, append, newline: str) -> None:
    """Append the JSON of the dict, list or tuple ``value`` to ``append``,
    whose own line starts with ``newline``; scalar members are written inline."""
    inner = newline + "  "
    sep, comma = inner, "," + inner
    if type(value) is dict:
        if not value:
            append("{}")
            return
        append("{")
        for key in sorted(value):
            item = value[key]
            scalar = _SCALAR_JSON.get(type(item))
            if scalar is None:
                append(f"{sep}{encode_basestring_ascii(key)}: ")
                _emit(item, append, inner)
            else:
                append(f"{sep}{encode_basestring_ascii(key)}: {scalar(item)}")
            sep = comma
        append(newline + "}")
    elif type(value) is list or type(value) is tuple:
        if not value:
            append("[]")
            return
        # items of one scalar type are joined at C speed, mixed ones go one by one
        scalar = _SCALAR_JSON.get(type(value[0]))
        if scalar is not None and (len(value) == 1 or len({*map(type, value)}) == 1):
            append(f"[{sep}{comma.join(map(scalar, value))}{newline}]")
            return
        append("[")
        for item in value:
            scalar = _SCALAR_JSON.get(type(item))
            if scalar is None:
                append(sep)
                _emit(item, append, inner)
            else:
                append(sep + scalar(item))
            sep = comma
        append(newline + "]")
    elif type(value) is IntervalChain:
        _emit_chain(value, append, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_chain(chain: IntervalChain, append, newline: str) -> None:
    """Append the JSON of ``chain``: the list of its intervals, each the dict
    of "lower", "lower_open", "upper" and "upper_open", with reduced "p/q"
    or null ends, written by one f-string per interval, as the keys never
    change."""
    if not chain.lower:
        append("[]")
        return
    den, gcd, q, flag = chain.den, math.gcd, '"', ("false", "true")
    inner = newline + "  "
    key = inner + '  "'
    append("[")
    append(",".join([
        f'{inner}{{{key}lower": '
        f'{"null" if lo is None else f"{q}{lo // (g := gcd(lo, den))}/{den // g}{q}"}'
        f',{key}lower_open": {flag[lo_open]},{key}upper": '
        f'{"null" if hi is None else f"{q}{hi // (g := gcd(hi, den))}/{den // g}{q}"}'
        f',{key}upper_open": {flag[hi_open]}{inner}}}'
        for lo, lo_open, hi, hi_open in zip(chain.lower, chain.lower_open,
                                            chain.upper, chain.upper_open)]))
    append(newline + "]")


def canonical_json(payload: dict) -> str:
    """The canonical JSON text of ``payload``.

    Its bytes equal ``json.dumps(payload, sort_keys=True, indent=2)`` for
    every payload the commands build, with each ``IntervalChain`` in it
    taken as the list of its per-interval dicts, and the tests hold it to
    that.  Values may be str, int, bool, None, lists, tuples, dicts with
    str keys and interval chains; anything else, floats included, raises
    ``TypeError``.  An int longer than ``sys.get_int_max_str_digits()``
    raises ``ValueError``.
    """
    out = []
    _emit(payload, out.append, "\n")
    return "".join(out)


def render_text(payload: dict) -> str:
    lines = [f"command: {payload['command']}"]
    if "verdict" in payload:
        v = payload["verdict"]
        lines.append(f"verdict: {v['kind']}")
        lines.append(f"criterion: {v['criterion']}")
        if v["witness"] is not None:
            lines.append(f"witness: ({', '.join(v['witness'])})")
        cert = v["certificate"]
        if cert is not None:
            lo_rel = ">" if cert["lower_open"] else ">="
            hi_rel = "<" if cert["upper_open"] else "<="
            lines.append(
                f"certificate: {cert['quantity']} {lo_rel} {cert['lower']} "
                f"[{cert['lower_reason']}] clashes with {cert['quantity']} {hi_rel} "
                f"{cert['upper']} [{cert['upper_reason']}]")
        for note in v["notes"]:
            lines.append(f"note: {note}")
    if payload.get("region") is not None:
        region = payload["region"]
        lines.append(f"region: {region['status']}")
        chain, gcd = region["s_intervals"], math.gcd
        den = chain.den
        for i, (lo, lo_open, hi, hi_open) in enumerate(
                zip(chain.lower, chain.lower_open, chain.upper, chain.upper_open), start=1):
            lo = "-inf" if lo is None else f"{lo // (g := gcd(lo, den))}/{den // g}"
            hi = "+inf" if hi is None else f"{hi // (g := gcd(hi, den))}/{den // g}"
            lines.append(f"  S_{i} in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
        if region["witness"] is not None:
            lines.append(f"  witness: ({', '.join(region['witness'])})")
    if payload.get("sheaf") is not None:
        s = payload["sheaf"]
        lines.append(f"sheaf: multirank={s['multirank']} multidegree={s['multidegree']} "
                     f"chi_components={s['chi_components']} chi={s['chi']}")
    if payload.get("k_bound") is not None:
        kb = payload["k_bound"]
        lines.append(f"section bound: {kb['bound']} "
                     f"(declared sections within bound: {kb['k_within_bound']})")
    for key in ("fired", "obstructions", "discrepancies", "notes"):
        if payload.get(key):
            lines.append(f"{key}: {payload[key]}")
    for key in ("region_status", "grid_count", "agreement", "witness_checks",
                "denominator", "twist_range"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Commands.
# --------------------------------------------------------------------------

def cmd_polarize(scn: Scenario) -> dict:
    system = weight_system(scn.curve, scn.subject, scn.twist)
    return {
        "command": "polarize",
        "curve": {"genera": list(scn.curve.genera)},
        "subject": "sheaf" if system.pair is None else "pair",
        "sheaf": _sheaf_json(system.subject),
        "region": _region_json(simplex_intersect(system.intervals)),
    }


def cmd_check(scn: Scenario) -> dict:
    pair = scn.subject if isinstance(scn.subject, GeneratedPairData) else None
    if pair is not None:
        report = analyze(scn.curve, pair, scn.twist)
    else:
        report = analyze_sheaf(scn.subject, scn.twist)
    payload = {
        "command": "check",
        "curve": {"genera": list(scn.curve.genera)},
        "subject": "sheaf" if pair is None else "pair",
    }
    payload.update(_report_json(report))
    if pair is not None:
        payload["pair"] = {
            "rank": pair.rank,
            "sections": pair.sections,
            "multidegree": list(pair.multidegree),
        }
    return payload


def cmd_oracle(scn: Scenario, denominator: int, twist_range: int) -> dict:
    grid = GridSpec(denominator, scn.curve.n)
    report = cross_validate(scn.curve, grid, scn.subject, scn.twist, twist_range)
    return {
        "command": "oracle",
        "curve": {"genera": list(scn.curve.genera)},
        "denominator": denominator,
        "twist_range": twist_range,
        "region_status": report.region_status,
        "grid_count": report.grid_count,
        "agreement": report.agreement,
        "discrepancies": list(report.discrepancies),
        "witness_checks": report.witness_checks,
        "notes": list(report.notes),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainstab",
        description="Exact-arithmetic polarization stability analyzer for sheaf data "
                    "on chain-like nodal curves.")
    parser.add_argument("command", choices=("polarize", "check", "oracle", "schema"))
    parser.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--denominator", type=int, default=60,
                        help="grid denominator for the oracle command (default 60)")
    parser.add_argument("--twist-range", type=int, default=3, dest="twist_range",
                        help="oracle counts a check per grid point and twist with |deg| up to "
                             "this bound; one identity decides all, none is enumerated (default 3)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "schema":
        print(SCHEMA_TEXT, end="")
        return 0
    if args.scenario is None:
        print("error: a scenario file is required for this command", file=sys.stderr)
        return 2
    try:
        scn = load_scenario(args.scenario)
        if args.command == "polarize":
            payload = cmd_polarize(scn)
        elif args.command == "check":
            payload = cmd_check(scn)
        else:
            payload = cmd_oracle(scn, args.denominator, args.twist_range)
        report = canonical_json(payload) if args.format == "json" else render_text(payload)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # an integer longer than sys.get_int_max_str_digits(): literals that
        # long are refused at load, but products of valid inputs can be
        print(f"error: the report cannot be rendered: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
