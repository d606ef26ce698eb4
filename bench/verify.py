"""Independent check of one op's canonical JSON output.

Nothing here imports chainstab or uses ``fractions``: every quantity is
recomputed from the raw scenario in plain integers, and every printed
rational is read back from its ``"p/q"`` string.  ``verify`` returns the
problems it found (which count as failed ops) together with observations
the benchmark aggregates: the verdict mix, the oracle's counts, and
evidence that contradicts the region printed beside it.  Such evidence is
a known class of defect (ROADMAP item 2); it is counted, never failed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict

from workloads import oracle_estimate

KINDS = ("w_semistable", "w_stable", "strongly_unstable", "inconclusive")
STATUSES = ("feasible", "infeasible", "boundary-only")
CONFLICT_UNSTABLE_VS_FEASIBLE = "unstable_vs_feasible"
CONFLICT_WITNESS_VS_BOUNDS = "witness_vs_bounds"


class Subject:
    """Integer numerics of the (possibly twisted) subject of a scenario."""

    def __init__(self, data: dict):
        genera = data["curve"]["genera"]
        n = len(genera)
        subject = data["subject"]
        self.pair = subject.get("pair")
        if self.pair is not None:
            m = self.pair["sections"] - self.pair["rank"]
            degs = self.pair["multidegree"]
            ranks = [m] * n
            out_degs = [-d for d in degs]
            chis = [m * (1 - g) - d for g, d in zip(genera, degs)]
            chi = m * (1 - sum(genera)) - sum(degs)
        else:
            ranks = list(subject["sheaf"]["multirank"])
            out_degs = list(subject["sheaf"]["multidegree"])
            chis = [d + r * (1 - g) for r, d, g in zip(ranks, out_degs, genera)]
            uniform = all(r == ranks[0] for r in ranks)
            chi = sum(chis) - ranks[0] * (n - 1) if uniform else None
        self.twist = (data.get("twist") or {}).get("multidegree", [0] * n)
        r = ranks[0]
        self.multirank = ranks
        self.multidegree = [d + r * t for d, t in zip(out_degs, self.twist)]
        self.chi_components = [c + r * t for c, t in zip(chis, self.twist)]
        self.chi = None if chi is None else chi + r * sum(self.twist)
        self.genera = genera
        self.n = n
        self.rank = r

    def printed(self) -> dict:
        return {"multirank": self.multirank, "multidegree": self.multidegree,
                "chi_components": self.chi_components, "chi": self.chi}

    def slope_constants(self, scale: int = 1):
        """(lo_i, hi_i) with lo_i <= S_i * chi <= hi_i, everything times ``scale``."""
        out = []
        part = 0
        for i in range(1, self.n):
            part += self.chi_components[i - 1]
            out.append(((part - self.rank * i) * scale, (part - self.rank * (i - 1)) * scale))
        return out

    def subsheaf_numerators(self, twist=None) -> list:
        """(j, deg L_j - delta_j + 1 - g_j) for components declaring a non-zero ker rho."""
        if self.pair is None:
            return []
        twist = self.twist if twist is None else twist
        ker = self.pair.get("ker_rho_nonzero", [False] * self.n)
        return [(j, twist[j] - (1 if j in (0, self.n - 1) else 2) + 1 - self.genera[j])
                for j in range(self.n) if ker[j]]


def frac_str(p: int, q: int) -> str:
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def parse_frac(text) -> tuple[int, int]:
    """Integers (p, q) from a reduced "p/q" string with q > 0."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    p, q = (int(x) for x in text.split("/"))
    if q <= 0 or math.gcd(p, q) != 1:
        raise ValueError(f"not a reduced rational: {text!r}")
    return p, q


def expected_intervals(subj: Subject) -> list:
    out = []
    for lo, hi in subj.slope_constants():
        if subj.chi > 0:
            out.append({"lower": frac_str(lo, subj.chi), "lower_open": False,
                        "upper": frac_str(hi, subj.chi), "upper_open": False})
        elif subj.chi < 0:
            out.append({"lower": frac_str(hi, subj.chi), "lower_open": False,
                        "upper": frac_str(lo, subj.chi), "upper_open": False})
        elif lo <= 0 <= hi:
            out.append({"lower": None, "lower_open": True, "upper": None, "upper_open": True})
        else:
            out.append({"lower": "0/1", "lower_open": True, "upper": "0/1", "upper_open": True})
    return out


def witness_parts(weights, n: int) -> tuple[list, int]:
    """Weights as integer numerators over their common denominator."""
    fracs = [parse_frac(w) for w in weights]
    if len(fracs) != n:
        raise ValueError(f"{len(fracs)} weights for {n} components")
    lcm = math.lcm(*(q for _, q in fracs))
    return [p * (lcm // q) for p, q in fracs], lcm


def witness_problems(subj: Subject, weights, with_bounds: bool) -> list:
    """Problems of a printed witness against the subject's slope inequalities,
    and against the declared subsheaf bounds when ``with_bounds``."""
    try:
        parts, lcm = witness_parts(weights, subj.n)
    except ValueError as exc:
        return [f"witness: {exc}"]
    problems = []
    if any(a <= 0 for a in parts) or sum(parts) != lcm:
        problems.append("witness is not a strictly positive weight vector summing to 1")
    if subj.chi is None or any(r != subj.rank for r in subj.multirank):
        return problems + ["witness printed for a subject without uniform rank and chi"]
    acc = 0
    for i, (lo, hi) in enumerate(subj.slope_constants(lcm), start=1):
        acc += parts[i - 1]
        if not lo <= acc * subj.chi <= hi:
            problems.append(f"witness violates the slope inequality at S_{i}")
    if with_bounds:
        problems += bound_violations(subj, parts, lcm)
    return problems


def bound_violations(subj: Subject, parts, scale: int) -> list:
    """Subsheaf slope bounds: numer_j / w_j <= chi / m, i.e. numer_j*m <= w_j*chi."""
    return [f"witness violates the subsheaf slope bound on w_{j + 1}"
            for j, numer in subj.subsheaf_numerators()
            if parts[j] * subj.chi < numer * subj.rank * scale]


def certificate_problems(cert: dict) -> list:
    try:
        lp, lq = parse_frac(cert["lower"])
        up, uq = parse_frac(cert["upper"])
    except (KeyError, ValueError) as exc:
        return [f"certificate: {exc}"]
    lhs, rhs = lp * uq, up * lq
    clash = lhs > rhs or (lhs == rhs and (cert["lower_open"] or cert["upper_open"]))
    problems = []
    if not clash:
        problems.append(f"certificate on {cert.get('quantity')} does not clash: "
                        f"{cert['lower']} against {cert['upper']}")
    if cert.get("verified") is not clash:
        problems.append("certificate's printed 'verified' disagrees with its comparison")
    return problems


def count_compositions(total: int, n: int, cut_ranges, part_ranges) -> int:
    """Compositions of ``total`` into n positive parts with the i-th partial sum in
    ``cut_ranges[i]`` (i < n-1) and the j-th part in ``part_ranges[j]``; ranges are
    inclusive (lo, hi) pairs, None meaning unbounded."""
    ways = {0: 1}
    for i in range(n):
        plo, phi = part_ranges[i]
        plo = 1 if plo is None else max(1, plo)
        phi = total if phi is None else phi
        clo, chi_ = (total, total) if i == n - 1 else cut_ranges[i]
        clo = 0 if clo is None else clo
        chi_ = total if chi_ is None else chi_
        nxt = defaultdict(int)
        for prev, count in ways.items():
            for c in range(max(prev + plo, clo), min(prev + phi, chi_, total) + 1):
                nxt[c] += count
        ways = nxt
    return ways.get(total, 0)


def _times_at_least(coef: int, rhs: int):
    """Integer range of x with x * coef >= rhs, as (lo, hi); None for empty."""
    if coef > 0:
        return (-(-rhs // coef), None)
    if coef < 0:
        return (None, rhs // coef)
    return (None, None) if rhs <= 0 else None


def grid_count(subj: Subject, d: int) -> int:
    """Grid points a/d whose partial sums meet the slope inequalities and whose
    weights meet the declared subsheaf bounds."""
    cuts = []
    for lo, hi in subj.slope_constants(d):
        a = _times_at_least(subj.chi, lo)            # c * chi >= lo
        b = _times_at_least(-subj.chi, -hi)          # c * chi <= hi
        if a is None or b is None:
            return 0
        cuts.append((_max(a[0], b[0]), _min(a[1], b[1])))
    parts = [(None, None)] * subj.n
    for j, numer in subj.subsheaf_numerators():
        rng = _times_at_least(subj.chi, numer * subj.rank * d)
        if rng is None:
            return 0
        parts[j] = rng
    return count_compositions(d, subj.n, cuts, parts)


def destabilizer_failures(subj: Subject, d: int, b: int) -> int:
    """Grid polarizations and sampled twists with no destabilizing component
    subsheaf: for every j, a_j * chi(t) >= numer_j(t) * m * d."""
    pair = subj.pair
    m = pair["sections"] - pair["rank"]
    p_a = sum(subj.genera)
    total_deg = sum(pair["multidegree"])
    failures = 0
    for tw in itertools.product(range(-b, b + 1), repeat=subj.n):
        chi_t = m * (1 + sum(tw) - p_a) - total_deg
        parts = []
        for j, numer in subj.subsheaf_numerators(tw):
            parts.append(_times_at_least(chi_t, numer * m * d))
        if any(p is None for p in parts):
            continue
        failures += count_compositions(d, subj.n, [(None, None)] * (subj.n - 1), parts)
    return failures


def _max(a, b):
    return b if a is None else a if b is None else max(a, b)


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


def verify(op, text: str) -> dict:
    """Check one output; returns {"problems": [...], plus observations}."""
    problems = []
    obs = {"problems": problems, "conflicts": []}
    try:
        payload = json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return obs
    if json.dumps(payload, sort_keys=True, indent=2) != text:
        problems.append("canonical JSON does not round-trip byte-identically")
    data = op.data
    if payload.get("command") != op.command:
        problems.append(f"command {payload.get('command')!r} != {op.command!r}")
        return obs
    if payload.get("curve") != {"genera": data["curve"]["genera"]}:
        problems.append("printed curve differs from the scenario")
    subj = Subject(data)
    if op.command == "oracle":
        _verify_oracle(op, subj, payload, obs)
        return obs
    kind_of_subject = "pair" if subj.pair is not None else "sheaf"
    if payload.get("subject") != kind_of_subject:
        problems.append("printed subject kind differs from the scenario")
    if payload.get("sheaf") != subj.printed():
        problems.append("printed subject numerics differ from the integer recomputation")
        return obs
    region = payload.get("region")
    with_bounds = op.command == "check" and subj.pair is not None
    if region is None:
        problems.append("no region printed")
        return obs
    obs["region_status"] = region.get("status")
    if subj.chi is None:
        problems.append("region printed for a subject without a global chi")
        return obs
    if region.get("status") not in STATUSES:
        problems.append(f"unknown region status {region.get('status')!r}")
    if region.get("s_intervals") != expected_intervals(subj):
        problems.append("printed s_intervals differ from the slope inequalities")
    if (region.get("status") == "feasible") != (region.get("witness") is not None):
        problems.append("region witness presence does not match its status")
    if region.get("witness") is not None:
        problems += ["region " + p for p in witness_problems(subj, region["witness"], with_bounds)]
    if op.command == "check":
        _verify_verdict(subj, payload, obs)
    return obs


def _verify_verdict(subj: Subject, payload: dict, obs: dict) -> None:
    problems = obs["problems"]
    verdict = payload.get("verdict") or {}
    kind = verdict.get("kind")
    obs["kind"] = kind
    obs["criterion"] = verdict.get("criterion")
    obs["fired"] = payload.get("fired", [])
    if kind not in KINDS:
        problems.append(f"unknown verdict kind {kind!r}")
        return
    if verdict.get("certificate") is not None:
        problems += certificate_problems(verdict["certificate"])
    if kind in ("w_semistable", "w_stable"):
        if verdict.get("witness") is None:
            problems.append("semistability verdict without a witness")
            return
        found = witness_problems(subj, verdict["witness"], False)
        problems += ["verdict " + p for p in found]
        if not found and bound_violations(subj, *witness_parts(verdict["witness"], subj.n)):
            obs["conflicts"].append(CONFLICT_WITNESS_VS_BOUNDS)
        flags = subj.pair or {}
        if not all(flags.get("kernel_restriction_semistable", [False])):
            problems.append("semistability verdict without every kernel restriction "
                            "declared semistable")
        stable = any(flags.get("kernel_restriction_stable", []))
        if (kind == "w_stable") != stable:
            problems.append("w_stable must be printed exactly when some kernel restriction "
                            "is declared stable")
    if kind == "strongly_unstable" and payload["region"].get("status") == "feasible":
        obs["conflicts"].append(CONFLICT_UNSTABLE_VS_FEASIBLE)
    if subj.pair is None:
        feasible = payload["region"].get("status") == "feasible"
        if feasible != (kind == "inconclusive"):
            problems.append("raw-sheaf verdict does not follow the region status")
        if not feasible and verdict.get("certificate") is None:
            problems.append("raw-sheaf instability without a certificate")


def _verify_oracle(op, subj: Subject, payload: dict, obs: dict) -> None:
    problems = obs["problems"]
    d, b = op.denominator, op.twist_range
    if payload.get("denominator") != d or payload.get("twist_range") != b:
        problems.append("printed denominator or twist range differs from the op")
    estimate = oracle_estimate(op)
    obs["oracle"] = {"grid_points": estimate["grid_points"], "estimated_checks":
                     estimate["checks"], "witness_checks": payload.get("witness_checks"),
                     "grid_count": payload.get("grid_count")}
    if payload.get("witness_checks") != estimate["checks"]:
        problems.append(f"witness_checks {payload.get('witness_checks')} != estimated "
                        f"{estimate['checks']}")
    expected_grid = grid_count(subj, d)
    if payload.get("grid_count") != expected_grid:
        problems.append(f"grid_count {payload.get('grid_count')} != integer recount "
                        f"{expected_grid}")
    if expected_grid and payload.get("region_status") != "feasible":
        problems.append("grid points exist but the sweep's region is not feasible")
    if estimate["checks"]:
        expected_failures = destabilizer_failures(subj, d, b)
        if len(payload.get("witness_failures", [])) != expected_failures:
            problems.append(f"{len(payload.get('witness_failures', []))} destabilizer "
                            f"failures printed, integer recount finds {expected_failures}")
    if payload.get("agreement") != (not payload.get("discrepancies")):
        problems.append("agreement printed inconsistently with the discrepancy list")
