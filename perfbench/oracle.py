"""Independent check of CLI output.

Nothing here calls the library.  Counts and chirality come from the strict
floor in exact ``Fraction`` arithmetic (floor*(y) = ceil(y) - 1), eta values
from the Hurwitz identity eta_s(c) = zeta(s, 1 - c) - zeta(s, c) in mpmath,
and the Berry-Mondragon table from the odd-multiple-of-pi rule.  Verify rows
must all pass, within the library's default tolerances, and there must be as
many of them as the exact count.

A check returns how many operations (table rows or verified modes) the job
was meant to produce and a list of failures.  A missing row, a non-zero exit
code and an unparsable document are failures of every expected row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

import mpmath

HALF = Fraction(1, 2)
TOL_RESIDUAL = 1e-6  # verify_mode defaults; the benchmark never passes --tol
TOL_LEAKAGE = 1e-6
TOL_BM_RESIDUAL = 1e-6
TOL_BM_BOUNDARY = 1e-8
RICHARDSON_TOL = 1e-3  # stated accuracy of the four-level eta continuation
DEFAULT_ETA_TERMS = 4000

mpmath.mp.dps = 30


@dataclass(frozen=True)
class Failure:
    job: str
    reason: str
    # float-flux index rows whose raw assembly is not the signed count: a
    # known defect of the library's float threshold path, counted but told
    # apart so that any other failure still marks the run incorrect
    known_defect: bool = False


@dataclass
class Verdict:
    attempted: int
    failures: List[Failure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def floor_strict(y: Fraction) -> int:
    return math.ceil(y) - 1


def window(x: Fraction, q: Fraction) -> Fraction:
    """x folded by integers into the gauge window [-q - 1/2, -q + 1/2)."""
    return x - math.floor(x + q + HALF)


def unit_part(c: Fraction) -> Fraction:
    return c - math.floor(c)


def disc_count(y: Fraction):
    """(count, chirality, signed count) for the shifted disc formula at y."""
    n = floor_strict(y)
    if n == 0:
        return 0, "none", 0
    return abs(n), "up" if y > 0 else "down", n


def plane_count(x: Fraction):
    n = max(0, floor_strict(abs(x)))
    if n == 0:
        return 0, "none"
    return n, "up" if x > 0 else "down"


def eta_closed(c: Fraction) -> float:
    return 0.0 if c.denominator == 1 else float(-1 + 2 * unit_part(c))


def eta_tail_bound(s: float, c: float, n_terms: int) -> float:
    """Truncation bound of the accelerated series, as the library states it."""
    return abs(s) * c * n_terms ** (-s - 1.0) \
        + 11.0 * abs(s * (s + 1.0)) * n_terms ** (-s - 2.0)


def eta_hurwitz(s: float, c: Fraction) -> float:
    a = mpmath.mpf(unit_part(c).numerator) / unit_part(c).denominator
    return float(mpmath.zeta(s, 1 - a) - mpmath.zeta(s, a))


def close(a, b, tol=1e-9) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol * max(1.0, abs(b))


def rational_range(node) -> List[Fraction]:
    start, stop, step = (Fraction(str(node[k])) for k in ("start", "stop", "step"))
    return [start + i * step for i in range(int((stop - start) / step) + 1)]


def _flux_over_2pi(field_node) -> Fraction:
    """Total (disc) flux over 2 pi from an exact config, gauge-folded holes."""
    q = Fraction(str(field_node.get("q", "0")))
    bumps = sum((Fraction(str(b["flux_pi"])) for b in field_node.get("bumps", [])), Fraction(0))
    holes = [Fraction(str(h)) for h in field_node.get("hole_fluxes_pi", [])]
    return bumps / 2 + sum((window(h / 2, q) for h in holes), Fraction(0))


def expected_ops(command: str, config: dict) -> int:
    if command == "verify":
        return _verify_expectation(config)[0]
    if command == "sweep":
        return len(rational_range(config["sweep"]["phi_pi"]))
    if command == "eta":
        return len(config["eta"]["c_values"])
    if command == "bm" and "sweep" in config["bm"]:
        return len(rational_range(config["bm"]["sweep"]))
    return 1


def _verify_expectation(config):
    dom, fld = config["domain"], config["field"]
    if dom["kind"] == "sphere":
        om = dom["omitted_hole"]
        fld = dict(fld, hole_fluxes_pi=[h for j, h in enumerate(fld["hole_fluxes_pi"])
                                        if j != om])
        n_holes = len(dom["holes"]) - 1
    else:
        n_holes = len(dom["holes"])
    x = _flux_over_2pi(fld)
    count, chirality, _ = disc_count(x + Fraction(str(fld.get("q", "0"))) + HALF)
    labels = [f"hole{j}" for j in range(n_holes)] + ["outer"]
    return count, chirality, labels, float(2 * x) * math.pi


def check(job: str, command: str, config: dict, text: str, returncode: int) -> Verdict:
    """Check one job's output document against the config that produced it."""
    expected = expected_ops(command, config)
    verdict = Verdict(expected)
    fail = verdict.failures
    if returncode != 0:
        fail.extend(Failure(job, f"exit code {returncode}") for _ in range(expected))
        return verdict
    try:
        doc = json.loads(text)
        rows = doc["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        fail.extend(Failure(job, f"unparsable output: {exc}") for _ in range(expected))
        return verdict
    if doc.get("command") != command:
        fail.append(Failure(job, f"command field {doc.get('command')!r}"))
    if len(rows) != expected:
        fail.extend(Failure(job, f"{len(rows)} rows, expected {expected}")
                    for _ in range(abs(expected - len(rows))))
    checker = {"verify": _check_verify, "sweep": _check_sweep, "eta": _check_eta,
               "index": _check_index, "bm": _check_bm}[command]
    for reason, known in checker(config, rows[:expected]):
        fail.append(Failure(job, reason, known))
    return verdict


def _check_verify(config, rows):
    count, chirality, labels, phi_total = _verify_expectation(config)
    sphere = config["domain"]["kind"] == "sphere"
    for i, row in enumerate(rows):
        bad = []
        if row.get("degree") != i:
            bad.append(f"degree {row.get('degree')} != {i}")
        if (row.get("count"), row.get("chirality")) != (count, chirality):
            bad.append(f"count {row.get('count')} {row.get('chirality')}, "
                       f"expected {count} {chirality}")
        if not close(row.get("phi_total"), phi_total):
            bad.append(f"phi_total {row.get('phi_total')} != {phi_total}")
        if row.get("w_dressed") is not sphere:
            bad.append("w_dressed flag")
        res = row.get("residuals", {})
        pde = res.get("pde")
        if not (isinstance(pde, float) and 0.0 <= pde < TOL_RESIDUAL):
            bad.append(f"pde residual {pde}")
        leak = {e.get("boundary"): e.get("value") for e in res.get("leakage", [])}
        if sorted(leak) != sorted(labels):
            bad.append(f"leakage circles {sorted(leak)}")
        elif not all(isinstance(v, float) and 0.0 <= v < TOL_LEAKAGE for v in leak.values()):
            bad.append(f"leakage {leak}")
        if res.get("exponent_ok") is not None:
            bad.append("exponent check on a bounded domain")
        if row.get("passed") is not True:
            bad.append("passed is false")
        if bad:
            yield f"mode {i}: " + "; ".join(bad), False


def _check_sweep(config, rows):
    node = config["sweep"]
    q_values = [Fraction(str(q)) for q in node.get("q_values", ["0"])]
    prev = {}
    for m, row in zip(rational_range(node["phi_pi"]), rows):
        x = m / 2
        bad = []
        if row.get("phi_pi") != str(m) or not close(row.get("phi"), float(m) * math.pi, 1e-12):
            bad.append(f"phi {row.get('phi_pi')}")
        if row.get("count_plane") != plane_count(x)[0]:
            bad.append(f"count_plane {row.get('count_plane')}")
        jumped = []
        for q in q_values:
            key = f"count_disc_q={q}"
            count, _, signed = disc_count(x + q + HALF)
            if row.get(key) != count:
                bad.append(f"{key} {row.get(key)} != {count}")
            if row.get(f"index_q={q}") != signed:
                bad.append(f"index_q={q} {row.get(f'index_q={q}')} != {signed}")
            eta = eta_closed(x + q - HALF)
            if not close(row.get(f"eta_outer_q={q}"), eta, 1e-12):
                bad.append(f"eta_outer_q={q} {row.get(f'eta_outer_q={q}')} != {eta}")
            if key in prev and prev[key] != count:
                jumped.append(key)
            prev[key] = count
        if row.get("jumps") != ";".join(jumped):
            bad.append(f"jumps {row.get('jumps')!r}")
        if bad:
            yield f"phi_pi {m}: " + "; ".join(bad), False


def _check_eta(config, rows):
    node = config["eta"]
    s_values = [float(s) for s in node["s_values"]]
    n_terms = int(node.get("n_terms", DEFAULT_ETA_TERMS))
    for text, row in zip(node["c_values"], rows):
        c = Fraction(str(text))
        bad = []
        closed = eta_closed(c)
        if row.get("c") != str(c):
            bad.append(f"c {row.get('c')}")
        if not close(row.get("eta_closed"), closed, 1e-12):
            bad.append(f"eta_closed {row.get('eta_closed')} != {closed}")
        if not close(row.get("eta_richardson"), closed, RICHARDSON_TOL):
            bad.append(f"eta_richardson {row.get('eta_richardson')} vs {closed}")
        series = row.get("eta", [])
        if [e.get("s") for e in series] != s_values:
            bad.append("s values")
        cu = float(unit_part(c))
        for e in series:
            s, value = e.get("s"), e.get("value")
            ref = eta_hurwitz(s, c)
            bound = eta_tail_bound(s, cu, n_terms) + 1e-12 * max(1.0, abs(ref))
            if not (isinstance(value, float) and abs(value - ref) <= bound):
                bad.append(f"eta_s at s={s}: {value} vs Hurwitz {ref} (bound {bound:.2e})")
        if bad:
            yield f"c {c}: " + "; ".join(bad), False


def _signed(row):
    return {"up": 1, "down": -1, "none": 0}.get(row.get("chirality"), None), row.get("count")


def _check_index(config, rows):
    fld = config["field"]
    for row in rows:
        sign, count = _signed(row)
        signed = row.get("signed_count")
        raw = row.get("index_raw")
        if sign is None or not isinstance(count, int) or signed != sign * count:
            yield f"signed count {signed} vs {count} {row.get('chirality')}", False
            continue
        if "hole_fluxes_pi" in fld:
            q = Fraction(str(fld.get("q", "0")))
            want_count, want_chirality, want_signed = disc_count(
                _flux_over_2pi(fld) + q + HALF)
            bad = []
            if (count, row.get("chirality")) != (want_count, want_chirality):
                bad.append(f"count {count} {row.get('chirality')}, "
                           f"expected {want_count} {want_chirality}")
            if row.get("index") != want_signed or not close(raw, want_signed):
                bad.append(f"index {row.get('index')} raw {raw}, expected {want_signed}")
            if row.get("consistent") is not True:
                bad.append("consistent is false")
            if bad:
                yield "exact fluxes: " + "; ".join(bad), False
            continue
        # float fluxes: the raw assembly must be an integer equal to the count
        integral = isinstance(raw, float) and abs(raw - round(raw)) <= 1e-9
        if not (integral and round(raw) == signed):
            yield (f"float fluxes: index_raw {raw} != signed count {signed} "
                   f"(consistent={row.get('consistent')})"), True
        elif row.get("consistent") is not True:
            yield "float fluxes: consistent is false", False


def _check_bm(config, rows):
    node = config["bm"]
    if node["s_inner"] != -node["s_outer"]:
        raise ValueError("the oracle covers |S_in| = |S_out| with opposite signs")
    if "sweep" in node:
        for m, row in zip(rational_range(node["sweep"]), rows):
            has = m.denominator == 1 and m.numerator % 2 == 1
            n = (m.numerator + 1) // 2 if has else None
            if not close(row.get("phi"), float(m) * math.pi, 1e-12) \
                    or row.get("has_mode") is not has or row.get("n") != n:
                yield f"bm sweep phi_pi {m}: has_mode {row.get('has_mode')} n {row.get('n')}", False
        return
    m = Fraction(str(node["phi_pi"]))
    for row in rows:
        res = row.get("residuals", {})
        pde = res.get("pde")
        boundary = [e.get("value") for e in res.get("boundary", [])]
        ok = (row.get("has_mode") is True and row.get("n") == (m.numerator + 1) // 2
              and isinstance(pde, float) and pde < TOL_BM_RESIDUAL
              and len(boundary) == 2
              and all(isinstance(v, float) and v < TOL_BM_BOUNDARY for v in boundary)
              and row.get("passed") is True)
        if not ok:
            yield f"bm verify phi_pi {m}: {row}", False
