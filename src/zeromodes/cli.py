"""Config-driven batch front-end: count, verify, sweep, eta, index, bm.

The configuration is one JSON document.  Flux-valued numbers are given as
rational multiples of pi (``"flux_pi": "5/2"`` means 2.5*pi) so staircase
thresholds are decided in exact arithmetic; q is likewise a rational string.
Results are emitted as JSON or CSV with identical numeric payloads; output is
deterministic for a fixed config.

Example config::

    {
      "domain": {"kind": "disc", "radius_out": 3.0,
                 "holes": [{"center": [1.2, 0.4], "radius": 0.35}]},
      "field":  {"bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
                            "flux_pi": "5/2", "profile": "smooth"}],
                 "hole_fluxes_pi": ["1/2"], "q": "0", "kernel": "default"},
      "sweep":  {"phi_pi": {"start": "-6", "stop": "6", "step": "1/8"},
                 "q_values": ["0"]},
      "eta":    {"c_values": ["1/8", "1/4"], "s_values": [0.2, 0.1, 0.05]},
      "bm":     {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0,
                 "s_outer": -1.0, "phi_pi": "1"}
    }

Exit codes: 0 success (and, for ``verify``, all modes passing), 1 verify ran
with failing modes, 2 configuration/validation errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .berry_mondragon import BMConfig, bm_flux_sweep, bm_verify, bm_zero_mode
from .errors import ZeroModesError
from .eta_index import eta_closed, eta_richardson_to_zero, eta_series, index_formula, index_vs_count
from .field import FieldSpec, KernelChoice, PiFlux, Profile, RadialBump, normalize_flux, total_flux, validate_field
from .geometry import DomainKind, DomainSpec, Hole, validate_domain
from .potential import PotentialField
from .zero_modes import GridSpec, build_basis, count_zero_modes, verify_mode

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# values one flux range may hold, so every config does a bounded amount of work
MAX_RANGE_VALUES = 100_000


class ConfigError(Exception):
    pass


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational value {text!r}: {exc}") from None


def _flux(node: Dict[str, Any], key_pi: str, key_raw: str):
    if key_pi in node:
        return PiFlux(_fraction(node[key_pi]))
    if key_raw in node:
        return float(node[key_raw])
    raise ConfigError(f"flux needs either {key_pi!r} or {key_raw!r}")


def _choice(enum, text, key: str):
    try:
        return enum(text)
    except ValueError:
        names = ", ".join(repr(m.value) for m in enum)
        raise ConfigError(f"unknown {key} {text!r}; expected one of {names}") from None


def _rational_range(node) -> List[PiFlux]:
    """Flux values start, start + step, ... up to stop, all multiples of pi."""
    start, stop, step = (_fraction(node[k]) for k in ("start", "stop", "step"))
    if step <= 0:
        raise ConfigError("range step must be positive")
    n = max(0, math.floor((stop - start) / step) + 1)
    if n > MAX_RANGE_VALUES:
        raise ConfigError(f"range holds {n} values; at most {MAX_RANGE_VALUES} are allowed")
    return [PiFlux(start + i * step) for i in range(n)]


def parse_domain(node: Dict[str, Any]) -> DomainSpec:
    kind = node.get("kind")
    holes = [
        Hole(complex(h["center"][0], h["center"][1]), float(h["radius"]))
        for h in node.get("holes", [])
    ]
    if kind == "plane":
        return DomainSpec(DomainKind.PLANE, holes)
    if kind == "disc":
        if "radius_out" not in node:
            raise ConfigError("disc domains need radius_out")
        return DomainSpec(DomainKind.DISC, holes, radius_out=float(node["radius_out"]))
    if kind == "sphere":
        return DomainSpec(DomainKind.SPHERE, holes,
                          omitted_hole=node.get("omitted_hole"))
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_field(node: Dict[str, Any], n_holes: int) -> FieldSpec:
    bumps = []
    for b in node.get("bumps", []):
        bumps.append(RadialBump(
            center=complex(b["center"][0], b["center"][1]),
            support_radius=float(b["support_radius"]),
            flux=_flux(b, "flux_pi", "flux"),
            profile=_choice(Profile, b.get("profile", "smooth"), "profile"),
        ))
    fluxes_pi = node.get("hole_fluxes_pi")
    if fluxes_pi is not None:
        hole_fluxes = [PiFlux(_fraction(t)) for t in fluxes_pi]
    else:
        hole_fluxes = [float(t) for t in node.get("hole_fluxes", [])]
    if len(hole_fluxes) != n_holes:
        raise ConfigError(
            f"{len(hole_fluxes)} hole fluxes given for {n_holes} holes"
        )
    return FieldSpec(
        bumps=bumps,
        hole_fluxes=hole_fluxes,
        q_shift=_fraction(node.get("q", "0")),
        kernel_choice=_choice(KernelChoice, node.get("kernel", "default"), "kernel"),
    )


def load_config(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _validated_problem(config):
    if "domain" not in config or "field" not in config:
        raise ConfigError("config needs 'domain' and 'field' sections")
    domain = parse_domain(config["domain"])
    fld = parse_field(config["field"], domain.n_holes)
    result = validate_domain(domain)
    violations = list(result.violations) + validate_field(fld, domain)
    if violations:
        raise ConfigError("; ".join(violations))
    return domain, fld


def _grid_from(config, args) -> GridSpec:
    node = dict(config.get("grid", {}))
    if args.grid is not None:
        n = int(args.grid)
        node.setdefault("radial", n)
        node.setdefault("angular", 4 * n)
        node.setdefault("bulk_divisor", max(2, n // 2))
        node.setdefault("fd_step_factor", 2.0 / n)
    unknown = sorted(set(node) - set(GridSpec.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown grid keys {unknown}")
    return GridSpec(**node)


def _flux_payload(domain: DomainSpec, fld: FieldSpec) -> Dict[str, Any]:
    normalized = [
        float(normalize_flux(p, fld.q_shift, fld.kernel_choice).value)
        for p in fld.hole_fluxes
    ]
    return {
        "domain": domain.kind.value,
        "phi_total": float(total_flux(fld, domain)),
        "phi_normalized": normalized,
        "q": float(fld.q_shift),
        "kernel_choice": fld.kernel_choice.value,
    }


def cmd_count(config, args) -> Dict[str, Any]:
    domain, fld = _validated_problem(config)
    counted = count_zero_modes(domain, fld)
    payload = _flux_payload(domain, fld)
    payload.update({"count": counted.count, "chirality": counted.chirality.value})
    return {"command": "count", "rows": [payload]}


def cmd_verify(config, args) -> Dict[str, Any]:
    domain, fld = _validated_problem(config)
    grid = _grid_from(config, args)
    tol = float(args.tol) if args.tol is not None else \
        float(config.get("tolerances", {}).get("residual", 1e-6))
    tol_leak = float(config.get("tolerances", {}).get("leakage", tol))
    counted = count_zero_modes(domain, fld)
    base = _flux_payload(domain, fld)
    rows: List[Dict[str, Any]] = []
    if counted.count > 0:
        potential = PotentialField(fld, domain)
        basis = build_basis(domain, fld, potential)
        for mode in basis.modes():
            report = verify_mode(mode, domain, fld, potential, grid,
                                 tol_residual=tol, tol_leakage=tol_leak)
            row = dict(base)
            row.update({
                "count": counted.count,
                "chirality": counted.chirality.value,
                "degree": mode.degree,
                "w_dressed": mode.w_dressed,
                "residuals": {
                    "pde": report.pde_residual,
                    "leakage": [
                        {"boundary": k, "value": v}
                        for k, v in sorted(report.trace_leakage.items())
                    ],
                    "exponent_ok": report.integrability_exponent_ok,
                },
                "passed": report.passed,
            })
            rows.append(row)
    note = "sphere modes carry the W^(-1/2) conformal dressing" \
        if domain.kind is DomainKind.SPHERE else ""
    return {"command": "verify", "note": note, "rows": rows,
            "all_passed": all(r["passed"] for r in rows)}


def cmd_sweep(config, args) -> Dict[str, Any]:
    node = config.get("sweep")
    if not node:
        raise ConfigError("config needs a 'sweep' section")
    values = _rational_range(node["phi_pi"])
    q_values = [_fraction(t) for t in node.get("q_values", ["0"])]
    radius_out = float(node.get("radius_out", 5.0))
    plane = DomainSpec(DomainKind.PLANE, [])
    disc = DomainSpec(DomainKind.DISC, [], radius_out=radius_out)
    rows = []
    prev: Dict[str, int] = {}
    for phi in values:
        row: Dict[str, Any] = {"phi_pi": str(phi.multiplier), "phi": float(phi)}
        jumped: List[str] = []
        fld0 = FieldSpec(bumps=[RadialBump(0.0, 1.0, phi)], hole_fluxes=[])
        row["count_plane"] = count_zero_modes(plane, fld0).count
        for q in q_values:
            fldq = FieldSpec(bumps=[RadialBump(0.0, 1.0, phi)], hole_fluxes=[],
                             q_shift=q)
            key = f"count_disc_q={q}"
            counted = count_zero_modes(disc, fldq)
            row[key] = counted.count
            assembly = index_formula(disc, fldq)
            row[f"index_q={q}"] = assembly.index
            row[f"eta_outer_q={q}"] = assembly.boundary_eta["outer"]
            if key in prev and prev[key] != counted.count:
                jumped.append(key)
            prev[key] = counted.count
        row["jumps"] = ";".join(jumped)
        rows.append(row)
    return {"command": "sweep", "rows": rows}


def cmd_eta(config, args) -> Dict[str, Any]:
    node = config.get("eta", {})
    c_values = [_fraction(t) for t in node.get("c_values", ["1/8", "1/4", "1/3", "1/2", "3/4"])]
    s_values = [float(s) for s in node.get("s_values", [0.2, 0.1, 0.05])]
    n_terms = int(node.get("n_terms", 4000))
    rows = []
    for c in c_values:
        series = [
            {"s": s, "value": eta_series(c, s, n_terms).value} for s in s_values
        ]
        rows.append({
            "c": str(c),
            "eta_closed": eta_closed(c),
            "eta_richardson": eta_richardson_to_zero(c, tuple(s_values), n_terms),
            "eta": series,
        })
    return {"command": "eta", "rows": rows}


def cmd_index(config, args) -> Dict[str, Any]:
    domain, fld = _validated_problem(config)
    if domain.kind is DomainKind.PLANE:
        raise ConfigError("the index table applies to disc and sphere domains")
    report = index_vs_count(domain, fld)
    assembly = report.assembly
    payload = _flux_payload(domain, fld)
    payload.update({
        "index": report.index,
        "index_raw": assembly.raw,
        "eta": [
            {"boundary": k, "value": v}
            for k, v in sorted(assembly.boundary_eta.items())
        ],
        "kernel_dims": [
            {"boundary": k, "value": v}
            for k, v in sorted(assembly.kernel_dims.items())
        ],
        "count": report.count,
        "chirality": report.chirality.value,
        "signed_count": report.signed_count,
        "consistent": report.consistent,
    })
    return {"command": "index", "rows": [payload]}


def cmd_bm(config, args) -> Dict[str, Any]:
    node = config.get("bm")
    if not node:
        raise ConfigError("config needs a 'bm' section")
    cfg = BMConfig(
        r_inner=float(node["r_inner"]),
        r_outer=float(node["r_outer"]),
        phi=_flux(node, "phi_pi", "phi"),
        s_inner=float(node["s_inner"]),
        s_outer=float(node["s_outer"]),
    )
    rows = []
    if "sweep" in node:
        sw = node["sweep"]
        rows = bm_flux_sweep(cfg, _rational_range(sw),
                             unbounded=bool(sw.get("unbounded", False)))
        return {"command": "bm", "rows": rows}
    mode = bm_zero_mode(cfg)
    row: Dict[str, Any] = {
        "phi": float(cfg.phi),
        "has_mode": mode is not None,
        "n": mode.n if mode else None,
    }
    if mode is not None:
        report = bm_verify(cfg, mode)
        row["residuals"] = {
            "pde": report.pde_residual,
            "boundary": [
                {"boundary": k, "value": v}
                for k, v in sorted(report.trace_leakage.items())
            ],
        }
        row["passed"] = report.passed
    return {"command": "bm", "rows": [row]}


# ----------------------------------------------------------------------------
# output
# ----------------------------------------------------------------------------


def _flatten(prefix: str, value, into: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, into)
    else:
        into[prefix] = value


def render_csv(document: Dict[str, Any]) -> str:
    rows = document.get("rows", [])
    flat_rows = []
    keys: List[str] = []
    for row in rows:
        flat: Dict[str, Any] = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
        for k in flat:
            if k not in keys:
                keys.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for flat in flat_rows:
        line = []
        for k in keys:
            v = flat.get(k, "")
            line.append(repr(v) if isinstance(v, float) else v)
        writer.writerow(line)
    return buf.getvalue()


def render(document: Dict[str, Any], fmt: str) -> str:
    if fmt == "csv":
        return render_csv(document)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


COMMANDS = {
    "count": cmd_count,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "eta": cmd_eta,
    "index": cmd_index,
    "bm": cmd_bm,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeromodes",
        description="Zero modes, eta invariants and index tables for magnetic "
                    "Dirac operators with spectral boundary conditions.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--tol", type=float, help="override residual tolerance")
    parser.add_argument("--grid", type=int, help="grid scale parameter")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        document = COMMANDS[args.command](config, args)
    except (ConfigError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroModesError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    text = render(document, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not document.get("all_passed", True):
        return EXIT_FAILED_CHECKS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
