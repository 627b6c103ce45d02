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
      "eta":    {"c_values": ["1/8", "1/4"], "s_values": [0.2, 0.1, 0.05, 0.025]},
      "bm":     {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0,
                 "s_outer": -1.0, "phi_pi": "1"}
    }

Exit codes: 0 success (and, for ``verify``, all modes passing), 1 verify ran
with failing modes, 2 configuration/validation errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .berry_mondragon import BMConfig, bm_flux_sweep, bm_verify, bm_zero_mode
from .conformal import flat_problem
from .errors import ZeroModesError
from .eta_index import (DEFAULT_N_TERMS, DEFAULT_S_VALUES, check_s_values, eta_closed,
                        eta_series, index_formula, index_vs_count, richardson_to_zero)
from .field import FieldSpec, KernelChoice, PiFlux, Profile, RadialBump, validate_field
from .geometry import DomainKind, DomainSpec, Hole, validate_domain
from .potential import PotentialField
from .zero_modes import GridSpec, build_basis, check_tolerances, count_zero_modes, verify_modes

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# values one flux range may hold, so every config does a bounded amount of work
MAX_RANGE_VALUES = 100_000
# modes one verify may check: its work, and each chunk's stencil values, grow with the count
MAX_VERIFY_MODES = 256


class ConfigError(Exception):
    pass


def _fraction(text) -> Fraction:
    try:
        value = Fraction(str(text))
        float(value)  # a value past the float range overflows wherever it is used
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad rational value {text!r}: {exc}") from None
    return value


def _number(value, key: str) -> float:
    """float(value), refusing a JSON boolean, which float() reads as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _real(value, key: str) -> float:
    number = _number(value, key)
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _object(node, key: str) -> Dict[str, Any]:
    """``node`` itself, if it is a JSON object; a list would be read by index
    or as pairs."""
    if not isinstance(node, dict):
        raise ConfigError(f"{key} must be a JSON object, got {node!r}")
    return node


def _required(node: Dict[str, Any], key: str, section: str):
    """``node[key]``; a missing key names the section that needs it."""
    if key not in node:
        raise ConfigError(f"{section} needs {key!r}")
    return node[key]


def _array(node: Dict[str, Any], key: str, default) -> list:
    """The JSON array at ``key``; a string would be split into characters."""
    value = node.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON array, got {value!r}")
    return value


def _point(pair, key: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{key} must be a pair [x, y], got {pair!r}")
    return complex(_real(pair[0], key), _real(pair[1], key))


def _flux(node: Dict[str, Any], key_pi: str, key_raw: str):
    if key_pi in node:
        return PiFlux(_fraction(node[key_pi]))
    if key_raw in node:
        return _real(node[key_raw], key_raw)
    raise ConfigError(f"flux needs either {key_pi!r} or {key_raw!r}")


def _choice(enum, text, key: str):
    try:
        return enum(text)
    except ValueError:
        names = ", ".join(repr(m.value) for m in enum)
        raise ConfigError(f"unknown {key} {text!r}; expected one of {names}") from None


def _rational_range(node, section: str) -> List[PiFlux]:
    """Flux values start, start + step, ... up to stop, all multiples of pi."""
    node = _object(node, section)
    start, stop, step = (_fraction(_required(node, k, section))
                         for k in ("start", "stop", "step"))
    if step <= 0:
        raise ConfigError("range step must be positive")
    n = max(0, math.floor((stop - start) / step) + 1)
    if n > MAX_RANGE_VALUES:
        raise ConfigError(f"range holds {n} values; at most {MAX_RANGE_VALUES} are allowed")
    return [PiFlux(start + i * step) for i in range(n)]


def parse_domain(node: Dict[str, Any]) -> DomainSpec:
    node = _object(node, "domain")
    kind = node.get("kind")
    holes = [
        Hole(_point(_required(h, "center", "hole"), "hole center"),
             _real(_required(h, "radius", "hole"), "hole radius"))
        for h in (_object(entry, "hole") for entry in _array(node, "holes", []))
    ]
    if kind == "plane":
        return DomainSpec(DomainKind.PLANE, holes)
    if kind == "disc":
        if "radius_out" not in node:
            raise ConfigError("disc domains need radius_out")
        radius_out = _real(node["radius_out"], "radius_out")
        return DomainSpec(DomainKind.DISC, holes, radius_out=radius_out)
    if kind == "sphere":
        omitted = node.get("omitted_hole")
        if omitted is not None and (not isinstance(omitted, int) or isinstance(omitted, bool)):
            raise ConfigError(f"omitted_hole must be a hole index, got {omitted!r}")
        return DomainSpec(DomainKind.SPHERE, holes, omitted_hole=omitted)
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_field(node: Dict[str, Any], n_holes: Optional[int] = None) -> FieldSpec:
    """The field section as a FieldSpec.

    ``n_holes`` is not read: one flux per hole is checked where the field
    meets its domain (``validate_field``, and ``flat_problem`` for library
    callers).  It stays a parameter so callers that pass it keep working.
    """
    node = _object(node, "field")
    bumps = []
    for b in (_object(entry, "bump") for entry in _array(node, "bumps", [])):
        bumps.append(RadialBump(
            center=_point(_required(b, "center", "bump"), "bump center"),
            support_radius=_real(_required(b, "support_radius", "bump"), "support_radius"),
            flux=_flux(b, "flux_pi", "flux"),
            profile=_choice(Profile, b.get("profile", "smooth"), "profile"),
        ))
    if "hole_fluxes_pi" in node:
        hole_fluxes = [PiFlux(_fraction(t)) for t in _array(node, "hole_fluxes_pi", [])]
    else:
        hole_fluxes = [_real(t, "hole flux") for t in _array(node, "hole_fluxes", [])]
    return FieldSpec(
        bumps=bumps,
        hole_fluxes=hole_fluxes,
        q_shift=_fraction(node.get("q", "0")),
        kernel_choice=_choice(KernelChoice, node.get("kernel", "default"), "kernel"),
    )


def load_config(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return _object(json.load(fh), "config")


def _validated_problem(config):
    if "domain" not in config or "field" not in config:
        raise ConfigError("config needs 'domain' and 'field' sections")
    domain = parse_domain(config["domain"])
    fld = parse_field(config["field"])
    # field checks index the domain's holes, so they run on a valid domain only
    violations = validate_domain(domain).violations or validate_field(fld, domain)
    if violations:
        raise ConfigError("; ".join(violations))
    return domain, fld


def _grid_from(config, args) -> GridSpec:
    node = dict(_object(config.get("grid", {}), "grid"))
    if args.grid is not None:
        n = int(args.grid)
        if n < 1:
            raise ConfigError(f"grid scale must be positive, got {n}")
        node.setdefault("radial", n)
        node.setdefault("angular", 4 * n)
        node.setdefault("bulk_divisor", max(2, n // 2))
        node.setdefault("fd_step_factor", 2.0 / n)
    unknown = sorted(set(node) - set(GridSpec.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown grid keys {unknown}")
    return GridSpec(**node)


def _flux_payload(domain: DomainSpec, fld: FieldSpec) -> Dict[str, Any]:
    normalized = [float(nf.value) for nf in fld.normalized_hole_fluxes]
    return {
        "domain": domain.kind.value,
        "phi_total": float(flat_problem(domain, fld)[1].total_flux),
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
    tolerances = _object(config.get("tolerances", {}), "tolerances")
    unknown = sorted(set(tolerances) - {"residual", "leakage"})
    if unknown:
        raise ConfigError(f"unknown tolerances keys {unknown}")
    tol = float(args.tol) if args.tol is not None else \
        _number(tolerances.get("residual", 1e-6), "residual tolerance")
    tol_leak = _number(tolerances.get("leakage", tol), "leakage tolerance")
    check_tolerances(tol, tol_leak)  # also when there is no mode to verify
    counted = count_zero_modes(domain, fld)
    if counted.count > MAX_VERIFY_MODES:
        raise ConfigError(f"verify would check {counted.count} modes; "
                          f"at most {MAX_VERIFY_MODES} are allowed")
    base = _flux_payload(domain, fld)
    rows: List[Dict[str, Any]] = []
    if counted.count > 0:
        potential = PotentialField(fld, domain)
        modes = build_basis(domain, fld, potential).modes()
        reports = verify_modes(modes, domain, fld, potential, grid,
                               tol_residual=tol, tol_leakage=tol_leak)
        for mode, report in zip(modes, reports):
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
    node = _object(config.get("sweep", {}), "sweep")
    if not node:
        raise ConfigError("config needs a 'sweep' section")
    values = _rational_range(_required(node, "phi_pi", "sweep"), "sweep.phi_pi")
    # (q, count key, index key, eta key) per column group, built once
    columns = [(q, f"count_disc_q={q}", f"index_q={q}", f"eta_outer_q={q}")
               for q in (_fraction(t) for t in _array(node, "q_values", ["0"]))]
    radius_out = _real(node.get("radius_out", 5.0), "radius_out")
    plane = DomainSpec(DomainKind.PLANE, [])
    disc = DomainSpec(DomainKind.DISC, [], radius_out=radius_out)
    rows = []
    prev: Dict[str, int] = {}
    for phi in values:
        row: Dict[str, Any] = {"phi_pi": str(phi.multiplier), "phi": float(phi)}
        jumped: List[str] = []
        bumps = [RadialBump(0.0, 1.0, phi)]
        row["count_plane"] = count_zero_modes(plane, FieldSpec(bumps=bumps)).count
        for q, key, index_key, eta_key in columns:
            fldq = FieldSpec(bumps=bumps, q_shift=q)
            counted = count_zero_modes(disc, fldq)
            row[key] = counted.count
            assembly = index_formula(disc, fldq)
            row[index_key] = assembly.index
            row[eta_key] = assembly.boundary_eta["outer"]
            if key in prev and prev[key] != counted.count:
                jumped.append(key)
            prev[key] = counted.count
        row["jumps"] = ";".join(jumped)
        rows.append(row)
    return {"command": "sweep", "rows": rows}


def cmd_eta(config, args) -> Dict[str, Any]:
    node = _object(config.get("eta", {}), "eta")
    c_values = [_fraction(t)
                for t in _array(node, "c_values", ["1/8", "1/4", "1/3", "1/2", "3/4"])]
    s_values = [_number(s, "eta s value")
                for s in _array(node, "s_values", list(DEFAULT_S_VALUES))]
    n_terms = node.get("n_terms", DEFAULT_N_TERMS)
    if not isinstance(n_terms, int) or isinstance(n_terms, bool):
        raise ConfigError(f"eta n_terms must be an integer, got {n_terms!r}")
    check_s_values(s_values)
    rows = []
    for c in c_values:
        values = [eta_series(c, s, n_terms).value for s in s_values]
        rows.append({
            "c": str(c),
            "eta_closed": eta_closed(c),
            "eta_richardson": richardson_to_zero(values),
            "eta": [{"s": s, "value": v} for s, v in zip(s_values, values)],
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
    node = _object(config.get("bm", {}), "bm")
    if not node:
        raise ConfigError("config needs a 'bm' section")
    cfg = BMConfig(
        r_inner=_real(_required(node, "r_inner", "bm"), "r_inner"),
        r_outer=_real(_required(node, "r_outer", "bm"), "r_outer"),
        phi=_flux(node, "phi_pi", "phi"),
        s_inner=_real(_required(node, "s_inner", "bm"), "s_inner"),
        s_outer=_real(_required(node, "s_outer", "bm"), "s_outer"),
    )
    rows = []
    if "sweep" in node:
        sw = _object(node["sweep"], "bm.sweep")
        unbounded = sw.get("unbounded", False)
        if not isinstance(unbounded, bool):
            raise ConfigError(f"bm sweep unbounded must be true or false, got {unbounded!r}")
        rows = bm_flux_sweep(cfg, _rational_range(sw, "bm.sweep"), unbounded=unbounded)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call of a process.

    Parsing leaves the parser as it was, so later calls share it.
    """
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)

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
