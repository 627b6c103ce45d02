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

Every section of a config is parsed and checked once, keys and values, when
the config is loaded (:func:`parse_config`), whichever command runs, eta's
``c`` and ``n_terms`` among them; only a computation's own checks, such as
a sphere's q, wait for it.  A key that nothing reads is a configuration
error, and so is a value given both ways (``flux`` and ``flux_pi``,
``hole_fluxes`` and ``hole_fluxes_pi``, ``phi`` and ``phi_pi``).  ``--tol``
and ``--grid`` apply to ``verify`` only; any other command refuses them.
A ``bm`` section with a ``sweep`` range prints one ``{phi, has_mode, n}``
row per flux and needs no ``phi`` of its own; without one, ``bm`` reports
the single configuration's mode and its verification.

Exit codes: 0 success (and, for ``verify``, all modes passing), 1 verify ran
with failing modes, 2 configuration/validation errors (an ``--out`` path that
cannot be written too), 3 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Tuple

from .berry_mondragon import BMConfig, bm_flux_sweep, bm_verify, bm_zero_mode
from .conformal import Problem, flat_problem
from .errors import GridTooCoarse, ZeroModesError
from .eta_index import (DEFAULT_N_TERMS, DEFAULT_S_VALUES, check_c_and_n_terms, check_s_values,
                        eta_closed, eta_series, index_formula, index_vs_count,
                        richardson_to_zero)
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
    """float(value) of a JSON number; a boolean (float() reads it as 0 or 1), a
    string, a list, null and an integer past the float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} must be within the float range") from None


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


def _known(node, section: str, keys) -> Dict[str, Any]:
    """``node`` itself, if it is a JSON object whose keys are all among
    ``keys``: nothing would read another key."""
    unknown = _object(node, section).keys() - keys
    if unknown:
        raise ConfigError(f"unknown {section} keys {sorted(unknown)}")
    return node


def _not_both(node: Dict[str, Any], key_pi: str, key_raw: str) -> None:
    if key_pi in node and key_raw in node:
        raise ConfigError(f"give either {key_pi!r} or {key_raw!r}, not both")


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
    _not_both(node, key_pi, key_raw)
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


# the keys of a flux range
_RANGE_KEYS = ("start", "stop", "step")


def _rational_range(node, section: str) -> Callable[[], List[PiFlux]]:
    """Flux values start, start + step, ... up to stop, all multiples of pi:
    checked now, made when called, so a command that reads no range pays none."""
    node = _known(node, section, _RANGE_KEYS)
    start, stop, step = (_fraction(_required(node, k, section)) for k in _RANGE_KEYS)
    if step <= 0:
        raise ConfigError("range step must be positive")
    n = max(0, math.floor((stop - start) / step) + 1)
    if n > MAX_RANGE_VALUES:
        raise ConfigError(f"range holds {n} values; at most {MAX_RANGE_VALUES} are allowed")
    return lambda: [PiFlux(start + i * step) for i in range(n)]


# the keys a domain of each kind reads
_DOMAIN_KEYS = {DomainKind.PLANE: ("kind", "holes"),
                DomainKind.DISC: ("kind", "holes", "radius_out"),
                DomainKind.SPHERE: ("kind", "holes", "omitted_hole")}


def _hole(node) -> Hole:
    node = _known(node, "hole", ("center", "radius"))
    return Hole(_point(_required(node, "center", "hole"), "hole center"),
                _real(_required(node, "radius", "hole"), "hole radius"))


def parse_domain(node: Dict[str, Any]) -> DomainSpec:
    node = _object(node, "domain")
    kind = _choice(DomainKind, node.get("kind"), "domain kind")
    _known(node, f"{kind.value} domain", _DOMAIN_KEYS[kind])
    holes = [_hole(entry) for entry in _array(node, "holes", [])]
    if kind is DomainKind.DISC:
        if "radius_out" not in node:
            raise ConfigError("disc domains need radius_out")
        return DomainSpec(kind, holes, radius_out=_real(node["radius_out"], "radius_out"))
    if kind is DomainKind.SPHERE:
        omitted = node.get("omitted_hole")
        if omitted is not None and (not isinstance(omitted, int) or isinstance(omitted, bool)):
            raise ConfigError(f"omitted_hole must be a hole index, got {omitted!r}")
        return DomainSpec(kind, holes, omitted_hole=omitted)
    return DomainSpec(kind, holes)


def parse_field(node: Dict[str, Any], n_holes: Optional[int] = None) -> FieldSpec:
    """The field section as a FieldSpec.

    ``n_holes`` is not read: one flux per hole is checked where the field
    meets its domain (``validate_field``, and ``flat_problem`` for library
    callers).  It stays a parameter so callers that pass it keep working.
    """
    node = _known(node, "field", ("bumps", "hole_fluxes_pi", "hole_fluxes", "q", "kernel"))
    bumps = []
    for b in (_known(entry, "bump", ("center", "support_radius", "flux_pi", "flux", "profile"))
              for entry in _array(node, "bumps", [])):
        bumps.append(RadialBump(
            center=_point(_required(b, "center", "bump"), "bump center"),
            support_radius=_real(_required(b, "support_radius", "bump"), "support_radius"),
            flux=_flux(b, "flux_pi", "flux"),
            profile=_choice(Profile, b.get("profile", "smooth"), "profile"),
        ))
    _not_both(node, "hole_fluxes_pi", "hole_fluxes")
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


def _grid(node, args) -> GridSpec:
    """The grid section as a GridSpec; ``--grid N`` gives the keys it leaves out."""
    node = _known(node, "grid", GridSpec.__dataclass_fields__)
    if args.grid is not None:
        n = args.grid
        if n < 1:
            raise ConfigError(f"grid scale must be positive, got {n}")
        node = {"radial": n, "angular": 4 * n, "bulk_divisor": max(2, n // 2),
                "fd_step_factor": GridSpec.fd_step_factor * 64 / n, **node}
    return GridSpec(**node)


def _tolerances(node, args) -> Tuple[float, float]:
    """The residual and leakage tolerances; ``--tol`` overrides the residual one."""
    node = _known(node, "tolerances", ("residual", "leakage"))
    tol = float(args.tol) if args.tol is not None else \
        _number(node.get("residual", 1e-6), "residual tolerance")
    tol_leak = _number(node.get("leakage", tol), "leakage tolerance")
    check_tolerances(tol, tol_leak)
    return tol, tol_leak


def _sweep(node, args) -> Tuple[Callable[[], List[PiFlux]], List[Fraction]]:
    """The sweep's fluxes, made when called, and its q values."""
    node = _known(node, "sweep", ("phi_pi", "q_values"))
    return (_rational_range(_required(node, "phi_pi", "sweep"), "sweep.phi_pi"),
            [_fraction(t) for t in _array(node, "q_values", ["0"])])


def _eta(node, args) -> Tuple[List[Fraction], List[float], int]:
    """The eta table's c values, s values and number of series terms."""
    node = _known(node, "eta", ("c_values", "s_values", "n_terms"))
    c_values = [_fraction(t)
                for t in _array(node, "c_values", ["1/8", "1/4", "1/3", "1/2", "3/4"])]
    s_values = [_number(s, "eta s value")
                for s in _array(node, "s_values", list(DEFAULT_S_VALUES))]
    n_terms = node.get("n_terms", DEFAULT_N_TERMS)
    if not isinstance(n_terms, int) or isinstance(n_terms, bool):
        raise ConfigError(f"eta n_terms must be an integer, got {n_terms!r}")
    check_s_values(s_values)
    check_c_and_n_terms(c_values, n_terms)
    return c_values, s_values, n_terms


def _bm(node, args) -> Tuple[BMConfig, Optional[Callable[[], List[PiFlux]]]]:
    """The Berry–Mondragon configuration, and its sweep's fluxes if it has one."""
    node = _known(node, "bm",
                  ("r_inner", "r_outer", "s_inner", "s_outer", "phi_pi", "phi", "sweep"))
    # a sweep gives each row its own flux, so it needs none of its own
    reads_phi = "sweep" not in node or "phi_pi" in node or "phi" in node
    cfg = BMConfig(
        r_inner=_real(_required(node, "r_inner", "bm"), "r_inner"),
        r_outer=_real(_required(node, "r_outer", "bm"), "r_outer"),
        phi=_flux(node, "phi_pi", "phi") if reads_phi else 0.0,
        s_inner=_real(_required(node, "s_inner", "bm"), "s_inner"),
        s_outer=_real(_required(node, "s_outer", "bm"), "s_outer"),
    )
    return cfg, (_rational_range(node["sweep"], "bm.sweep") if "sweep" in node else None)


# each config section's parser, called with the section and the command line
_PARSERS = {"domain": lambda node, args: parse_domain(node),
            "field": lambda node, args: parse_field(node),
            "grid": _grid, "tolerances": _tolerances,
            "sweep": _sweep, "eta": _eta, "bm": _bm}
# the sections a command reads also when a config leaves them out, as {}: their defaults
_DEFAULTS = {"verify": {"grid": {}, "tolerances": {}}, "eta": {"eta": {}}}


def load_config(path: str) -> Dict[str, Any]:
    """The JSON document at ``path``, as read: :func:`parse_config` checks it."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_config(node, args) -> Dict[str, Any]:
    """``{section: parsed value}`` for a loaded config, each section parsed
    and checked once by its own parser; ``args`` gives the command, ``--grid``
    and ``--tol``.  A section left out stays out, unless the command reads its
    defaults.  The domain is then validated, and the field against it."""
    sections = {**_DEFAULTS.get(args.command, {}), **_known(node, "config", _PARSERS)}
    config = {section: parse(sections[section], args)
              for section, parse in _PARSERS.items() if section in sections}
    if "domain" in config:
        # field checks index the domain's holes, so they run on a valid domain only
        violations = validate_domain(config["domain"]).violations
        if not violations and "field" in config:
            violations = validate_field(config["field"], config["domain"])
        if violations:
            raise ConfigError("; ".join(violations))
    return config


def _validated_problem(config):
    """The config's domain and field, and their flat problem (reduced once)."""
    if "domain" not in config or "field" not in config:
        raise ConfigError("config needs 'domain' and 'field' sections")
    return config["domain"], config["field"], flat_problem(config["domain"], config["field"])


def _flux_payload(domain: DomainSpec, fld: FieldSpec, problem: Problem) -> Dict[str, Any]:
    normalized = [float(nf.value) for nf in fld.normalized_hole_fluxes]
    return {
        "domain": domain.kind.value,
        "phi_total": float(problem.field.total_flux),
        "phi_normalized": normalized,
        "q": float(fld.q_shift),
        "kernel_choice": fld.kernel_choice.value,
    }


def _by_boundary(values: Dict[str, Any]) -> List[Dict[str, Any]]:
    """``{boundary: value}`` as ``{"boundary", "value"}`` rows in boundary
    order, as ``values`` holds them: the holes in circle order, then the outer
    circle."""
    return [{"boundary": k, "value": v} for k, v in values.items()]


def cmd_count(config) -> Dict[str, Any]:
    domain, fld, problem = _validated_problem(config)
    counted = count_zero_modes(problem)
    payload = _flux_payload(domain, fld, problem)
    payload.update({"count": counted.count, "chirality": counted.chirality.value})
    return {"command": "count", "rows": [payload]}


def cmd_verify(config) -> Dict[str, Any]:
    domain, fld, problem = _validated_problem(config)
    tol, tol_leak = config["tolerances"]
    counted = count_zero_modes(problem)
    if counted.count > MAX_VERIFY_MODES:
        raise ConfigError(f"verify would check {counted.count} modes; "
                          f"at most {MAX_VERIFY_MODES} are allowed")
    base = _flux_payload(domain, fld, problem)
    rows: List[Dict[str, Any]] = []
    if counted.count > 0:
        modes = build_basis(domain, fld, PotentialField(fld, domain)).modes()
        try:
            reports = verify_modes(modes, config["grid"], tol_residual=tol, tol_leakage=tol_leak)
        except GridTooCoarse as exc:
            raise GridTooCoarse(f"{exc}; for a finer step lower grid.fd_step or raise "
                                f"--grid, or loosen the residual tolerance (--tol)") from exc
        for mode, report in zip(modes, reports):
            row = dict(base)
            row.update({
                "count": counted.count,
                "chirality": counted.chirality.value,
                "degree": mode.degree,
                "w_dressed": mode.w_dressed,
                "residuals": {
                    "pde": report.pde_residual,
                    "leakage": _by_boundary(report.trace_leakage),
                    "exponent_ok": report.integrability_exponent_ok,
                },
                "passed": report.passed,
            })
            rows.append(row)
    note = "sphere modes carry the W^(-1/2) conformal dressing" \
        if problem.dressed else ""
    return {"command": "verify", "note": note, "rows": rows,
            "all_passed": all(r["passed"] for r in rows)}


def cmd_sweep(config) -> Dict[str, Any]:
    if "sweep" not in config:
        raise ConfigError("config needs a 'sweep' section")
    values, q_values = config["sweep"]
    # (q, count key, index key, eta key) per column group, built once
    columns = [(q, f"count_disc_q={q}", f"index_q={q}", f"eta_outer_q={q}") for q in q_values]
    plane = DomainSpec(DomainKind.PLANE, [])
    # no column reads the disc's radius: the count, the index and the outer
    # eta depend on the flux and q only
    disc = DomainSpec(DomainKind.DISC, [], radius_out=5.0)
    rows = []
    prev: Dict[str, int] = {}
    for phi in values():
        row: Dict[str, Any] = {"phi_pi": str(phi.multiplier), "phi": float(phi)}
        jumped: List[str] = []
        bumps = [RadialBump(0.0, 1.0, phi)]
        row["count_plane"] = count_zero_modes(Problem(plane, FieldSpec(bumps=bumps))).count
        for q, key, index_key, eta_key in columns:
            problem = Problem(disc, FieldSpec(bumps=bumps, q_shift=q))
            counted = count_zero_modes(problem)
            row[key] = counted.count
            assembly = index_formula(problem)
            row[index_key] = assembly.index
            row[eta_key] = assembly.boundary_eta["outer"]
            if key in prev and prev[key] != counted.count:
                jumped.append(key)
            prev[key] = counted.count
        row["jumps"] = ";".join(jumped)
        rows.append(row)
    return {"command": "sweep", "rows": rows}


def cmd_eta(config) -> Dict[str, Any]:
    c_values, s_values, n_terms = config["eta"]
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


def cmd_index(config) -> Dict[str, Any]:
    domain, fld, problem = _validated_problem(config)
    if domain.kind is DomainKind.PLANE:
        raise ConfigError("the index table applies to disc and sphere domains")
    report = index_vs_count(problem)
    assembly = report.assembly
    payload = _flux_payload(domain, fld, problem)
    payload.update({
        "index": report.index,
        "index_raw": assembly.raw,
        "eta": _by_boundary(assembly.boundary_eta),
        "kernel_dims": _by_boundary(assembly.kernel_dims),
        "count": report.count,
        "chirality": report.chirality.value,
        "signed_count": report.signed_count,
        "consistent": report.consistent,
    })
    return {"command": "index", "rows": [payload]}


def cmd_bm(config) -> Dict[str, Any]:
    if "bm" not in config:
        raise ConfigError("config needs a 'bm' section")
    cfg, sweep = config["bm"]
    rows = bm_flux_sweep(cfg, [cfg.phi] if sweep is None else sweep())
    if sweep is None and rows[0]["has_mode"]:
        # the single configuration's row goes on with its mode's verification
        try:
            report = bm_verify(cfg, bm_zero_mode(cfg))
        except GridTooCoarse as exc:
            raise GridTooCoarse(f"{exc}; bm checks its mode n = {rows[0]['n']} on the fixed "
                                f"default grid, and a bm 'sweep' section reports has_mode and n "
                                f"without that check") from exc
        rows[0]["residuals"] = {
            "pde": report.pde_residual,
            "boundary": _by_boundary(report.trace_leakage),
        }
        rows[0]["passed"] = report.passed
    return {"command": "bm", "rows": rows}


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


# how json spells the floats that float.__repr__ writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# the JSON text of a scalar of each exact type; a subclass (np.float64, an
# IntEnum) takes its base type's rule in _json
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}


def _json(value, indent: str) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives
    ``value`` on a line indented by ``indent``: tuples are written as lists,
    and every dict key must be a str (TypeError otherwise).

    With an indent the standard library takes its pure-Python encoder, which
    took about a sixth of a ``batch_tables`` pass; this writer takes strings
    through the C ``encode_basestring_ascii`` and numbers through
    ``int.__repr__`` and ``float.__repr__``, as that encoder does.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            items.append(encode_basestring_ascii(key) + ": "
                         + (scalar(item) if scalar else _json(item, inner)))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = []
        for item in value:
            scalar = _SCALARS.get(type(item))
            items.append(scalar(item) if scalar else _json(item, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    # a subclass, by the order of the standard library's checks
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(document: Dict[str, Any], fmt: str) -> str:
    if fmt == "csv":
        return render_csv(document)
    return _json(document, "") + "\n"


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
    parser.add_argument("--tol", type=float, help="verify: override the residual tolerance")
    parser.add_argument("--grid", type=int, help="verify: grid scale parameter")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        # run as the program: numpy's OpenBLAS pool would be a second thread,
        # and verify forks its walk workers only from a single-threaded process
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _parser().parse_args(argv)

    try:
        for flag in ("tol", "grid"):
            if getattr(args, flag) is not None and args.command != "verify":
                raise ConfigError(f"--{flag} applies to verify only")
        config = parse_config(load_config(args.config), args)
        document = COMMANDS[args.command](config)
    except (ConfigError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ZeroModesError, OverflowError) as exc:  # a value past the float range
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    text = render(document, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not document.get("all_passed", True):
        return EXIT_FAILED_CHECKS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
