"""CLI commands, exit codes, output formats, determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import zeromodes
from zeromodes.cli import main, render

DISC_3PI = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.2, 0.4], "radius": 0.35}]},
    "field": {"bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
                         "flux_pi": "5/2", "profile": "smooth"}],
              "hole_fluxes_pi": ["1/2"], "q": "0", "kernel": "default"},
}
# the seed-7 verify_disc_smooth benchmark problem: five spin-up modes
DISC_SEED7 = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.827, 0.732], "radius": 0.35},
                         {"center": [-1.41, -1.869], "radius": 0.35}]},
    "field": {"bumps": [{"center": [0.489, -1.008], "support_radius": 0.6,
                         "flux_pi": "25/4", "profile": "smooth"},
                        {"center": [-1.294, 1.129], "support_radius": 0.6,
                         "flux_pi": "5", "profile": "smooth"}],
              "hole_fluxes_pi": ["1", "-7/4"]},
}

# twelve holes on a ring, so the boundary names hole10 and hole11 sort
# before hole2 as strings
TWELVE_HOLES = {
    "domain": {"kind": "disc", "radius_out": 5.0, "holes": [
        {"center": [round(3.5 * math.cos(math.pi * k / 6), 3),
                    round(3.5 * math.sin(math.pi * k / 6), 3)], "radius": 0.2}
        for k in range(12)]},
    "field": {"bumps": [{"center": [0, 0], "support_radius": 1.0,
                         "flux_pi": "3", "profile": "uniform"}],
              "hole_fluxes_pi": [str(Fraction(k, 8)) for k in range(-6, 6)]},
}
# the boundary rows of a disc list its holes in circle order, then the outer circle
TWELVE_BOUNDARIES = [f"hole{j}" for j in range(12)] + ["outer"]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_disc_3pi(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    code, out, _ = run_cli(capsys, "count", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["count"] == 1 and row["chirality"] == "up"
    assert row["phi_total"] == pytest.approx(3 * math.pi)


def test_count_plane_zero_flux(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "domain": {"kind": "plane", "holes": []},
        "field": {"hole_fluxes_pi": []},
    })
    code, out, _ = run_cli(capsys, "count", "--config", cfg)
    assert code == 0
    assert json.loads(out)["rows"][0]["count"] == 0


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "domain": {"kind": "plane",
                   "holes": [{"center": [0, 0], "radius": 1.0},
                             {"center": [1.5, 0], "radius": 1.0}]},
        "field": {"hole_fluxes_pi": ["1", "1"]},
    })
    code, _, err = run_cli(capsys, "count", "--config", cfg)
    assert code == 2
    assert "overlap" in err


def test_unknown_profile_exits_2(tmp_path, capsys):
    config = json.loads(json.dumps(DISC_3PI))
    config["field"]["bumps"][0]["profile"] = "gaussian"
    code, _, err = run_cli(capsys, "count", "--config", write_config(tmp_path, config))
    assert code == 2
    assert "unknown profile 'gaussian'" in err


def test_unknown_kernel_exits_2(tmp_path, capsys):
    config = json.loads(json.dumps(DISC_3PI))
    config["field"]["kernel"] = "alternative"
    code, _, err = run_cli(capsys, "count", "--config", write_config(tmp_path, config))
    assert code == 2
    assert "unknown kernel 'alternative'" in err


@pytest.mark.parametrize("command,config", [
    ("sweep", {"sweep": {"phi_pi": {"start": "0", "stop": "1", "step": "1/1000000"}}}),
    ("bm", {"bm": {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0, "s_outer": -1.0,
                   "phi_pi": "1",
                   "sweep": {"start": "0", "stop": "1", "step": "1/1000000"}}}),
])
def test_range_past_the_cap_exits_2(tmp_path, capsys, command, config):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert "range holds 1000001 values" in err


SPHERE_3PI = {
    "domain": {"kind": "sphere", "omitted_hole": 1,
               "holes": [{"center": [1.0, 0.5], "radius": 0.4},
                         {"center": [0, 0], "radius": 4.0}]},
    "field": {"bumps": [{"center": [-1.0, -0.5], "support_radius": 0.5,
                         "flux_pi": "3", "profile": "smooth"}],
              "hole_fluxes_pi": ["1/2", "-7/2"]},
}
NO_HOLE = {"domain": {"kind": "disc", "radius_out": 3.0, "holes": []},
           "field": dict(DISC_3PI["field"], hole_fluxes_pi=[])}
BM = {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0, "s_outer": -1.0, "phi_pi": "1"}


def _with(path, value, config=DISC_3PI):
    """A deep copy of config with the value at the key path replaced."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _without(node, key):
    """A copy of a config section with one key left out."""
    return {k: v for k, v in node.items() if k != key}


RANGE = {"start": "0", "stop": "1", "step": "1/2"}


@pytest.mark.parametrize("command,config,message", [
    pytest.param("count", _with(["domain", "holes", 0, "radius"], 0.0),
                 "hole radius must be positive", id="hole-radius-zero"),
    pytest.param("count", _with(["domain", "holes", 0, "radius"], -0.2),
                 "hole radius must be positive", id="hole-radius-negative"),
    pytest.param("bm", {"bm": dict(BM, r_inner=2.0)}, "r_inner < r_outer",
                 id="bm-radii-reversed"),
    pytest.param("eta", {"eta": {"c_values": ["2"]}}, "non-integer c",
                 id="eta-integer-c"),
    pytest.param("eta", {"eta": {"c_values": ["1/4"], "n_terms": 4}}, "terms",
                 id="eta-too-few-terms"),
    pytest.param("eta", {"eta": {"c_values": ["1/4"], "n_terms": 10**12}}, "terms",
                 id="eta-terms-past-the-cap"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": []}},
                 "finite positive s values", id="eta-no-s"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [math.nan]}},
                 "s > -1", id="eta-s-nan"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [-1.5]}},
                 "s > -1", id="eta-s-below-minus-one"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [0.2, 0.2]}},
                 "halve", id="eta-s-repeated"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [0.2, -0.2]}},
                 "finite positive s values", id="eta-s-sign-flip"),
    *[pytest.param("eta", {"eta": {"c_values": ["1/3"], "n_terms": n}},
                   "n_terms must be an integer", id=f"eta-n-terms-{n}")
      for n in (12.7, True, "4000")],
    pytest.param("verify", _with(["grid"], {"radail": 8}), "unknown grid keys ['radail']",
                 id="unknown-grid-key"),
    *[pytest.param("verify", _with(["grid"], {key: 0}), f"grid {key} must be positive",
                   id=f"grid-{key}-zero")
      for key in ("radial", "angular", "bulk_divisor", "n_boundary_samples",
                  "max_bulk_points", "fd_step_factor", "fd_step", "decay_radius")],
    pytest.param("verify", _with(["grid"], {"fd_step": math.inf}),
                 "grid fd_step must be positive and finite", id="grid-fd_step-inf"),
    pytest.param("verify --grid 0", DISC_3PI, "grid scale must be positive",
                 id="grid-scale-zero"),
    *[pytest.param(f"verify --tol {tol}", DISC_3PI,
                   "residual tolerance must be positive and finite", id=f"tol-{tol}")
      for tol in ("0", "-1", "nan", "inf")],
    pytest.param("verify --tol nan", _with(["field", "bumps", 0, "flux_pi"], "1/2"),
                 "residual tolerance must be positive and finite", id="tol-nan-no-modes"),
    pytest.param("verify", _with(["tolerances"], {"residual": math.nan}),
                 "residual tolerance must be positive and finite", id="residual-nan"),
    pytest.param("verify", _with(["tolerances"], {"leakage": 0}),
                 "leakage tolerance must be positive and finite", id="leakage-zero"),
    pytest.param("verify", _with(["tolerances"], {"pde": 1e-6}),
                 "unknown tolerances keys ['pde']", id="unknown-tolerance-key"),
    pytest.param("verify", _with(["domain", "omitted_hole"], 7, SPHERE_3PI),
                 "omitted hole index 7 out of range", id="omitted-hole-out-of-range"),
    *[pytest.param("count", _with(["domain", "omitted_hole"], value, SPHERE_3PI),
                   "omitted_hole must be a hole index", id=f"omitted-hole-{value}")
      for value in (True, 1.0, "1")],
    pytest.param("verify", _with(["domain", "radius_out"], math.inf),
                 "radius_out must be finite", id="radius-out-inf"),
    pytest.param("count", _with(["field", "bumps", 0], {
        "center": [-0.8, 0.3], "support_radius": 0.6, "flux": math.inf}),
                 "flux must be finite", id="bump-flux-inf"),
    pytest.param("count", _with(["field"], {"hole_fluxes": [math.inf]}),
                 "hole flux must be finite", id="hole-flux-inf"),
    pytest.param("count", _with(["domain", "holes", 0, "center"], [1.2]),
                 "hole center must be a pair [x, y]", id="hole-center-one-coordinate"),
    pytest.param("count", _with(["field", "q"], "1e400"),
                 "bad rational value '1e400'", id="q-past-the-float-range"),
    pytest.param("verify", _with(["field", "bumps", 0, "flux_pi"], "1e7"),
                 "verify would check 5000000 modes; at most 256", id="verify-too-many-modes"),
    # a string would be split into characters: "1" read as the one flux pi
    pytest.param("count", _with(["field", "hole_fluxes_pi"], "1"),
                 "hole_fluxes_pi must be a JSON array, got '1'", id="hole-fluxes-pi-string"),
    pytest.param("count", _with(["field"], {"hole_fluxes": "1"}),
                 "hole_fluxes must be a JSON array, got '1'", id="hole-fluxes-string"),
    pytest.param("sweep", {"sweep": {"phi_pi": {"start": "0", "stop": "1", "step": "1/2"},
                                     "q_values": "0"}},
                 "q_values must be a JSON array, got '0'", id="sweep-q-values-string"),
    pytest.param("eta", {"eta": {"c_values": "7"}},
                 "c_values must be a JSON array, got '7'", id="eta-c-values-string"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": "4"}},
                 "s_values must be a JSON array, got '4'", id="eta-s-values-string"),
    # refused before any series work, so no numpy warning reaches stderr
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [math.inf]}},
                 "finite s > -1", id="eta-s-inf"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [1e308, 5e307]}},
                 "eta series overflows the float range at s = 1e+308", id="eta-s-overflow"),
    # an object was read as no hole or no bump, a string failed on indexing
    pytest.param("count", _with(["domain", "holes"], {}, NO_HOLE),
                 "holes must be a JSON array, got {}", id="holes-object"),
    pytest.param("count", _with(["domain", "holes"], "x"),
                 "holes must be a JSON array, got 'x'", id="holes-string"),
    pytest.param("count", _with(["field", "bumps"], {}),
                 "bumps must be a JSON array, got {}", id="bumps-object"),
    pytest.param("count", _with(["field", "bumps"], "x"),
                 "bumps must be a JSON array, got 'x'", id="bumps-string"),
    # refused when the GridSpec is built, before any point is allocated
    pytest.param("verify", _with(["grid"], {"radial": 10**6, "angular": 4 * 10**6}),
                 "at most 4194304 are allowed", id="grid-points-past-the-cap"),
    pytest.param("verify --grid 100000", DISC_3PI,
                 "grid radial * angular is 40000000000 points", id="grid-scale-past-the-cap"),
    pytest.param("verify", _with(["grid"], {"n_boundary_samples": 3}),
                 "n_boundary_samples must be a power of two", id="grid-samples-not-power-of-two"),
    pytest.param("verify", _with(["grid"], {"n_boundary_samples": 2**21}),
                 "power of two from 2 to 1048576, got 2097152", id="grid-samples-past-the-cap"),
    # a float point count ran on np.arange of it, a bool on one radius
    pytest.param("verify", _with(["grid"], {"radial": 2.5}),
                 "grid radial must be an integer, got 2.5", id="grid-radial-float"),
    pytest.param("verify", _with(["grid"], {"angular": 8.5}),
                 "grid angular must be an integer, got 8.5", id="grid-angular-float"),
    pytest.param("verify", _with(["grid"], {"radial": True}),
                 "grid radial must be an integer, got True", id="grid-radial-bool"),
    pytest.param("verify", _with(["grid"], {"max_bulk_points": 1e5}),
                 "grid max_bulk_points must be an integer, got 100000.0",
                 id="grid-max-bulk-float"),
    # a step this wide leaves no residual point inside the disc
    pytest.param("verify", _with(["grid"], {"fd_step": 2.0}, NO_HOLE),
                 "no point to check the Dirac residual at", id="grid-fd-step-leaves-no-point"),
    # float(True) is 1.0: a JSON boolean ran as the number one
    pytest.param("count", _with(["domain", "radius_out"], True),
                 "radius_out must be a number, got True", id="radius-out-bool"),
    pytest.param("verify", _with(["tolerances"], {"residual": True}),
                 "residual tolerance must be a number, got True", id="residual-bool"),
    pytest.param("verify", _with(["tolerances"], {"leakage": True}),
                 "leakage tolerance must be a number, got True", id="leakage-bool"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": [True, 0.5, 0.25]}},
                 "eta s value must be a number, got True", id="eta-s-bool"),
    *[pytest.param("verify", _with(["grid"], {key: True}),
                   f"grid {key} must be a number, got True", id=f"grid-{key}-bool")
      for key in ("bulk_divisor", "fd_step_factor", "fd_step", "decay_radius")],
    # every command reduces a sphere to its disc the same way, so each refuses
    # a designated hole that is not origin-centred
    *[pytest.param(command, _with(["domain", "holes", 1, "center"], [0.5, 0.0], SPHERE_3PI),
                   "the designated hole must be an origin-centred circle",
                   id=f"off-centre-sphere-{command}")
      for command in ("count", "index", "verify")],
    # a sphere reduces to its disc only for q = 0 with the default kernel
    *[pytest.param(command, _with(["field", key], value, SPHERE_3PI),
                   "sphere results are stated for q = 0 with the default kernel",
                   id=f"sphere-{name}-{command}")
      for name, key, value in (("q", "q", "1/4"), ("alternate", "kernel", "alternate"))
      for command in ("count", "index", "verify")],
    # a list was read by index (a traceback, exit 1) or, for the grid, as pairs
    pytest.param("count", _with(["domain"], []), "domain must be a JSON object, got []",
                 id="domain-list"),
    pytest.param("count", _with(["field"], []), "field must be a JSON object, got []",
                 id="field-list"),
    pytest.param("count", _with(["domain", "holes", 0], [[1.2, 0.4], 0.35]),
                 "hole must be a JSON object, got [[1.2, 0.4], 0.35]", id="hole-list"),
    pytest.param("count", _with(["field", "bumps", 0], []),
                 "bump must be a JSON object, got []", id="bump-list"),
    pytest.param("eta", {"eta": []}, "eta must be a JSON object, got []", id="eta-list"),
    pytest.param("sweep", [], "config must be a JSON object, got []", id="root-list"),
    pytest.param("sweep", {"sweep": []}, "sweep must be a JSON object, got []",
                 id="sweep-list"),
    pytest.param("sweep", {"sweep": {"phi_pi": ["0", "1", "1/2"]}},
                 "sweep.phi_pi must be a JSON object, got ['0', '1', '1/2']",
                 id="sweep-phi-pi-list"),
    pytest.param("bm", {"bm": []}, "bm must be a JSON object, got []", id="bm-list"),
    pytest.param("bm", {"bm": dict(BM, sweep=[])}, "bm.sweep must be a JSON object, got []",
                 id="bm-sweep-list"),
    pytest.param("verify", _with(["grid"], [["radial", 8]]),
                 "grid must be a JSON object, got [['radial', 8]]", id="grid-pairs"),
    pytest.param("verify", _with(["grid"], []), "grid must be a JSON object, got []",
                 id="grid-empty-list"),
    pytest.param("verify", _with(["tolerances"], []),
                 "tolerances must be a JSON object, got []", id="tolerances-list"),
    # a missing required key names its section, not only the key
    pytest.param("sweep", {"sweep": {"q_values": ["0"]}}, "sweep needs 'phi_pi'",
                 id="sweep-no-phi-pi"),
    *[pytest.param("sweep", {"sweep": {"phi_pi": _without(RANGE, key)}},
                   f"sweep.phi_pi needs '{key}'", id=f"sweep-phi-pi-no-{key}")
      for key in RANGE],
    *[pytest.param("bm", {"bm": _without(BM, key)}, f"bm needs '{key}'", id=f"bm-no-{key}")
      for key in ("r_inner", "r_outer", "s_inner", "s_outer")],
    pytest.param("bm", {"bm": {"r_inner": 1.0}}, "bm needs 'r_outer'", id="bm-only-r-inner"),
    pytest.param("bm", {"bm": dict(BM, sweep=_without(RANGE, "step"))},
                 "bm.sweep needs 'step'", id="bm-sweep-no-step"),
    *[pytest.param("count", _with(["domain", "holes", 0],
                                  _without(DISC_3PI["domain"]["holes"][0], key)),
                   f"hole needs '{key}'", id=f"hole-no-{key}")
      for key in ("center", "radius")],
    *[pytest.param("count", _with(["field", "bumps", 0],
                                  _without(DISC_3PI["field"]["bumps"][0], key)),
                   f"bump needs '{key}'", id=f"bump-no-{key}")
      for key in ("center", "support_radius")],
    # one flux per hole is checked once, by validate_field
    pytest.param("count", _with(["field", "hole_fluxes_pi"], ["1/2", "1/2"]),
                 "field carries 2 hole fluxes for 1 holes", id="hole-flux-count"),
    # a required value or section that is missing or of no known kind
    pytest.param("count", _with(["field", "bumps", 0],
                                _without(DISC_3PI["field"]["bumps"][0], "flux_pi")),
                 "flux needs either 'flux_pi' or 'flux'", id="bump-no-flux"),
    pytest.param("sweep", {"sweep": {"phi_pi": dict(RANGE, step="0")}},
                 "range step must be positive", id="sweep-step-zero"),
    pytest.param("count", _with(["domain"], _without(DISC_3PI["domain"], "radius_out")),
                 "disc domains need radius_out", id="disc-no-radius-out"),
    pytest.param("count", _with(["domain", "kind"], "torus"),
                 "unknown domain kind 'torus'", id="domain-kind-unknown"),
    pytest.param("count", _without(DISC_3PI, "domain"),
                 "config needs 'domain' and 'field' sections", id="no-domain"),
    pytest.param("sweep", {}, "config needs a 'sweep' section", id="no-sweep"),
    pytest.param("index", {"domain": {"kind": "plane", "holes": []}, "field": {}},
                 "the index table applies to disc and sphere domains", id="index-plane"),
    pytest.param("bm", {}, "config needs a 'bm' section", id="no-bm"),
    # a key that nothing reads was ignored: the default kernel and q = 0 ran
    pytest.param("count", _with(["field"], dict(DISC_3PI["field"], kernel_choice="alternate",
                                                q_shift="1/4")),
                 "unknown field keys ['kernel_choice', 'q_shift']", id="unknown-field-keys"),
    pytest.param("count", _with(["tolerance"], {"residual": 1e-6}),
                 "unknown config keys ['tolerance']", id="unknown-config-key"),
    pytest.param("count", _with(["domain", "omitted_hole"], 0),
                 "unknown disc domain keys ['omitted_hole']", id="unknown-disc-domain-key"),
    pytest.param("count", _with(["domain", "radius_out"], 4.0, SPHERE_3PI),
                 "unknown sphere domain keys ['radius_out']", id="unknown-sphere-domain-key"),
    pytest.param("count", {"domain": {"kind": "plane", "holes": [], "radius_out": 3.0},
                           "field": {}},
                 "unknown plane domain keys ['radius_out']", id="unknown-plane-domain-key"),
    pytest.param("count", _with(["domain", "holes", 0, "flux_pi"], "1/2"),
                 "unknown hole keys ['flux_pi']", id="unknown-hole-key"),
    pytest.param("count", _with(["field", "bumps", 0, "radius"], 0.6),
                 "unknown bump keys ['radius']", id="unknown-bump-key"),
    pytest.param("sweep", {"sweep": {"phi_pi": RANGE, "q": "0"}},
                 "unknown sweep keys ['q']", id="unknown-sweep-key"),
    pytest.param("sweep", {"sweep": {"phi_pi": dict(RANGE, end="2")}},
                 "unknown sweep.phi_pi keys ['end']", id="unknown-sweep-range-key"),
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "terms": 100}},
                 "unknown eta keys ['terms']", id="unknown-eta-key"),
    pytest.param("bm", {"bm": dict(BM, r_in=1.0)}, "unknown bm keys ['r_in']",
                 id="unknown-bm-key"),
    # the sweep's disc radius changed no column: 0.001 and 100 gave one output
    pytest.param("sweep", {"sweep": {"phi_pi": RANGE, "radius_out": 100.0}},
                 "unknown sweep keys ['radius_out']", id="sweep-radius-out"),
    # a command that reads no domain or field exited 0 on these, and count 2
    *[pytest.param(command, _with(path, value, dict(DISC_3PI, **section)), message,
                   id=f"{command}-{name}")
      for command, section in (("eta", {"eta": {"c_values": ["1/3"]}}),
                               ("sweep", {"sweep": {"phi_pi": RANGE}}), ("bm", {"bm": BM}))
      for name, path, value, message in (
          ("disc-omitted-hole", ["domain", "omitted_hole"], 0,
           "unknown disc domain keys ['omitted_hole']"),
          ("hole-flux", ["domain", "holes", 0, "flux"], 1.0, "unknown hole keys ['flux']"),
          ("bump-radius", ["field", "bumps", 0, "radius"], 0.6,
           "unknown bump keys ['radius']"))],
    # a bad sphere is refused at load: count, index and verify exited 3 on an
    # unbalanced one, and eta, sweep and bm exited 0 on both
    *[pytest.param(command, dict(sphere, **section), message, id=f"{command}-sphere-{name}")
      for command, section in (("eta", {"eta": {"c_values": ["1/3"]}}),
                               ("sweep", {"sweep": {"phi_pi": RANGE}}), ("bm", {"bm": BM}))
      for name, sphere, message in (
          ("unbalanced", _with(["field", "hole_fluxes_pi"], ["1/2", "1/2"], SPHERE_3PI),
           "total flux on the sphere must vanish, got 1.257e+01"),
          ("q-quarter", _with(["field", "q"], "1/4", SPHERE_3PI),
           "sphere results are stated for q = 0 with the default kernel"))],
    # the sweep that printed a constant has_mode false row for every flux is gone
    pytest.param("bm", {"bm": dict(BM, sweep=dict(RANGE, unbounded=True))},
                 "unknown bm.sweep keys ['unbounded']", id="unknown-bm-sweep-key"),
    # a section the command does not read was never checked: count exited 0
    *[pytest.param("count", _with([section], value), message, id=f"count-unknown-{section}-key")
      for section, value, message in (
          ("grid", {"radail": 8}, "unknown grid keys ['radail']"),
          ("tolerances", {"pde": 1}, "unknown tolerances keys ['pde']"),
          ("eta", {"terms": 3}, "unknown eta keys ['terms']"),
          ("bm", dict(BM, sweep=dict(RANGE, unbounded=True)),
           "unknown bm.sweep keys ['unbounded']"))],
    # only a sweep gives the flux of its rows
    pytest.param("bm", {"bm": _without(BM, "phi_pi")},
                 "flux needs either 'phi_pi' or 'phi'", id="bm-no-phi"),
    # the _pi form won when a value was given both ways
    pytest.param("count", _with(["field", "bumps", 0, "flux"], math.pi),
                 "give either 'flux_pi' or 'flux', not both", id="flux-both-ways"),
    pytest.param("count", _with(["field", "hole_fluxes"], [math.pi / 2]),
                 "give either 'hole_fluxes_pi' or 'hole_fluxes', not both",
                 id="hole-fluxes-both-ways"),
    pytest.param("bm", {"bm": dict(BM, phi=math.pi)},
                 "give either 'phi_pi' or 'phi', not both", id="phi-both-ways"),
    # the flags were ignored by every command but verify
    *[pytest.param(f"{command} {flag} {value}", config, f"{flag} applies to verify only",
                   id=f"{command}{flag}")
      for command, config in (("count", DISC_3PI), ("bm", {"bm": BM}))
      for flag, value in (("--tol", "1e-30"), ("--grid", "4"))],
    # a bulk lattice 2,142,858 points wide (4.6e12 points) was accepted
    pytest.param("verify", _with(["grid"], {"max_bulk_points": 10_000_000_000_000,
                                            "bulk_divisor": 1_000_000}, DISC_SEED7),
                 "grid max_bulk_points is 10000000000000 points; at most 4194304 are allowed",
                 id="grid-bulk-points-past-the-cap"),
    # K = -S_in/S_out overflowed to inf (a crash) or underflowed to 0.0 (no mode)
    pytest.param("bm", {"bm": dict(BM, r_inner=0.001, r_outer=1.0, s_inner=1e300,
                                   s_outer=-1e-300)},
                 "S_in/S_out = 1e+300/-1e-300 leaves the float range; rescale S",
                 id="bm-s-ratio-overflows"),
    pytest.param("bm", {"bm": dict(BM, r_inner=0.001, r_outer=1.0, s_inner=1e-300,
                                   s_outer=-1e300)},
                 "S_in/S_out = 1e-300/-1e+300 leaves the float range; rescale S",
                 id="bm-s-ratio-underflows"),
    # the values of a section the command does not read were never checked: each exited 0
    pytest.param("eta", _with(["domain", "holes", 0, "radius"], 0.0),
                 "hole radius must be positive", id="eta-hole-radius-zero"),
    pytest.param("eta", {"bm": dict(BM, r_inner=2.0)}, "r_inner < r_outer",
                 id="eta-bm-radii-reversed"),
    pytest.param("count", _with(["eta"], {"c_values": "x"}),
                 "c_values must be a JSON array, got 'x'", id="count-eta-c-values-string"),
    pytest.param("count", _with(["eta"], {"c_values": ["x"]}),
                 "bad rational value 'x'", id="count-eta-c-value-not-rational"),
    # eta's c and n_terms were checked only by the series, so count and index exited 0
    *[pytest.param(command, _with(["eta"], eta), message, id=f"{command}-eta-{name}")
      for command in ("count", "index")
      for name, eta, message in (
          ("integer-c", {"c_values": ["2"]},
           "eta series takes non-integer c; integers give eta = 0"),
          ("too-few-terms", {"c_values": ["1/4"], "n_terms": 4},
           "eta series needs 8 to 10000 terms, got 4"),
          ("terms-past-the-cap", {"c_values": ["1/4"], "n_terms": 10_001},
           "eta series needs 8 to 10000 terms, got 10001"))],
    pytest.param("count", _with(["sweep"], {"phi_pi": dict(RANGE, step="0")}),
                 "range step must be positive", id="count-sweep-step-zero"),
    pytest.param("count", _with(["tolerances"], {"residual": math.nan}),
                 "residual tolerance must be positive and finite", id="count-residual-nan"),
    pytest.param("count", _with(["grid"], {"radial": -1}),
                 "grid radial must be positive and finite, got -1",
                 id="count-grid-radial-negative"),
    # a string or a list failed on comparing with 0, and null on the arithmetic of
    # the step; the message named no key
    *[pytest.param("verify", _with(["grid"], {"fd_step_factor": value}),
                   f"grid fd_step_factor must be a number, got {value!r}",
                   id=f"grid-fd-step-factor-{type(value).__name__}")
      for value in ("0.003", [0.003], None)],
    # float() read a quoted number as the number, and a list, null or a
    # fraction failed with a message that named no key; a huge integer
    # overflowed and exited 3
    *[pytest.param(command, _with(path, value), message, id=name)
      for name, command, path, value, message in (
          ("support-radius-string", "count", ["field", "bumps", 0, "support_radius"], "1.0",
           "support_radius must be a number, got '1.0'"),
          ("flux-string", "count", ["field", "bumps", 0],
           {"center": [-0.8, 0.3], "support_radius": 0.6, "flux": "9.42"},
           "flux must be a number, got '9.42'"),
          ("flux-fraction-string", "count", ["field", "bumps", 0],
           {"center": [-0.8, 0.3], "support_radius": 0.6, "flux": "5/2"},
           "flux must be a number, got '5/2'"),
          ("residual-string", "verify", ["tolerances"], {"residual": "1e-6"},
           "residual tolerance must be a number, got '1e-6'"),
          ("eta-s-strings", "eta", ["eta"], {"c_values": ["1/3"], "s_values": ["0.2", "0.1"]},
           "eta s value must be a number, got '0.2'"),
          ("radius-out-list", "count", ["domain", "radius_out"], [3.0],
           "radius_out must be a number, got [3.0]"),
          ("hole-radius-null", "count", ["domain", "holes", 0, "radius"], None,
           "hole radius must be a number, got None"),
          ("radius-out-400-digits", "count", ["domain", "radius_out"], 10 ** 400,
           "radius_out must be within the float range"))],
])
def test_bad_config_exits_2(tmp_path, capsys, command, config, message):
    code, out, err = run_cli(capsys, *command.split(), "--config",
                             write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err


# every section, and two holes and two bumps: each command reads some of it
FULL = dict(DISC_SEED7, grid={"radial": 64}, tolerances={"residual": 1e-6},
            sweep={"phi_pi": RANGE, "q_values": ["0"]}, eta={"c_values": ["1/3"]},
            bm=dict(BM, sweep=RANGE))


def _objects(node):
    """Every JSON object in a config: the config itself, its sections and theirs."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _objects(child)


@pytest.mark.parametrize("command", sorted(zeromodes.cli.COMMANDS))
def test_each_node_is_checked_once(tmp_path, capsys, monkeypatch, command):
    """Whichever command runs, every object of the config has its keys
    checked, and none twice."""
    checked = []

    def known(node, section, keys, _known=zeromodes.cli._known):
        checked.append(json.dumps(node, sort_keys=True))
        return _known(node, section, keys)

    monkeypatch.setattr(zeromodes.cli, "_known", known)
    code, _, err = run_cli(capsys, command, "--config", write_config(tmp_path, FULL))
    assert code == 0, err
    assert sorted(checked) == sorted(json.dumps(node, sort_keys=True) for node in _objects(FULL))


def test_only_the_command_that_reads_a_range_makes_its_fluxes(tmp_path, capsys, monkeypatch):
    """Both ranges are checked at load, but count makes none of their 2 x 1000 fluxes."""
    made = []
    monkeypatch.setattr(zeromodes.cli, "PiFlux",
                        lambda value, _cls=zeromodes.cli.PiFlux: made.append(value) or _cls(value))
    wide = {"start": "0", "stop": "999", "step": "1"}
    config = write_config(tmp_path, dict(DISC_3PI, sweep={"phi_pi": wide},
                                         bm=dict(BM, sweep=wide)))
    code, _, _ = run_cli(capsys, "count", "--config", config)
    assert code == 0 and len(made) == 3  # the bump's, the hole's and the bm phi
    made.clear()
    code, _, _ = run_cli(capsys, "sweep", "--config", config)
    assert code == 0 and len(made) == 3 + 1000


# a lattice spacing or a disc past the float range made int(inf) in the bulk
# lattice, which ended in a traceback and exit 1
@pytest.mark.parametrize("config", [
    pytest.param(_with(["grid"], {"bulk_divisor": 1e308}), id="grid-bulk-divisor-1e308"),
    pytest.param(_with(["domain", "radius_out"], 1e308), id="disc-radius-1e308"),
])
def test_float_range_overflow_exits_3(tmp_path, capsys, config):
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, config))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: OverflowError:")


def test_eta_table_sums_each_series_once(tmp_path, capsys, monkeypatch):
    from zeromodes import cli, eta_index

    calls = []
    for module in (cli, eta_index):
        for name in ("eta_series", "check_s_values"):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _fn=fn: calls.append(_fn.__name__) or _fn(*args))
    s_values = [0.2, 0.1, 0.05, 0.025]
    cfg = write_config(tmp_path, {"eta": {"c_values": ["1/8", "-5/3", "7/4"],
                                          "s_values": s_values, "n_terms": 500}})
    code, out, _ = run_cli(capsys, "eta", "--config", cfg)
    assert code == 0
    assert calls.count("eta_series") == 3 * 4 and calls.count("check_s_values") == 1
    for row in json.loads(out)["rows"]:
        assert row["eta_richardson"] == eta_index.eta_richardson_to_zero(
            Fraction(row["c"]), s_values, 500)


def test_each_field_sums_its_flux_once(tmp_path, capsys, monkeypatch):
    from zeromodes import field

    calls = []
    monkeypatch.setattr(field, "_sum_fluxes",
                        lambda parts, _fn=field._sum_fluxes: calls.append(1) or _fn(parts))
    code, _, _ = run_cli(capsys, "index", "--config", write_config(tmp_path, DISC_3PI))
    assert code == 0 and len(calls) == 1
    # a sweep cell builds one field for the plane and one per q
    calls.clear()
    cfg = write_config(tmp_path, {"sweep": {
        "phi_pi": {"start": "-2", "stop": "2", "step": "1/4"}, "q_values": ["0", "1/3"]}})
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0 and len(calls) == 3 * len(json.loads(out)["rows"])


def test_verify_all_pass(tmp_path, capsys):
    for config, boundaries in ((DISC_3PI, ["hole0", "outer"]),
                               (TWELVE_HOLES, TWELVE_BOUNDARIES)):
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        row = doc["rows"][0]
        assert row["residuals"]["pde"] < 1e-6
        assert [entry["boundary"] for entry in row["residuals"]["leakage"]] == boundaries
        assert all(entry["value"] < 1e-6 for entry in row["residuals"]["leakage"])


def test_verify_with_a_failing_mode_exits_1(tmp_path, capsys):
    # no trace leaks less than 1e-300, so every mode of the seed-7 disc fails
    from test_zero_modes import SEED7_DISC

    cfg = write_config(tmp_path, dict(SEED7_DISC, tolerances={"leakage": 1e-300}))
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    doc = json.loads(out)
    assert code == 1 and doc["all_passed"] is False
    assert len(doc["rows"]) == 5 and not any(row["passed"] for row in doc["rows"])


def test_verify_grid_too_coarse_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    code, _, err = run_cli(capsys, "verify", "--config", cfg,
                           "--tol", "1e-12", "--grid", "8")
    assert code == 3
    # the message gives the step it halved and the keys that change it
    assert re.fullmatch(r"numerical failure: GridTooCoarse: residual \S+ vs \S+ under step "
                        r"halving from step 8\.400e-03; for a finer step lower grid\.fd_step "
                        r"or raise --grid, or loosen the residual tolerance \(--tol\)\n", err)


def test_grid_64_is_the_default_grid(tmp_path, capsys):
    # its step factor was 2/64, ten times the default 3e-3: this disc exited
    # 3 (GridTooCoarse from step 1.094e-02) with --grid 64 and passed without
    cfg = write_config(tmp_path, DISC_SEED7)
    default = run_cli(capsys, "verify", "--config", cfg)
    assert default[0] == 0
    assert run_cli(capsys, "verify", "--config", cfg, "--grid", "64") == default


def test_verify_sphere_notes_dressing(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_3PI)
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert "W^(-1/2)" in doc["note"]
    assert doc["all_passed"] and doc["rows"]
    assert all(row["w_dressed"] for row in doc["rows"])


@pytest.mark.parametrize("command", ["verify", "index"])
def test_sphere_holes_keep_their_config_names(tmp_path, capsys, command):
    # SPHERE_3PI with its two holes listed the other way round: the small
    # hole is config hole 1 but the projected disc's hole 0, and its rows
    # are those of SPHERE_3PI's hole 0 under its config name
    first = _with(["domain", "omitted_hole"], 0, SPHERE_3PI)
    first["domain"]["holes"].reverse()
    first["field"]["hole_fluxes_pi"].reverse()
    _, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, SPHERE_3PI))
    want = json.loads(out)
    code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, first))
    got = json.loads(out)
    assert code == 0 and got["rows"]
    for row in want["rows"]:
        row["phi_normalized"].reverse()  # in config order
        rows = [row["residuals"]["leakage"]] if command == "verify" \
            else [row["eta"], row["kernel_dims"]]
        for entries in rows:
            assert [entry["boundary"] for entry in entries] == ["hole0", "outer"]
            entries[0]["boundary"] = "hole1"
    assert got == want


def test_sphere_flux_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "domain": {"kind": "sphere", "omitted_hole": 1,
                   "holes": [{"center": [1.0, 0.0], "radius": 0.4},
                             {"center": [0, 0], "radius": 4.0}]},
        "field": {"hole_fluxes_pi": ["1/2", "1/2"]},
    })
    code, _, err = run_cli(capsys, "count", "--config", cfg)
    assert code == 2
    assert err.startswith("config error: total flux on the sphere must vanish")


@pytest.mark.parametrize("fluxes, code", [
    ({"hole_fluxes_pi": ["1/1000000000000", "0"]}, 2),  # exact: unbalanced by 1e-12 pi
    ({"hole_fluxes": [1e-12 * math.pi, 0.0]}, 0),  # float: within SPHERE_BALANCE_TOL
])
def test_sphere_balance_is_exact_for_exact_fluxes(tmp_path, capsys, fluxes, code):
    cfg = write_config(tmp_path, {
        "domain": {"kind": "sphere", "omitted_hole": 1,
                   "holes": [{"center": [1.0, 0.0], "radius": 0.3},
                             {"center": [0, 0], "radius": 3.0}]},
        "field": fluxes,
    })
    got, _, err = run_cli(capsys, "count", "--config", cfg)
    assert got == code and ("must vanish" in err) == (code == 2)


def test_a_field_without_flux_takes_the_exact_path(tmp_path, capsys):
    # the empty flux sum is the exact zero, so the outer eta of q = 1/3 is 2/3
    cfg = write_config(tmp_path, {"domain": {"kind": "disc", "radius_out": 2.0, "holes": []},
                                  "field": {"q": "1/3"}})
    code, out, _ = run_cli(capsys, "index", "--config", cfg)
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["index"] == 0 and row["index_raw"] == 0.0
    assert row["eta"] == [{"boundary": "outer", "value": 2 / 3}]


def test_sweep_staircase_jumps(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sweep": {"phi_pi": {"start": "-6", "stop": "6", "step": "1/8"},
                  "q_values": ["0"]},
    })
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    # disc jumps land exactly one step after phi/2pi + 1/2 crosses an integer
    from fractions import Fraction

    for prev, cur in zip(rows, rows[1:]):
        jumped = "count_disc_q=0" in cur["jumps"]
        y_prev = Fraction(prev["phi_pi"]) / 2 + Fraction(1, 2)
        y_cur = Fraction(cur["phi_pi"]) / 2 + Fraction(1, 2)
        crossed = y_prev <= math.ceil(y_prev) < y_cur
        assert jumped == crossed, (prev, cur)
        # plane column jumps exactly where |phi/2pi| crosses an integer
        plane_jumped = cur["count_plane"] != prev["count_plane"]
        a = abs(Fraction(prev["phi_pi"])) / 2
        b = abs(Fraction(cur["phi_pi"])) / 2
        lo, hi = min(a, b), max(a, b)
        plane_crossed = (lo <= math.ceil(lo) < hi) and max(a, b) > 1
        assert plane_jumped == plane_crossed, (prev, cur)


def test_bm_sweep_modes_at_odd_pi(tmp_path, capsys):
    # each row takes its flux from the sweep, so the section's own flux
    # changes nothing and may be left out
    outputs = []
    for flux in ({"phi_pi": "1"}, {"phi_pi": "3"}, {"phi_pi": "1/2"}, {"phi": 2.0}, {}):
        cfg = write_config(tmp_path, {"bm": dict(
            _without(BM, "phi_pi"), **flux, sweep={"start": "0", "stop": "4", "step": "1/4"})})
        code, out, _ = run_cli(capsys, "bm", "--config", cfg)
        assert code == 0
        outputs.append(out)
    assert outputs == outputs[:1] * len(outputs)
    rows = json.loads(outputs[0])["rows"]
    hits = [r["phi"] / math.pi for r in rows if r["has_mode"]]
    assert hits == pytest.approx([1.0, 3.0])


@pytest.mark.parametrize("s_outer, n", [(-1.0, 1), (1.0, None)])
def test_bm_single_configuration(tmp_path, capsys, s_outer, n):
    # opposite signs admit the mode at phi = pi, equal signs none
    cfg = write_config(tmp_path, {"bm": dict(BM, s_outer=s_outer)})
    code, out, _ = run_cli(capsys, "bm", "--config", cfg)
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["phi"] == math.pi and row["has_mode"] is (n is not None) and row["n"] == n
    if n is None:
        assert sorted(row) == ["has_mode", "n", "phi"]
    else:
        assert row["passed"] and row["residuals"]["pde"] < 1e-6
        leakage = row["residuals"]["boundary"]
        assert [entry["boundary"] for entry in leakage] == ["inner", "outer"]
        assert all(entry["value"] < 1e-6 for entry in leakage)


def test_bm_grid_too_coarse_says_what_to_change(tmp_path, capsys):
    # bm takes no --grid and no grid key: the message names the mode and the
    # sweep, which reports the mode without the finite-difference check
    cfg = write_config(tmp_path, {"bm": dict(BM, phi_pi="2001")})
    code, out, err = run_cli(capsys, "bm", "--config", cfg)
    assert code == 3 and out == ""
    assert re.fullmatch(r"numerical failure: GridTooCoarse: residual \S+ vs \S+ under step "
                        r"halving from step 3\.000e-03; bm checks its mode n = 1001 on the "
                        r"fixed default grid, and a bm 'sweep' section reports has_mode and "
                        r"n without that check\n", err)


def test_eta_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"eta": {"c_values": ["1/4"], "n_terms": 2000}})
    code, out, _ = run_cli(capsys, "eta", "--config", cfg)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["eta_closed"] == -0.5
    assert row["eta_richardson"] == pytest.approx(-0.5, abs=1e-3)
    # the default table: every default c within 1e-3 of the closed form,
    # c = 1/8 included, and the default s values are the library's
    from zeromodes.eta_index import DEFAULT_S_VALUES

    code, out, _ = run_cli(capsys, "eta", "--config", write_config(tmp_path, {"eta": {}}))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["c"] for row in rows] == ["1/8", "1/4", "1/3", "1/2", "3/4"]
    for row in rows:
        assert [e["s"] for e in row["eta"]] == list(DEFAULT_S_VALUES)
        assert abs(row["eta_richardson"] - row["eta_closed"]) < 1e-3, row["c"]


def test_index_command(tmp_path, capsys):
    for config, boundaries in ((DISC_3PI, ["hole0", "outer"]),
                               (TWELVE_HOLES, TWELVE_BOUNDARIES)):
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(capsys, "index", "--config", cfg)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["index"] == 1 and row["consistent"]
        assert row["index_raw"] == pytest.approx(1.0, abs=1e-9)
        assert [entry["boundary"] for entry in row["eta"]] == boundaries
        assert [entry["boundary"] for entry in row["kernel_dims"]] == boundaries


def test_output_is_deterministic_and_formats_agree(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    _, out1, _ = run_cli(capsys, "count", "--config", cfg)
    _, out2, _ = run_cli(capsys, "count", "--config", cfg)
    assert out1 == out2

    _, json_out, _ = run_cli(capsys, "count", "--config", cfg)
    _, csv_out, _ = run_cli(capsys, "count", "--config", cfg, "--format", "csv")
    row = json.loads(json_out)["rows"][0]
    reader = csv.DictReader(io.StringIO(csv_out))
    csv_row = next(reader)
    assert float(csv_row["phi_total"]) == row["phi_total"]
    assert int(csv_row["count"]) == row["count"]
    assert csv_row["phi_normalized[0]"] == repr(row["phi_normalized"][0])


def test_csv_writes_each_float_as_json_does():
    # repr(np.float64(0.1)) is "np.float64(0.1)" under numpy 2; JSON prints 0.1
    document = {"rows": [{"a": np.float64(0.1), "b": 0.1, "c": True, "d": None,
                          "e": math.nan, "f": [np.float64(-2.5e-300)]}]}
    assert render(document, "csv") == "a,b,c,d,e,f[0]\n0.1,0.1,True,,nan,-2.5e-300\n"


# strings with non-ASCII, quote, backslash, control and lone surrogate characters
_STRINGS = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\n\t\x7f", "\u00e9 \u2713 \U0001d11e", "\ud800"])
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
_SCALARS = (_STRINGS | st.booleans() | st.none() | _FLOATS | _FLOATS.map(np.float64)
            | st.integers() | st.integers(min_value=2**64, max_value=2**200)
            | st.integers(max_value=-2**64, min_value=-2**200))
_DOCUMENTS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_STRINGS, inner, max_size=4), max_leaves=24)


@given(_DOCUMENTS)
@example({"rows": [{"b": np.float64(0.1), "a": (math.nan, -math.inf, 2**70, True, None),
                    "c": {}, "d": [], "\u00e9": "\"\\\x01"}], "command": "x"})
def test_json_writer_gives_the_bytes_of_the_standard_library(document):
    assert render(document, "json") == json.dumps(document, indent=2, sort_keys=True) + "\n"


# one config each command runs on; a bm section without a sweep is one configuration
ROUND_TRIP = dict(DISC_3PI, sweep={"phi_pi": RANGE, "q_values": ["0", "1/3"]},
                  eta={"c_values": ["1/3", "-5/4"]}, bm=BM)


@pytest.mark.parametrize("command,config", [
    *[pytest.param(command, ROUND_TRIP, id=command)
      for command in ("count", "verify", "sweep", "eta", "index")],
    pytest.param("bm", {"bm": dict(BM, sweep=RANGE)}, id="bm-sweep"),
    pytest.param("bm", {"bm": BM}, id="bm-verify"),
])
def test_output_is_the_standard_library_rendering(tmp_path, capsys, command, config):
    code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_out_file_written(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "count", "--config", cfg, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][0]["count"] == 1


def test_out_to_a_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "count", "--config", write_config(tmp_path, DISC_3PI),
                             "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and str(target) in err
    assert not target.exists()


def _count_calls(monkeypatch, module, names):
    """Calls of each named function of ``module``, wrapped at every binding
    in the package that holds it (the benchmark's tracer wraps the same way)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapped(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key == "zeromodes" or key.startswith("zeromodes."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapped)
    return calls


def test_each_command_reduces_its_problem_once(tmp_path, capsys, monkeypatch):
    from test_benchmark_bindings import SPHERE
    from zeromodes import conformal

    calls = _count_calls(monkeypatch, conformal, ("flat_problem", "sphere_to_disc"))
    # verify's second reduction is the one PotentialField(fld, domain) makes
    expected = {"count": 1, "index": 1, "verify": 2}
    for name, config, spheres in (("disc", DISC_SEED7, 0), ("sphere", SPHERE, 1)):
        path = write_config(tmp_path, config, f"{name}.json")
        for command, reductions in expected.items():
            calls.update(dict.fromkeys(calls, 0))
            code, _, _ = run_cli(capsys, command, "--config", path)
            assert code == 0, (name, command)
            assert calls == {"flat_problem": reductions,
                             "sphere_to_disc": spheres * reductions}, (name, command)


def test_one_process_matches_fresh_processes(tmp_path, capsys):
    """The parser is shared by every main call of a process and carries
    nothing from one call to the next: a CSV verify does not make the next
    command print CSV."""
    config = dict(DISC_3PI, sweep={"phi_pi": {"start": "-2", "stop": "2", "step": "1/4"},
                                   "q_values": ["0", "1/3"]})
    cfg = write_config(tmp_path, config)
    commands = [["verify", "--config", cfg, "--tol", "1e-3", "--format", "csv"],
                ["index", "--config", cfg], ["sweep", "--config", cfg]]
    in_process = [run_cli(capsys, *argv)[:2] for argv in commands]
    src = os.path.dirname(os.path.dirname(zeromodes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, (code, out) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "zeromodes.cli", *argv],
                               capture_output=True, env=env, check=False)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv[0]
    assert in_process[0][1].startswith("domain,") and in_process[1][1].startswith("{")


# a CLI process run as the program (cli.main with no argv): it reports on
# stderr the OPENBLAS_NUM_THREADS it ran with, how often it forked and the
# most workers a residual walk was given
PROGRAM_CHILD = """
import os, sys
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from zeromodes import cli, zero_modes
workers, count = [], zero_modes._worker_count
zero_modes._worker_count = lambda chunks: workers.append(count(chunks)) or workers[-1]
sys.argv[1:] = ["verify", "--config", sys.argv[1]]
code = cli.main()
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(forks), max(workers), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="the walk splits over two or more CPUs on Linux")
@pytest.mark.parametrize("preset, split", [(None, True), ("2", False)])
def test_program_runs_blas_on_one_thread_unless_told(tmp_path, capsys, preset, split):
    # without the variable the program sets one BLAS thread and forks; a
    # preset two-thread pool is kept, and the walk then runs in one process
    cfg = write_config(tmp_path, DISC_3PI)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.dirname(os.path.dirname(zeromodes.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROGRAM_CHILD, cfg], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    threads, forks, workers = proc.stderr.split()[-3:]
    assert threads.decode() == (preset or "1")
    assert (int(forks) > 0, int(workers) > 1) == (split, split)
    # the same output as this process, whose conftest set one BLAS thread
    assert proc.stdout.decode() == run_cli(capsys, "verify", "--config", cfg)[1]
