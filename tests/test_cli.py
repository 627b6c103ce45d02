"""CLI commands, exit codes, output formats, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import zeromodes
from zeromodes.cli import main, render

DISC_3PI = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.2, 0.4], "radius": 0.35}]},
    "field": {"bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
                         "flux_pi": "5/2", "profile": "smooth"}],
              "hole_fluxes_pi": ["1/2"], "q": "0", "kernel": "default"},
}


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
    pytest.param("eta", {"eta": {"c_values": ["1/3"], "s_values": ["nan"]}},
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
    pytest.param("verify", _with(["tolerances"], {"residual": "nan"}),
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
    pytest.param("sweep", {"sweep": {"phi_pi": {"start": "0", "stop": "1", "step": "1/2"},
                                     "radius_out": True}},
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
    # bool("false") is True: the string ran the unbounded sweep
    pytest.param("bm", {"bm": dict(BM, sweep={"start": "0", "stop": "1", "step": "1/2",
                                              "unbounded": "false"})},
                 "bm sweep unbounded must be true or false, got 'false'",
                 id="bm-unbounded-string"),
])
def test_bad_config_exits_2(tmp_path, capsys, command, config, message):
    code, out, err = run_cli(capsys, *command.split(), "--config",
                             write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err


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
    cfg = write_config(tmp_path, DISC_3PI)
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"]
    row = doc["rows"][0]
    assert row["residuals"]["pde"] < 1e-6
    assert all(entry["value"] < 1e-6 for entry in row["residuals"]["leakage"])


def test_verify_grid_too_coarse_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    code, _, err = run_cli(capsys, "verify", "--config", cfg,
                           "--tol", "1e-12", "--grid", "8")
    assert code == 3
    assert "GridTooCoarse" in err


def test_verify_sphere_notes_dressing(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_3PI)
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert "W^(-1/2)" in doc["note"]
    assert doc["all_passed"] and doc["rows"]
    assert all(row["w_dressed"] for row in doc["rows"])


def test_sphere_flux_mismatch_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "domain": {"kind": "sphere", "omitted_hole": 1,
                   "holes": [{"center": [1.0, 0.0], "radius": 0.4},
                             {"center": [0, 0], "radius": 4.0}]},
        "field": {"hole_fluxes_pi": ["1/2", "1/2"]},
    })
    code, _, err = run_cli(capsys, "count", "--config", cfg)
    assert code == 3
    assert "SphereFluxMismatch" in err


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
    cfg = write_config(tmp_path, {
        "bm": {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0, "s_outer": -1.0,
               "phi_pi": "1",
               "sweep": {"start": "0", "stop": "4", "step": "1/4"}},
    })
    code, out, _ = run_cli(capsys, "bm", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    hits = [r["phi"] / math.pi for r in rows if r["has_mode"]]
    assert hits == pytest.approx([1.0, 3.0])


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
    cfg = write_config(tmp_path, DISC_3PI)
    code, out, _ = run_cli(capsys, "index", "--config", cfg)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["index"] == 1 and row["consistent"]
    assert row["index_raw"] == pytest.approx(1.0, abs=1e-9)


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


def test_out_file_written(tmp_path, capsys):
    cfg = write_config(tmp_path, DISC_3PI)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "count", "--config", cfg, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][0]["count"] == 1


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
