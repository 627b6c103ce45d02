"""CLI commands, exit codes, output formats, determinism."""

import csv
import io
import json
import math

import pytest

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


BM = {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0, "s_outer": -1.0, "phi_pi": "1"}


def _with(path, value, config=DISC_3PI):
    """A deep copy of config with the value at the key path replaced."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


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
    pytest.param("verify", _with(["grid"], {"radail": 8}), "unknown grid keys ['radail']",
                 id="unknown-grid-key"),
])
def test_bad_config_exits_2(tmp_path, capsys, command, config, message):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err


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
    cfg = write_config(tmp_path, {
        "domain": {"kind": "sphere", "omitted_hole": 1,
                   "holes": [{"center": [1.0, 0.5], "radius": 0.4},
                             {"center": [0, 0], "radius": 4.0}]},
        "field": {"bumps": [{"center": [-1.0, -0.5], "support_radius": 0.5,
                             "flux_pi": "3", "profile": "smooth"}],
                  "hole_fluxes_pi": ["1/2", "-7/2"]},
    })
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
