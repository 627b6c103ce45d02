"""tests/compare_outputs.py names the fields that moved in a differing JSON job."""

import json

from compare_outputs import _moved_fields


def test_moved_fields_are_the_flattened_keys_that_differ():
    doc = {"rows": [{"degree": 0, "residuals": {"pde": 1e-9, "leakage": [
        {"boundary": "hole1", "value": 0.0}, {"boundary": "outer", "value": 0.0}]}}],
        "all_passed": True}
    moved = json.loads(json.dumps(doc))
    moved["rows"][0]["residuals"]["pde"] = 2e-9
    moved["rows"][0]["residuals"]["leakage"][1]["value"] = 1e-30
    moved["note"] = ""
    assert _moved_fields(json.dumps(doc), json.dumps(doc)) == []
    assert _moved_fields(json.dumps(doc), json.dumps(moved)) == [
        "rows[0].residuals.pde", "rows[0].residuals.leakage[1].value", "note"]
    # a CSV job, or an error with no document, names no field
    assert _moved_fields("degree,pde\n0,1e-9\n", "degree,pde\n0,2e-9\n") is None
