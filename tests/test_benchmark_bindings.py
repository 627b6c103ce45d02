"""The library names the benchmark calls and wraps still exist.

``perfbench/tracer.py`` wraps public calls by (module, attribute), and the
benchmark's worker builds and verifies one mode before its timed passes.  A
change that deletes or renames one of those names fails here, not only in a
benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from zeromodes import cli, zero_modes
from zeromodes.field import validate_field
from zeromodes.geometry import validate_domain
from zeromodes.potential import PotentialField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
DISC = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.2, 0.4], "radius": 0.35}]},
    "field": {"bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
                         "flux_pi": "5/2", "profile": "smooth"}],
              "hole_fluxes_pi": ["1/2"]},
}
# shaped like the sphere verify workload: four holes and a uniform bump inside
# the origin-centred designated hole, semi-total flux 13 pi / 2 (three modes)
SPHERE = {
    "domain": {"kind": "sphere", "omitted_hole": 4,
               "holes": [{"center": [-0.779, 2.023], "radius": 0.3},
                         {"center": [0.772, 1.66], "radius": 0.3},
                         {"center": [-0.941, -1.122], "radius": 0.3},
                         {"center": [-0.575, -0.178], "radius": 0.3},
                         {"center": [0.0, 0.0], "radius": 3.0}]},
    "field": {"bumps": [{"center": [0.887, 0.349], "support_radius": 0.6,
                         "flux_pi": "9/2", "profile": "uniform"}],
              "hole_fluxes_pi": ["1/2", "19/4", "3/4", "-2", "-17/2"]},
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    tracer = _tracer()
    return [(module, attr) for _, module, attr, _ in tracer.SPANS] + \
        [(module, attr) for _, module, attr in tracer.COUNTED]


@pytest.mark.parametrize("module,attr", _bindings())
def test_every_traced_name_resolves(module, attr):
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:  # a method, which the tracer looks up in the class dict
        owner = getattr(owner, owner_name)
        assert callable(owner.__dict__[name])
    else:
        assert callable(getattr(owner, name))


def test_worker_builds_and_verifies_one_mode(tmp_path):
    # the worker's set-up and warm-up calls, in its order, for each verify
    # workload's shape; the sphere's PotentialField goes through its disc
    for name, node in (("disc", DISC), ("sphere", SPHERE)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(node), encoding="utf-8")
        config = cli.load_config(str(path))
        domain = cli.parse_domain(config["domain"])
        fld = cli.parse_field(config["field"], domain.n_holes)
        assert validate_domain(domain).violations + validate_field(fld, domain) == []
        potential = PotentialField(fld, domain)
        mode = zero_modes.build_basis(domain, fld, potential).modes()[0]
        report = zero_modes.verify_mode(mode, domain, fld, potential)
        assert report.passed, name
        assert report.tolerances == {"pde_residual": 1e-6, "leakage": 1e-6}
    assert dataclasses.asdict(zero_modes.GridSpec())["n_boundary_samples"] == 2048
