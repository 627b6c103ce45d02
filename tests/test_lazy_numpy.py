"""numpy loads on first numeric use, and a process holds one numpy.

The table commands are rational arithmetic: a ``count``, ``sweep``,
``index`` or ``bm`` sweep process never loads numpy. ``verify``, ``bm``
verify and ``eta`` do. Each case runs in a fresh interpreter, since this
process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeromodes

DISC = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.2, 0.4], "radius": 0.35}]},
    "field": {"bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
                         "flux_pi": "5/2", "profile": "smooth"}],
              "hole_fluxes_pi": ["1/2"]},
}
# the same problem with float fluxes, which counting decides within tolerance
DISC_FLOAT = dict(DISC, field={
    "bumps": [{"center": [-0.8, 0.3], "support_radius": 0.6,
               "flux": 2.5 * 3.141592653589793, "profile": "smooth"}],
    "hole_fluxes": [0.5 * 3.141592653589793], "q": "1/3"})
SWEEP = {"sweep": {"phi_pi": {"start": "-4", "stop": "4", "step": "1/8"},
                   "q_values": ["0", "1/3"]}}
ETA = {"eta": {"c_values": ["1/8", "-5/3"], "s_values": [0.2, 0.1]}}
BM = {"bm": {"r_inner": 1.0, "r_outer": 2.0, "s_inner": 1.0, "s_outer": -1.0,
             "phi_pi": "1"}}
BM_SWEEP = {"bm": dict(BM["bm"], sweep={"start": "-6", "stop": "6", "step": "1/8"})}

# prints the exit code and the numpy submodules a command left loaded
CLI_CHILD = """
import json, sys
from zeromodes.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "numpy": sorted(n for n in sys.modules if n.startswith("numpy."))}))
"""


def run_child(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(Path(zeromodes.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command,config,loads_numpy", [
    ("count", DISC, False),
    ("sweep", SWEEP, False),
    ("index", DISC, False),
    ("index", DISC_FLOAT, False),
    ("bm", BM_SWEEP, False),
    ("verify", DISC, True),
    ("bm", BM, True),
    ("eta", ETA, True),
], ids=["count", "sweep", "index-exact", "index-float", "bm-sweep",
        "verify", "bm-verify", "eta"])
def test_only_numeric_commands_load_numpy(tmp_path, command, config, loads_numpy):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.json"
    report = json.loads(run_child(CLI_CHILD, command, "--config", str(path),
                                  "--out", str(out)))
    assert report["code"] == 0 and json.loads(out.read_text())
    assert bool(report["numpy"]) is loads_numpy, report["numpy"][:5]


def test_numpy_imported_first_is_every_module_np():
    script = """
import sys, types
import numpy
import zeromodes.cli
nps = {name: vars(m)["np"] for name, m in sys.modules.items()
       if name.startswith("zeromodes") and "np" in vars(m)}
assert "zeromodes.field" in nps and "zeromodes.potential" in nps, sorted(nps)
assert all(np is numpy for np in nps.values()), sorted(nps)
assert sys.modules["numpy"] is numpy and type(numpy) is types.ModuleType
print("ok")
"""
    assert run_child(script) == "ok"


def test_numpy_imported_later_is_the_loaded_binding():
    script = """
import sys, types
import zeromodes.cli
from zeromodes import field, potential
lazy = potential.np
assert sys.modules["numpy"] is lazy
assert not [n for n in sys.modules if n.startswith("numpy.")]
x, _ = field.gauss_nodes()  # the first numeric call loads numpy
import numpy
assert numpy is lazy and sys.modules["numpy"] is lazy
assert type(numpy) is types.ModuleType and type(x) is numpy.ndarray
assert all(vars(m).get("np", numpy) is numpy
           for name, m in sys.modules.items() if name.startswith("zeromodes"))
print("ok")
"""
    assert run_child(script) == "ok"
