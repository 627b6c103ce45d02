"""The README's library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs_and_its_modes_pass():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example")[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counted, *reports = proc.stdout.splitlines()
    # the comment on the count line is what that line prints
    comment = re.search(r"print\(count_zero_modes\(.*\)\)\s+# (.*)", code).group(1)
    assert counted == comment
    assert [line.split()[0] for line in reports] == ["0", "1", "2"]
    assert all(line.endswith(" True") for line in reports)
