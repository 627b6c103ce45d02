"""Whether the tests kill each mutant of the register.

    python tests/mutations.py SRC

SRC is the ``src`` directory of a checkout.  Each entry of ``REGISTER`` is a
mutant: a file under SRC, an exact old text, the new text that replaces it,
and the ids of the tests that must fail with the edit.  For each entry the
script copies SRC, this checkout's ``tests`` and its ``pyproject.toml`` (the
pytest settings) to a temporary directory, applies the edit there and runs
each named test with pytest in a process of its own, with the hypothesis
profile ``mutants`` of ``tests/conftest.py``, which does not shrink a failing
example.

A mutant is killed when every named test fails.  The script prints one line
per entry and exits 1 if a mutant survives (a named test passes), if a test
errs or selects no test, or if an entry's old text is not found exactly once
in its file; else 0.  An entry that no longer applies fails, so the register
follows the code as it moves instead of going stale.

Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence, Tuple

TESTS = Path(__file__).resolve().parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to SRC
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the checkout


REGISTER = (
    Mutant("h series constant of integration dropped", "zeromodes/potential.py",
           "k=-self.flux / TWO_PI * math.log(rho)", "k=0.0",
           ("tests/test_potential.py::test_smooth_profiles_against_mpmath_radial_integrals",)),
    Mutant("interior plan with no stencil margin", "zeromodes/potential.py",
           "margin = 2 * reach", "margin = 0 * reach",
           ("tests/test_potential.py::test_the_interior_plan_gives_eval_h_to_the_bit",)),
    Mutant("uniform bump's ring cut without its stencil reach", "zeromodes/zero_modes.py",
           "cuts += [(b.center, b.support_radius + 3 * fd_step,",
           "cuts += [(b.center, b.support_radius,",
           ("tests/test_zero_modes.py::"
            "test_windowed_masks_keep_the_points_of_the_unwindowed_lattice",)),
    Mutant("eval_h's hypot fallback disabled", "zeromodes/potential.py",
           "if not np.isfinite(out).all():", "if False:",
           ("tests/test_potential.py::test_h_past_the_squared_range_is_the_log_law",)),
    Mutant("leakage sums the allowed indices", "zeromodes/aps_boundary.py",
           "forbidden = ~spec.allowed(chirality, ells)",
           "forbidden = spec.allowed(chirality, ells)",
           ("tests/test_aps_boundary.py::test_leakage_single_forbidden_term",)),
    Mutant("eval_a skips its first source", "zeromodes/potential.py",
           "for src in self._sources:\n            src.add_a(",
           "for src in self._sources[1:]:\n            src.add_a(",
           ("tests/test_potential.py::test_fd_gradient_matches_a_at_random_points",)),
    Mutant("unit k divides G by 1 - x", "zeromodes/potential.py",
           "chebdiv(smooth_flux_series(), (1.0, 1.0))",
           "chebdiv(smooth_flux_series(), (1.0, -1.0))",
           ("tests/test_potential.py::test_smooth_profiles_against_mpmath_radial_integrals",
            "tests/test_potential.py::test_smooth_k_and_h_against_mpmath_at_any_radius")),
    Mutant("unit k without its half", "zeromodes/potential.py",
           "coef = 0.5 * cheb.chebdiv(", "coef = cheb.chebdiv(",
           ("tests/test_potential.py::test_smooth_profiles_against_mpmath_radial_integrals",
            "tests/test_potential.py::test_smooth_k_and_h_against_mpmath_at_any_radius")),
    Mutant("series summed at x taken in s", "zeromodes/potential.py",
           "        s2_in *= 2.0\n        s2_in /= self.rho ** 2\n",
           "        np.sqrt(s2_in, out=s2_in)\n        s2_in *= 2.0\n        s2_in /= self.rho\n",
           ("tests/test_potential.py::test_smooth_profiles_against_mpmath_radial_integrals",
            "tests/test_potential.py::test_kernels_follow_the_plain_radial_laws")),
    Mutant("boundary rows reversed", "zeromodes/cli.py",
           "for k, v in values.items()]", "for k, v in reversed(values.items())]",
           ("tests/test_cli.py::test_verify_all_pass", "tests/test_cli.py::test_index_command")),
)


class StaleEntry(Exception):
    """An entry's old text is not found exactly once in its file."""


def mutated(entry: Mutant, src: Path) -> str:
    """The text of the entry's file under ``src`` with its edit applied."""
    text = (src / entry.path).read_text(encoding="utf-8")
    found = text.count(entry.old)
    if found != 1:
        raise StaleEntry(f"its old text is found {found} times in {entry.path}, not once")
    return text.replace(entry.old, entry.new)


def _run_test(root: Path, test: str) -> int:
    """pytest's exit code for the one test id ``test`` in the tree ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    where = [sys.executable, "-c", "import zeromodes; print(zeromodes.__file__)"]
    library = subprocess.run(where, env=env, capture_output=True, text=True,
                             check=True).stdout.strip()
    if root / "src" not in Path(library).resolve().parents:
        raise SystemExit(f"the tests would import zeromodes from {library}, not the mutant")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--hypothesis-profile", "mutants", test], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def verdict(entry: Mutant, src: Path) -> str:
    """``killed``, or why the entry fails: stale, survived or erred."""
    try:
        text = mutated(entry, src)
    except StaleEntry as exc:
        return f"does not apply: {exc}"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(src, root / "src", ignore=ignore)
        shutil.copytree(TESTS, root / "tests", ignore=ignore)
        shutil.copy(TESTS.parent / "pyproject.toml", root)
        (root / "src" / entry.path).write_text(text, encoding="utf-8")
        # pytest exits 1 when a test fails, 0 when all pass, else it erred
        codes = {test: _run_test(root, test) for test in entry.tests}
    survived = [test for test, code in codes.items() if code == 0]
    erred = [f"{test} (pytest exit {code})" for test, code in codes.items() if code not in (0, 1)]
    if survived:
        return f"survived: {', '.join(survived)} passed"
    if erred:
        return f"erred: {', '.join(erred)}"
    return "killed"


def main(argv: Sequence[str], register: Sequence[Mutant] = REGISTER) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    src = Path(argv[0]).resolve()
    failed = 0
    for entry in register:
        result = verdict(entry, src)
        failed += result != "killed"
        print(f"{entry.name}: {result}", flush=True)
    print(f"{len(register) - failed} of {len(register)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
