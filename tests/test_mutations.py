"""The mutation register (tests/mutations.py) refuses what it cannot apply.

Only the harmless entry's test runs pytest on a mutant; the others replace
the pytest runs by a stand-in."""

from pathlib import Path

import pytest

import mutations
from mutations import REGISTER, Mutant, StaleEntry

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _no_pytest(root, test):
    raise AssertionError("a register entry that does not apply ran its tests")


@pytest.mark.parametrize("entry", REGISTER, ids=[entry.name for entry in REGISTER])
def test_every_entry_applies_once_and_names_tests_that_exist(entry):
    assert mutations.mutated(entry, SRC) != (SRC / entry.path).read_text(encoding="utf-8")
    for test in entry.tests:
        path, name = test.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8")


@pytest.mark.parametrize("old", ["margin = 3 * reach", "for src in self._sources:"],
                         ids=["missing", "twice"])
def test_an_entry_whose_old_text_does_not_apply_is_refused(monkeypatch, capsys, old):
    entry = Mutant("stale", "zeromodes/potential.py", old, "pass",
                   ("tests/test_potential.py::test_fd_gradient_matches_a_at_random_points",))
    with pytest.raises(StaleEntry):
        mutations.mutated(entry, SRC)
    monkeypatch.setattr(mutations, "_run_test", _no_pytest)
    assert mutations.main([str(SRC)], [entry]) == 1
    assert "stale: does not apply: its old text is found" in capsys.readouterr().out


@pytest.mark.parametrize("code,verdict", [(1, "killed"), (0, "survived"), (5, "erred")])
def test_a_mutant_is_killed_only_when_its_tests_fail(monkeypatch, capsys, code, verdict):
    # pytest exits 1 on a failed test, 0 when all pass and 5 when it selects none
    seen = []

    def run_test(root, test):
        seen.append((root / "src" / REGISTER[0].path).read_text(encoding="utf-8"))
        return code

    monkeypatch.setattr(mutations, "_run_test", run_test)
    assert mutations.main([str(SRC)], REGISTER[:1]) == (verdict != "killed")
    assert capsys.readouterr().out.startswith(f"{REGISTER[0].name}: {verdict}")
    # the tests ran on the mutant, in a copy: the checkout is unchanged
    assert seen == [mutations.mutated(REGISTER[0], SRC)]
    assert REGISTER[0].old in (SRC / REGISTER[0].path).read_text(encoding="utf-8")


def test_a_harmless_entry_survives_real_pytest():
    # a comment edit changes no behaviour, so its test passes on the mutant
    entry = Mutant("comment edit", "zeromodes/geometry.py",
                   "#: sentinel accepted by", "#: the sentinel accepted by",
                   ("tests/test_geometry.py::test_valid_disc_with_two_holes",))
    assert mutations.verdict(entry, SRC) == (
        "survived: tests/test_geometry.py::test_valid_disc_with_two_holes passed")
