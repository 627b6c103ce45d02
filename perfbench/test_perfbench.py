"""The benchmark's own tests: determinism, oracle sensitivity, bare checkout.

    python -m pytest perfbench/test_perfbench.py

They start benchmark runs, so they take about two minutes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "bytes", "points/mode"}


@contextlib.contextmanager
def scratch(name: str):
    """A directory inside the checkout, removed afterwards with its parent
    when that is left empty (the benchmark's own runs use the same root)."""
    path = ROOT / ".perfbench_work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        if not any(path.parent.iterdir()):
            path.parent.rmdir()


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_traced_counts_repeat_and_output_matches_untraced(name):
    """Count-type layer metrics repeat exactly for a seed; a traced run whose
    output differed from the untraced one would report correct = false."""
    runs = [result_of(bench("--workload", name, "--seed", 5, "--seconds", 1, "--trace", 1))
            for _ in range(2)]
    for run in runs:
        assert run["correct"]
    counts = [{k: v["value"] for k, v in run["metrics"].items() if v["unit"] in COUNT_UNITS}
              for run in runs]
    assert counts[0] == counts[1]
    assert len(counts[0]) >= 10


def test_failures_follow_neither_seed_nor_run_length():
    """The index grid's fluxes, where the known float-index defect shows, are
    the same for every seed, and a job counts once however often it repeats,
    so every run of batch_tables reports the same failed and attempted."""
    runs = [result_of(bench("--workload", "batch_tables", "--seed", seed,
                            "--seconds", seconds, "--trace", 0))
            for seed, seconds in ((1, 1), (2, 16))]
    assert runs[0]["failed"] > 0
    assert [(r["attempted"], r["failed"]) for r in runs] == \
        [(runs[0]["attempted"], runs[0]["failed"])] * 2


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_fix_the_work_size(name):
    make = workloads.GENERATORS[name]
    assert make(7).configs == make(7).configs
    sizes = []
    for seed in range(6):
        wl = make(seed)
        sizes.append([(cmd, oracle.expected_ops(cmd, wl.configs[cfg]))
                      for cmd, cfg in wl.pass_jobs])
        verify = wl.configs.get("verify")
        if verify:
            sizes[-1].append(sorted(h["radius"] for h in verify["domain"]["holes"]))
    assert all(s == sizes[0] for s in sizes)
    assert make(1).configs != make(2).configs


def test_oracle_rejects_wrong_rows():
    config = workloads.batch_tables(3).configs["sweep"]
    with scratch("test-oracle") as work:
        path = work / "sweep.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "zeromodes.cli", "sweep", "--config", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    clean = oracle.check("sweep", "sweep", config, proc.stdout, proc.returncode)
    assert clean.attempted == 1281 and clean.failed == 0
    doc = json.loads(proc.stdout)
    doc["rows"][100]["count_plane"] += 1
    doc["rows"][7]["eta_outer_q=0"] += 1e-9
    del doc["rows"][-1]
    broken = oracle.check("sweep", "sweep", config, json.dumps(doc), 0)
    assert broken.failed == 3
    assert not any(f.known_defect for f in broken.failures)
    assert oracle.check("sweep", "sweep", config, "", 3).failed == 1281


def test_benchmark_json_names_what_the_runs_report():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "cli_wall_s", "setup_s", "ops_per_s", "peak_rss_mb"}


def test_eta_oracle_matches_hurwitz_closed_form():
    # eta_0(c) = zeta(0, 1 - c) - zeta(0, c) = 2c - 1 for c in (0, 1)
    for c in (Fraction(1, 8), Fraction(2, 3)):
        assert oracle.eta_hurwitz(0.0, c) == pytest.approx(oracle.eta_closed(c), abs=1e-15)


def test_bare_benchmark_directory_fails_without_result():
    with scratch("test-bare") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch_tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
