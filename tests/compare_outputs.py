"""Whether two library trees give the same output on the benchmark's jobs.

    python tests/compare_outputs.py SRC_A SRC_B

SRC_A and SRC_B are the ``src`` directories of two checkouts.  For seeds 3,
7 and 11, every ``pass_jobs`` entry of every workload in this checkout's
``perfbench/workloads.py`` runs through ``zeromodes.cli.main``, once with
``--format json`` and once with ``--format csv``.  Each tree runs all the
jobs in one subprocess of its own, with only that tree on PYTHONPATH.  The
script prints every job whose exit code, stdout or stderr differs between
the trees, and exits 1 if any does, else 0.  For a JSON job whose stdout
differs it also names the fields that moved, flattened as
``rows[2].residuals.pde``.

It reads ``perfbench/`` and changes nothing there.  Its name keeps pytest
from collecting it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

SEEDS = (3, 7, 11)
FORMATS = ("json", "csv")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _jobs(work: Path):
    """(label, argv) for every pass job of every workload and seed, in each
    format, with each workload's configs written under ``work``."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    jobs = []
    for seed in SEEDS:
        for name, generate in sorted(workloads.GENERATORS.items()):
            wl = generate(seed)
            folder = work / f"{name}-{seed}"
            folder.mkdir()
            for config, node in wl.configs.items():
                (folder / f"{config}.json").write_text(json.dumps(node), encoding="utf-8")
            for command, config in wl.pass_jobs:
                for fmt in FORMATS:
                    jobs.append((f"seed {seed} {name} {command} {config} {fmt}",
                                 [command, "--config", str(folder / f"{config}.json"),
                                  "--format", fmt]))
    return jobs


def _leaves(node, path=""):
    """(flattened key, value) for each leaf of a JSON document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _moved_fields(out_a: str, out_b: str):
    """The flattened keys whose values differ between two JSON documents, or
    None when either output is not JSON."""
    try:
        a, b = (dict(_leaves(json.loads(out))) for out in (out_a, out_b))
    except json.JSONDecodeError:
        return None
    missing = object()
    return [key for key in {**a, **b} if a.get(key, missing) != b.get(key, missing)]


def _child(jobs_file: str, out_file: str) -> int:
    """Run the jobs in this process; write the library's path and each job's
    [exit code, stdout, stderr]."""
    import zeromodes
    from zeromodes import cli

    results = []
    for argv in json.loads(Path(jobs_file).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is an output to compare
                traceback.print_exc()
                code = "raised"
        results.append([code, out.getvalue(), err.getvalue()])
    Path(out_file).write_text(json.dumps({"library": zeromodes.__file__, "results": results}),
                              encoding="utf-8")
    return 0


def _run_tree(src: Path, jobs_file: Path, out_file: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--child", str(jobs_file), str(out_file)],
                   env=env, check=True)
    record = json.loads(out_file.read_text(encoding="utf-8"))
    if src not in Path(record["library"]).resolve().parents:
        raise SystemExit(f"{src}: the jobs imported zeromodes from {record['library']}")
    return record["results"]


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        return _child(*argv[1:])
    if len(argv) != 2:
        raise SystemExit(__doc__)
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = _jobs(work)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps([job_argv for _, job_argv in jobs]), encoding="utf-8")
        a, b = (_run_tree(src, jobs_file, work / f"out{i}.json") for i, src in enumerate(trees))
    differ = 0
    for (label, _), ra, rb in zip(jobs, a, b):
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), ra, rb) if x != y]
        if parts:
            differ += 1
            moved = _moved_fields(ra[1], rb[1]) if "stdout" in parts and label.endswith(
                " json") else None
            fields = f"; fields: {', '.join(moved)}" if moved else ""
            print(f"{label}: {', '.join(parts)} differ{fields}")
    print(f"{differ} of {len(jobs)} runs differ: {len(jobs) // len(FORMATS)} pass jobs, "
          f"each in {' and '.join(FORMATS)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
