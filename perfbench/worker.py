"""Child process of the benchmark: set-up probe, warm passes, traced pass.

    worker.py setup <verify|tables> <config>...
    worker.py warm  <jobs.json> <outdir> <verify|pass>
    worker.py trace <jobs.json> <outdir> <0|1>

Each mode prints JSON lines, the last one its result; ``setup`` and
``trace`` start their clock before ``import zeromodes.cli``.  Jobs run
in-process through ``zeromodes.cli.main`` with stdout captured; a pass saves
job ``i``'s output and exit code to ``<outdir>/<i>.out`` and ``<i>.code``.
The library comes from PYTHONPATH, which the parent points at the checkout's
``src``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def setup(kind: str, paths) -> dict:
    """Time from before the import to a parsed, validated problem whose
    PotentialField is built (verify), or to parsed configs (tables)."""
    t0 = time.perf_counter()
    from zeromodes import cli
    from zeromodes.field import validate_field
    from zeromodes.geometry import validate_domain
    from zeromodes.potential import PotentialField

    for path in paths:
        config = cli.load_config(path)
        if "domain" not in config:
            continue
        domain = cli.parse_domain(config["domain"])
        fld = cli.parse_field(config["field"], domain.n_holes)
        problems = validate_domain(domain).violations + validate_field(fld, domain)
        if problems:
            raise SystemExit(f"invalid config {path}: {problems}")
        if kind == "verify":
            PotentialField(fld, domain)
    return {"setup_s": time.perf_counter() - t0}


def _run_jobs(cli, jobs):
    """One pass: (exit code, output text) per job.  A job that raises counts
    as exit code -1 so the pass goes on and the oracle records the failure."""
    out = []
    for command, path in jobs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([command, "--config", path])
        except Exception:  # noqa: BLE001 - a crashing job is a failed op
            traceback.print_exc()
            code = -1
        out.append((code, buf.getvalue()))
    return out


def _save(outdir: str, results) -> None:
    for i, (code, text) in enumerate(results):
        Path(outdir, f"{i}.out").write_text(text, encoding="utf-8")
        Path(outdir, f"{i}.code").write_text(str(code), encoding="utf-8")


def _digest(results):
    return [hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() for code, text in results]


def warm(jobs, outdir: str, warmup: str) -> dict:
    """Serve timed passes, one per line read from stdin, in a warm process.

    Lazy set-up is paid first and not timed: a whole pass for table jobs, or
    for verify jobs the problem build plus one verified mode.  Each timed
    pass prints its time, the jobs whose output differs from the first timed
    pass (saved to ``outdir``) and the work it counted: evaluated points,
    boundary samples and tolerances.
    """
    from zeromodes import cli, zero_modes
    from zeromodes.potential import PotentialField

    if warmup == "verify":
        config = cli.load_config(jobs[0][1])
        domain = cli.parse_domain(config["domain"])
        fld = cli.parse_field(config["field"], domain.n_holes)
        potential = PotentialField(fld, domain)
        mode = zero_modes.build_basis(domain, fld, potential).modes()[0]
        zero_modes.verify_mode(mode, domain, fld, potential)
    else:
        _run_jobs(cli, jobs)
    print(json.dumps({"ready": True}), flush=True)
    reference = None
    for _ in sys.stdin:
        tracer = Tracer()
        tracer.install(work_only=True)
        t0 = time.perf_counter()
        results = _run_jobs(cli, jobs)
        elapsed = time.perf_counter() - t0
        tracer.uninstall()
        digests = _digest(results)
        if reference is None:
            reference = digests
            _save(outdir, results)
        print(json.dumps({"s": elapsed, "work": dict(tracer.counts),
                          "changed": [i for i, d in enumerate(digests) if d != reference[i]]}),
              flush=True)
    return {"grid": dataclasses.asdict(zero_modes.GridSpec())}


def trace(jobs, outdir: str, traced: bool) -> dict:
    """One pass from a fresh import, with or without spans."""
    t0 = time.perf_counter()
    from zeromodes import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if traced:
        tracer.install()
    results = _run_jobs(cli, jobs)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    _save(outdir, results)
    if traced:
        Path(outdir, "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return {"wall_s": wall, "import_s": import_s,
            "output_bytes": sum(len(text.encode()) for _, text in results)}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1], argv[2:])
    else:
        jobs = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        if mode == "warm":
            result = warm(jobs, argv[2], argv[3])
        else:
            result = trace(jobs, argv[2], argv[3] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
