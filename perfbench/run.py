"""The zeromodes benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; ``all`` measures every workload in turn.
The library is taken from ``src/`` of that checkout and driven from outside,
through ``python -m zeromodes.cli`` processes and in-process calls to
``zeromodes.cli.main``.  The workload configs are generated from ``--seed``
(``workloads.py``) and every output is checked by an oracle that does not
call the library (``oracle.py``).

With ``--trace 0`` a run is a series of rounds, each one set-up probe, one
repetition of the workload's CLI processes and passes in a warm process, for
about ``--seconds``; the warm passes get as much time as the CLI repetitions.
It reports the end-to-end metrics:

- ``setup_s``: median over the probes, each a fresh process, of the time from
  before ``import zeromodes.cli`` to ready: config parsed and validated and
  the ``PotentialField`` built (verify workloads), or configs parsed (tables).
- ``cli_wall_s``: wall time of the workload's CLI processes, each a fresh
  interpreter; median over the run's repetitions.  ``peak_rss_mb`` is the
  largest peak RSS among them, read per child with ``os.wait4``.
- ``ops_per_s``: verified modes (verify workloads) or emitted table rows
  (``batch_tables``) per second in a process that has paid its lazy set-up:
  the operations of all the run's passes over their summed time.  On a shared
  machine the CPU can switch between a fast and a slow state for seconds at
  a time, so short passes come out bimodal and their median jumps between the
  two; the sum follows the share of slow time instead.

The measurements are interleaved because CPU speed on a shared machine can
drift by tens of percent within a run; every sample is in the record line.

With ``--trace 1`` the workload's pass runs in fresh processes, in pairs of
one plain and one with spans around the library's public calls
(``tracer.py``).  It reports the per-layer metrics (medians over the traced
passes) and the tracing overhead (median traced minus median plain wall
time), and requires every pass to give byte-identical output and identical
counts.

The last stdout line is the result; the line before it is a record of the
environment, the work sizes (evaluated points, boundary samples, tolerances),
every sample behind each metric, ``failed_frac`` and every failure.  Failed
operations (rows the oracle rejects, processes that exit non-zero or raise)
are counted in ``failed`` against ``attempted``.  An operation is one row of
one job, a job being a command with one config; it is counted once per run
however often the job repeats, and fails if its rows fail in any repetition,
so the two numbers depend on the seed only.
``correct`` is false if any of them is not a known defect of the program (see
``oracle.Failure``), if outputs differ between passes, or if a child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SETUP_MIN = 8  # fresh processes per run, at least, for the set-up median
ROUNDS_MIN = 3  # end-to-end rounds per run, at least, so a median has a middle

PER_LAYER = [
    ("import.s", "s"),
    ("field.smooth_amplitude.s", "s"),
    ("potential.build.s", "s"),
    ("potential.eval_h.s", "s"),
    ("potential.eval_h.points", "count"),
    ("potential.eval_a.s", "s"),
    ("potential.eval_a.points", "count"),
    ("potential.eval_h.points_per_mode", "points/mode"),
    ("zero_modes.verify_mode.s", "s"),
    ("zero_modes.verify_mode.self_s", "s"),
    ("zero_modes.verify_mode.calls", "count"),
    ("aps_boundary.leakage.s", "s"),
    ("aps_boundary.allowed.calls", "count"),
    ("aps_boundary.trace.s", "s"),
    ("aps_boundary.trace.calls", "count"),
    ("potential.boundary_phase.s", "s"),
    ("conformal.sphere_to_disc.s", "s"),
    ("conformal.conformal_factor.s", "s"),
    ("zero_modes.count.s", "s"),
    ("zero_modes.count.calls", "count"),
    ("field.normalize_flux.s", "s"),
    ("field.normalize_flux.calls", "count"),
    ("numutil.floor_strict.calls", "count"),
    ("eta_index.index_formula.s", "s"),
    ("eta_index.eta_series.s", "s"),
    ("eta_index.eta_series.terms", "count"),
    ("berry_mondragon.sweep.s", "s"),
    ("berry_mondragon.verify.s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv, stdout_path: Path) -> Child:
    """Run one child to completion; kill it after CHILD_TIMEOUT_S.

    The child is waited for without being reaped first, so the timer can
    never signal a recycled pid; then ``wait4`` reaps it and gives its rusage.
    """
    lock = threading.Lock()
    done = False
    with open(stdout_path, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)

    def on_timeout():
        with lock:
            if not done:
                proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, on_timeout)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            done = True
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 stdout_path.read_text(encoding="utf-8"))


def machine_ref_s() -> float:
    """Best of five runs of a fixed pure-Python loop.

    The machine's speed drifts by tens of percent over minutes; this number,
    taken at the start and the end of each run, lets a reader compare runs
    made at different times.  No metric is scaled by it.
    """
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "zeromodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit, "source_sha256": digest.hexdigest(),
        "child_env": {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class WarmProcess:
    """The warm worker: one timed pass per request, answered on its stdout."""

    def __init__(self, jobs_file: Path, outdir: Path, warmup: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "warm", str(jobs_file), str(outdir),
             warmup],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        self.ready = self._reply() is not None

    def _reply(self):
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        return json.loads(line) if line else None

    def run_pass(self):
        if not self.ready:
            return None
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        """End the worker; returns its closing record (the grid it used)."""
        self.proc.stdin.close()
        last = self._reply()
        self.proc.wait(CHILD_TIMEOUT_S)
        return last

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.wl = workload
        self.work = work
        self.paths = {}
        for name, config in workload.configs.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.paths[name] = str(path)
        self.jobs_file = work / "pass_jobs.json"
        self.jobs_file.write_text(json.dumps(
            [[cmd, self.paths[name]] for cmd, name in workload.pass_jobs]), encoding="utf-8")
        verifies = any(cmd == "verify" for cmd, _ in workload.cli_jobs)
        self.kind = "verify" if verifies else "tables"
        self.cli_paths = [self.paths[name] for _, name in workload.cli_jobs]
        self.verdicts = {}  # (command, config name) -> worst verdict of the run
        self.cli_outputs = {}  # (command, config name) -> first CLI output
        self.broken = []  # reasons to distrust the run beyond failed ops
        self._n = 0

    def child(self, argv) -> Child:
        self._n += 1
        return run_child(argv, self.work / f"child{self._n}.stdout")

    def worker(self, *args) -> Child:
        proc = self.child([sys.executable, str(HERE / "worker.py"), *map(str, args)])
        if proc.code != 0:
            self.broken.append(f"worker {args[0]} exited {proc.code}")
        return proc

    def count(self, job, verdict: oracle.Verdict) -> None:
        """Record one repetition of a job.  A job's rows are counted once per
        run, however often it repeats, with the failures of its worst
        repetition, so ``attempted`` and ``failed`` do not follow how many
        repetitions fit in the run."""
        seen = self.verdicts.get(job)
        if seen is None or verdict.failed > seen.failed:
            self.verdicts[job] = verdict

    @property
    def attempted(self) -> int:
        return sum(v.attempted for v in self.verdicts.values())

    @property
    def failed(self) -> int:
        return sum(v.failed for v in self.verdicts.values())

    @property
    def failures(self):
        return [f for v in self.verdicts.values() for f in v.failures]

    def pass_verdicts(self, outdir: Path):
        """Oracle verdicts on the outputs a worker saved for one pass."""
        verdicts = []
        for i, (command, name) in enumerate(self.wl.pass_jobs):
            text = (outdir / f"{i}.out").read_text(encoding="utf-8")
            code = int((outdir / f"{i}.code").read_text())
            verdicts.append(oracle.check(name, command, self.wl.configs[name], text, code))
        return verdicts

    # -- trace 0 -----------------------------------------------------------

    def setup_probe(self) -> float:
        probe = self.worker("setup", self.kind, *self.cli_paths)
        return json.loads(probe.stdout)["setup_s"] if probe.code == 0 else None

    def cli_rep(self):
        """The workload's CLI processes once: (summed wall time, peak RSS)."""
        wall, rss = 0.0, 0.0
        for command, name in self.wl.cli_jobs:
            proc = self.child([sys.executable, "-m", "zeromodes.cli", command,
                               "--config", self.paths[name]])
            wall += proc.wall_s
            rss = max(rss, proc.peak_rss_mb)
            self.count((command, name), oracle.check(
                name, command, self.wl.configs[name], proc.stdout, proc.code))
            if self.cli_outputs.setdefault((command, name), proc.stdout) != proc.stdout:
                self.broken.append(f"CLI output of {command} {name} differs between repetitions")
        return wall, rss

    def end_to_end(self, seconds: float):
        """Rounds of one set-up probe, one CLI repetition and warm passes.

        The machine's speed can drift within a run, so the three measurements
        are interleaved: each metric samples the whole run, not one stretch.
        """
        self.worker("setup", self.kind, *self.cli_paths)  # untimed: bytecode caches
        outdir = self.work / "warm"
        outdir.mkdir()
        warm = WarmProcess(self.jobs_file, outdir,
                           "pass" if self.kind == "tables" else "verify")
        t0 = time.perf_counter()
        setup, walls, rss, passes = [], [], 0.0, []
        try:
            round_s = 0.0
            while len(walls) < ROUNDS_MIN or time.perf_counter() - t0 + round_s <= seconds:
                r0 = time.perf_counter()
                setup.append(self.setup_probe())
                wall, peak = self.cli_rep()
                walls.append(wall)
                rss = max(rss, peak)
                passes.append(warm.run_pass())
                while passes[-1] and sum(p["s"] for p in passes) < sum(walls):
                    passes.append(warm.run_pass())
                round_s = time.perf_counter() - r0
            while len(setup) < SETUP_MIN:
                setup.append(self.setup_probe())
            grid = (warm.close() or {}).get("grid")
        finally:
            warm.kill()
        if None in setup or None in passes:
            self.broken.append("a set-up probe or a warm pass failed")
            return None, {}

        first = self.pass_verdicts(outdir)
        ops = sum(v.attempted for v in first)
        for p in passes:
            for i, v in enumerate(first):
                if i in p["changed"]:
                    v = oracle.Verdict(v.attempted, [oracle.Failure(
                        self.wl.pass_jobs[i][1], "output differs from the first pass")]
                        * v.attempted)
                self.count(self.wl.pass_jobs[i], v)
            if p["work"] != passes[0]["work"]:
                self.broken.append("work counts differ between warm passes")
        pass_s = [p["s"] for p in passes]
        metrics = {
            "cli_wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops * len(pass_s) / sum(pass_s), "ops/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        details = {"setup_s_all": setup, "cli_rep_s": walls, "warm_pass_s": pass_s,
                   "ops_per_pass": ops, "work_per_pass": passes[0]["work"], "grid": grid}
        return metrics, details

    # -- trace 1 -----------------------------------------------------------

    def traced(self, seconds: float):
        """Pairs of fresh-process passes, one plain and one traced, in
        alternating order until ``seconds`` are used.  Every pass must give
        the bytes of the first; counts must repeat; times are medians."""
        t0, pair_s, walls, runs, first = time.perf_counter(), 0.0, {0: [], 1: []}, [], None
        while not runs or time.perf_counter() - t0 + pair_s <= seconds:
            p0, pair = time.perf_counter(), len(runs)
            for flag in (0, 1) if pair % 2 == 0 else (1, 0):
                outdir = self.work / f"trace{pair}_{flag}"
                outdir.mkdir()
                proc = self.worker("trace", self.jobs_file, outdir, flag)
                if proc.code != 0:
                    return None, {}
                info = json.loads(proc.stdout)
                walls[flag].append(info["wall_s"])
                first = first or outdir
                if any((first / f.name).read_bytes() != f.read_bytes()
                       for f in outdir.iterdir() if f.suffix in (".out", ".code")):
                    self.broken.append(f"output of pass {outdir.name} differs from the first")
                if flag:
                    layers = layer_metrics(json.loads((outdir / "spans.json").read_text()))
                    calls = layers["zero_modes.verify_mode.calls"]
                    layers["potential.eval_h.points_per_mode"] = \
                        layers.get("potential.eval_h.points", 0) / calls if calls else 0.0
                    layers["import.s"] = info["import_s"]
                    layers["cli.output_bytes"] = info["output_bytes"]
                    runs.append(layers)
            pair_s = time.perf_counter() - p0
        for job, verdict in zip(self.wl.pass_jobs, self.pass_verdicts(first)):
            self.count(job, verdict)
        metrics = {}
        for name, unit in PER_LAYER:
            values = [run.get(name, 0) for run in runs]
            if unit == "s":
                metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) > 1:
                self.broken.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        metrics["trace.overhead_s"] = (
            statistics.median(walls[1]) - statistics.median(walls[0]), "s")
        details = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1],
                   "work": {k: v for k, v in runs[0].items()
                            if k.endswith((".points", ".samples")) or ".tol_" in k}}
        return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload; print its record line and its result line."""
    machine_ref = [machine_ref_s()]
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workloads.GENERATORS[name](seed), work)
        if trace:
            metrics, details = bench.traced(seconds)
        else:
            metrics, details = bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    machine_ref.append(machine_ref_s())
    if metrics is None:
        print(f"perfbench: a benchmark child failed: {bench.broken}", file=sys.stderr)
        return 1

    correct = not bench.broken and all(f.known_defect for f in bench.failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(), "machine_ref_s": machine_ref, "details": details,
        # 0 on the verify workloads, where a bound relative to the median is
        # undefined, so it is recorded here and not listed as a metric
        "failed_frac": {"value": bench.failed / bench.attempted, "unit": "fraction"},
        "broken": bench.broken,
        "failures": sorted({f"{f.job}: {f.reason}" for f in bench.failures}),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zeromodes" / "cli.py").is_file():
        print(f"perfbench: no zeromodes sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
