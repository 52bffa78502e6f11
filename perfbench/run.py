"""End-to-end and per-layer benchmark of the spinpaths CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jobs import the package from
`src/`.  NAME is one of spectral_sweep, oracle_scan, exact_counts, or
`all`, which interleaves the three across passes.  Each workload is a
list of jobs drawn from the seed (workloads.py); every job runs in a
fresh interpreter, one at a time, with the BLAS thread count fixed.

A run checks every job's output against its reference on an untimed
warm-up pass, then repeats passes until S seconds are used.  A job fails
when it exits non-zero, times out, prints something that differs from
its reference, or prints stdout that differs from its first run.  Each
failure is logged on stderr with the exit code and the last stderr line.

`--trace 0` reports, per workload, medians over the passes of
  setup_s      one fresh interpreter running `schur --shape 2,1 --vars 3
               --at-ones` (a few starts before each pass),
  wall_s       wall time of one pass,
  cpu_s        user plus system time of the pass's job processes,
  peak_rss_mb  the largest max-RSS of a job process in the pass,
and prints failed_frac (failed job runs / job runs).  Times are in
reference seconds: each job's times are scaled by how fast the host ran a
fixed calibration process just before and after it (see Speed), so that
host contention does not show as a change of the program; the unscaled
medians are printed too.  `--trace 1` alternates plain and traced passes
and reports the per-layer metrics of layers.py from the traced ones (span
times unscaled), with the tracing overhead (traced minus plain wall_s).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  `correct` is true when every failed job is one that
reproduces a known defect (Job.defect); those still count in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from workloads import SETUP_JOB, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

BLAS_THREADS = 1
JOB_TIMEOUT_S = 30.0
SETUP_STARTS_PER_ROUND = 3
# A fresh interpreter that imports numpy and runs a fixed loop: the mix of
# start-up, import and interpreter work that a job has, none of the program.
CALIBRATION = [sys.executable, "-c", (
    "import numpy as np\n"
    "table = {}\n"
    "for i in range(20000):\n"
    "    table[i % 1013] = table.get(i % 1013, 0) + i * i % 7\n"
    "np.exp(np.linspace(0.0, 1.0, 2000) * 1j).sum()\n")]
# Wall time of CALIBRATION on an unloaded 2-vCPU VM (Python 3.11.7, numpy 2.4.6).
REF_CALIBRATION_S = 0.125


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr_tail: str


@dataclass
class Tally:
    """Everything measured for one workload in one run."""
    jobs: list[Job]
    first: dict = field(default_factory=dict)   # job name -> (stdout, why)
    passes: list = field(default_factory=list)  # (wall, cpu, rss_mb, raw wall, raw cpu)
    traced: list = field(default_factory=list)  # (wall, layer metrics)
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    logged: set = field(default_factory=set)


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd: list[str], env: dict) -> Outcome:
    """Run one process to completion; rusage comes from wait4 on its pid."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready = select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]
        finally:                                 # timed out or interrupted
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_lines = err_path.read_text(errors="replace").strip().splitlines()
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, not ready, out_path.read_text(errors="replace"),
                   err_lines[-1] if err_lines else "")


class Speed:
    """How fast this host runs the jobs right now.

    On a shared host the speed of a core drifts by tens of percent within
    minutes, and cpu time drifts with wall time, so the cause is contention
    rather than waiting.  CALIBRATION runs between every two jobs, on the
    jobs' CPU; a job's times are scaled by REF_CALIBRATION_S over the mean
    of the two calibration times around it.
    """

    def __init__(self, env: dict):
        self.env = env
        self.last = self.calibrate()

    def calibrate(self) -> float:
        return spawn(CALIBRATION, self.env).wall

    def factor(self) -> float:
        """Scale for the job that just ended."""
        now = self.calibrate()
        factor = 2.0 * REF_CALIBRATION_S / (self.last + now)
        self.last = now
        return factor


def command(job: Job, spans: Path | None = None) -> list[str]:
    mode, *rest = job.argv
    if spans is None and mode == "cli":
        return [sys.executable, "-m", "spinpaths.cli"] + rest
    trace = ["--spans", str(spans), "--job", job.name] if spans else []
    return [sys.executable, str(HERE / "driver.py")] + trace + job.argv


def judge(job: Job, out: Outcome, tally: Tally) -> str | None:
    """Why this run of the job failed, or None."""
    if out.timed_out:
        return f"timed out after {JOB_TIMEOUT_S:.0f} s"
    if job.name not in tally.first:
        why = None if out.code == 0 else "non-zero exit"
        tally.first[job.name] = (out.stdout, why or job.check(out.stdout))
    stdout, why = tally.first[job.name]
    if out.code != 0:
        return "non-zero exit"
    if out.stdout != stdout:
        return "stdout differs from its first run"
    return why


def run_pass(workload: str, tally: Tally, env: dict, speed: Speed,
             traced: bool) -> None:
    wall = cpu = rss = raw_wall = raw_cpu = 0.0
    jobs_spans, ratios = [], []
    for job in tally.jobs:
        spans = WORK / "spans.json" if traced else None
        out = spawn(command(job, spans), env)
        factor = speed.factor()
        wall, cpu = wall + out.wall * factor, cpu + out.cpu * factor
        raw_wall, raw_cpu = raw_wall + out.wall, raw_cpu + out.cpu
        rss = max(rss, out.rss_mb)
        tally.attempted += 1
        why = judge(job, out, tally)
        if why:
            tally.failed += 1
            tally.unexpected += job.defect is None
            if (job.name, why) not in tally.logged:
                tally.logged.add((job.name, why))
                known = f" [known defect: {job.defect}]" if job.defect else ""
                print(f"FAILED {workload}/{job.name}: {why}; exit code "
                      f"{out.code}; stderr: {out.stderr_tail!r}{known}",
                      file=sys.stderr)
        if traced:
            jobs_spans.append(json.loads(spans.read_text())["spans"]
                              if spans.exists() else [])
            spans.unlink(missing_ok=True)
            try:
                ratios += layers.verify_ratios(json.loads(out.stdout))
            except json.JSONDecodeError:
                pass
    if traced:
        tally.traced.append((wall, layers.aggregate(jobs_spans, ratios)))
    else:
        tally.passes.append((wall, cpu, rss, raw_wall, raw_cpu))


def measure_setup(env: dict, speed: Speed, starts: int) -> list[tuple]:
    """(scaled, raw) wall times of fresh interpreters running the set-up job."""
    walls = []
    for _ in range(starts):
        out = spawn(command(SETUP_JOB), env)
        walls.append((out.wall * speed.factor(), out.wall))
        why = "non-zero exit" if out.code else SETUP_JOB.check(out.stdout)
        if why:
            raise RuntimeError(f"set-up job failed: {why}; {out.stderr_tail}")
    return walls


def environment(seed: int, cpu: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "commit": commit or "unknown",
            "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "blas_threads": BLAS_THREADS, "cpu": cpu}


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def end_to_end(name: str, tally: Tally, setup: list[tuple]) -> dict:
    walls, cpus, rss, raw_walls, raw_cpus = zip(*tally.passes)
    setup, raw_setup = zip(*setup)
    rows = {"setup_s": (setup, raw_setup, "s", "fresh starts"),
            "wall_s": (walls, raw_walls, "s", "passes"),
            "cpu_s": (cpus, raw_cpus, "s", "passes"),
            "peak_rss_mb": (rss, rss, "MB", "passes")}
    metrics = {}
    for metric, (values, raw, unit, what) in rows.items():
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name:15s} {metric:12s} {value:10.4f} {unit:5s} median of "
              f"{what} ({quartiles(list(values))}; unscaled median "
              f"{statistics.median(raw):.4g})")
    frac = tally.failed / tally.attempted
    print(f"{name:15s} {'failed_frac':12s} {frac:10.4f} ratio "
          f"({tally.failed} of {tally.attempted} job runs failed, "
          f"{tally.unexpected} outside known defects)")
    return metrics


def per_layer(name: str, tally: Tally) -> dict:
    plain = statistics.median(p[0] for p in tally.passes)
    traced = statistics.median(w for w, _ in tally.traced)
    metrics = {}
    for metric, unit, _ in layers.METRICS:
        if metric == "trace.overhead_s":
            value = traced - plain
        else:
            value = statistics.median(m[metric] for _, m in tally.traced)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name:15s} {metric:52s} {value:14.6g} {unit}")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "spinpaths" / "cli.py").is_file():
        print(f"no spinpaths source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    tallies = {name: Tally(WORKLOADS[name](np.random.default_rng(
        [opts.seed, list(WORKLOADS).index(name)]))) for name in names}
    env = job_env()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})               # jobs inherit it
    print("env " + json.dumps(environment(opts.seed, cpu), sort_keys=True))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        speed = Speed(env)
        setup = []
        if not opts.trace:
            measure_setup(env, speed, 1)         # warm-up start
        for name in names:                       # warm-up pass; checks outputs
            run_pass(name, tallies[name], env, speed, traced=False)
            tallies[name].passes.clear()
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if not opts.trace:
                setup += measure_setup(env, speed, SETUP_STARTS_PER_ROUND)
            for name in names:
                run_pass(name, tallies[name], env, speed, traced=False)
                if opts.trace:
                    run_pass(name, tallies[name], env, speed, traced=True)
            now = time.perf_counter()
            if now - start + (now - round_start) > opts.seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for name, tally in tallies.items():
        prefix = "" if len(names) == 1 else f"{name}."
        found = per_layer(name, tally) if opts.trace else \
            end_to_end(name, tally, setup)
        metrics.update({prefix + k: v for k, v in found.items()})
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    correct = all(t.unexpected == 0 for t in tallies.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
