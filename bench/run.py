"""Benchmark runner for thagkl.

    python3 bench/run.py --workload verify-cli --seed 1 --seconds 40 --trace 0

Runs from the repository root, against the package source under ``src``.
The runner is a closed loop with one client: it starts one worker process
(``worker.py``) at a time and starts the next only when the last has ended,
so every sample is a cold interpreter that rebuilds the memo tables and
caches, as every CLI user's process does.  For one run it

1. runs the workload's negative controls once, untimed and untraced, in a
   worker of their own;
2. starts measured workers for ``--seconds`` seconds: a worker is started
   only while it can be expected to end inside that window, and at least
   ``MIN_SAMPLES`` run.  With ``--trace 0`` the runner stops each worker
   every ``SLICE_S`` seconds (SIGSTOP), times the fixed task of
   ``reference.py`` once in its own process, and lets the worker go on
   (SIGCONT); it also times the task right before the worker starts and
   right after it ends.  With ``--trace 1`` the measured workers alternate
   between traced (``spans.py`` wrappers installed) and untraced, and run
   without stops;
3. starts ``PROBES`` workers that only import the package before the first
   measured worker and after each one, so that set-up time is sampled all
   through the window.

``wall_ref`` is the median over the run's measured workers of the worker's
processor time (first call into ``thagkl`` to checked result; the worker
has one thread and the host reports no stolen time, so this is its running
time, without the stops) divided by the mean time of the reference task
over that worker.  The shared host's speed drifts by up to 2x within
seconds and between minutes, on one core at a time: raw times of ten runs
spread by 0.2-0.4 of their median, more than any bound a regression check
could use, and a reference task timed only before and after each worker
still left 0.1.  The raw times stay in the run record.  ``setup_s`` is the
fastest set-up of any worker of the run: set-up is too short to normalise
the same way, and the fastest of some twenty cold imports moves only when
the whole run is slow.  ``peak_rss_mb`` is the median over the measured
workers.

Every output check and every negative control counts as one attempt; a
check that fails, or a control its check does not reject, counts as failed.
The last line of standard output is the result object; the line before it
holds the run's record (interpreter, revision, CPU count, seed, sizes,
sample counts and spreads), which is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up probes before the first measured worker and after each one
PROBES = 2
MIN_SAMPLES = 3
# a paced worker runs this long between two timings of the reference task
SLICE_S = 0.25
# every run must end within 180 s; a sample is never started past this
DEADLINE_S = 150.0


class WorkerError(RuntimeError):
    pass


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args: list[str], timeout: float,
          pace: list[float] | None = None) -> tuple[dict, float]:
    """Run one worker job; return its result object and its set-up time.

    With ``pace`` given, the reference task is timed right before the worker
    starts, every ``SLICE_S`` seconds while the worker is stopped, and right
    after it ends, and each time is appended to ``pace``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "worker.stdout", "w+") as out, open(OUT / "worker.stderr", "w+") as err:
        if pace is not None:
            pace.append(reference.timed())
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            wait(proc, start + max(timeout, 1.0), pace)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if pace is not None:
            pace.append(reference.timed())
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed nothing")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def wait(proc: subprocess.Popen, deadline: float, pace: list[float] | None) -> None:
    """Wait for the worker to end; with ``pace``, stop it every ``SLICE_S``
    seconds to time the reference task, and let it go on afterwards."""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise WorkerError(f"worker {proc.args[2:]} did not finish in time")
        try:
            proc.wait(timeout=min(left, SLICE_S) if pace is not None else left)
            return
        except subprocess.TimeoutExpired:
            if pace is None:
                continue
        os.kill(proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):  # it ended before the stop arrived
            proc.returncode = os.waitstatus_to_exitcode(status)
            return
        try:
            pace.append(reference.timed())
        finally:
            os.kill(proc.pid, signal.SIGCONT)


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_share"] = (q3 - q1) / out["median"] if out["median"] else 0.0
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import spans
    import workloads

    # the runner and its workers share one core, so that the reference task
    # is timed on the core whose speed the worker sees
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t_begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t_begin)

    checks: list[tuple[str, bool]] = []
    setups: list[float] = []

    controls, setup = spawn(["controls", "--workload", workload, "--seed", str(seed)],
                            remaining())
    checks += [tuple(c) for c in controls["checks"]]
    setups.append(setup)

    def probe() -> None:
        for _ in range(PROBES):
            setups.append(spawn(["probe"], remaining())[1])

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}.spans.json.gz"
    plain: list[dict] = []
    traced: list[dict] = []
    lengths: list[float] = []
    probe()
    reference.timed()  # warm-up, untimed
    t_measure = time.monotonic()
    # start a sample only while it can be expected to end inside the window
    while (len(lengths) < MIN_SAMPLES
           or time.monotonic() - t_measure + statistics.median(lengths) <= seconds):
        if remaining() <= 0:
            break
        job = ["run", "--workload", workload, "--seed", str(seed)]
        with_trace = trace and len(traced) <= len(plain)
        if with_trace:
            job += ["--trace"] + ([] if traced else ["--spans", str(spans_path)])
        t_sample = time.monotonic()
        pace = None if trace else []
        sample, setup = spawn(job, remaining(), pace)
        if pace is not None:
            sample["ref_s"] = statistics.fmean(pace)
            sample["refs"] = len(pace)
        lengths.append(time.monotonic() - t_sample)
        setups.append(setup)
        checks += [tuple(c) for c in sample["checks"]]
        (traced if with_trace else plain).append(sample)
        probe()

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "sizes": workloads.SIZES[workload],
        "setup_s": spread(setups),
    }

    if not trace:
        wall_ref = [s["cpu_s"] / s["ref_s"] for s in plain]
        rss = [s["peak_rss_kb"] / 1024 for s in plain]
        record["wall_ref"] = spread(wall_ref)
        record["cpu_s"] = spread([s["cpu_s"] for s in plain])
        record["ref_s"] = spread([s["ref_s"] for s in plain])
        record["peak_rss_mb"] = spread(rss)
        record["samples"] = [{k: s[k] for k in ("cpu_s", "ref_s", "refs")} for s in plain]
        metrics = {
            "wall_ref": (statistics.median(wall_ref), "ref"),
            "setup_s": (min(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    else:
        if len(traced) >= 2:
            first = traced[0]["counts"]
            checks += [("trace.counts_repeat", all(s["counts"] == first for s in traced))]
        per_sample = [spans.layer_metrics(s["counts"], s["self_s"]) for s in traced]
        # counts and ratios of counts repeat exactly; times take the median
        metrics = {name: (statistics.median(m[name][0] for m in per_sample)
                          if unit == "s" else value, unit)
                   for name, (value, unit) in per_sample[0].items()}
        # traced and untraced workers alternate, so drift reaches both alike
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        plain_wall = statistics.median(s["wall_s"] for s in plain)
        metrics["trace_overhead_ratio"] = (traced_wall / plain_wall, "ratio")
        record["trace"] = {
            "wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "spans": traced[0]["counts"]["spans"],
            # the benchmark's own time between and around the traced calls
            "bench_self_s": statistics.median(s["wall_s"] - s["top_level_s"] for s in traced),
            "self_s": traced[0]["self_s"],
        }
        record["traced_samples"] = len(traced)
        record["untraced_samples"] = len(plain)
        record["missing_targets"] = traced[0]["missing"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["counts"] = traced[0]["counts"]

    failed = [name for name, ok in checks if not ok]
    record["checks_attempted"] = len(checks)
    record["checks_failed"] = failed
    record["failed_ratio"] = len(failed) / len(checks)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated runner unwinds, so the worker it may hold stopped is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "thagkl" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'thagkl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
