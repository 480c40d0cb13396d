"""One worker process of the benchmark: a cold interpreter, one job.

The package is imported before anything else, so the time from the runner
starting this process to ``READY`` is the set-up cost every user pays.

    python3 bench/worker.py probe
    python3 bench/worker.py controls --workload W --seed N
    python3 bench/worker.py run --workload W --seed N [--trace] [--spans PATH]

``probe`` only imports the package.  ``controls`` runs the workload's
negative controls and untimed checks, untraced.  ``run`` times the workload from
its first call into ``thagkl`` to its checked result, in wall time and in
processor time (which leaves out any time the runner holds the process
stopped), optionally with the layer wrappers of ``spans.py`` installed.  The job prints one JSON object as
the last line of standard output.  Run it from the repository root with
``src`` on ``PYTHONPATH``, as ``run.py`` does.
"""

import time

import thagkl  # noqa: F401  (the import is what set-up time measures)

READY = time.monotonic()


def main() -> int:
    import argparse
    import json
    import resource

    import spans
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("probe", "controls", "run"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    out = {"ready": READY}
    if args.job == "controls":
        out["checks"] = workloads.WORKLOADS[args.workload][1](args.seed)
    elif args.job == "run":
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            checks = workloads.WORKLOADS[args.workload][0](args.seed, tracer if args.trace else None)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            tracer.uninstall()
        out.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            checks=checks,
        )
        if args.trace:
            out.update(
                counts=tracer.exact_counts(),
                self_s=tracer.self_times(),
                top_level_s=tracer.top_level_s(),
                missing=tracer.missing,
            )
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
