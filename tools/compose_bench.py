"""Compose a before/after ``BENCH_<label>.json`` from ``bench/run.py`` record lines.

    python3 tools/compose_bench.py --label NAME --parent REV --change REV \
        [--claim WORKLOAD:METRIC] LOG [LOG ...] > BENCH_NAME.json

Each LOG holds the standard output of ``bench/run.py`` runs; every line
that parses as a run record (a JSON object with ``workload``, ``seed``,
``git_revision`` and ``result``) is used, in the order read.  Untraced records of the parent and change
revisions that share a workload and a seed form one pair, and ``first``
names the side read first.  Traced records (``--trace 1``) are listed under
``traced``.  Every end-to-end metric of ``BENCHMARK.json`` is summarised
per workload by its quartiles on each side, the number of pairs the change
wins, and the ratio of the medians.  Without ``--claim`` the file claims no
gain: its ``claim`` is null.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUARTILES = "statistics.quantiles(method='inclusive') over the per-run values"
RULE = ("change better in at least 9 of 10 pairs, and the median gap exceeds "
        "the parent's interquartile range")
# keys every BENCH file carries, and those of each workload entry
LAYOUT = ("schema", "kind", "label", "command", "python", "implementation", "nproc",
          "parent_revision", "change_revision", "quartiles", "claim", "workloads")
WORKLOAD_LAYOUT = ("sizes", "all_correct", "failed", "summary", "pairs")


def read_records(paths: list[Path]) -> list[dict]:
    """The run records in the files, in order; other lines are skipped."""
    records = []
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and {"workload", "seed", "git_revision",
                                             "result"} <= record.keys():
                records.append(record)
    return records


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def side(record: dict) -> dict:
    return {"git_revision": record["git_revision"], "result": record["result"]}


def compose(records: list[dict], label: str, parent: str, change: str,
            claim: tuple[str, str] | None, metrics: list[dict]) -> dict:
    plain = [r for r in records if not r.get("trace")]
    traced = [r for r in records if r.get("trace")]
    for r in records:
        if r["git_revision"] not in (parent, change):
            raise ValueError(f"record of {r['workload']} seed {r['seed']} is at "
                             f"{r['git_revision']}, neither parent nor change")
    workloads: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in plain):
        runs = [r for r in plain if r["workload"] == workload]
        pairs = []
        for seed in dict.fromkeys(r["seed"] for r in runs):
            by_side = {}
            for r in runs:
                if r["seed"] == seed:
                    name = "parent" if r["git_revision"] == parent else "change"
                    if name in by_side:
                        raise ValueError(f"two {name} runs of {workload} seed {seed}")
                    by_side[name] = r
            for name in {"parent", "change"} - by_side.keys():
                raise ValueError(f"{workload} seed {seed} has no {name} run")
            pairs.append({"seed": seed, "first": next(iter(by_side)),
                          "parent": side(by_side["parent"]),
                          "change": side(by_side["change"])})
        summary = {}
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            values = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs]
                      for s in ("parent", "change")}
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            parent_spread, change_spread = spread(values["parent"]), spread(values["change"])
            summary[name] = {
                "unit": metric["unit"], "better": better,
                "parent": parent_spread, "change": change_spread,
                "change_better_pairs": wins, "pairs": len(pairs),
                "change_over_parent": change_spread["median"] / parent_spread["median"],
            }
        workloads[workload] = {
            "sizes": runs[0]["sizes"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "summary": summary,
            "pairs": pairs,
        }
    claimed = None
    if claim is not None:
        workload, metric = claim
        if workload not in workloads:
            raise ValueError(f"no pairs of the claimed workload {workload!r}")
        better = next(m["better"] for m in metrics if m["name"] == metric)
        claimed = {"workload": workload, "metric": metric, "better": better, "rule": RULE}
    first = plain[0]
    out = {
        "schema": 1, "kind": "bench", "label": label,
        "command": (f"python3 bench/run.py --workload WORKLOAD --seed SEED "
                    f"--seconds {first['seconds']} --trace 0"),
        "python": first["python"], "implementation": first["implementation"],
        "nproc": first["nproc"], "parent_revision": parent, "change_revision": change,
        "quartiles": QUARTILES,
        "claim": claimed,
        "workloads": workloads,
    }
    if traced:
        t = traced[0]
        out["traced"] = {
            "command": (f"python3 bench/run.py --workload {t['workload']} --seed {t['seed']} "
                        f"--seconds {t['seconds']} --trace 1"),
            "runs": [{"side": "parent" if r["git_revision"] == parent else "change",
                      "seed": r["seed"], "git_revision": r["git_revision"],
                      "traced_samples": r["traced_samples"], "result": r["result"]}
                     for r in traced],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="parent commit (full hash)")
    parser.add_argument("--change", required=True, help="change commit (full hash)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC; omitted, no gain is claimed")
    parser.add_argument("logs", nargs="+", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    claim = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if metric not in [m["name"] for m in metrics]:
            parser.error(f"unknown metric {metric!r}")
        claim = (workload, metric)
    try:
        out = compose(read_records(args.logs), args.label, args.parent, args.change,
                      claim, metrics)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
