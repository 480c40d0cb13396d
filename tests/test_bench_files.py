"""Every committed ``BENCH_*.json`` has the layout ``tools/compose_bench.py`` writes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compose_bench", ROOT / "tools" / "compose_bench.py")
compose_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compose_bench)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
SPREAD = {"median", "q1", "q3", "iqr"}
SUMMARY = {"unit", "better", "parent", "change", "change_better_pairs", "pairs",
           "change_over_parent"}


def check_layout(bench: dict) -> None:
    assert set(compose_bench.LAYOUT) <= bench.keys()
    assert bench["schema"] == 1 and bench["kind"] == "bench"
    revisions = {"parent": bench["parent_revision"], "change": bench["change_revision"]}
    # a file that claims no gain says so with a null claim
    if bench["claim"] is not None:
        assert set(bench["claim"]) == {"workload", "metric", "better", "rule"}
        assert bench["claim"]["workload"] in bench["workloads"]
    for entry in bench["workloads"].values():
        assert set(compose_bench.WORKLOAD_LAYOUT) <= entry.keys()
        assert isinstance(entry["all_correct"], bool) and isinstance(entry["failed"], int)
        for metric in METRICS:
            summary = entry["summary"][metric["name"]]
            assert SUMMARY <= summary.keys()
            assert summary["better"] == metric["better"] and summary["unit"] == metric["unit"]
            assert SPREAD <= summary["parent"].keys() and SPREAD <= summary["change"].keys()
            assert summary["pairs"] == len(entry["pairs"])
        for pair in entry["pairs"]:
            assert pair["first"] in revisions
            for side, revision in revisions.items():
                assert pair[side]["git_revision"] == revision
                assert {"correct", "attempted", "failed", "metrics"} <= pair[side]["result"].keys()
    for run in bench.get("traced", {}).get("runs", []):
        assert run["git_revision"] == revisions[run["side"]]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_layout(path):
    check_layout(json.loads(path.read_text()))


def _record(workload, seed, revision, wall, trace=0):
    metrics = {"wall_ref": wall, "peak_rss_mb": 20.0, "setup_s": 0.1}
    return {
        "workload": workload, "seed": seed, "seconds": 40, "trace": trace,
        "python": "3.11.7", "implementation": "CPython", "git_revision": revision,
        "nproc": 2, "sizes": {"max": 80}, "traced_samples": 3,
        "result": {"correct": True, "attempted": 10, "failed": 0,
                   "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}},
    }


def test_composer_pairs_runs_by_seed(tmp_path):
    log = tmp_path / "runs.log"
    lines = ["not a record"]
    for seed in range(5):
        first, second = ("a", "b") if seed % 2 else ("b", "a")
        walls = {"a": 4.0 + seed / 10, "b": 2.0 + seed / 10}
        lines += [json.dumps(_record("equivariant", seed, r, walls[r])) for r in (first, second)]
    lines.append(json.dumps(_record("equivariant", 9, "b", 1.0, trace=1)))
    log.write_text("\n".join(lines) + "\n")
    bench = compose_bench.compose(compose_bench.read_records([log]), "demo", "a", "b",
                                  ("equivariant", "wall_ref"), METRICS)
    check_layout(bench)
    entry = bench["workloads"]["equivariant"]
    assert [p["first"] for p in entry["pairs"]] == ["change", "parent"] * 2 + ["change"]
    summary = entry["summary"]["wall_ref"]
    assert summary["change_better_pairs"] == 5
    assert summary["parent"]["median"] == 4.2 and summary["change"]["median"] == 2.2
    assert [run["side"] for run in bench["traced"]["runs"]] == ["change"]


def test_composer_rejects_an_unpaired_run():
    records = [_record("equivariant", 1, "a", 4.0), _record("equivariant", 2, "b", 2.0)]
    with pytest.raises(ValueError, match="seed 1 has no change run"):
        compose_bench.compose(records, "demo", "a", "b", ("equivariant", "wall_ref"), METRICS)


def test_composer_without_a_claim_writes_a_null_claim(tmp_path, capsys):
    log = tmp_path / "runs.log"
    records = [_record("verify-cli", seed, r, 2.0 + seed / 10)
               for seed in range(3) for r in ("a", "b")]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert compose_bench.main(["--label", "demo", "--parent", "a", "--change", "b",
                               str(log)]) == 0
    bench = json.loads(capsys.readouterr().out)
    check_layout(bench)
    assert bench["claim"] is None
    assert bench["workloads"]["verify-cli"]["summary"]["wall_ref"]["pairs"] == 3
