"""Self-checks of the benchmark; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _bindings() -> dict:
    import thagkl

    owners = spans._packages() + [thagkl.IntPoly, thagkl.KLTable, thagkl.FlatLattice,
                                  thagkl.SchurPoly, thagkl.equivariant.EqKLTable]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_wrappers_patch_every_binding_and_restore_it():
    import thagkl
    from thagkl import cli, equivariant, flats, kl, polynomials

    before = _bindings()
    solve = polynomials.solve_reflection_equation
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for module in (polynomials, kl, flats, equivariant):
            assert module.solve_reflection_equation is not solve
            assert module.solve_reflection_equation.__wrapped__ is solve
        assert vars(thagkl.IntPoly)["__rmul__"] is vars(thagkl.IntPoly)["__mul__"]
        assert cli.kl_poly is kl.kl_poly is thagkl.kl_poly
        kl.KLTable().poly(3)
        assert tracer.calls[tracer.name_id("polynomials.reflection")] == 4
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.spanned(lambda: sum(range(20000)), "inner")
    outer = tracer.spanned(lambda: [inner() for _ in range(3)], "outer")
    outer()
    times = tracer.self_times()
    assert list(tracer.span_parent) == [-1, 0, 0, 0]
    total = tracer.span_end[0] - tracer.span_start[0]
    assert times["outer"] + times["inner"] == pytest.approx(total)
    assert tracer.exact_counts()["inner.calls"] == 3


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_across_cold_runs(workload):
    first, second = (_worker("run", "--workload", workload, "--seed", "0", "--trace")
                     for _ in range(2))
    assert all(ok for _, ok in first["checks"])
    assert first["counts"] == second["counts"]
    metrics = spans.layer_metrics(first["counts"], first["self_s"])
    assert all(value >= 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_negative_controls_are_rejected(workload):
    checks = _worker("controls", "--workload", workload, "--seed", "5")["checks"]
    assert checks and all(ok for _, ok in checks), checks


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_random_graphs_follow_the_seed():
    assert workloads.random_graphs(3) == workloads.random_graphs(3)
    assert workloads.random_graphs(3) != workloads.random_graphs(4)
    for (v, edges), (v_want, m, (low, high)) in zip(
            workloads.random_graphs(3), workloads.SIZES["brute-force"]["random_graphs"]):
        assert v == v_want and len(set(edges)) == m
        assert low <= workloads.connected_partitions(v, edges) <= high


def test_connected_partitions_count_flats():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    assert [workloads.connected_partitions(v, workloads.complete_edges(v))
            for v in range(8)] == bell
    # a path's flats are its edge subsets
    assert workloads.connected_partitions(6, [(i, i + 1) for i in range(5)]) == 2 ** 5


def test_whitney_matches_closed_products():
    assert workloads.whitney_chi(6, workloads.thagomizer_edges(4)) == \
        workloads._from_roots([1, 2, 2, 2, 2])
    assert workloads.whitney_chi(5, workloads.complete_edges(5)) == \
        workloads._from_roots([1, 2, 3, 4])


def test_reference_task_is_fixed():
    assert reference.run() == reference.EXPECTED
    assert reference.timed() > 0


def test_paced_worker_is_stopped_and_resumed():
    import run

    pace: list[float] = []
    result, setup = run.spawn(["run", "--workload", "equivariant", "--seed", "0"], 170, pace)
    assert all(ok for _, ok in result["checks"])
    # one timing before, one after, and about one per slice of processor time
    assert len(pace) >= 2 + result["cpu_s"] / run.SLICE_S / 2
    assert 0 < setup < result["wall_s"]
