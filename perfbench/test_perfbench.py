"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs at a tiny size (workloads.tiny) for a single round.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(bench.SRC))

TINY = {name: workloads.tiny(w) for name, w in workloads.WORKLOADS.items()}
COUNT_UNITS = ("count", "bytes")


def run_tiny(name: str, trace: bool) -> dict:
    return bench.run(TINY[name], 3, 0.0, trace)["result"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    res = run_tiny(name, trace=False)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {n: u for n, u, _, _ in bench.END_TO_END}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    res = run_tiny(name, trace=True)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(bench.per_layer_metrics())
    # every timed layer kept in the result line is called on every workload
    for key, v in res["metrics"].items():
        if key.endswith(".self_s"):
            assert v["value"] > 0, key


def test_exact_counts_repeat_and_match_the_closed_forms():
    first = run_tiny("chain-finite", trace=True)["metrics"]
    second = run_tiny("chain-finite", trace=True)["metrics"]
    exact = [n for n, u in bench.per_layer_metrics() if u in COUNT_UNITS]
    exact.append("twocell.mk_two_cell.accept_ratio")
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    n = TINY["chain-finite"].n
    closed_forms = {
        "lens.get_evals": n * (n + 1) // 2,
        "optic.get_evals": n,
        "lens.copies": n,
        "lens.residual_slots": 1,
        "optic.residual_slots": n,
        "optic.residual_bytes": n,
        "dag.nodes": 2 * n,
    }
    assert {k: first[k]["value"] for k in closed_forms} == closed_forms


def test_corrupted_output_is_counted_as_an_error(tmp_path, monkeypatch):
    st, _, _ = bench.prepare(TINY["chain-finite"], 3, tmp_path / "work")
    evaluate_dag = st.M.dag.evaluate_dag

    def corrupted(*args, **kwargs):
        out = evaluate_dag(*args, **kwargs)
        return (1 - out[0],) + out[1:]

    monkeypatch.setattr(st.M.dag, "evaluate_dag", corrupted)
    loop, _ = bench.measure(st, 0.0, trace=False)
    shared_runs = st.w.recipe().count("run.shared")
    assert loop.failed == shared_runs > 0
    assert "run_s.shared" not in loop.samples
    assert "run_s.lens" in loop.samples and "run_s.optic" in loop.samples


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == bench.manifest()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    p = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
