"""`tools/bench.py`: its child measurement runs against this `src/`, and its summary gates exact agreement.

The measurement runs in-process here, so a change to the package's API
breaks a test rather than the next before/after run.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "case, counts",
    [
        ("chain 16", {"dag_nodes": 32, "gen_occurrences": 168}),
        ("copy 12", {"dag_nodes": 12, "gen_occurrences": 4095}),
        ("optic 64", {"dag_nodes": 128, "gen_occurrences": 2208}),
        ("coherence", {}),
        ("pi0", {"n_cells": [14, 14, 14, 14]}),
        ("real", {"rows": [[n, n * (n + 1) // 2, n, n, 1, n, n] for n in range(1, 17)]}),
        ("parse 600", {"text_length": 1703069}),
        ("exec 64", {"lens_exec": [2080, 64, 1], "optic_exec": [64, 64, 64], "evaluate_dag": [64, 0, 0]}),
        ("compose 64", {"residual": 64, "get_evals": 64}),
        ("coherence real", {}),
        ("run 1000", {"get_evals": 1000, "copies": 1000}),
    ],
)
def test_measure_gives_exact_counts_and_digests(bench, case, counts):
    row = bench.measure(case)
    assert row["counts"] == counts
    assert row["digests"] and all(len(d) == 64 for d in row["digests"].values())
    assert row["seconds"] and all(s > 0 for s in row["seconds"].values())


def test_summary_fails_on_any_difference_or_failed_run(bench):
    def row(nodes, seconds=1.0):
        return {"status": "ok", "seconds": {"op": seconds}, "counts": {"n": nodes}, "digests": {"out": "d"}}

    same = bench.summarize({"before": [row(3), row(3)], "after": [row(3, 0.5), row(3, 2.0)]})
    assert same["ok"] and same["identical"] and same["counts"] == {"n": 3}
    assert same["after_over_before"]["op"] == {"median": 1.25, "wins": 1}
    # one count differs in one run of one side
    differs = bench.summarize({"before": [row(3), row(3)], "after": [row(3), row(4)]})
    assert differs["ok"] and not differs["identical"]
    assert differs["distinct"]["after"] == [{"counts": {"n": 3}, "digests": {"out": "d"}},
                                            {"counts": {"n": 4}, "digests": {"out": "d"}}]
    failed = bench.summarize({"after": [row(3), {"status": "not run: did not finish within 1 s"}]})
    assert not failed["ok"]


def test_shots_time_fast_calls_in_bulk(bench):
    calls = []
    seconds, last = bench.shots(lambda: calls.append(None) or len(calls), repeat=3)
    assert last == len(calls) > 3  # many calls per shot, and the last call's result
    assert 0 < seconds < bench.MIN_SHOT_S / 100  # seconds per call, not per shot
