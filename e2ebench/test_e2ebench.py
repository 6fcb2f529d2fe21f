"""Self-test of the benchmark: short smoke runs of every workload.

Run from the root of a checkout::

    python3 -m pytest e2ebench -q

Each workload must pass its oracles when nothing is planted and must fail
them (exit 1, ``"correct": false``) when ``--plant-wrong`` makes the server
drop an answer tuple from every 25th read and, in a traced run, flips the
2-QBF verdict.  A checkout holding only the benchmark must exit non-zero
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import HERE, ROOT, WORK, LinkModel, self_time_within, use_source_tree

use_source_tree()
import run  # noqa: E402  (needs the source tree on sys.path)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(process) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_passes_its_oracles(workload):
    process = bench("--workload", workload, "--seed", "3", "--seconds", "3",
                    "--trace", "0", "--smoke")
    assert process.returncode == 0, process.stderr
    result = result_of(process)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_planted_wrong_read_is_caught(workload):
    process = bench("--workload", workload, "--seed", "3", "--seconds", "3",
                    "--trace", "0", "--smoke", "--plant-wrong")
    assert process.returncode == 1
    result = result_of(process)
    assert not result["correct"] and result["failed"] >= 1
    assert "read: wrong answers" in process.stdout


def test_traced_run_prints_every_layer_metric():
    process = bench("--workload", "serve-write", "--seed", "3", "--seconds",
                    "6", "--trace", "1", "--smoke")
    assert process.returncode == 0, process.stderr
    metrics = result_of(process)["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["writepath.attributed_share"]["value"] > 0.5
    assert "unattributed" in process.stdout


def test_planted_wrong_verdict_is_caught_in_traced_run():
    process = bench("--workload", "serve-read", "--seed", "3", "--seconds",
                    "2", "--trace", "1", "--smoke", "--plant-wrong")
    assert process.returncode == 1
    assert not result_of(process)["correct"]
    assert "theorem 6" in process.stdout


def test_checkout_without_the_program_exits_without_a_result():
    stripped = WORK / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(HERE, stripped / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "serve-write", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert process.returncode != 0
    assert process.stdout.strip() == ""


def test_link_model_tracks_extensions_per_revision():
    model = LinkModel(5)
    model.extensions[0] = (3, 4)
    model.commit(6, (0,))
    assert model.answers(3, 4, 5) == {f"n3_{j}" for j in range(5, 17)}
    assert {f"x0_{m}" for m in range(1, 13)} <= model.answers(3, 4, 6)
    assert model.answers(3, 5, 6) == {f"n3_{j}" for j in range(6, 17)}
    assert model.answers(3, 0, 7) is None


def test_self_time_within_prorates_calls_straddling_a_window():
    calls = [(0.0, 1.0, 1.0), (2.0, 4.0, 1.0), (5.0, 6.0, 0.5)]
    windows = [(0.5, 3.0)]
    assert self_time_within(calls, windows) == pytest.approx(0.5 + 0.5)
