"""Tests for the benchmark itself: tiny runs of every workload, the answer
gate, the tracer's clean-up, and agreement with BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def private_run_records(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RUNS", tmp_path / "runs")


def _run(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(["--scale", "smoke", "--seconds", "0", *argv])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct(capsys, workload):
    code, result = _run(capsys, "--workload", workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_digest_and_other_seed_other_inputs(capsys):
    assert _run(capsys, "--workload", "tower_random", "--seed", "3")[0] == 0
    # The record of the first run is now on file; a second run compares against it.
    code, result = _run(capsys, "--workload", "tower_random", "--seed", "3")
    assert code == 0 and result["failed"] == 0
    vw = importlib.import_module("vdwitness")

    def labels(seed):
        return [job.label for job in workloads.build("stream_search", vw, seed, "full")]

    assert labels(3) == labels(3) != labels(4)


def test_wrong_expected_answer_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_W, (3, 2), (9, "11221121"))
    code, result = _run(capsys, "--workload", "exact")
    assert code != 0
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_wrong_colour_rule_fails_stream_checks(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "oracle_color", lambda spec: (lambda p: 99))
    code, result = _run(capsys, "--workload", "tower_structured")
    assert code != 0 and result["failed"] > 0


def _function_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "vdwitness" or name.startswith("vdwitness.")
        for attr, value in vars(mod).items()
        if inspect.isfunction(value)
    }


def test_tracer_rebinds_every_copy_and_restores_originals():
    vw = run._fresh_import()
    before = _function_bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert vw.streamer.materialize is not before[("vdwitness.core", "materialize")]
        assert vw.extractor.find_ap is not before[("vdwitness.wnumbers", "find_ap")]
        assert vw.cli.vdw_number is not before[("vdwitness.wnumbers", "vdw_number")]
        vw.run_stream(vw.ThueMorseOracle(), 2, 2, 2, 4, "proof")
        with pytest.raises(vw.SearchLimitError):
            vw.vdw_number(3, 3, 10)
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    stats = tracer.stats
    assert stats["streamer.run_stream"].calls == 1
    assert stats["core.materialize"].calls == stats["streamer.solve_window"].calls == 4
    assert stats["wnumbers.vdw_number"].errors == 1
    assert 0 < stats["streamer.run_stream"].self_s < stats["streamer.run_stream"].busy_s


def test_traced_run_reports_per_layer_metrics_and_restores(capsys):
    code, result = _run(capsys, "--workload", "tower_structured", "--trace", "1")
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [s["name"] for s in tracing.metric_specs()]
    assert result["metrics"]["streamer.run_stream.calls"]["value"] > 0
    for (name, attr), fn in _function_bindings().items():
        assert not hasattr(fn, "__wrapped__"), f"{name}.{attr} is still wrapped"


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["per_layer"] == tracing.metric_specs()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
