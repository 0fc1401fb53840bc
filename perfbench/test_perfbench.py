"""The benchmark's own checks, at minimal model and input sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END_UNITS, WORKLOADS, Runner  # noqa: E402

EXACT_COUNTS = ("autodiff.tape_records", "encoder.bilstm.steps", "encoder.char_lstm.calls")


def minimal(name: str):
    """The named workload with its structure (characters, phases, set-up
    source) kept and every size cut to the smallest that exercises it."""
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        n_train=6,
        n_dev=4,
        n_types=50,
        word_dim=6,
        char_dim=3,
        char_hidden=3,
        hidden_per_dir=4,
        mlp_width=8,
        batch_size=4,
    )


def run_minimal(name: str, trace: bool, tmp_path, seed: int = 5) -> dict:
    workdir = tmp_path / f"{name}-{int(trace)}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return Runner(minimal(name), seed, 0.05, trace, workdir).run()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_present_and_correct(name, tmp_path):
    result = run_minimal(name, trace=False, tmp_path=tmp_path)
    assert result["failed"] == 0, result["first_error"]
    assert result["attempted"] > 0
    assert list(result["metrics"]) == list(END_TO_END_UNITS)
    for metric, body in result["metrics"].items():
        assert body["unit"] == END_TO_END_UNITS[metric]
        assert math.isfinite(body["value"]) and body["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_library_is_restored(name, tmp_path):
    before = tracing.originals()
    first = run_minimal(name, trace=True, tmp_path=tmp_path)
    assert tracing.originals() == before, "a wrapper was left in the library"
    second = run_minimal(name, trace=True, tmp_path=tmp_path)
    for result in (first, second):
        assert result["failed"] == 0, result["first_error"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER_UNITS
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert values["encoder.bilstm.steps"] > 0
    assert values["autodiff.tape_records"] > 0
    assert (values["encoder.char_lstm.calls"] > 0) == WORKLOADS[name].use_chars
    assert 0 <= values["trace.unattributed_share"] < 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
