"""Tests of the benchmark itself: generator determinism and its metric list.

Run from the root of a source checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from thematica.corpus import load_corpus  # noqa: E402
from thematica.outparse import CodeRecord  # noqa: E402
from thematica.trace import verify_codebook  # noqa: E402

SYNTHETIC = (workloads.LONG_INTERVIEW, workloads.PARAPHRASE)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(workspace: Path) -> dict[str, bytes]:
    """Every generated file, except the interrupted state a run leaves behind."""
    return {str(path.relative_to(workspace)): path.read_bytes()
            for path in sorted(workspace.rglob("*"))
            if path.is_file() and "snapshot" not in path.parts}


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    workloads.build_workspace(workload, 7, tmp_path / "one")
    workloads.build_workspace(workload, 7, tmp_path / "two")
    workloads.build_workspace(workload, 8, tmp_path / "other")
    first = _inputs(tmp_path / "one")
    assert set(first) >= {"transcript.txt", "session.json", "coder1.csv", "coder2.csv",
                          "alias_map.csv", "run_config.json", "session_half.json", "expect.json"}
    assert first == _inputs(tmp_path / "two")
    assert first["transcript.txt"] != _inputs(tmp_path / "other")["transcript.txt"]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_planned_quote_kinds_get_their_trace_level(seed, tmp_path):
    plan = workloads.Plan(workloads.PARAPHRASE, seed)
    path = tmp_path / "transcript.txt"
    path.write_text(plan.transcript(), encoding="utf-8")
    corpus = load_corpus(path, page_size=workloads.PAGE_SIZE)
    records = [CodeRecord(label=c.label, quote=c.quote, page=c.page) for c in plan.codes]
    report = verify_codebook(records, corpus)
    assert [r.level for r in report.results] == [workloads.LEVEL_OF[c.kind] for c in plan.codes]


def test_per_layer_list_matches_the_tracer():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, *_ in tracer.PER_LAYER]


@pytest.mark.parametrize("trace, key", ((0, "end_to_end"), (1, "per_layer")))
def test_a_short_sample_run_reports_every_listed_metric(trace, key):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4
    assert {name: value["unit"] for name, value in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK[key]}
