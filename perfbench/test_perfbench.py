"""Tests of the benchmark itself: tiny runs of every workload, the result
line against BENCHMARK.json, and the checker."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nmdecomp import Complex

import bench
import checks
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_run_prints_every_metric(workload, trace, capsys, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = bench.run(workload, 7, 0.3, bool(trace), workloads.TINY, spans)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) > 2}
    for name, unit in bench.PER_LAYER if trace else bench.END_TO_END:
        assert printed[name] == unit
        assert result["metrics"][name]["unit"] == unit
    assert printed["fail_ratio"] == "ratio"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert spans.is_file() == bool(trace)


def test_benchmark_json_matches_the_result_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER


def test_same_seed_same_inputs():
    for make in workloads.GENERATORS.values():
        a, b = make(11, workloads.TINY), make(11, workloads.TINY)
        assert a.texts() == b.texts() and a.queries == b.queries
        assert make(12, workloads.TINY).queries != a.queries


def test_checker_counts_a_wrong_answer():
    wl = workloads.perforated(3, workloads.TINY)
    src = Complex(wl.rows[0], validate=False)
    layer = bench.setup(wl.texts()[0]).nm
    queries = wl.queries[:40]
    answers = [layer.snm_global(g, n, m) for _, g, n, m in queries]
    chk = checks.Checker(attempted=len(queries))
    checks.check_queries(chk, [src], queries, answers)
    assert chk.fail_ratio == 0
    k = next(i for i, a in enumerate(answers) if a)
    answers[k] = answers[k] - {min(answers[k])}
    checks.check_queries(chk, [src], queries, answers)
    assert chk.failed == 1 and chk.fail_ratio == 1 / len(queries)


def test_times_scale_by_the_reference_loops_around_them(monkeypatch):
    # a machine running at half the reference speed halves every time
    monkeypatch.setattr(speed, "loop_seconds",
                        lambda: [2 * speed.REF_LOOP_S] * speed.LOOPS_PER_SIDE)
    out, k = speed.around(lambda x: x + 1, 41)
    assert out == 42 and k == 0.5


def test_checker_counts_an_exception():
    chk = checks.Checker(attempted=1)
    chk.guarded("boom", lambda: 1 // 0)
    assert chk.failed == 1 and "ZeroDivisionError" in chk.notes[0]


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
