"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/selftest.py

Checks that each workload prints every metric listed in BENCHMARK.json with
its unit, that a traced run's self times add up to its wall time, that a
planted wrong answer shows up as failed operations, that the benchmark
refuses to run without the library source, and that the library defect kept
out of the workloads is still there.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd=None, script=BENCH / "run.py") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1"]
    return subprocess.run(
        argv + ["--trace", str(trace), "--tiny"], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert "failed_frac" in proc.stdout
    listed = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in listed}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        layers = sum(values[f"{layer}.self_s"] for layer in ("core", "minors", "oracle", "cli"))
        assert layers + values["trace.untraced_s"] == pytest.approx(values["trace.wall_s"], rel=1e-9, abs=1e-9)
    else:
        assert all(v > 0 for v in values.values())
    assert result["correct"], proc.stdout


def queries_failures(capsys) -> int:
    args = ["--workload", "queries", "--seed", "7", "--seconds", "1", "--trace", "0", "--tiny"]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    frac_line = next(line for line in lines if line.startswith("failed_frac"))
    result = json.loads(lines[-1])
    assert (float(frac_line.split()[1]) > 0) == (result["failed"] > 0)
    return result["failed"]


def test_planted_wrong_answer_raises_failed_frac(monkeypatch, capsys):
    lib = run.load_library()
    clean = queries_failures(capsys)
    # the necklace route now leaves every entry as it was
    monkeypatch.setattr(lib, "restrict_necklace", lambda necklace, j: necklace)
    assert queries_failures(capsys) > clean


@pytest.mark.xfail(strict=True, reason="is_positroid accepts some non-matroids (README.md, known defect)")
def test_positroid_implies_matroid_with_a_basis_dropped():
    lib = run.load_library()
    family = lib.parse_bases("1,3;1,6;1,7;1,8;2,8;3,8;6,8;7,8", 8)
    assert not lib.check_matroid(family)
    assert not lib.is_positroid(family)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_fixes_the_inputs():
    first = gen.build_inputs("queries", 3, True)
    assert first == gen.build_inputs("queries", 3, True)
    assert first != gen.build_inputs("queries", 4, True)
    texts = [gen.input_text(q) for q in first]
    assert len(set(texts)) == len(texts)
