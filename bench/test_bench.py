"""Self-test of the benchmark at a tiny size.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def _result(workload: str, trace: int):
    proc, lines = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    return lines, result


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    lines, result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in MANIFEST["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    frac = next(line for line in lines if line.startswith("failed_frac"))
    assert float(frac.split()[1]) == \
        pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    _, first = _result(workload, 1)
    _, second = _result(workload, 1)
    assert _units(first) == {m["name"]: m["unit"]
                             for m in MANIFEST["per_layer"]}

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "degree")}

    assert counts(first) == counts(second)
    assert counts(first)["scalars.ops.calls"] > 0


def test_failed_frac_is_taken_over_attempted_ops():
    from run import Run, evaluate
    from workloads import Op, Outcome, Workload

    def op(problem):
        return Op("op", Outcome, lambda out: problem)

    ops = [op(None), op(None), op("wrong"), op("break")]
    workload = Workload("fake", lambda seed, r: ops, [])
    run = Run()
    for i in range(len(ops)):
        run.add(0, i, 1, 0.0, 0.001, Outcome(code=0))
    verdict = evaluate(workload, 0, [run])
    assert (verdict.attempted, verdict.failed) == (4, 2)
    assert verdict.failed_frac == 0.5
    assert verdict.problems == ["op: wrong", "op: break"]


def test_missing_hook_target_is_reported_absent(monkeypatch):
    from diffmonads import powerseries
    from tracing import Tracer

    monkeypatch.delattr(powerseries, "MultiIndex")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["powerseries.key_products.calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
