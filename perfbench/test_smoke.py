"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, and checks that each metric
BENCHMARK.json names is printed with its unit and that the output checks
pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    table = "\n".join(lines[:-1])
    for metric in wanted:
        assert f" {metric['name']} " in table
        assert f" {metric['unit']} " in table


def test_outside_a_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "grid-wide", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _repeat(kind, digests, layers=None):
    result = {"ops": [{"name": "a", "check": "a", "digests": digests}]}
    if layers is not None:
        result["layers"] = layers
    return {"kind": kind, "result": result, "error": None}


def test_check_counts_mismatches_as_failures():
    same = [_repeat("untraced", {"report": "x"}),
            _repeat("traced", {"report": "x"})]
    assert run.check(same, 1, None)[:2] == (2, 0)
    assert run.check(same, 1, {"a": {"report": "y"}})[:2] == (2, 2)
    differ = [_repeat("untraced", {"report": "x"}),
              _repeat("traced", {"report": "z"})]
    assert run.check(differ, 1, None)[:2] == (2, 1)
    counts = [_repeat("traced", {"report": "x"}, {"tokenizer.merges": 5}),
              _repeat("traced", {"report": "x"}, {"tokenizer.merges": 6})]
    assert run.check(counts, 1, None)[:2] == (2, 1)
    crashed = [{"kind": "untraced", "result": None, "error": "boom"}]
    assert run.check(crashed, 3, None)[:2] == (3, 3)


def test_tracer_restores_every_name():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    import inspect

    import tracer

    before = {}
    for module, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"scriptshift.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        before[(module, path)] = (owner, attr,
                                  inspect.getattr_static(owner, attr))
    t = tracer.Tracer()
    t.install()
    assert t.missing == []
    assert all(inspect.getattr_static(owner, attr) is not original
               for owner, attr, original in before.values())
    t.uninstall()
    assert all(inspect.getattr_static(owner, attr) is original
               for owner, attr, original in before.values())
