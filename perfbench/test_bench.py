"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Not part of the repository's test suite.  The traced-run test runs each
workload twice and takes about five minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(layers.EXPECTED_SPANS)
    setup = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup <= 0.25 for m in doc["end_to_end"])


def test_patched_reaches_every_binding_and_restores():
    import dflsim.fan
    import dflsim.lpv
    original = dflsim.fan.thrust_jacobian
    with spans.Tracer().instrument({"fan.thrust_jacobian": original}) as counts:
        assert dflsim.lpv.thrust_jacobian is dflsim.fan.thrust_jacobian
        assert dflsim.lpv.thrust_jacobian is not original
        assert counts[original] == 2
    assert dflsim.lpv.thrust_jacobian is original
    assert dflsim.fan.thrust_jacobian is original


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.names = ["mpc.ampc_step", "lpv.build_lpv", "fan.thrust_jacobian",
                    "fan.solve_operating_point"]
    tracer.parents = [-1, 0, 1, 2]
    tracer.starts = [0.0, 1.0, 2.0, 3.0]
    tracer.ends = [10.0, 8.0, 7.0, 4.0]
    stats = layers.SpanStats(tracer, {})
    assert stats.self_total("mpc.ampc_step") == 3.0
    assert stats.self_total("lpv.build_lpv") == 2.0
    assert stats.busy("fan.thrust_jacobian") == 5.0
    assert stats.calls_in_steps("fan.solve_operating_point") == 1


@pytest.mark.parametrize("workload", list(layers.EXPECTED_SPANS))
def test_counts_repeat_across_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "5",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    counts = [{k: r["metrics"][k]["value"] for k in layers.COUNT_METRICS}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["engine.step_engine.calls"] > 0
    if workload == "ampc_takeoff":
        assert counts[0]["fan.solve_operating_point.calls"] > 0
        assert counts[0]["mpc.hildreth.calls"] >= 250
    else:
        assert counts[0]["networks.train_elman.epochs"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "identify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
