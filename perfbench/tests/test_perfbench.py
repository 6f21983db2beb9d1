"""Tests of the benchmark itself, at smoke size (a few seconds in all).

    python -m pytest perfbench/tests
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import run  # noqa: E402
from collidersim import cli, kernels  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, tmp_path):
    out = run.measure(name, 3, 0.3, str(tmp_path), smoke=True)
    runner = out["runner"]
    assert runner.attempted > run.REFERENCE_OPS
    assert runner.failed == 0, runner.errors
    assert runner.replay_ok
    assert set(out["metrics"]) >= {m["name"] for m in SPEC["end_to_end"]}
    assert out["metrics"]["failed_ratio"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    out = run.measure_traced(name, 3, 0.4, str(tmp_path), smoke=True)
    m = out["metrics"]
    assert out["runner"].failed == 0
    assert set(m) >= {x["name"] for x in SPEC["per_layer"]}
    assert (m["kernels.count_outcomes.calls"] > 0) == (name == "estimate-exact")
    assert (m["oracle.query.calls"] > 0) == (name in ("grid-exact", "bisect-stream"))
    assert (m["cli.main.calls"] > 0) == (name in ("bisect-stream", "advice-digits"))
    if name == "grid-exact":
        assert m["sources.max_depth"] == 0
    assert 0.5 < m["trace.coverage"] <= 1
    # the wrappers are gone once the traced pass ends
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(kernels.count_outcomes, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_digest_of_the_default_seed(name, tmp_path):
    runner = run.Runner(run.build(name, run.DEFAULT_SEED, str(tmp_path), False))
    for i in range(run.REFERENCE_OPS):
        runner.op(i)
    assert runner.failed == 0, runner.errors
    assert run.reference_ok(name, runner)[1]


def _flip(digits: str) -> str:
    return digits[:-1] + ("1" if digits[-1:] == "0" else "0")


def _rewrite(result, name, edit):
    """Edit one JSON output file and re-hash it in the manifest, so that
    only the content check can catch the change."""
    payload = json.loads(result.files[name])
    edit(payload)
    text = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    manifest = json.loads(result.files["manifest.json"])
    manifest["files"][name] = hashlib.sha256(text).hexdigest()
    result.files[name] = text
    result.files["manifest.json"] = json.dumps(manifest).encode()
    return result


def _flip_key(key):
    def edit(payload):
        payload[key]["digits"] = _flip(payload[key]["digits"])
    return edit


CORRUPT = {
    "estimate-exact": lambda r: (dataclasses.replace(r[0], digits=_flip(r[0].digits)), r[1]),
    "grid-exact": lambda r: (dataclasses.replace(r[0], digits=_flip(r[0].digits)), r[1]),
    "bisect-stream": lambda r: _rewrite(r, "report.json", _flip_key("result")),
    "advice-digits": lambda r: _rewrite(
        r, "advice.json", lambda p: p.update(digits=_flip(p["digits"]))),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_flipped_digit_counts_in_failed_ratio(name, tmp_path, monkeypatch):
    build = run.build

    def corrupted(*args):
        workload = build(*args)
        original = workload.run
        workload.run = lambda i: CORRUPT[name](original(i))
        return workload

    monkeypatch.setattr(run, "build", corrupted)
    out = run.measure(name, 3, 0.2, str(tmp_path), smoke=True)
    assert out["runner"].failed == out["runner"].attempted
    assert out["metrics"]["failed_ratio"] == 1


def _result(path, engine, value):
    path.write_text(json.dumps({"workload": "grid-exact", "metrics": {"op_p50_ms": value},
                                "env": {"engine": engine, "commit": "0" * 40}}))
    return str(path)


def test_results_from_different_engines_are_not_comparable(tmp_path, capsys):
    py = _result(tmp_path / "a.json", "thresholds-py", 10.0)
    c = _result(tmp_path / "b.json", "thresholds-c", 1.0)
    assert compare.main([py, c]) == 1
    assert "NOT COMPARABLE" in capsys.readouterr().out
    assert compare.main([py, _result(tmp_path / "c.json", "thresholds-py", 9.0)]) == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
