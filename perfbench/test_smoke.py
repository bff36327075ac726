"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "1", "--size", "tiny", *extra],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WHY)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.LAYERS.items()
    }


@pytest.mark.parametrize("workload", list(run.WHY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_failed_check_is_counted_not_raised():
    proc = bench("--workload", "euler_rk4", "--trace", "0", "--inject-failure")
    result = result_of(proc)
    assert "Traceback" not in proc.stdout + proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_without_the_sources_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "euler_rk4", "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py"
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
