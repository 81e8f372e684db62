"""The benchmark's own tests.  Run from the root of a checkout with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
CHECKOUT = BENCH.parent
sys.path[:0] = [str(BENCH), str(CHECKOUT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from polydome.cli import main as polydome_main  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=CHECKOUT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """Last two stdout lines (record, result) of a smoke run per workload and trace mode."""
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            done = _bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke")
            assert done.returncode == 0, done.stderr
            *_, record, result = done.stdout.strip().splitlines()
            runs[name, trace] = json.loads(record)["record"], json.loads(result)
    return runs


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_named_metric(smoke_runs, name):
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        record, result = smoke_runs[name, trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["problems"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    record, result = smoke_runs[name, "0"]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["error_rate"] == 0.0
    assert (record["mc_s_to_rse_1e-3"] is not None) == (name == "volume-mc")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(smoke_runs, name):
    assert smoke_runs[name, "0"][0]["output_digest"] == smoke_runs[name, "1"][0]["output_digest"]


def test_op_lists_depend_on_the_seed_alone():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


def _run_op(op, capsys):
    code = polydome_main(list(op.argv))
    return code, capsys.readouterr().out


def test_oracle_flags_a_corrupted_stl(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYDOME_OUT_DIR", str(tmp_path))
    op = next(op for op in workloads.generate("mesh-export", 1, smoke=True) if op.params["format"] == "stl")
    code, stdout = _run_op(op, capsys)
    assert oracle.check(op, code, stdout, tmp_path) == []

    stl = tmp_path / op.outputs[0]
    data = stl.read_bytes()
    stl.write_bytes(data[:-50])  # one triangle record lost
    assert oracle.check(op, code, stdout, tmp_path)
    stl.write_bytes(data[:80] + struct.pack("<I", 1) + data[84:])  # header miscounts
    assert oracle.check(op, code, stdout, tmp_path)


def test_oracle_flags_a_monte_carlo_estimate_shifted_by_ten_sigma(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYDOME_OUT_DIR", str(tmp_path))
    op = workloads.generate("volume-mc", 1, smoke=True)[0]
    code, stdout = _run_op(op, capsys)
    assert oracle.check(op, code, stdout, tmp_path) == []

    report = json.loads(stdout)
    report["mc_estimate"] += 10.0 * report["mc_std_error"]
    assert oracle.check(op, code, json.dumps(report), tmp_path)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "volume-mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
