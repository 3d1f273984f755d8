"""The benchmark's own tests: python3 -m pytest perfbench

Each workload runs at smoke size through the same command the benchmark
uses.  They check the printed metrics, the traced run, the failure path of
the check layer, and the refusal to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_smoke_prints_every_end_to_end_metric(workload, seed):
    code, lines = bench("--workload", workload, "--seed", str(seed), "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.strip().startswith(f"{m['name']} = ") for line in lines)
    assert f"  failed_ratio = 0 (0/{result['attempted']})" in lines


BUSY_LAYERS = {
    "periodic-fullscan": ("nivat.nivat_scan.self_s", "nivat.census.self_s",
                          "lattice.reduce.calls", "nivat.distinct_blocks"),
    "irrational-sample": ("configurations.value.self_s", "laurent.apply.cells",
                          "annihilator.find_annihilator.self_s"),
    "algebra": ("laurent.mul.term_pairs", "linalg.solve_sparse.nnz",
                "laurent.line_factorization.self_s"),
    "cli": ("cli.run.self_s", "textio.parse.self_s", "tiling.search.lattices_tried",
            "annihilator.search.nodes"),
}


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "1", "--trace", "1")
    assert code == 0, lines
    result = json.loads(lines[-1])
    # traced answers are judged against the untraced pass's answers
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    for name in BUSY_LAYERS[workload]:
        assert metrics[name] > 0, name


def test_wrong_expected_answer_fails_the_run():
    code, lines = bench("--workload", "algebra", "--seed", "1", "--corrupt", "c08/0")
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("FAILED c08/0" in line for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    code, lines = bench("--workload", "algebra", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_spec_names_the_metrics_the_worker_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == worker.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


def test_floor_oracle():
    for m in range(-200, 200):
        f = oracles.floor_sqrt_mul(m, 2)
        if m >= 0:
            assert f * f <= 2 * m * m < (f + 1) * (f + 1)
        else:
            assert (f + 1) * (f + 1) < 2 * m * m <= f * f


def test_board_oracle_is_lattice_periodic():
    for basis in ([(2, 0), (1, 1)], [(1, -1), (2, 2)], [(2, 1), (-3, 6)]):
        a, _, d = oracles.hermite_2d(*basis)
        table = {(x, y): 7 * x + y for x in range(a) for y in range(d)}
        board = oracles.Board(basis, table)
        for x in range(-6, 6):
            for y in range(-6, 6):
                for v in basis:
                    assert board(x + v[0], y + v[1]) == board(x, y)
        assert len({board(x, y) for x in range(-9, 9) for y in range(-9, 9)}) == a * d
