"""Tests of the benchmark itself; they take about two minutes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from germval import germ  # noqa: E402

FREE0 = {"kind": "free", "on": None}


def smooth(*steps) -> dict:
    return {"base": "smooth", "steps": [FREE0, *steps]}


# -- the oracle reproduces the paper's hand values -------------------------


def test_single_blowup_lct_is_two():
    m, k = oracle.model(smooth())
    assert oracle.unloading_lct(m, k, 0) == (2, 1, [1])


def test_satellite_chain_three():
    m, k = oracle.model(smooth({"kind": "free", "on": 0}, {"kind": "satellite", "on": [0, 1]}))
    assert oracle.unloading_lct(m, k, 2) == (5, 6, [2, 3, 6])


def test_e7_lct_subset_is_the_branch_node():
    m, k = oracle.model({"base": {"du_val": "E7"}, "steps": []})
    assert [e for e in range(7) if oracle.unloading_lct(m, k, e)[0] == k[e] + 1] == [2]


def test_oracle_model_matches_program_on_stream():
    for doc in worker.stream_docs(5)[:12]:
        c = germ.cluster_from_json(doc)
        m, k = oracle.model(doc)
        assert tuple(map(tuple, m)) == germ.intersection_matrix(c)
        assert tuple(k) == germ.canonical_vector(c)


def test_checks_catch_a_wrong_answer(tmp_path):
    doc = smooth({"kind": "free", "on": 0}, {"kind": "satellite", "on": [0, 1]})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, text = worker.run_cli(["analyze", str(path), "--last", "-f", "json"])
    answer = json.loads(text)
    assert code == 0 and oracle.check_analyze(doc, answer) == []
    for key, bad in (("lct", "4"), ("fingen_degree", 12), ("verdict", "MldObstructed")):
        assert oracle.check_analyze(doc, {**answer, key: bad})


def test_renumbering_keeps_the_cluster():
    import random

    doc = worker.stream_docs(1)[0]
    again = worker.renumber(random.Random(7), doc)
    assert again != doc
    a, b = germ.cluster_from_json(doc), germ.cluster_from_json(again)
    assert sorted(germ.canonical_vector(a)) == sorted(germ.canonical_vector(b))
    assert germ.canonical_vector(a)[-1] == germ.canonical_vector(b)[-1]


# -- rounds: traced and untraced outputs, repeatable counts ----------------


def one_round(out: Path, workload: str, traced: bool, index: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    argv = [sys.executable, str(HERE / "worker.py"), workload, "3", str(index), str(out), str(int(traced))]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def counts(summary: dict) -> dict:
    funcs = summary["trace"]["functions"]
    return {
        "functions": {n: (f["calls"], f["items"], f["distinct"]) for n, f in funcs.items()},
        "edges": summary["trace"]["edges"],
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_rounds_write_same_outputs_and_repeat_counts(tmp_path, workload):
    plain = one_round(tmp_path / "plain", workload, False, 0)
    first = one_round(tmp_path / "traced1", workload, True, 1)
    second = one_round(tmp_path / "traced2", workload, True, 2)
    assert plain["failed"] == first["failed"] == 0
    assert run.same_outputs(tmp_path / "plain", tmp_path / "traced1")
    assert run.check_outputs(workload, 3, tmp_path / "traced1", first["codes"]) == []
    assert counts(first) == counts(second)
    assert counts(first)["functions"]["valuation.unload"][0] > 0


# -- the result line --------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = {"op_s": [1.0], "setup_s": 1.0, "wall_s": 1.0, "maxrss_kb": 1024}
    e2e = {n: u for n, (_, u) in run.end_to_end([r]).items()}
    traced = {**r, "trace": {"functions": {}, "edges": {}}}
    layer = {n: u for n, (_, u) in run.per_layer([r], [traced])[0].items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "sweep-duval", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
