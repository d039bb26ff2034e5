import argparse
import csv
import json
import multiprocessing.process
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import germval
from germval import explorer, germ, thresholds, valuation
from germval.cli import main, paper_examples, satellite_chain
from germval.errors import InvalidStep
from germval.exact import format_rational

from conftest import count_column_solves, single_blowup


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def r3_file(tmp_path):
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(germ.cluster_to_json(satellite_chain(3))))
    return str(path)


@pytest.fixture()
def sb_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(germ.cluster_to_json(single_blowup())))
    return str(path)


def run_module(argv):
    """``python -m germval`` with the given arguments, in a fresh process."""
    src = os.path.dirname(os.path.dirname(germval.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "germval", *argv], capture_output=True, text=True, timeout=60, env=env)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_satellite_chain_json(capsys, r3_file):
    code, out, err = run(capsys, ["analyze", r3_file, "--divisor", "2", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["lct"] == "5"
    assert doc["fingen_degree"] == 6
    assert doc["verdict"] == "ComputesLct"
    assert doc["dstar"] == ["1/3", "1/2", "1"]
    assert doc["witness_ideal"] == ["2", "3", "6"]
    assert doc["gap"] == "0" and doc["argmin"] == [2]


def test_analyze_json_stable_across_runs(capsys, r3_file):
    argv = ["analyze", r3_file, "--last", "--format", "json"]
    out1 = run(capsys, argv)[1]
    out2 = run(capsys, argv)[1]
    assert out1 == out2
    keys = list(json.loads(out1))
    assert keys == sorted(keys)


def test_analyze_no_decimals_without_approx(capsys, r3_file):
    code, out, _ = run(capsys, ["analyze", r3_file, "--divisor", "2", "--format", "json"])
    assert code == 0
    for value in json.loads(out).values():
        assert not isinstance(value, float)


def test_analyze_approx_labeled(capsys, r3_file):
    code, out, _ = run(
        capsys, ["analyze", r3_file, "--divisor", "2", "--format", "json", "--approx"]
    )
    doc = json.loads(out)
    assert doc["approx"]["lct"] == 5.0
    assert doc["approx"]["dstar"][0] == pytest.approx(1 / 3)
    # exact fields unchanged
    assert doc["lct"] == "5"


def test_mld_single_blowup(capsys, sb_file):
    code, out, _ = run(
        capsys,
        ["mld", sb_file, "--ideal", "1", "--lambda", "2/1", "--divisor", "0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mld"] == "0"
    assert doc["computes_mld"] is True
    assert doc["log_discrepancy"] == "0"


def test_mld_beyond_threshold(capsys, sb_file):
    code, out, _ = run(capsys, ["mld", sb_file, "--ideal", "1", "--lambda", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["mld"] == "-inf"


def test_mld_from_pair_file(capsys, r3_file, tmp_path):
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"ideal": ["2", "3", "6"], "lambda": "5/6"}))
    code, out, _ = run(
        capsys, ["mld", r3_file, "--pair", str(pair_path), "--divisor", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mld"] == "0" and doc["computes_mld"] is True


def test_lct_subcommand(capsys, r3_file):
    code, out, _ = run(capsys, ["lct", r3_file, "--ideal", "2,3,6", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "5/6" and doc["argmin"] == [2] and doc["unique_lc_place"] == 2


def test_lct_zero_ideal_is_infinite(capsys, sb_file):
    code, out, _ = run(capsys, ["lct", sb_file, "--ideal", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "inf" and doc["argmin"] == []


def test_ideal_subcommand(capsys, r3_file):
    code, out, _ = run(
        capsys, ["ideal", r3_file, "--divisor", "2", "--degree", "6", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["coefficients"] == ["2", "3", "6"]
    assert doc["rees_valuations"] == [2]


def test_classify_subcommand(capsys, tmp_path):
    path = tmp_path / "r6.json"
    path.write_text(json.dumps(germ.cluster_to_json(satellite_chain(6))))
    code, out, _ = run(capsys, ["classify", str(path), "--last", "--format", "json"])
    doc = json.loads(out)
    assert doc["verdict"] == "MldObstructed" and doc["witness"] == 2


def test_fingen_subcommand(capsys, r3_file):
    code, out, _ = run(capsys, ["fingen", r3_file, "--last", "--format", "json"])
    doc = json.loads(out)
    assert doc["fingen_degree"] == 6
    assert doc["ideal_at_degree"] == ["2", "3", "6"]


def test_analyze_and_fingen_read_the_stored_column(capsys, r3_file, monkeypatch):
    # fingen's ideal at degree m0 is the column itself; analyze's witness
    # unloads once, from the column, which is already antinef
    calls = []
    unload = valuation.unload

    def counting_unload(c, z):
        d = unload(c, z)
        calls.append(tuple(z) == d)
        return d

    monkeypatch.setattr(valuation, "unload", counting_unload)
    code, out, _ = run(capsys, ["fingen", r3_file, "--last", "--format", "json"])
    assert code == 0 and json.loads(out)["ideal_at_degree"] == ["2", "3", "6"]
    assert calls == []
    code, out, _ = run(capsys, ["analyze", r3_file, "--last", "--format", "json"])
    assert code == 0 and json.loads(out)["witness_ideal"] == ["2", "3", "6"]
    assert calls == [True]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_analyze_on_stream_clusters_agrees_with_the_germval_free_model(capsys, monkeypatch, tmp_path, seed):
    # the benchmark's 20-100 curve clusters: each analyze answer passes the
    # dense model of bench/oracle.py, which imports nothing from germval, and
    # the dstar that analyze and fingen read off the integer column is the
    # library's Fraction view
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle
    import worker

    for i, doc in enumerate(worker.stream_docs(seed)):
        path = tmp_path / f"cluster-{i:02d}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["analyze", str(path), "--last", "-f", "json"])
        assert code == 0
        got = json.loads(out)
        assert oracle.check_analyze(doc, got) == [], i
        c = germ.cluster_from_json(doc)
        want = [format_rational(v) for v in valuation.asymptotic_multiplicities(c, c.curve_count() - 1)]
        code, out, _ = run(capsys, ["fingen", str(path), "--last", "-f", "json"])
        assert code == 0 and got["dstar"] == json.loads(out)["dstar"] == want, i


def test_dot_subcommand(capsys, sb_file, tmp_path):
    code, out, _ = run(capsys, ["dot", sb_file])
    assert code == 0
    assert out == 'graph cluster {\n  E0 [label="E0 | self=-1 | k=1"];\n}\n'
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, ["dot", sb_file, "-o", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("graph cluster {")


def test_text_format_default(capsys, r3_file):
    code, out, _ = run(capsys, ["analyze", r3_file, "--divisor", "2"])
    assert code == 0
    assert "lct = 5" in out and "verdict = ComputesLct" in out


def test_enumerate_writes_atlas_and_report(capsys, tmp_path):
    atlas = tmp_path / "atlas.csv"
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        [
            "enumerate",
            "--max-steps", "3",
            "--ideal-bound", "2",
            "--lambda-bound", "6",
            "--extension-depth", "1",
            "--atlas", str(atlas),
            "--report", str(report),
            "--format", "json",
        ],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["clusters"] == 5 and summary["counterexamples"] == 0
    with open(atlas, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["rows"]
    assert rows[0]["lct"] == "2" and rows[0]["verdict"] == "ComputesLct"
    doc = json.loads(report.read_text())
    assert doc["total_counterexamples"] == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_approx_leaves_out_values_beyond_float_range(capsys, sb_file, fmt):
    big = str(10**400)
    argv = ["lct", sb_file, "--ideal", big, "--format", fmt]
    code, exact, _ = run(capsys, argv)
    assert code == 0
    code, out, err = run(capsys, argv + ["--approx"])
    assert code == 0 and err == ""
    # 2/10**400 rounds to 0.0; 10**400 has no float and gets no approximation
    if fmt == "json":
        doc = json.loads(out)
        assert doc.pop("approx") == {"value": 0.0}
        assert doc == json.loads(exact)
        assert doc["ideal"] == [big] and doc["value"] == f"1/{5 * 10**399}"
    else:
        lines = out.splitlines()
        assert lines[0] == f"ideal = [{big}]" == exact.splitlines()[0]
        assert lines[1] == exact.splitlines()[1] + "   (approx 0.0)"
        assert lines[2:] == exact.splitlines()[2:]


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("report", [False, True])
def test_enumerate_rejects_nonpositive_jobs(capsys, tmp_path, jobs, report):
    extra = ["--report", str(tmp_path / "report.json")] if report else []
    code, out, err = run(capsys, ["enumerate", "--max-steps", "1", "--jobs", jobs] + extra)
    assert code == 1 and out == "" and "ValueError" in err
    assert not (tmp_path / "report.json").exists()


def test_enumerate_refuses_an_extension_depth_above_the_cap(capsys, tmp_path, monkeypatch):
    def no_sweep(b):
        raise AssertionError("the budget should be refused before any sweep")

    monkeypatch.setattr(explorer, "verify_theorems", no_sweep)
    monkeypatch.setattr(explorer, "atlas_rows", no_sweep)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["enumerate", "--extension-depth", "11", "--report", str(report)])
    assert (code, out, err) == (1, "", "ValueError: extension_depth must be <= 10\n")
    assert not report.exists()


def test_enumerate_refuses_a_lambda_bound_above_the_cap(capsys, tmp_path, monkeypatch):
    # _grid's work grows with the square of the bound: 100000 would run for hours
    def no_sweep(b):
        raise AssertionError("the budget should be refused before any sweep")

    monkeypatch.setattr(explorer, "verify_theorems", no_sweep)
    monkeypatch.setattr(explorer, "atlas_rows", no_sweep)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["enumerate", "--lambda-bound", "100000", "--report", str(report)])
    assert (code, out, err) == (1, "", "ValueError: lambda_denominator_bound must be in 1..100\n")
    assert not report.exists()


def test_enumerate_refuses_an_ideal_bound_above_the_cap(capsys, tmp_path, monkeypatch):
    # the ideal set grows with the bound: 100000 would run without end
    def no_sweep(b):
        raise AssertionError("the budget should be refused before any sweep")

    monkeypatch.setattr(explorer, "verify_theorems", no_sweep)
    monkeypatch.setattr(explorer, "atlas_rows", no_sweep)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["enumerate", "--ideal-bound", "100000", "--report", str(report)])
    assert (code, out, err) == (1, "", "ValueError: ideal_coeff_bound must be in 0..12\n")
    assert not report.exists()


@pytest.mark.parametrize("option", ["--atlas", "--extremal", "--report"])
def test_enumerate_opens_its_outputs_before_the_run(capsys, tmp_path, monkeypatch, option):
    def no_sweep(b):
        raise AssertionError("an unwritable output should be refused before any sweep")

    monkeypatch.setattr(explorer, "verify_theorems", no_sweep)
    monkeypatch.setattr(explorer, "atlas_rows", no_sweep)
    bad = tmp_path / "missing" / "out"
    code, out, err = run(capsys, ["enumerate", "--max-steps", "6", option, str(bad)])
    assert (code, out) == (1, "")
    assert err == f"FileNotFoundError: [Errno 2] No such file or directory: '{bad}'\n"


@pytest.mark.parametrize(
    "bases,max_steps,clusters,rows",
    [("smooth", 6, 236, 1337), ("A1,A2,A3,A4,D4,D5,E6,E7,E8", 2, 622, 4895)],
    ids=["smooth6", "duval2"],
)
def test_every_atlas_row_agrees_with_the_germval_free_model(capsys, monkeypatch, tmp_path, bases, max_steps, clusters, rows):
    # bench/oracle.py imports nothing from germval: it rebuilds each row's
    # cluster by blowing up point after point and finds m0, the lct, the gap
    # and the verdict by unloading
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle

    atlas = tmp_path / "atlas.csv"
    code, out, _ = run(capsys, ["enumerate", "--max-steps", str(max_steps), "--bases", bases, "--atlas", str(atlas), "-f", "json"])
    assert code == 0 and json.loads(out) == {"clusters": clusters, "rows": rows}
    found = oracle.read_csv(atlas)
    assert len(found) == rows
    assert [(i, errs) for i, row in enumerate(found) if (errs := oracle.check_atlas_row(row))] == []


def test_every_mld_curve_computes_an_lct_in_the_germval_free_model(monkeypatch):
    # the paper's theorem, checked on bench/oracle.py's dense model: over
    # every ideal enumerated at sweep A's budget (smooth <= 5 steps, ideal
    # bound 3) and every p/q <= its lct with q <= 12, each curve attaining
    # the pair's mld over the model's curves has gap 0 by unloading alone
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle

    pairs, attaining, wrong = 0, set(), []
    for i, c in enumerate(explorer.enumerate_clusters(explorer.EnumBudget(5, (germ.SMOOTH,), 3, 12))):
        m, k = oracle.model(germ.cluster_to_json(c))
        gap_zero = [oracle.unloading_lct(m, k, j)[0] == k[j] + 1 for j in range(len(k))]
        for d in explorer.antinef_ideals(c, 3):
            if not any(d):
                continue
            lct = min(Fraction(kj + 1, dj) for kj, dj in zip(k, d) if dj)
            for lam in {Fraction(p, q) for q in range(1, 13) for p in range(1, lct.numerator * q // lct.denominator + 1)}:
                a = [kj + 1 - lam * dj for kj, dj in zip(k, d)]
                mld = min(a)
                pairs += 1
                for j in (j for j, aj in enumerate(a) if aj == mld):
                    attaining.add((i, j))
                    if not gap_zero[j]:
                        wrong.append((germ.cluster_to_json(c), d, lam, j))
    assert wrong == []
    assert (i + 1, pairs, len(attaining)) == (56, 21864, 222)


@pytest.mark.parametrize(
    "first,second,extra",
    [("--atlas", "--extremal", ["-f", "json"]), ("--atlas", "--report", ["--ideal-bound", "1"])],
)
def test_enumerate_refuses_one_file_for_two_outputs(capsys, tmp_path, monkeypatch, first, second, extra):
    # each output would overwrite the other; nothing is created or truncated
    def no_sweep(b):
        raise AssertionError("a shared output should be refused before any sweep")

    monkeypatch.setattr(explorer, "verify_theorems", no_sweep)
    monkeypatch.setattr(explorer, "atlas_rows", no_sweep)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"earlier bytes\n")
    monkeypatch.chdir(tmp_path)
    # one file named two ways: a relative path and its absolute one
    for a, b in ((fresh.name, str(fresh)), (kept.name, str(kept))):
        code, out, err = run(capsys, ["enumerate", "--max-steps", "4", first, a, second, b, *extra])
        assert (code, out) == (1, "")
        assert err == "ValueError: --atlas, --extremal and --report must name different files\n"
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier bytes\n"


def test_enumerate_jobs_output_identical(capsys, tmp_path, monkeypatch):
    # enumeration runs in one process whatever --jobs says
    def no_process(self):
        raise AssertionError("enumerate started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    paths = []
    for jobs in ("1", "2", "4"):
        for report in ([], ["--report", str(tmp_path / "report.json")]):
            atlas = tmp_path / f"atlas{jobs}{len(report)}.csv"
            code, _, _ = run(
                capsys,
                ["enumerate", "--max-steps", "3", "--bases", "smooth,A2",
                 "--atlas", str(atlas), "--jobs", jobs] + report,
            )
            assert code == 0
            paths.append(atlas.read_text())
    assert all(p == paths[0] for p in paths)


def test_enumerate_extremal_sorted(capsys, tmp_path):
    extremal = tmp_path / "extremal.csv"
    code, _, _ = run(
        capsys,
        ["enumerate", "--max-steps", "4", "--ideal-bound", "0", "--extremal", str(extremal)],
    )
    assert code == 0
    with open(extremal, newline="") as fh:
        rows = list(csv.DictReader(fh))
    gaps = [Fraction(r["gap"]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)


def test_paper_examples_text(capsys):
    code, out, _ = run(capsys, ["paper-examples"])
    assert code == 0
    assert "[pass] single-blowup" in out
    assert "[pass] satellite-chain r=3" in out
    assert "[pass] du-val-E7" in out
    assert "8/8 fixtures passed" in out
    # the closed-form note appears exactly on the r>3 rows
    assert out.count("recorded for comparison") == 5


def test_paper_examples_json(capsys):
    code, out, _ = run(capsys, ["paper-examples", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["fixtures"]) == 8
    assert all(row["pass"] for row in doc["fixtures"])
    r6 = next(r for r in doc["fixtures"] if r["fixture"] == "satellite-chain r=6")
    assert r6["got"]["witness"] == 2
    assert r6["lct"] == "15/2" and r6["closed_form"] == "16/3"


def test_paper_examples_helper_direct():
    rows = paper_examples()
    assert [r["fixture"] for r in rows] == (
        ["single-blowup"]
        + [f"satellite-chain r={r}" for r in range(3, 9)]
        + ["du-val-E7"]
    )
    r3 = rows[1]
    assert r3["lct"] == "5" and r3["closed_form"] == "5" and r3["note"] == ""
    e7 = rows[-1]
    assert e7["lct_subset"] == [2]


def test_exit_code_validation_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, out, err = run(capsys, ["analyze", missing, "--divisor", "0"])
    assert code == 1 and "FileNotFoundError" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(bad), "--divisor", "0"])
    assert code == 1 and "ValueError" in err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"base": "smooth", "steps": [{"kind": "satellite", "on": [0, 0]}]}))
    code, _, err = run(capsys, ["classify", str(invalid), "--divisor", "0"])
    assert code == 1 and "InvalidStep" in err


@pytest.mark.parametrize("where", ["cluster", "pair"])
def test_deeply_nested_json_is_a_validation_error(tmp_path, r3_file, where):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    if where == "cluster":
        argv = ["analyze", str(deep), "--last"]
    else:
        argv = ["mld", r3_file, "--pair", str(deep)]
    proc = run_module(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"ValueError: {deep}: JSON nested too deeply"]


@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_du_val_rank_above_the_bound_is_a_validation_error(tmp_path, command):
    # a 40-byte file naming 10^8 curves must fail before anything is allocated per curve
    label = "A100000000"
    if command == "analyze":
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"base": {"du_val": label}, "steps": []}))
        argv = ["analyze", str(path), "--last"]
    else:
        argv = ["enumerate", "--bases", label, "--max-steps", "1"]
    proc = run_module(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"ValueError: du Val label '{label}': rank above {germ.MAX_DU_VAL_RANK}"]


@pytest.mark.parametrize("label", ["A\uff13", "A\u00b2"])
@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_du_val_rank_with_non_ascii_digits_is_a_validation_error(tmp_path, command, label):
    if command == "analyze":
        path = tmp_path / "unicode.json"
        path.write_text(json.dumps({"base": {"du_val": label}, "steps": [{"kind": "free", "on": 0}]}))
        argv = ["analyze", str(path), "--last"]
    else:
        argv = ["enumerate", "--bases", label, "--max-steps", "1"]
    proc = run_module(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"ValueError: not a Dynkin label: {label!r}"]


@pytest.mark.parametrize("text", ["1e100000000", "\uff13", "1_000", "1.25"])
@pytest.mark.parametrize("where", ["--ideal", "--lambda", "pair"])
def test_rationals_other_than_p_over_q_are_a_validation_error(capsys, tmp_path, sb_file, where, text):
    # Fraction reads all four, the first after computing 10**100000000
    if where == "pair":
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"ideal": ["1"], "lambda": text}))
        argv = ["mld", sb_file, "--pair", str(path)]
    else:
        values = {"--ideal": "1", "--lambda": "1/2", where: text}
        argv = ["mld", sb_file, *(x for kv in values.items() for x in kv)]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [f"ValueError: not a rational: {text!r}"]


def test_exit_code_module_errors_surface(capsys, r3_file, sb_file):
    # asking for a witness curve that does not exist
    code, _, err = run(capsys, ["analyze", r3_file, "--divisor", "7"])
    assert code == 1 and "ValueError" in err
    # non-antinef ideal
    code, _, err = run(capsys, ["lct", r3_file, "--ideal", "0,0,1"])
    assert code == 1 and "NotAntinef" in err
    # mld of a non-lc pair has no computing divisor
    code, _, err = run(capsys, ["mld", sb_file, "--ideal", "1", "--lambda", "3", "--divisor", "0"])
    assert code == 1 and "MldMinusInfinity" in err


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_analyze_builds_the_ratio_list_once(capsys, monkeypatch, r3_file):
    # one classify record: lct, argmin, gap, plt and verdict are read off
    # one column and one threshold of the ideal it is the divisor of
    count = count_column_solves(monkeypatch)
    lct_ideal, taken = thresholds.lct_ideal, []

    def counting_lct_ideal(c, a):
        taken.append(a)
        return lct_ideal(c, a)

    monkeypatch.setattr(thresholds, "lct_ideal", counting_lct_ideal)
    code, out, _ = run(capsys, ["analyze", r3_file, "--last", "--format", "json"])
    assert code == 0 and json.loads(out)["plt_over_model_divisors"] is True
    assert count["calls"] == 1 and len(taken) == 1


def test_invalid_step_reports_the_first_bad_step():
    # step 0 does not blow up the base point; step 1's satellite names one
    # curve twice, and is checked only after the steps before it
    doc = {"base": "smooth", "steps": [{"kind": "free", "on": 0}, {"kind": "satellite", "on": [0, 0]}]}
    with pytest.raises(InvalidStep) as exc:
        germ.cluster_from_json(doc)
    assert exc.value.index == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["ideal", "--degree", "1"],
        ["mld", "--ideal", "0,0,0", "--lambda", "1"],
        ["classify"],
        ["fingen"],
    ],
)
def test_divisor_and_last_exclude_each_other(capsys, r3_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], r3_file, *argv[1:], "--divisor", "0", "--last"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lct", "--ideal", "2,4", "--pair"],
        ["mld", "--ideal", "2,4", "--lambda", "1", "--pair"],
        ["mld", "--lambda", "1", "--pair"],
    ],
)
def test_pair_excludes_ideal_and_lambda(capsys, tmp_path, argv):
    # a pair file would otherwise be read in place of the options given with it
    c, p = tmp_path / "c.json", tmp_path / "p.json"
    c.write_text(json.dumps(germ.cluster_to_json(germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0))))))
    p.write_text(json.dumps({"ideal": ["1", "2"], "lambda": "1/2"}))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(c), *argv[1:], str(p)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


@pytest.mark.parametrize(
    "pair, code, err",
    [
        ({"ideal": ["1"], "lambda": "1"}, 0, ""),
        ({"ideal": ["1"]}, 1, 'ValueError: "lambda" must be a rational string\n'),
        ({"ideal": ["1"], "lambda": "x"}, 1, "ValueError: not a rational: 'x'\n"),
    ],
)
def test_lct_validates_the_whole_pair_file(capsys, sb_file, tmp_path, pair, code, err):
    # a pair file has one schema, {"ideal", "lambda"}, whichever command reads it
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    got_code, _, got_err = run(capsys, ["lct", sb_file, "--pair", str(path)])
    assert (got_code, got_err) == (code, err)


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--approx"], ["paper-examples", "--approx"], ["lct", "R3", "--ideal", "2,3,6", "--lambda", "99"]],
)
def test_options_without_effect_are_refused(capsys, r3_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([r3_file if a == "R3" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_builds_the_parser_once(capsys, monkeypatch, r3_file):
    assert run(capsys, ["classify", r3_file, "--last"])[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert run(capsys, ["classify", r3_file, "--last"])[0] == 0
    assert built == []


def test_queries_never_build_the_dense_matrix(capsys, monkeypatch, tmp_path):
    calls = 0
    dense = germ.intersection_matrix

    def counting_dense(c):
        nonlocal calls
        calls += 1
        return dense(c)

    monkeypatch.setattr(germ, "intersection_matrix", counting_dense)
    c = germ.build(germ.du_val("D4"), (germ.Satellite((1, 3)), germ.Free(4)))
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(germ.cluster_to_json(c)))
    for argv in (["analyze", "--last"], ["ideal", "--last", "--degree", "5"], ["dot"]):
        assert run(capsys, [argv[0], str(path), *argv[1:]])[0] == 0
    budget = explorer.EnumBudget(
        max_steps=2, bases=(germ.SMOOTH, germ.du_val("A2")), ideal_coeff_bound=1, extension_depth=1
    )
    assert explorer.verify_theorems(budget).counterexample_total() == 0
    assert calls == 0
