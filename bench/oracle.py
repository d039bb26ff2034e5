"""The benchmark's own model of a cluster and the checks made with it.

Everything here is computed from the cluster's step list alone, without
importing germval: the intersection matrix and canonical coefficients
come from simulating the blowups, and thresholds come from unloading.
The checks compare the program's outputs against this model or against
properties the method must have, never against a stored copy of an
earlier output (the one exception is SMOOTH_CLASSES_6, see below).
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from math import lcm

# Number of smooth clusters with at most 6 blowups, up to permuting
# interchangeable free blowups.  Only a stored copy can give it; regenerate
# it from the repository root with
#   PYTHONPATH=src python3 -c "from germval.explorer import EnumBudget, \
#   enumerate_clusters as e; print(sum(1 for _ in e(EnumBudget(max_steps=6))))"
SMOOTH_CLASSES_6 = 236

# Atlas rows sampled per run for the unloading check.
ATLAS_SAMPLE = 200

# -- model ----------------------------------------------------------------


def dynkin_edges(label: str) -> tuple[int, list[tuple[int, int]]]:
    """Rank and edges of the minimal resolution in the documented order."""
    letter, rank = label[0], int(label[1:])
    if letter == "A":
        return rank, [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        path = [(i, i + 1) for i in range(rank - 3)]
        return rank, path + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    if letter == "E":
        return rank, [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    raise ValueError(label)


def model(doc: dict) -> tuple[list[list[int]], list[int]]:
    """Intersection matrix and canonical coefficients of a cluster JSON
    document, by blowing up point after point."""
    base = doc["base"]
    rank, edges = (0, []) if base == "smooth" else dynkin_edges(base["du_val"])
    m = [[-2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    k = [0] * rank
    for step in doc["steps"]:
        on = step["on"]
        refs = [] if on is None else ([on] if step["kind"] == "free" else list(on))
        n = len(m)
        for row in m:
            row.append(0)
        m.append([0] * n + [-1])
        for r in refs:
            m[r][n] = m[n][r] = 1
            m[r][r] -= 1
        if step["kind"] == "satellite":
            a, b = refs
            if m[a][b] != 1:
                raise ValueError(f"curves {a} and {b} do not meet")
            m[a][b] = m[b][a] = 0
        k.append(1 + sum(k[r] for r in refs))
    return m, k


def unload(m, z) -> list[int]:
    """Antinef closure of z: bump any curve met positively until none is."""
    d = list(z)
    n = len(d)
    while True:
        for j in range(n):
            p = sum(m[j][i] * d[i] for i in range(n) if d[i])
            if p > 0:
                d[j] += -(-p // -m[j][j])
                break
        else:
            return d


def times(m, x) -> list:
    return [sum(row[i] * x[i] for i in range(len(x)) if x[i]) for row in m]


def stable_divisor(m, e: int, degree: int) -> list[int] | None:
    """Unloading of degree·E_e when it is numerically trivial off E_e with
    coefficient degree at e (then it equals degree·dstar), else None."""
    z = [0] * len(m)
    z[e] = degree
    d = unload(m, z)
    mx = times(m, d)
    if d[e] != degree or any(mx[j] for j in range(len(d)) if j != e):
        return None
    return d


def unloading_lct(m, k, e: int, cap: int = 10_000) -> tuple[Fraction, int, list[int]]:
    """Asymptotic lct of E_e by unloading alone: the first degree whose
    valuation ideal is degree·dstar, then min (k_j+1)/dstar_j.  Returns
    the threshold, that degree and the divisor."""
    for degree in range(1, cap + 1):
        d = stable_divisor(m, e, degree)
        if d is not None:
            return min(Fraction((k[j] + 1) * degree, d[j]) for j in range(len(d))), degree, d
    raise ValueError(f"no stable degree up to {cap}")


# -- checks ---------------------------------------------------------------


def _verdict_errors(k, e, dstar, gap, verdict, witness) -> list[str]:
    if (gap == 0) != (verdict == "ComputesLct"):
        return [f"verdict {verdict} disagrees with gap {gap}"]
    if verdict == "ComputesLct":
        return [] if witness is None else [f"ComputesLct with witness {witness}"]
    if verdict != "MldObstructed" or witness is None:
        return [f"verdict {verdict} with witness {witness}"]
    w = witness
    if w == e or k[w] > k[e] or Fraction(k[w] + 1) / dstar[w] >= k[e] + 1:
        return [f"witness {w} does not obstruct curve {e}"]
    return []


def check_analyze(cluster_doc: dict, out: dict) -> list[str]:
    """Check one `germval analyze --last -f json` answer."""
    m, k = model(cluster_doc)
    n = len(k)
    e = n - 1
    errs = []
    if out["curve"] != e or out["k"] != k[e]:
        errs.append(f"curve/k {out['curve']}/{out['k']} != {e}/{k[e]}")
        return errs
    dstar = [Fraction(v) for v in out["dstar"]]
    mx = times(m, dstar)
    if len(dstar) != n or dstar[e] != 1 or any(mx[j] for j in range(n) if j != e) or mx[e] >= 0:
        errs.append("dstar is not the normalized column of the inverse")
        return errs
    m0 = out["fingen_degree"]
    if m0 != lcm(*(v.denominator for v in dstar)):
        errs.append(f"fingen_degree {m0} is not the least degree with integral dstar")
    ratios = [Fraction(k[j] + 1) / dstar[j] for j in range(n)]
    lct = min(ratios)
    gap = k[e] + 1 - lct
    if Fraction(out["lct"]) != lct or Fraction(out["gap"]) != gap:
        errs.append(f"lct/gap {out['lct']}/{out['gap']} != {lct}/{gap}")
    if out["argmin"] != [j for j in range(n) if ratios[j] == lct]:
        errs.append("argmin")
    if Fraction(out["prime_blowup_lct"]) != lct - k[e]:
        errs.append("prime_blowup_lct")
    if out["computes_lct"] != (gap == 0):
        errs.append("computes_lct")
    if out["plt_over_model_divisors"] != all(ratios[f] > k[e] + 1 for f in range(n) if f != e):
        errs.append("plt_over_model_divisors")
    expected_ideal = [str(int(v * m0)) for v in dstar] if gap == 0 else None
    if out["witness_ideal"] != expected_ideal:
        errs.append("witness_ideal")
    return errs + _verdict_errors(k, e, dstar, gap, out["verdict"], out["witness"])


def check_atlas_row(row: dict) -> list[str]:
    """Check one atlas CSV row by unloading at its finite-generation degree."""
    base = row["base"]
    doc = {"base": base if base == "smooth" else {"du_val": base}, "steps": json.loads(row["steps"])}
    m, k = model(doc)
    e, m0 = int(row["curve"]), int(row["fingen_degree"])
    if int(row["k"]) != k[e]:
        return [f"k {row['k']} != {k[e]}"]
    d = stable_divisor(m, e, m0)
    if d is None:
        return [f"degree {m0} does not generate the graded sequence"]
    dstar = [Fraction(v, m0) for v in d]
    if lcm(*(v.denominator for v in dstar)) != m0:
        return [f"degree {m0} is not the least stable degree"]
    lct = min(Fraction(k[j] + 1) / dstar[j] for j in range(len(d)))
    gap = k[e] + 1 - lct
    if Fraction(row["lct"]) != lct or Fraction(row["gap"]) != gap:
        return [f"lct/gap {row['lct']}/{row['gap']} != {lct}/{gap}"]
    witness = int(row["witness"]) if row["witness"] else None
    return _verdict_errors(k, e, dstar, gap, row["verdict"], witness)


def check_report(doc: dict) -> list[str]:
    """A theorem sweep's report: no counterexamples, every suite the budget
    exercises checked at least once, and one check per curve in the
    per-curve suites."""
    errs = []
    if doc["total_counterexamples"] != 0:
        errs.append(f"{doc['total_counterexamples']} counterexamples")
    depth = doc["budget"]["extension_depth"]
    checked = {s["name"]: s["checked"] for s in doc["suites"]}
    for name, count in checked.items():
        if count == 0 and not (name == "mld_extension_guard" and depth == 0):
            errs.append(f"suite {name} checked nothing")
    curves = doc["counts"]["curves"]
    if not checked["dstar_unit"] == checked["classification_decisive"] == curves:
        errs.append("dstar_unit/classification_decisive/curves counts differ")
    return errs


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_enumerate(cli_out: dict, atlas_path, extremal_path, report_path, seed: int) -> list[str]:
    """The enumerate-report outputs: class count, report, extremal ranking
    and a seeded sample of atlas rows checked by unloading."""
    rows = read_csv(atlas_path)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    errs = check_report(report)
    if not cli_out["clusters"] == report["counts"]["clusters"] == SMOOTH_CLASSES_6:
        errs.append(f"{cli_out['clusters']} classes, expected {SMOOTH_CLASSES_6}")
    if not cli_out["rows"] == len(rows) == report["counts"]["curves"]:
        errs.append("atlas rows, CLI rows and report curves differ")
    extremal = read_csv(extremal_path)
    gaps = [Fraction(r["gap"]) for r in extremal]
    same_rows = sorted(tuple(r.values()) for r in extremal) == sorted(tuple(r.values()) for r in rows)
    if not same_rows or gaps != sorted(gaps, reverse=True):
        errs.append("extremal CSV is not the atlas ranked by gap")
    for i in sorted(random.Random(seed).sample(range(len(rows)), min(ATLAS_SAMPLE, len(rows)))):
        errs += [f"atlas row {i}: {x}" for x in check_atlas_row(rows[i])]
    return errs
