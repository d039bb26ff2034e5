"""Benchmark for germval: three workloads, each round in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Rounds of the workload (see worker.py)
run one after another, each in a new single-threaded interpreter, until
S seconds have passed; every round does the same operations.  After
timing, every round's outputs are compared byte for byte with the first
round's, and the first round's outputs are checked against the
benchmark's own model (oracle.py).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 1, untraced and traced rounds alternate; traced rounds wrap
germval's public functions (tracer.py) and the per-round totals are
written to .bench_work/trace-NAME-sN.json.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-duval", "enumerate-report", "analyze-stream")
ROUND_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it
LATENCY_MIN_OPS = 4 * TAIL_BEYOND

# Per-layer metrics: "<module>.<function>.calls" and ".self_s" for these.
TRACED_CALLS = (
    "valuation.unload",
    "explorer.antinef_ideals",
    "exact.invert_symmetric",
    "valuation.asymptotic_multiplicities",
    "exact.is_negative_definite",
    "exact.leading_principal_minors",
    "germ.build",
    "germ.intersection_matrix",
    "explorer.cluster_signature",
    "thresholds.classify",
    "thresholds.asymptotic_lct",
    "explorer.lambda_grid",
    "explorer.extension_forms",
    "valuation.fingen_degree",
)
TRACED_SELF_ONLY = ("explorer.atlas_rows", "explorer.verify_theorems", "cli.main", "germ.cluster_from_file")


def run_round(workload: str, seed: int, index: int, out: Path, traced: bool, env: dict) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index), str(out), str(int(traced))],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited with code {proc.returncode}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["setup_s"] = summary["ready"] - start
    summary["dir"] = out
    summary["traced"] = traced
    return summary


def same_outputs(first: Path, other: Path) -> bool:
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(first, other, names, shallow=False)
    return not mismatch and not errors


def check_outputs(workload: str, seed: int, out: Path, codes: list[int]) -> list[str]:
    """Oracle checks of one round's outputs, skipping failed operations."""
    if workload == "sweep-duval":
        errs = []
        for path in sorted(out.glob("report-*.json")):
            errs += [f"{path.name}: {e}" for e in oracle.check_report(json.loads(path.read_text()))]
        return errs
    if workload == "enumerate-report":
        if codes[0] != 0:
            return []
        cli_out = json.loads((out / "cli.json").read_text())
        return oracle.check_enumerate(
            cli_out, out / "atlas.csv", out / "extremal.csv", out / "report.json", seed
        )
    errs = []
    for i, code in enumerate(codes):
        if code == 0:
            doc = json.loads((out / f"cluster-{i:02d}.json").read_text())
            answer = json.loads((out / f"analyze-{i:02d}.json").read_text())
            errs += [f"query {i}: {e}" for e in oracle.check_analyze(doc, answer)]
    return errs


def end_to_end(rounds: list[dict]) -> dict:
    """Each operation's time is its median over rounds; wall_s is their sum,
    the latencies are percentiles over operations.  Set-up and memory are
    medians over rounds."""
    op_s = [statistics.median(ts) for ts in zip(*(r["op_s"] for r in rounds))]
    wall = sum(op_s)
    if len(op_s) >= LATENCY_MIN_OPS:
        lat = sorted(op_s)
        p50, tail = statistics.median(lat), lat[-TAIL_BEYOND - 1]
    else:  # too few operations for a percentile: the round is the one request
        p50 = tail = wall
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in rounds) / 1024, "MB"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced round (every traced round must repeat
    them exactly), self times as medians over traced rounds."""
    funcs = [r["trace"]["functions"] for r in traced]
    edges = traced[0]["trace"]["edges"]
    errs = []
    counts = [{n: (f["calls"], f["items"], f["distinct"]) for n, f in fs.items()} for fs in funcs]
    if any(c != counts[0] for c in counts) or any(r["trace"]["edges"] != edges for r in traced):
        errs.append("traced rounds disagree on call counts")

    def stat(name, key):
        return [fs.get(name, {}).get(key, 0) for fs in funcs]

    out = {}
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = (stat(name, "calls")[0], "count")
    for name in TRACED_CALLS + TRACED_SELF_ONLY:
        out[f"{name}.self_s"] = (statistics.median(stat(name, "self_s")), "s")
    unloads = edges.get("explorer.antinef_ideals>valuation.unload", 0)
    ideals = stat("explorer.antinef_ideals", "items")[0]
    out["explorer.antinef_ideals.useful_ratio"] = (ideals / unloads if unloads else 0.0, "ratio")
    out["explorer.enumerate_clusters.yielded"] = (stat("explorer.enumerate_clusters", "items")[0], "count")
    signatures = stat("explorer.cluster_signature", "calls")[0]
    classes = stat("explorer.enumerate_clusters", "distinct")[0]
    out["explorer.signature_useful_ratio"] = (classes / signatures if signatures else 0.0, "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return out, errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "germval" / "__init__.py").is_file():
        print("run from the repository root: src/germval not found", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    # Compile the package's bytecode once, untimed, as an installed copy has it.
    subprocess.run([sys.executable, "-c", "import germval.cli"], env=env, check=True, timeout=60)

    work = root / ".bench_work"
    run_dir = work / f"{args.workload}-s{args.seed}-{os.getpid()}"
    rounds: list[dict] = []
    try:
        deadline = time.monotonic() + args.seconds
        while not rounds or time.monotonic() < deadline or (args.trace and len(rounds) < 2):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            i = len(rounds)
            r = run_round(args.workload, args.seed, i, run_dir / f"r{i}", traced, env)
            rounds.append(r)
            print(
                f"round {len(rounds)}{' traced' if traced else ''}: setup {r['setup_s']:.3f} s, "
                f"wall {r['wall_s']:.3f} s, failed {r['failed']}",
                file=sys.stderr,
            )

        codes = rounds[0]["codes"]
        errs = [f"round {i} failed other operations" for i, r in enumerate(rounds) if r["codes"] != codes]
        errs += [f"round {i} outputs differ" for i, r in enumerate(rounds) if not same_outputs(rounds[0]["dir"], r["dir"])]
        errs += check_outputs(args.workload, args.seed, rounds[0]["dir"], codes)
        plain = [r for r in rounds if not r["traced"]]
        if args.trace:
            traced = [r for r in rounds if r["traced"]]
            metrics, trace_errs = per_layer(plain, traced)
            errs += trace_errs
            work.mkdir(exist_ok=True)
            dump = work / f"trace-{args.workload}-s{args.seed}.json"
            dump.write_text(json.dumps([r["trace"] for r in traced], indent=1, sort_keys=True))
        else:
            metrics = end_to_end(plain)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for e in errs[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errs,
        "attempted": sum(len(r["codes"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
