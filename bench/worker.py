"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED ROUND OUT_DIR TRACE

Run by run.py with PYTHONPATH=src.  Set-up imports germval, makes the
inputs from the seed and writes them under OUT_DIR; it ends at the
`ready` timestamp (time.monotonic, which all processes share).  Each
operation is one call into germval's public API or CLI, timed from here.
Every round runs the same operations, in an order drawn from the seed
and the round number, so that no operation always runs with the same
cache contents behind it.  Outputs are written under OUT_DIR after the
last operation.  The last line of stdout is a JSON summary with each
operation's time, in operation order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle
from germval import cli, explorer, germ

DUVAL_BASES = ("A1", "A2", "A3", "D4", "E6", "E7")
STREAM_QUERIES = 60
STREAM_SIZES = (20, 100)  # curves per cluster, smallest and largest
STREAM_SHAPE_SEED = 0
STREAM_SATELLITE_SHARE = 0.3
STREAM_DUVAL_TYPES = ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8")
ENUMERATE_ARGS = (
    "enumerate --max-steps 6 --bases smooth --ideal-bound 1 --lambda-bound 12 "
    "--extension-depth 2 --jobs 1 -f json"
).split()


def stream_cluster(rng: random.Random, curves: int, duval: str | None) -> dict:
    """A cluster JSON document with the given number of curves.  The
    generator keeps its own set of meeting curves, so it needs no germval
    call: free steps land on the newest curve half of the time and on a
    uniform curve otherwise, and a fixed share of steps are satellites at
    a uniform meeting pair."""
    rank, edges = (0, []) if duval is None else oracle.dynkin_edges(duval)
    meets = set(edges)
    steps = [{"kind": "free", "on": None}] if duval is None else []
    total = curves - rank
    satellites = set(rng.sample(range(2, total), round(STREAM_SATELLITE_SHARE * total)))
    while len(steps) < total:
        new = rank + len(steps)
        if len(steps) in satellites:
            a, b = rng.choice(sorted(meets))
            meets -= {(a, b)}
            meets |= {(a, new), (b, new)}
            steps.append({"kind": "satellite", "on": [a, b]})
        else:
            on = new - 1 if rng.random() < 0.5 else rng.randrange(new)
            meets.add((on, new))
            steps.append({"kind": "free", "on": on})
    return {"base": "smooth" if duval is None else {"du_val": duval}, "steps": steps}


def renumber(rng: random.Random, doc: dict) -> dict:
    """The same cluster with its blowups in another order: a random order
    that keeps every curve after the curves it is blown up on, with the
    last blowup kept last, so `--last` still names the same divisor.  A
    satellite stays legal, since only its own step ends the meeting of
    its two curves."""
    base = doc["base"]
    rank = 0 if base == "smooth" else oracle.dynkin_edges(base["du_val"])[0]
    steps = doc["steps"]
    last = len(steps) - 1
    waiting = [0] * len(steps)  # parents of each step not yet placed
    users: dict[int, list[int]] = {}
    for i, s in enumerate(steps):
        refs = [] if s["on"] is None else ([s["on"]] if s["kind"] == "free" else s["on"])
        for r in refs:
            if r >= rank:
                waiting[i] += 1
                users.setdefault(r, []).append(i)
    new_id = {i: i for i in range(rank)}
    order: list[int] = []
    ready = [i for i in range(last) if waiting[i] == 0]
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        new_id[rank + i] = rank + len(order)
        order.append(i)
        for j in users.get(rank + i, ()):
            waiting[j] -= 1
            if waiting[j] == 0 and j != last:
                ready.append(j)
    new_id[rank + last] = rank + last
    order.append(last)
    out = []
    for i in order:
        on = steps[i]["on"]
        if steps[i]["kind"] == "free":
            out.append({"kind": "free", "on": None if on is None else new_id[on]})
        else:
            out.append({"kind": "satellite", "on": sorted(new_id[r] for r in on)})
    return {"base": base, "steps": out}


def stream_docs(seed: int) -> list[dict]:
    """The analyze-stream queries.  Their shapes come from STREAM_SHAPE_SEED:
    sizes evenly spread over STREAM_SIZES, every third cluster over a du Val
    base.  The run's seed picks the numbering of each cluster's blowups."""
    shapes = random.Random(STREAM_SHAPE_SEED)
    lo, hi = STREAM_SIZES
    docs = []
    for i in range(STREAM_QUERIES):
        size = lo + round((hi - lo) * i / (STREAM_QUERIES - 1))
        duval = shapes.choice(STREAM_DUVAL_TYPES) if i % 3 == 1 else None
        docs.append(stream_cluster(shapes, size, duval))
    rng = random.Random(seed)
    return [renumber(rng, d) for d in docs]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def setup(workload: str, seed: int, out: Path) -> list:
    """Make the inputs; return the operations as zero-argument callables
    returning (exit code, output text, output file name)."""
    if workload == "sweep-duval":
        def sweep(label):
            budget = explorer.EnumBudget(
                max_steps=2, bases=(germ.du_val(label),), ideal_coeff_bound=1, lambda_denominator_bound=4
            )
            doc = explorer.verify_theorems(budget).to_json()
            return 0, json.dumps(doc, sort_keys=True, indent=2), f"report-{label}.json"

        return [lambda b=b: sweep(b) for b in DUVAL_BASES]
    if workload == "enumerate-report":
        files = [f"--{name}={out / f'{name}.csv'}" for name in ("atlas", "extremal")]
        argv = ENUMERATE_ARGS + files + [f"--report={out / 'report.json'}"]
        return [lambda: (*run_cli(argv), "cli.json")]
    if workload == "analyze-stream":
        ops = []
        for i, doc in enumerate(stream_docs(seed)):
            path = out / f"cluster-{i:02d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["analyze", str(path), "--last", "-f", "json"]
            ops.append(lambda argv=argv, i=i: (*run_cli(argv), f"analyze-{i:02d}.json"))
        return ops
    raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    workload, seed, round_, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    trace = sys.argv[5] == "1"
    out.mkdir(parents=True, exist_ok=True)
    ops = setup(workload, seed, out)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    order = list(range(len(ops)))
    random.Random(f"{seed}/{round_}").shuffle(order)
    op_s, codes, outputs = [0.0] * len(ops), [0] * len(ops), [("", None)] * len(ops)
    start = time.perf_counter()
    for i in order:
        t = time.perf_counter()
        try:
            code, text, name = ops[i]()
        except Exception:  # a failed operation is counted, and the round goes on
            traceback.print_exc()
            code, text, name = 1, "", None
        op_s[i] = time.perf_counter() - t
        codes[i] = code
        outputs[i] = (text, name)
    wall = time.perf_counter() - start

    for text, name in outputs:
        if name is not None:
            (out / name).write_text(text, encoding="utf-8")
    summary = {
        "ready": ready,
        "wall_s": wall,
        "op_s": op_s,
        "codes": codes,
        "failed": sum(1 for c in codes if c != 0),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary["trace"] = tracer.stats()
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
