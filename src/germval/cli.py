"""Command-line front end.

Exit codes: 0 on success, 1 on validation errors (diagnostic on stderr),
2 on usage errors.  All numbers in reports are exact rational strings;
decimal output only appears behind --approx and is labeled as an
approximation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from math import gcd

from . import explorer, germ, thresholds, valuation
from .errors import GermvalError
from .exact import format_rational, parse_rational
from .thresholds import format_value


# -- built-in fixtures ----------------------------------------------------


def single_blowup() -> germ.Cluster:
    return germ.build(germ.SMOOTH, (germ.Free(None),))


def satellite_chain(r: int) -> germ.Cluster:
    """Chain of r blowups: a free point, a free point on its curve, the
    satellite of the first two curves, then free points continuing the
    chain.  The final curve meets only its predecessor."""
    if r < 3:
        raise ValueError("the satellite chain needs r >= 3")
    steps = [germ.Free(None), germ.Free(0), germ.Satellite((0, 1))]
    steps += [germ.Free(i) for i in range(2, r - 1)]
    return germ.build(germ.SMOOTH, steps)


def _fixture(name: str, expected: dict, got: dict, note: str = "", **extra) -> dict:
    row = {"fixture": name, "expected": expected, "got": got, "pass": got == expected}
    return {**row, "note": note, **extra}


def paper_examples() -> list[dict]:
    """Built-in reference fixtures with frozen expected values.

    The asymptotic lct of the last curve of ``satellite_chain(r)`` is
    5(r+3)/6 = (k2+1)/dstar2, attained only at E2, for every r >= 3.  The
    satellite-chain rows also record the value 6(r+2)/(r+3) for
    comparison; it is not the threshold of this family, and agrees with it
    only at r = 3.
    """
    c = single_blowup()
    cl = thresholds.classify(c, 0)
    trivial = thresholds.PairSpec((0,), Fraction(1))
    got = {
        "lct": format_value(cl.lct),
        "verdict": cl.verdict,
        "mld_trivial_pair": format_value(thresholds.mld_at_origin(c, trivial)),
    }
    expected = {"lct": "2", "verdict": "ComputesLct", "mld_trivial_pair": "2"}
    rows = [_fixture("single-blowup", expected, got)]

    for r in range(3, 9):
        c = satellite_chain(r)
        e = r - 1
        cl = thresholds.classify(c, e)
        closed_form = Fraction(6 * (r + 2), r + 3)
        got = {
            "ideal": [str(v) for v in valuation.valuation_ideal(c, e, r + 3)],
            "fingen_degree": valuation.fingen_degree(c, e),
            "verdict": cl.verdict,
            "witness": cl.witness,
        }
        expected = {
            "ideal": [str(v) for v in [2, 3] + [i + 4 for i in range(2, r)]],
            "fingen_degree": r + 3,
            "verdict": "ComputesLct" if r == 3 else "MldObstructed",
            "witness": None if r == 3 else 2,
        }
        note = ""
        if cl.lct != closed_form:
            note = (
                f"closed-form value {format_rational(closed_form)} recorded for "
                f"comparison; computed threshold is {format_value(cl.lct)}"
            )
        rows.append(
            _fixture(
                f"satellite-chain r={r}", expected, got, note,
                lct=format_value(cl.lct), closed_form=format_rational(closed_form),
            )
        )

    c = germ.build(germ.du_val("E7"), ())
    trivial = thresholds.PairSpec((0,) * 7, Fraction(1))
    lct_subset = [e for e in range(7) if thresholds.classify(c, e).gap == 0]
    got = {
        "mld_trivial_pair": format_value(thresholds.mld_at_origin(c, trivial)),
        "mld_computers": [e for e in range(7) if thresholds.computes_mld(c, e, trivial)],
        "lct_subset_proper_nonempty": 0 < len(lct_subset) < 7,
    }
    expected = {
        "mld_trivial_pair": "1",
        "mld_computers": list(range(7)),
        "lct_subset_proper_nonempty": True,
    }
    note = (
        "every minimal-resolution curve computes the trivial-pair mld; "
        "only a proper subset computes an lct"
    )
    rows.append(_fixture("du-val-E7", expected, got, note, lct_subset=lct_subset))
    return rows


# -- output helpers -------------------------------------------------------


def _approx_of(value):
    """Decimal approximation of a rational string or a list of them; None
    when there is none, or when a value is beyond the float range."""
    values = [value] if isinstance(value, str) else value
    if not (isinstance(values, list) and values and all(isinstance(v, str) for v in values)):
        return None
    try:
        approx = [float(Fraction(v)) for v in values]
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return approx if values is value else approx[0]


def _render_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def emit(doc: dict, fmt: str, approx: bool = False) -> None:
    if fmt == "json":
        if approx:
            labeled = {k: a for k, v in doc.items() if (a := _approx_of(v)) is not None}
            if labeled:
                doc = {**doc, "approx": labeled}
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    for key, value in doc.items():
        line = f"{key} = {_render_text(value)}"
        if approx and (a := _approx_of(value)) is not None:
            line += f"   (approx {a})"
        print(line)


def _pick_curve(args, c: germ.Cluster) -> int:
    if args.last:
        if not c.steps:
            raise ValueError("--last needs at least one blowup step")
        return c.curve_count() - 1
    if args.divisor is None:
        raise ValueError("select a curve with --divisor or --last")
    return args.divisor


def _column_doc(c: germ.Cluster, e: int) -> dict:
    """The curve, its k, and dstar and m0 read off its column w = m0·dstar:
    each entry of dstar is v/m0 reduced by one gcd, as ``format_rational``
    writes it, with no Fraction built."""
    w = valuation.fingen_ideal(c, e)
    m0 = w[e]
    dstar = [str(v // m0) if (g := gcd(v, m0)) == m0 else f"{v // g}/{m0 // g}" for v in w]
    return {"curve": e, "k": germ.canonical_vector(c)[e], "dstar": dstar, "fingen_degree": m0}


def _parse_pair(args, c: germ.Cluster) -> thresholds.PairSpec:
    """The pair of the --pair file, or of --ideal and --lambda; a command
    without --lambda (lct) reads its ideal at exponent 0."""
    if args.pair:
        return thresholds.pair_from_json(c, germ.read_json(args.pair))
    lam = getattr(args, "lam", "0")
    if args.ideal is None or lam is None:
        need = "--ideal and --lambda," if "lam" in args else "--ideal coefficients"
        raise ValueError(f"provide {need} or a --pair file")
    coeffs = [parse_rational(v) for v in args.ideal.split(",")]
    return thresholds.pair_spec(c, coeffs, parse_rational(lam))


# -- subcommands ----------------------------------------------------------
#
# A cluster query builds its document from the parsed arguments and the
# cluster; ``run_query`` loads the cluster file and prints the document.


def run_query(args) -> int:
    emit(args.build(args, germ.cluster_from_file(args.cluster)), args.format, args.approx)
    return 0


def cmd_analyze(args, c: germ.Cluster) -> dict:
    e = _pick_curve(args, c)
    cl = thresholds.classify(c, e)
    k = germ.canonical_vector(c)[e]
    # a curve computing an lct is witnessed by its valuation ideal of degree
    # m0, which unloading from the stored column m0·dstar returns unchanged
    witness = valuation.valuation_ideal(c, e, valuation.fingen_degree(c, e)) if cl.gap == 0 else None
    return {
        "base": c.base.label,
        **_column_doc(c, e),
        "lct": format_value(cl.lct),
        "argmin": sorted(cl.argmin),
        "gap": format_rational(cl.gap),
        "prime_blowup_lct": format_rational(cl.lct - k),  # the one-divisor model's threshold
        "computes_lct": cl.gap == 0,
        "plt_over_model_divisors": cl.argmin == {e},  # E's own ratio is k+1
        "verdict": cl.verdict,
        "witness": cl.witness,
        "witness_ideal": None if witness is None else [str(v) for v in witness],
    }


def cmd_lct(args, c: germ.Cluster) -> dict:
    ideal = _parse_pair(args, c).ideal
    report = thresholds.lct_ideal(c, ideal)
    return {
        "ideal": [str(v) for v in ideal],
        "value": format_value(report.value),
        "argmin": sorted(report.argmin),
        "unique_lc_place": min(report.argmin) if len(report.argmin) == 1 else None,
    }


def cmd_ideal(args, c: germ.Cluster) -> dict:
    e = _pick_curve(args, c)
    coeffs = valuation.valuation_ideal(c, e, args.degree)
    return {
        "curve": e,
        "m": args.degree,
        "coefficients": [str(v) for v in coeffs],
        "rees_valuations": sorted(valuation.rees_valuations(c, coeffs)),
    }


def cmd_mld(args, c: germ.Cluster) -> dict:
    pair = _parse_pair(args, c)
    doc = {
        "ideal": [str(v) for v in pair.ideal],
        "lambda": format_rational(pair.lam),
        "mld": format_value(thresholds.mld_at_origin(c, pair)),
    }
    if args.divisor is not None or args.last:
        e = _pick_curve(args, c)
        doc["divisor"] = e
        doc["log_discrepancy"] = format_rational(thresholds.log_discrepancy(c, pair, e))
        doc["computes_mld"] = thresholds.computes_mld(c, e, pair)
    return doc


def cmd_classify(args, c: germ.Cluster) -> dict:
    e = _pick_curve(args, c)
    cl = thresholds.classify(c, e)
    return {
        "curve": e,
        "verdict": cl.verdict,
        "witness": cl.witness,
        "lct": format_value(cl.lct),
        "gap": format_rational(cl.gap),
        # the threshold is attained at an ancestor; only ancestors are listed
        "argmin": sorted(cl.argmin & germ.ancestor_curves(c, e)),
    }


def cmd_fingen(args, c: germ.Cluster) -> dict:
    e = _pick_curve(args, c)
    return {**_column_doc(c, e), "ideal_at_degree": [str(v) for v in valuation.fingen_ideal(c, e)]}


def cmd_dot(args) -> int:
    c = germ.cluster_from_file(args.cluster)
    text = germ.to_dot(c)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_bases(arg: str) -> tuple[germ.BaseGerm, ...]:
    out = []
    for label in (s.strip() for s in arg.split(",")):
        if not label:
            continue
        out.append(germ.SMOOTH if label.lower() == "smooth" else germ.du_val(label))
    if not out:
        raise ValueError("no bases given")
    return tuple(out)


def cmd_enumerate(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    budget = explorer.EnumBudget(
        max_steps=args.max_steps,
        bases=_parse_bases(args.bases),
        ideal_coeff_bound=args.ideal_bound,
        lambda_denominator_bound=args.lambda_bound,
        extension_depth=args.extension_depth,
    )
    outputs = [os.path.realpath(path) for path in (args.atlas, args.extremal, args.report) if path]
    if len(set(outputs)) < len(outputs):
        raise ValueError("--atlas, --extremal and --report must name different files")
    with contextlib.ExitStack() as stack:
        # every output is opened before the run, so a bad path fails at once
        atlas, extremal, out = (
            stack.enter_context(open(path, "w", newline=newline, encoding="utf-8")) if path else None
            for path, newline in ((args.atlas, ""), (args.extremal, ""), (args.report, None))
        )
        # The sweep builds every atlas row itself; only without it is the
        # atlas computed on its own.
        report = explorer.verify_theorems(budget) if out is not None else None
        rows = report.rows if report is not None else explorer.atlas_rows(budget)
        cells = explorer.atlas_cells(rows) if atlas or extremal else None
        if atlas is not None:
            explorer.write_atlas_csv(rows, atlas, cells)
        if extremal is not None:
            explorer.write_atlas_csv(explorer.rank_by_gap(rows), extremal, cells)
        if out is not None:
            json.dump(report.to_json(), out, sort_keys=True, indent=2)
            out.write("\n")
    doc = {
        "clusters": len({r.enum_index for r in rows}),
        "rows": len(rows),
    }
    if report is not None:
        doc["counterexamples"] = report.counterexample_total()
    emit(doc, args.format)
    return 0


def cmd_paper_examples(args) -> int:
    rows = paper_examples()
    if args.format == "json":
        print(json.dumps({"fixtures": rows}, sort_keys=True, indent=2))
    else:
        for row in rows:
            status = "pass" if row["pass"] else "FAIL"
            print(f"[{status}] {row['fixture']}")
            for key in ("expected", "got"):
                print(f"    {key}: {_render_text(row[key])}")
            if row.get("lct") is not None:
                extra = f"    lct: {row['lct']}"
                if row.get("closed_form"):
                    extra += f"   closed_form: {row['closed_form']}"
                print(extra)
            if row["note"]:
                print(f"    note: {row['note']}")
        failed = sum(1 for r in rows if not r["pass"])
        print(f"{len(rows) - failed}/{len(rows)} fixtures passed")
    return 0 if all(r["pass"] for r in rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, binding each ``cmd_*`` function as it stands then."""
    parser = argparse.ArgumentParser(
        prog="germval",
        description="Exact thresholds and discrepancies of divisorial "
        "valuations over smooth and du Val surface germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", "-f", choices=("text", "json"), default="text")
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("cluster", help="cluster JSON file")
    divisor = argparse.ArgumentParser(add_help=False)
    pick = divisor.add_mutually_exclusive_group()
    pick.add_argument("--divisor", "-d", type=int, default=None, help="curve id")
    pick.add_argument("--last", action="store_true", help="select the final blowup's curve")
    pair = argparse.ArgumentParser(add_help=False)
    source = pair.add_mutually_exclusive_group()
    source.add_argument("--ideal", default=None, help="comma-separated coefficients")
    source.add_argument("--pair", default=None, help="pair JSON file")

    def query(name, build, parents, summary):
        p = sub.add_parser(name, parents=[cluster, *parents, fmt], help=summary)
        p.add_argument("--approx", action="store_true", help="also print labeled decimal approximations")
        p.set_defaults(func=run_query, build=build)
        return p

    query("analyze", cmd_analyze, [divisor], "full valuation and threshold report for one curve")
    query("lct", cmd_lct, [pair], "log canonical threshold of a complete ideal")
    p = query("ideal", cmd_ideal, [divisor], "valuation ideal of a curve at a given degree")
    p.add_argument("--degree", "-m", type=int, required=True)
    p = query("mld", cmd_mld, [pair, divisor], "minimal log discrepancy of a pair at the point")
    p.add_argument("--lambda", dest="lam", default=None, help="exponent p/q")
    query("classify", cmd_classify, [divisor], "computes-an-lct / mld-obstructed verdict")
    query("fingen", cmd_fingen, [divisor], "finite-generation degree and multiplicities")
    p = sub.add_parser("dot", parents=[cluster],
                       help="emit the dual graph in DOT format")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_dot)
    p = sub.add_parser("enumerate", parents=[fmt],
                       help="enumerate clusters, write atlas CSV and reports")
    p.add_argument("--max-steps", type=int, default=explorer.EnumBudget.max_steps)
    p.add_argument("--bases", default="smooth", help="comma list: smooth,A1,...,E8")
    p.add_argument("--ideal-bound", type=int, default=explorer.EnumBudget.ideal_coeff_bound)
    p.add_argument("--lambda-bound", type=int, default=explorer.EnumBudget.lambda_denominator_bound)
    p.add_argument("--extension-depth", type=int, default=explorer.EnumBudget.extension_depth)
    p.add_argument("--atlas", default=None, help="atlas CSV path")
    p.add_argument("--extremal", default=None, help="gap-ranked CSV path")
    p.add_argument("--report", default=None, help="verification report JSON path")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (N >= 1); has no effect")
    p.set_defaults(func=cmd_enumerate)
    p = sub.add_parser("paper-examples", parents=[fmt],
                       help="run the built-in reference fixtures")
    p.set_defaults(func=cmd_paper_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "mld" and args.pair is not None and args.lam is not None:
        build_parser().error("argument --lambda: not allowed with argument --pair")
    try:
        return args.func(args)
    except (GermvalError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
