"""Command-line surface: element tables, discretizations, searches, checks.

Every number on stdout goes through the exact round-half-even renderer and
all orderings are fixed, so re-running a command is byte-identical.  Exit
codes: 0 success or PASS, 1 check FAIL, 2 usage error or a comparison
past the precision budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .discretize import discretize
from .exactnum import PrecisionBudgetExceeded, scale
from .molds import (
    FractalMold,
    PeriodSpec,
    golden_fractal_mold,
    golden_period_spec,
    metric_mold,
    mold_d,
    mold_q,
    perfect_fractal_mold,
)
from .render import render_compact, render_decimal, render_exact
from .semigroups import (
    _even_filterable,
    _first_repeat,
    from_discretization,
    genus_multiplicity,
    verify_semigroup,
)
from .theorems import (
    EVEN_FILTERABLE_MULTIPLICITIES,
    FEASIBLE_MULTIPLICITIES,
    TAIL_START,
    WELL_TEMPERED_H,
    h_uniqueness,
    multiplicity_census,
    even_filterable_census,
    simultaneous_search,
    tail_certificate,
)

SEARCH_BOUND = 34
TAIL_END = 200


def _emit(lines, args) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _render(value, args) -> str:
    if args.exact:
        return render_exact(value)
    return render_compact(value, args.precision)


def _semigroup_text(s) -> str:
    inner = ", ".join(str(n) for n in s.prefix)
    return "{" + inner + "} and every n >= " + str(s.conductor)


def _report_dict(report) -> dict:
    return {
        "property": report.property,
        "verdict": report.verdict,
        "prefix_bound": report.prefix_bound,
        "witness": list(report.witness) if report.witness is not None else None,
        "detail": report.detail,
    }


def _report_text(report) -> str:
    if report.detail:
        return f"{report.verdict} ({report.detail})"
    return report.verdict


def _pick_mold(args, parser):
    if args.mold == "perfect":
        if args.granularity is None:
            parser.error("--granularity is required with --mold perfect")
        try:
            return perfect_fractal_mold(args.granularity)
        except ValueError as exc:
            parser.error(str(exc))
    if args.granularity is not None:
        parser.error("--granularity only applies to --mold perfect")
    return {"L": metric_mold, "F": golden_fractal_mold,
            "Q": mold_q, "D": mold_d}[args.mold]()


def _mold_label(args) -> str:
    if args.mold == "perfect":
        return f"perfect-{args.granularity}"
    return args.mold


def _cmd_mold_show(args, parser) -> int:
    if args.count < 1:
        parser.error("--count must be at least 1")
    mold = _pick_mold(args, parser)
    rendered = [_render(mold.element(i), args) for i in range(args.count)]
    if args.format == "text":
        lines = [", ".join(rendered)]
    elif args.format == "csv":
        lines = ["i,mu_i"] + [f"{i},{v}" for i, v in enumerate(rendered)]
    else:
        lines = [_dump_json({"mold": _mold_label(args), "count": args.count,
                             "elements": rendered})]
    _emit(lines, args)
    return 0


def _cmd_table(args, parser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.m not in (9, 11, 12, 13, 18):
        print(f"note: no reference table covers m={args.m}; "
              f"emitting computed values", file=sys.stderr)
    lmold = metric_mold()
    fmold = golden_fractal_mold()
    rows = []
    for i in range(args.count):
        lam = render_decimal(scale(lmold.element(i), args.m), args.precision)
        phi = render_decimal(scale(fmold.element(i), args.m), args.precision)
        rows.append((i, lam, phi))
    if args.format == "text":
        lines = ["i m_lambda_i m_phi_i"]
        lines += [f"{i} {lam} {phi}" for i, lam, phi in rows]
    elif args.format == "csv":
        lines = ["i,m_lambda_i,m_phi_i"]
        lines += [f"{i},{lam},{phi}" for i, lam, phi in rows]
    else:
        lines = [_dump_json({"m": args.m, "rows": [
            {"i": i, "m_lambda_i": lam, "m_phi_i": phi}
            for i, lam, phi in rows]})]
    _emit(lines, args)
    return 0


def _parse_alpha(text: str, parser) -> Fraction:
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"invalid alpha {text!r}")
    if not 0 <= alpha <= 1:
        parser.error("alpha must lie in [0, 1]")
    return alpha


def _cmd_discretize(args, parser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    mold = _pick_mold(args, parser)
    alpha = _parse_alpha(args.alpha, parser)
    try:
        d = discretize(mold, args.m, alpha)
    except PrecisionBudgetExceeded:
        raise
    except ValueError as exc:
        parser.error(str(exc))
    s = from_discretization(d)
    verification = verify_semigroup(d)
    record = _first_repeat(d)
    even = _even_filterable(d)
    _, genus, multiplicity = genus_multiplicity(s)
    if args.format == "json":
        lines = [_dump_json({
            "mold": _mold_label(args),
            "multiplicity": args.m,
            "alpha": str(alpha),
            "prefix": list(s.prefix),
            "conductor": s.conductor,
            "genus": genus,
            "verification": _report_dict(verification),
            "collapse": {"kappa": record.kappa,
                         "witness_index": record.witness_index},
            "even_filterable": _report_dict(even),
        })]
    elif args.format == "csv":
        lines = [
            "field,value",
            f"mold,{_mold_label(args)}",
            f"multiplicity,{args.m}",
            f"alpha,{alpha}",
            "prefix," + " ".join(str(n) for n in s.prefix),
            f"conductor,{s.conductor}",
            f"genus,{genus}",
            f"verification,{verification.verdict}",
            f"verification_detail,{verification.detail}",
            f"collapse,{record.kappa}",
            f"collapse_witness_index,{record.witness_index}",
            f"even_filterable,{even.verdict}",
            f"even_filterable_detail,{even.detail}",
        ]
    else:
        lines = [
            f"semigroup: {_semigroup_text(s)}",
            f"multiplicity: {multiplicity}",
            f"genus: {genus}",
            f"verification: {_report_text(verification)}",
            f"collapse: {record.kappa} at index {record.witness_index}",
            f"even-filterable: {_report_text(even)}",
        ]
    _emit(lines, args)
    return 0


def _interval_ends(interval, args) -> tuple[str, str]:
    if args.exact:
        return render_exact(interval.lower), render_exact(interval.upper)
    return (render_decimal(interval.lower, args.precision),
            render_decimal(interval.upper, args.precision))


def _interval_text(interval, args) -> str:
    if interval.is_ceiling_point:
        return "[0, 0]"
    lo, hi = _interval_ends(interval, args)
    return f"({lo}, {hi}]"


def _interval_dict(interval, args) -> dict:
    if interval.is_ceiling_point:
        return {"ceiling_point": True, "lower": "0", "upper": "0"}
    lo, hi = _interval_ends(interval, args)
    return {"ceiling_point": False, "lower": lo, "upper": hi}


def _cmd_search(args, parser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    matches = simultaneous_search(args.m)
    if args.format == "json":
        lines = [_dump_json({"m": args.m, "matches": [
            {
                "interval_L": _interval_dict(mt.interval_L, args),
                "interval_F": _interval_dict(mt.interval_F, args),
                "prefix": list(mt.semigroup.prefix),
                "conductor": mt.semigroup.conductor,
                "even_filterable": [r.verdict for r in mt.even_filterable],
            }
            for mt in matches]})]
    elif args.format == "csv":
        lines = ["index,interval_L,interval_F,conductor,prefix,even_L,even_F"]
        for i, mt in enumerate(matches):
            prefix = " ".join(str(n) for n in mt.semigroup.prefix)
            il = _interval_text(mt.interval_L, args).replace(", ", "..")
            jf = _interval_text(mt.interval_F, args).replace(", ", "..")
            lines.append(f"{i},{il},{jf},{mt.semigroup.conductor},{prefix},"
                         f"{mt.even_filterable[0].verdict},"
                         f"{mt.even_filterable[1].verdict}")
    else:
        lines = [f"matches: {len(matches)}"]
        for i, mt in enumerate(matches, start=1):
            lines += [
                f"match {i}:",
                f"  interval_L: {_interval_text(mt.interval_L, args)}",
                f"  interval_F: {_interval_text(mt.interval_F, args)}",
                f"  semigroup: {_semigroup_text(mt.semigroup)}",
                f"  even-filterable: {mt.even_filterable[0].verdict} / "
                f"{mt.even_filterable[1].verdict}",
            ]
    _emit(lines, args)
    return 0


def _set_text(values) -> str:
    return " ".join(str(m) for m in sorted(values))


def _cmd_theorem(args, parser) -> int:
    if args.which == 4:
        census = multiplicity_census(SEARCH_BOUND)
        tail_ok = True
        try:
            for m in range(TAIL_START, TAIL_END + 1):
                tail_certificate(m)
        except RuntimeError:
            tail_ok = False
        passed = census == set(FEASIBLE_MULTIPLICITIES) and tail_ok
        verdict = "PASS" if passed else "FAIL"
        if args.format == "json":
            lines = [_dump_json({
                "which": 4,
                "census": sorted(census),
                "tail": {"from": TAIL_START, "to": TAIL_END,
                         "certified": tail_ok},
                "expected": sorted(FEASIBLE_MULTIPLICITIES),
                "verdict": verdict,
            })]
        elif args.format == "csv":
            lines = ["field,value",
                     f"which,4",
                     f"census,{_set_text(census)}",
                     f"tail,{TAIL_START}..{TAIL_END} "
                     f"{'certified' if tail_ok else 'NOT certified'}",
                     f"expected,{_set_text(FEASIBLE_MULTIPLICITIES)}",
                     f"verdict,{verdict}"]
        else:
            lines = [
                "theorem 4",
                f"census({SEARCH_BOUND}): {_set_text(census)}",
                f"tail: {TAIL_START}..{TAIL_END} "
                f"{'certified infeasible' if tail_ok else 'NOT certified'}",
                f"expected: {_set_text(FEASIBLE_MULTIPLICITIES)}",
                f"verdict: {verdict}",
            ]
        _emit(lines, args)
        return 0 if passed else 1
    if args.which == 5:
        census = even_filterable_census(SEARCH_BOUND)
        passed = census == set(EVEN_FILTERABLE_MULTIPLICITIES)
        verdict = "PASS" if passed else "FAIL"
        if args.format == "json":
            lines = [_dump_json({
                "which": 5,
                "census": sorted(census),
                "expected": sorted(EVEN_FILTERABLE_MULTIPLICITIES),
                "verdict": verdict,
            })]
        elif args.format == "csv":
            lines = ["field,value",
                     f"which,5",
                     f"census,{_set_text(census)}",
                     f"expected,{_set_text(EVEN_FILTERABLE_MULTIPLICITIES)}",
                     f"verdict,{verdict}"]
        else:
            lines = [
                "theorem 5",
                f"census({SEARCH_BOUND}): {_set_text(census)}",
                f"expected: {_set_text(EVEN_FILTERABLE_MULTIPLICITIES)}",
                f"verdict: {verdict}",
            ]
        _emit(lines, args)
        return 0 if passed else 1
    # which == 6
    try:
        rep = h_uniqueness()
    except RuntimeError as exc:
        _emit([f"theorem 6", f"error: {exc}", "verdict: FAIL"], args)
        return 1
    even_ok = all(r.holds for r in rep.match.even_filterable)
    passed = (rep.semigroup == WELL_TEMPERED_H
              and rep.collapse_record.kappa == 55
              and all(step.satisfied for step in rep.trace)
              and even_ok)
    verdict = "PASS" if passed else "FAIL"
    if args.format == "json":
        lines = [_dump_json({
            "which": 6,
            "prefix": list(rep.semigroup.prefix),
            "conductor": rep.semigroup.conductor,
            "collapse": {"kappa": rep.collapse_record.kappa,
                         "witness_index": rep.collapse_record.witness_index},
            "trace": [{"constraint": st.constraint, "bound": st.bound,
                       "satisfied": st.satisfied} for st in rep.trace],
            "even_filterable": [r.verdict for r in rep.match.even_filterable],
            "verdict": verdict,
        })]
    elif args.format == "csv":
        lines = ["field,value",
                 f"which,6",
                 "prefix," + " ".join(str(n) for n in rep.semigroup.prefix),
                 f"conductor,{rep.semigroup.conductor}",
                 f"collapse,{rep.collapse_record.kappa}",
                 f"verdict,{verdict}"]
    else:
        lines = [
            "theorem 6",
            f"semigroup: {_semigroup_text(rep.semigroup)}",
            f"collapse: {rep.collapse_record.kappa} at index "
            f"{rep.collapse_record.witness_index}",
        ]
        for step in rep.trace:
            state = "satisfied" if step.satisfied else "NOT satisfied"
            lines.append(f"constraint {step.constraint}: {state} ({step.bound})")
        lines.append(f"even-filterable: {rep.match.even_filterable[0].verdict} "
                     f"/ {rep.match.even_filterable[1].verdict} "
                     f"({rep.match.even_filterable[1].detail})")
        lines.append(f"verdict: {verdict}")
    _emit(lines, args)
    return 0 if passed else 1


def _cmd_fractal_division(args, parser) -> int:
    if not 0 <= args.depth <= 12:
        parser.error("--depth must be between 0 and 12")
    if args.p == "golden":
        spec = golden_period_spec()
        label = "golden"
    else:
        try:
            cut = Fraction(args.p)
        except (ValueError, ZeroDivisionError):
            parser.error(f"invalid proportion {args.p!r}")
        if not 0 < cut < 1:
            parser.error("proportion must lie strictly between 0 and 1")
        spec = PeriodSpec([1, 1 + cut])
        label = str(cut)
    # the cut points are period `depth` of the fractal mold, shifted to [0, 1)
    mold = FractalMold(spec)
    period = mold.elements(mold.start_index(args.depth + 1))[mold.start_index(args.depth):]
    points = [x - args.depth for x in period] + [spec.cuts[0]]
    rendered = [_render(x, args) for x in points]
    if args.format == "text":
        lines = [", ".join(rendered)]
    elif args.format == "csv":
        lines = ["i,cut_i"] + [f"{i},{v}" for i, v in enumerate(rendered)]
    else:
        lines = [_dump_json({"p": label, "depth": args.depth,
                             "points": rendered})]
    _emit(lines, args)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text", help="output format")
    sub.add_argument("--out", default=None, help="write output to a file")
    sub.add_argument("--precision", type=int, default=4,
                     help="decimal places for display (rendering only)")
    sub.add_argument("--exact", action="store_true",
                     help="print exact symbolic forms instead of decimals")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welltempered",
        description="Exact molds of numerical semigroups: tables, "
                    "discretizations, searches, and checks.")
    commands = parser.add_subparsers(dest="command", required=True)

    mold = commands.add_parser("mold", help="mold element listings")
    actions = mold.add_subparsers(dest="action", required=True)
    show = actions.add_parser("show", help="print the first elements of a mold")
    show.add_argument("--mold", required=True,
                      choices=("L", "F", "Q", "D", "perfect"))
    show.add_argument("--granularity", type=int, default=None)
    show.add_argument("--count", type=int, default=12)
    _add_common(show)
    show.set_defaults(handler=_cmd_mold_show)

    table = commands.add_parser(
        "table", help="two-column table of m*lambda_i and m*phi_i")
    table.add_argument("--m", type=int, required=True)
    table.add_argument("--count", type=int, default=51)
    _add_common(table)
    table.set_defaults(handler=_cmd_table)

    disc = commands.add_parser(
        "discretize", help="discretize a mold and report its properties")
    disc.add_argument("--mold", required=True,
                      choices=("L", "F", "Q", "D", "perfect"))
    disc.add_argument("--granularity", type=int, default=None)
    disc.add_argument("--m", type=int, required=True)
    disc.add_argument("--alpha", required=True,
                      help="rounding threshold in [0, 1], decimal or fraction")
    _add_common(disc)
    disc.set_defaults(handler=_cmd_discretize)

    search = commands.add_parser(
        "search", help="simultaneous matches of the metric and golden molds")
    search.add_argument("--m", type=int, required=True)
    _add_common(search)
    search.set_defaults(handler=_cmd_search)

    theorem = commands.add_parser(
        "theorem", help="run a built-in check and report PASS or FAIL")
    theorem.add_argument("--which", type=int, required=True, choices=(4, 5, 6))
    _add_common(theorem)
    theorem.set_defaults(handler=_cmd_theorem)

    division = commands.add_parser(
        "fractal-division", help="cut points of repeated interval subdivision")
    division.add_argument("--p", required=True,
                          help='cut proportion: a rational or "golden"')
    division.add_argument("--depth", type=int, required=True)
    _add_common(division)
    division.set_defaults(handler=_cmd_fractal_division)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.precision <= 12:
        parser.error("precision must be between 0 and 12")
    try:
        return args.handler(args, parser)
    except PrecisionBudgetExceeded as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
