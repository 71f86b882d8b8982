"""Command-line surface: element tables, discretizations, searches, checks.

Each command handler computes once and returns a `Result` that holds its
output in every format: the text lines, the CSV rows and the JSON payload,
plus the exit code.  `main` alone picks the format and writes, to stdout
or to `--out`, so the three formats cannot drift apart between commands.

Every number on stdout goes through the exact round-half-even renderer and
all orderings are fixed, so re-running a command is byte-identical.  Exit
codes: 0 success or PASS, 1 check FAIL, 2 usage error, a comparison past
the precision budget, or an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .discretize import discretize
from .exactnum import PrecisionBudgetExceeded, scale
from .molds import (
    FractalMold,
    PeriodSpec,
    _Record,
    golden_fractal_mold,
    golden_period_spec,
    metric_mold,
    mold_d,
    mold_q,
    perfect_fractal_mold,
)
from .render import render_compact, render_decimal, render_exact
from .semigroups import (
    collapse,
    even_filterable_semigroup,
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

SEARCH_BOUND = TAIL_START - 1  # searched up to here, the tail covers the rest

# inclusive ranges of the integer flags, checked at parse time (exit 2);
# past the --m and --count ranges a command would run for minutes
_M_RANGE = range(1, 2001)
_COUNT_RANGE = range(1, 10001)
_GRANULARITY_RANGE = range(2, 10001)  # past it, --exact listings run to megabytes
_PLACES_RANGE = range(0, 13)  # --precision and --depth


class Result(_Record):
    """One command's output in every format (text lines, csv rows, a json payload), and
    its exit code.  `main` writes the csv rows with `csv.writer`, which quotes a field
    that holds a comma."""

    _fields = ("text", "csv", "json", "code")
    _defaults = (0,)


def _listing(column: str, meta: dict, key: str, values: list) -> Result:
    """A rendered sequence: one line joined by ", ", an `i,<column>` CSV
    and `{**meta, key: values}`."""
    return Result(text=[", ".join(values)],
                  csv=[("i", column), *enumerate(values)],
                  json={**meta, key: values})


def _verdict(which: int, lines: list, fields: list, payload: dict,
             passed: bool) -> Result:
    """A theorem check as field/value pairs ending in its verdict."""
    verdict = "PASS" if passed else "FAIL"
    return Result(
        text=[f"theorem {which}", *lines, f"verdict: {verdict}"],
        csv=[("field", "value"), ("which", which), *fields, ("verdict", verdict)],
        json={"which": which, **payload, "verdict": verdict},
        code=0 if passed else 1)


def _census(which: int, census, expected, tail_ok: bool | None = None) -> Result:
    """Theorems 4 and 5: the census up to SEARCH_BOUND against the expected
    multiplicities; theorem 4 also reports whether its tail is certified
    (`tail_ok` is None for theorem 5, which has no tail)."""
    census, expected = sorted(census), sorted(expected)
    lines = [f"census({SEARCH_BOUND}): {_spaced(census)}"]
    fields = [("census", _spaced(census))]
    payload = {"census": census, "expected": expected}
    if tail_ok is not None:
        span = f"m >= {TAIL_START}"
        lines.append(f"tail: {span} "
                     f"{'certified infeasible' if tail_ok else 'NOT certified'}")
        fields.append(("tail", f"{span} {'certified' if tail_ok else 'NOT certified'}"))
        payload["tail"] = {"from": TAIL_START, "certified": tail_ok}
    lines.append(f"expected: {_spaced(expected)}")
    fields.append(("expected", _spaced(expected)))
    return _verdict(which, lines, fields, payload,
                    census == expected and tail_ok is not False)


def _render(value, args) -> str:
    if args.exact:
        return render_exact(value)
    return render_compact(value, args.precision)


def _spaced(values) -> str:
    return " ".join(str(n) for n in values)


def _semigroup_text(s) -> str:
    inner = ", ".join(str(n) for n in s.prefix)
    return "{" + inner + "} and every n >= " + str(s.conductor)


def _report_text(report) -> str:
    return f"{report.verdict} ({report.detail})"


def _pick_mold(args, parser) -> tuple:
    """(mold, label) for --mold and --granularity; the label names the mold in output."""
    if args.mold == "perfect":
        if args.granularity is None:
            parser.error("--granularity is required with --mold perfect")
        return perfect_fractal_mold(args.granularity), f"perfect-{args.granularity}"
    if args.granularity is not None:
        parser.error("--granularity only applies to --mold perfect")
    return {"L": metric_mold, "F": golden_fractal_mold,
            "Q": mold_q, "D": mold_d}[args.mold](), args.mold


def _cmd_mold_show(args, parser) -> Result:
    mold, label = _pick_mold(args, parser)
    return _listing("mu_i", {"mold": label, "count": args.count},
                    "elements",
                    [_render(mold.element(i), args) for i in range(args.count)])


def _cmd_table(args, parser) -> Result:
    if args.m not in (9, 11, 12, 13, 18):
        print(f"note: no reference table covers m={args.m}; "
              f"emitting computed values", file=sys.stderr)
    lmold = metric_mold()
    fmold = golden_fractal_mold()
    rows = [("i", "m_lambda_i", "m_phi_i")]
    for i in range(args.count):
        lam = render_decimal(scale(lmold.element(i), args.m), args.precision)
        phi = render_decimal(scale(fmold.element(i), args.m), args.precision)
        rows.append((i, lam, phi))
    return Result(text=[_spaced(row) for row in rows], csv=rows,
                  json={"m": args.m,
                        "rows": [dict(zip(rows[0], row)) for row in rows[1:]]})


def _parse_rational(text: str, name: str, parser) -> Fraction:
    """An exact rational in decimal, exponent or fraction notation, else exit 2.

    A numerator or denominator past the interpreter's int-string digit limit
    is refused too: it could not be printed.  An exponent that alone passes
    the limit is refused before the value is built, since expanding
    1e-10000000 takes seconds.  An invalid argument is echoed with its
    non-printable characters escaped (\\x01, \\u2028); past 40 escaped
    characters, only the first 40 are shown, with the argument's length.
    """
    # CPython's default limit stands in where the interpreter has none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    too_long = f"{name} has more than {limit} digits in its numerator or denominator"
    mantissa, _, exponent = text.lower().partition("e")
    try:
        # the mantissa's digits cancel at most len(mantissa) powers of ten
        if exponent and abs(int(exponent)) > limit + len(mantissa):
            parser.error(too_long)
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        shown = text.encode("unicode_escape").decode()
        shown = f"'{shown}'" if len(shown) <= 40 else f"'{shown[:40]}'... ({len(text)} characters)"
        parser.error(f"invalid {name} {shown}")
    if max(abs(value.numerator), value.denominator) >= 10 ** limit:
        parser.error(too_long)
    return value


def _cmd_discretize(args, parser) -> Result:
    mold, label = _pick_mold(args, parser)
    alpha = _parse_rational(args.alpha, "alpha", parser)
    if not 0 <= alpha <= 1:
        parser.error("alpha must lie in [0, 1]")
    d = discretize(mold, args.m, alpha)
    s = from_discretization(d)
    verification = verify_semigroup(d)
    record = collapse(d)
    even = even_filterable_semigroup(d)
    _, genus, multiplicity = genus_multiplicity(s)
    return Result(
        text=[
            f"semigroup: {_semigroup_text(s)}",
            f"multiplicity: {multiplicity}",
            f"genus: {genus}",
            f"verification: {_report_text(verification)}",
            f"collapse: {record.kappa} at index {record.witness_index}",
            f"even-filterable: {_report_text(even)}",
        ],
        csv=[
            ("field", "value"),
            ("mold", label),
            ("multiplicity", args.m),
            ("alpha", alpha),
            ("prefix", _spaced(s.prefix)),
            ("conductor", s.conductor),
            ("genus", genus),
            ("verification", verification.verdict),
            ("verification_detail", verification.detail),
            ("collapse", record.kappa),
            ("collapse_witness_index", record.witness_index),
            ("even_filterable", even.verdict),
            ("even_filterable_detail", even.detail),
        ],
        json={
            "mold": label,
            "multiplicity": args.m,
            "alpha": str(alpha),
            "prefix": list(s.prefix),
            "conductor": s.conductor,
            "genus": genus,
            "verification": verification._asdict(),
            "collapse": record._asdict(),
            "even_filterable": even._asdict(),
        })


def _interval_forms(interval, args) -> tuple[str, dict]:
    """The text form `(lower, upper]`, or `[0, 0]` for the ceiling point,
    and the JSON form of a threshold interval."""
    if interval.is_ceiling_point:
        return "[0, 0]", {"ceiling_point": True, "lower": "0", "upper": "0"}
    if args.exact:
        lo, hi = render_exact(interval.lower), render_exact(interval.upper)
    else:
        lo = render_decimal(interval.lower, args.precision)
        hi = render_decimal(interval.upper, args.precision)
    return f"({lo}, {hi}]", {"ceiling_point": False, "lower": lo, "upper": hi}


def _cmd_search(args, parser) -> Result:
    matches = simultaneous_search(args.m)
    lines = [f"matches: {len(matches)}"]
    rows = [("index", "interval_L", "interval_F", "conductor", "prefix",
             "even_L", "even_F")]
    payload = []
    for i, mt in enumerate(matches):
        il, il_json = _interval_forms(mt.interval_L, args)
        jf, jf_json = _interval_forms(mt.interval_F, args)
        even = [r.verdict for r in mt.even_filterable]
        lines += [
            f"match {i + 1}:",
            f"  interval_L: {il}",
            f"  interval_F: {jf}",
            f"  semigroup: {_semigroup_text(mt.semigroup)}",
            f"  even-filterable: {even[0]} / {even[1]}",
        ]
        rows.append((i, il.replace(", ", ".."), jf.replace(", ", ".."),
                     mt.semigroup.conductor, _spaced(mt.semigroup.prefix), *even))
        payload.append({
            "interval_L": il_json,
            "interval_F": jf_json,
            "prefix": list(mt.semigroup.prefix),
            "conductor": mt.semigroup.conductor,
            "even_filterable": even,
        })
    return Result(text=lines, csv=rows, json={"m": args.m, "matches": payload})


def _cmd_theorem(args, parser) -> Result:
    if args.which == 4:
        census = multiplicity_census(SEARCH_BOUND)
        tail_ok = True
        try:
            tail_certificate(TAIL_START)  # covers every m >= TAIL_START
        except RuntimeError:
            tail_ok = False
        return _census(4, census, FEASIBLE_MULTIPLICITIES, tail_ok)
    if args.which == 5:
        return _census(5, even_filterable_census(SEARCH_BOUND),
                       EVEN_FILTERABLE_MULTIPLICITIES)
    # which == 6
    try:
        rep = h_uniqueness()
    except RuntimeError as exc:
        return _verdict(6, [f"error: {exc}"], [("error", exc)],
                        {"error": str(exc)}, False)
    s, record, even = rep.semigroup, rep.collapse_record, rep.match.even_filterable
    passed = (s == WELL_TEMPERED_H
              and record.kappa == 55
              and all(step.satisfied for step in rep.trace)
              and all(r.holds for r in even))
    lines = [f"semigroup: {_semigroup_text(s)}",
             f"collapse: {record.kappa} at index {record.witness_index}"]
    for step in rep.trace:
        state = "satisfied" if step.satisfied else "NOT satisfied"
        lines.append(f"constraint {step.constraint}: {state} ({step.bound})")
    lines.append(f"even-filterable: {even[0].verdict} / {even[1].verdict} "
                 f"({even[1].detail})")
    return _verdict(
        6, lines,
        [("prefix", _spaced(s.prefix)), ("conductor", s.conductor),
         ("collapse", record.kappa)],
        {"prefix": list(s.prefix),
         "conductor": s.conductor,
         "collapse": record._asdict(),
         "trace": [{"constraint": st.constraint, "bound": st.bound,
                    "satisfied": st.satisfied} for st in rep.trace],
         "even_filterable": [r.verdict for r in even]},
        passed)


def _cmd_fractal_division(args, parser) -> Result:
    if args.p == "golden":
        spec = golden_period_spec()
        label = "golden"
    else:
        cut = _parse_rational(args.p, "proportion", parser)
        if not 0 < cut < 1:
            parser.error("proportion must lie strictly between 0 and 1")
        spec = PeriodSpec([1, 1 + cut])
        label = str(cut)
    # the cut points are period `depth` of the fractal mold, shifted to [0, 1)
    mold = FractalMold(spec)
    period = mold.elements(mold.start_index(args.depth + 1))[mold.start_index(args.depth):]
    points = [x - args.depth for x in period] + [spec.cuts[0]]
    return _listing("cut_i", {"p": label, "depth": args.depth}, "points",
                    [_render(x, args) for x in points])


def _bounded(allowed: range):
    """An argparse type: an integer in `allowed`, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n not in allowed:
            raise argparse.ArgumentTypeError(
                f"must be an integer between {allowed[0]} and {allowed[-1]}")
        return n

    return parse


def _add_common(sub, precision: bool = False, exact: bool = False) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text", help="output format")
    sub.add_argument("--out", default=None, help="write output to a file")
    if precision:
        sub.add_argument("--precision", type=_bounded(_PLACES_RANGE), default=4,
                         help="decimal places for display (rendering only)")
    if exact:
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
    show.add_argument("--granularity", type=_bounded(_GRANULARITY_RANGE), default=None)
    show.add_argument("--count", type=_bounded(_COUNT_RANGE), default=12)
    _add_common(show, precision=True, exact=True)
    show.set_defaults(handler=_cmd_mold_show)

    table = commands.add_parser(
        "table", help="two-column table of m*lambda_i and m*phi_i")
    table.add_argument("--m", type=_bounded(_M_RANGE), required=True)
    table.add_argument("--count", type=_bounded(_COUNT_RANGE), default=51)
    _add_common(table, precision=True)
    table.set_defaults(handler=_cmd_table)

    disc = commands.add_parser(
        "discretize", help="discretize a mold and report its properties")
    disc.add_argument("--mold", required=True,
                      choices=("L", "F", "Q", "D", "perfect"))
    disc.add_argument("--granularity", type=_bounded(_GRANULARITY_RANGE), default=None)
    disc.add_argument("--m", type=_bounded(_M_RANGE), required=True)
    disc.add_argument("--alpha", required=True,
                      help="rounding threshold in [0, 1], decimal or fraction")
    _add_common(disc)
    disc.set_defaults(handler=_cmd_discretize)

    search = commands.add_parser(
        "search", help="simultaneous matches of the metric and golden molds")
    search.add_argument("--m", type=_bounded(_M_RANGE), required=True)
    _add_common(search, precision=True, exact=True)
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
    division.add_argument("--depth", type=_bounded(_PLACES_RANGE), required=True)
    _add_common(division, precision=True, exact=True)
    division.set_defaults(handler=_cmd_fractal_division)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args, parser)
    except PrecisionBudgetExceeded as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        output = json.dumps(result.json, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(result.csv)
        output = buffer.getvalue()
    else:
        output = "\n".join(result.text) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"{parser.prog}: error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
