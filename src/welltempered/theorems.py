"""Exhaustive feasibility searches across the metric and golden molds.

A multiplicity m is simultaneously discretizable when some rounding
threshold for the metric mold and some threshold for the golden mold
produce the same numerical semigroup.  The search first compares the
images below a small bound, as the paper's deduction does: when no
truncation of one mold's images equals one of the other's, m has no
match.  Only the m that survive enumerate both full alpha sweeps, merge
adjacent regions with equal images, pair the regions that agree, and
re-verify each emitted match from scratch at an interior rational
threshold.  The matches of one m form a cached stream, built one match
at a time as readers ask: a search reads and re-verifies every match,
while a census stops at the first certified witness of each m.  An
analytic certificate settles all multiplicities above a fixed bound, so
feasibility is decided everywhere.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import attrgetter

from .discretize import AlphaInterval, _discretize_at, _PartTable, _truncated_images, alpha_sweep
from .exactnum import (
    PrecisionBudgetExceeded,
    certified_sign,
    exact_floor,
    exact_frac,
    rational_between,
    scale,
)
from .molds import (
    Mold,
    _check_multiplicity,
    _Record,
    golden_fractal_mold,
    metric_mold,
)
from .render import render_decimal
from .semigroups import (
    NumericalSemigroup,
    collapse,
    even_filterable_semigroup,
    verify_semigroup,
)


class SimultaneousMatch(_Record):
    """One semigroup realized by both molds at m, in regions interval_L and interval_F.

    even_filterable is each side's PropertyReport, read at its region's
    upper end only.  The collapse can move inside a region (at m = 3 the
    golden side has a region holding collapses 8 and 9), but up to m = 34
    the verdict is the same on every sweep interval of every region, as
    test_even_filterability_is_constant_on_each_region checks.
    """

    _fields = ("m", "interval_L", "interval_F", "semigroup", "even_filterable")


class TailCertificate(_Record):
    """Analytic infeasibility witness for a multiplicity m and all larger ones: anchor
    is hit by both scaled molds at index 3, and comparison is the certified verdict
    on m*phi_4 versus m*lambda_4 + 2."""

    _fields = ("m", "anchor", "comparison", "detail")


class ConstraintStep(_Record):
    """One replayed deduction in the uniqueness argument, and whether it holds."""

    _fields = ("constraint", "description", "bound", "satisfied")


class UniquenessReport(_Record):
    """The unique multiplicity-12 match, its CollapseRecord and its ConstraintStep trace."""

    _fields = ("match", "collapse_record", "trace")

    @property
    def semigroup(self) -> NumericalSemigroup:
        return self.match.semigroup


class ReferenceMatch(_Record):
    """A known threshold pair (alpha_L, alpha_F) and the leading elements of its semigroup."""

    _fields = ("alpha_L", "alpha_F", "prefix")


# the well-tempered harmonic semigroup, the unique multiplicity-12 answer
WELL_TEMPERED_H = NumericalSemigroup(
    prefix=(0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43), conductor=45)

# Known feasibility sets, which the command-line theorem checks compare
# against, and one reference witness per feasible multiplicity, which the
# tests compare against.
FEASIBLE_MULTIPLICITIES = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 18})
EVEN_FILTERABLE_MULTIPLICITIES = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 10, 12})

REFERENCE_MATCHES = {
    1: ReferenceMatch(Fraction(1, 2), Fraction(1), (0, 1)),
    2: ReferenceMatch(Fraction(1, 2), Fraction(1), (0, 2, 3)),
    3: ReferenceMatch(Fraction(1, 2), Fraction(17, 20), (0, 3, 5, 6, 7, 8)),
    4: ReferenceMatch(Fraction(7, 25), Fraction(47, 100),
                      (0, 4, 7, 8, 10, 11, 12, 13, 14)),
    5: ReferenceMatch(Fraction(1, 2), Fraction(9, 10),
                      (0, 5, 8, 10, 12, 13, 14, 15, 16, 17)),
    6: ReferenceMatch(Fraction(1, 100), Fraction(41, 100),
                      (0, 6, 10, 12, 14, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26)),
    7: ReferenceMatch(Fraction(1, 2), Fraction(97, 100),
                      (0, 7, 11, 14, 16, 18, 20, 21, 22, 23, 24, 25, 26, 27)),
    8: ReferenceMatch(Fraction(7, 20), Fraction(83, 100),
                      (0, 8, 13, 16, 19, 21, 23, 24, 26, 27, 28, 29, 30, 31, 32,
                       33, 34)),
    9: ReferenceMatch(Fraction(13, 100), Fraction(14, 25),
                      (0, 9, 15, 18, 21, 24, 26, 27, 29, 30, 32, 33, 34, 35, 36,
                       37, 38, 39, 40, 41)),
    10: ReferenceMatch(Fraction(1, 2), Fraction(1),
                       (0, 10, 16, 20, 23, 26, 28, 30, 32, 33, 35, 36, 37, 38,
                        39, 40, 41, 42, 43, 44, 45)),
    12: ReferenceMatch(Fraction(2, 5), Fraction(1),
                       (0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43, 45, 46,
                        47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57)),
    13: ReferenceMatch(Fraction(9, 50), Fraction(47, 50),
                       (0, 13, 21, 26, 31, 34, 37, 39, 42, 44, 45, 47, 48, 50,
                        51, 52, 53, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65,
                        66, 67, 68)),
    18: ReferenceMatch(Fraction(1, 20), Fraction(22, 25),
                       (0, 18, 29, 36, 42, 47, 51, 54, 58, 60, 63, 65, 67, 69,
                        71, 72, 74, 76, 77, 78, 80, 81, 82, 83, 84, 85, 86, 87,
                        88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98)),
}

TAIL_START = 35


def _merged_regions(mold: Mold, m: int) -> list[AlphaInterval]:
    """Alpha sweep with each run of adjacent equal-key intervals fused by groupby.

    The pure ceiling point, first in the sweep, stays a region of its own.
    Only keys are compared, so no index map is built.  A region is its
    run's first interval through its last, so its representative describes
    the image at the region's upper endpoint.
    """
    ceiling, *rest = alpha_sweep(mold, m)
    regions = [ceiling]
    for _, group in groupby(rest, key=attrgetter("key")):
        run = list(group)
        regions.append(run[0].through(run[-1]))
    return regions


def _region_alpha(region: AlphaInterval) -> Fraction:
    if region.is_ceiling_point:
        return Fraction(0)
    return rational_between(region.lower, region.upper)


def _midpoint_recheck(region: AlphaInterval, key: tuple[tuple[int, ...], int]) -> None:
    # an independent re-rounding at an interior rational, on the
    # certificate the sweep already built
    probe = _discretize_at(region.certificate, _region_alpha(region))
    if (probe.prefix, probe.conductor) != key:
        raise RuntimeError("sweep region failed its interior re-check")


# Every search uses these two molds, so their element caches serve all m
# and the cached matches refer to them instead of one pair of molds per m.
_SEARCH_MOLDS = (metric_mold(), golden_fractal_mold())


_LADDER = (5, 10, 20)  # the k of _exclusion's bounds


def _exclusion(lmold: Mold, fmold: Mold, m: int) -> tuple[int, int, int, int] | None:
    """Evidence that m has no match, (k, B, truncations per side), or None.

    At each k of _LADDER, B = floor(m * mu_k) of lmold.  A match has equal
    images, hence equal truncations below B, so m is excluded at the first
    B where the two molds' sets of truncations are disjoint.
    """
    table_l, table_f = _PartTable(m), _PartTable(m)
    for k in _LADDER:
        bound = exact_floor(scale(lmold.element(k), m))
        images_l = _truncated_images(lmold, m, bound, table_l)
        images_f = _truncated_images(fmold, m, bound, table_f)
        if images_l.isdisjoint(images_f):
            return k, bound, len(images_l), len(images_f)
    return None


def _iter_matches(lmold: Mold, fmold: Mold, m: int) -> Iterator[SimultaneousMatch]:
    """The unpruned matcher: both full merged sweeps, paired by equal keys.

    Each match is re-checked just before it is yielded, so a reader that
    stops early skips the re-checks of the matches it did not read.
    """
    regions_l = _merged_regions(lmold, m)
    regions_f = _merged_regions(fmold, m)
    partners: dict[tuple, list[AlphaInterval]] = {}
    for region in regions_f:
        partners.setdefault(region.key, []).append(region)
    closed: dict[tuple, bool] = {}
    for rl in regions_l:
        key = rl.key
        on_both_sides = partners.get(key)
        if not on_both_sides:
            continue
        semigroup = NumericalSemigroup(*key)  # sweep keys are canonical
        if key not in closed:
            closed[key] = verify_semigroup(semigroup).holds
        if not closed[key]:
            continue
        _midpoint_recheck(rl, key)
        even_l = even_filterable_semigroup(rl.representative)
        for rf in on_both_sides:
            _midpoint_recheck(rf, key)
            yield SimultaneousMatch(
                m=m,
                interval_L=rl,
                interval_F=rf,
                semigroup=semigroup,
                even_filterable=(even_l, even_filterable_semigroup(rf.representative)),
            )


class _MatchStream:
    """The matches of one m, each built from the source when first read and then kept.

    Iterating yields the kept matches, then builds more only as the reader
    asks.  Until the source is drained it holds its two merged sweeps.  A
    source that raises clears _search, so a stream that failed is never
    read back as a short list that looks complete.
    """

    __slots__ = ("_kept", "_source")

    def __init__(self, source: Iterator[SimultaneousMatch] | None):
        self._kept, self._source = [], source

    def __iter__(self) -> Iterator[SimultaneousMatch]:
        i = 0
        while i < len(self._kept) or self._build():
            yield self._kept[i]
            i += 1

    def _build(self) -> bool:
        """Keep the source's next match; False once the source is drained."""
        if self._source is None:
            return False
        try:
            match = next(self._source, None)
        except BaseException:
            _search.cache_clear()  # the next read of this m recomputes
            raise
        if match is None:
            self._source = None  # drop the merged sweeps
            return False
        self._kept.append(match)
        return True


# Bounded, but large enough for one census up to the CLI's bound (34), so
# a second census in the same process resumes every m from the cache.
@lru_cache(maxsize=64)
def _search(m: int) -> _MatchStream:
    """The match stream of m: _iter_matches if m survives _exclusion, else empty.

    A stream that a census left unfinished keeps its two merged sweeps
    alive until a reader drains it or the cache, at most 64 streams,
    evicts it.
    """
    excluded = _exclusion(*_SEARCH_MOLDS, m)
    return _MatchStream(None if excluded else _iter_matches(*_SEARCH_MOLDS, m))


def simultaneous_search(m: int) -> list[SimultaneousMatch]:
    """All verified ways both molds discretize to one semigroup at m.

    Matches are ordered by ascending metric-side region, then ascending
    golden-side region.  The search reads every match of m's stream, and
    each has been re-discretized at an interior rational of each region
    and closure-verified.  An m that _exclusion rules out comes back empty
    without a full sweep.
    """
    _check_multiplicity(m, "multiplicity must be a positive integer")
    return list(_search(m))


def multiplicity_census(m_max: int) -> set[int]:
    """The multiplicities up to m_max with at least one simultaneous match.

    The census stops at the first certified witness of each m: it reads
    m's stream up to its first match, so the other matches are neither
    built nor re-checked.  Up to 34, only 1..15 and 18 survive _exclusion
    to be swept in full.
    """
    _check_multiplicity(m_max, "m_max must be a positive integer")
    return {m for m in range(1, m_max + 1) if next(iter(_search(m)), None) is not None}


def even_filterable_census(m_max: int) -> set[int]:
    """Multiplicities whose some match is even-filterable on both sides.

    The census stops at the first certified witness of each m: it reads
    m's stream up to the first match even-filterable on both sides,
    resuming where an earlier census in the process stopped.
    """
    _check_multiplicity(m_max, "m_max must be a positive integer")
    return {m for m in range(1, m_max + 1)
            if any(all(report.holds for report in match.even_filterable) for match in _search(m))}


def tail_certificate(m: int) -> TailCertificate:
    """Prove no simultaneous discretization exists at m or any larger multiplicity.

    Both scaled molds contain 2m exactly at index 3, so equal images would
    need their index-4 values to round to the same integer; a certified
    comparison shows the golden value exceeds the metric value by more
    than 2, which makes that impossible.  The excess m*(phi_4 - lambda_4)
    grows with m because phi_4 = 3 - tau exceeds lambda_4 = log2(5), which
    is certified too, so one m covers every larger one.  Raises if either
    comparison cannot be certified.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < TAIL_START:
        raise ValueError(f"the analytic tail starts at multiplicity {TAIL_START}")
    lmold, fmold = _SEARCH_MOLDS
    for family, mold in (("metric", lmold), ("golden", fmold)):
        if scale(mold.element(3), m) != 2 * m:
            raise RuntimeError(f"{family} mold lost its exact element at index 3")
    try:
        if certified_sign(scale(fmold.element(4), m), scale(lmold.element(4), m) + 2) <= 0:
            raise RuntimeError(f"index-4 separation not certified at multiplicity {m}")
    except PrecisionBudgetExceeded as exc:
        raise RuntimeError(f"index-4 separation undecided at multiplicity {m}") from exc
    if certified_sign(fmold.element(4), lmold.element(4)) <= 0:
        raise RuntimeError("phi_4 does not exceed lambda_4, so the separation "
                           "need not grow with m")
    return TailCertificate(
        m=m,
        anchor=2 * m,
        comparison="greater",
        detail=(f"both sides contain {2 * m} exactly; the next element rounds the "
                f"index-4 value, and the golden one exceeds the metric one by "
                f"more than 2, so the rounded values can never agree; the excess "
                f"m*(phi_4 - lambda_4) grows with m since phi_4 > lambda_4, so "
                f"this holds for every multiplicity from {m} on"),
    )


def h_uniqueness() -> UniquenessReport:
    """The single multiplicity-12 match, with its deduction chain replayed.

    The replay checks the forced steps: the fourth element must land on 28,
    which bounds both thresholds; the second element is forced to 19; and
    closure pushes 19 + 19 = 38 into the set, tightening the golden-side
    bound.  Any unsatisfied step raises.
    """
    matches = simultaneous_search(12)
    if len(matches) != 1:
        raise RuntimeError("expected a single simultaneous match at multiplicity 12")
    match = matches[0]
    s = match.semigroup
    lmold, fmold = _SEARCH_MOLDS
    fourth_l = scale(lmold.element(4), 12)
    fourth_f = scale(fmold.element(4), 12)
    frac_l4 = exact_frac(fourth_l)
    frac_f4 = exact_frac(fourth_f)
    eighth_f = scale(fmold.element(8), 12)
    frac_f8 = exact_frac(eighth_f)
    steps = (
        ConstraintStep(
            constraint="shared-fourth-element",
            description=(f"the fourth elements must agree, so the metric side "
                         f"rounds {render_decimal(fourth_l, 4)} up and the golden side "
                         f"rounds {render_decimal(fourth_f, 4)} down to 28"),
            bound=(f"alpha_L <= {render_decimal(frac_l4, 4)} "
                   f"and alpha_F > {render_decimal(frac_f4, 4)}"),
            satisfied=(28 in s
                       and certified_sign(frac_l4, match.interval_L.upper) >= 0
                       and certified_sign(match.interval_F.lower, frac_f4) >= 0),
        ),
        ConstraintStep(
            constraint="second-element-forced",
            description="the only workable second element is 19",
            bound="s_2 = 19",
            satisfied=s.element(2) == 19,
        ),
        ConstraintStep(
            constraint="doubling-the-second-element",
            description=(f"closure forces 19 + 19 = 38 into the set, so the "
                         f"golden side also rounds "
                         f"{render_decimal(eighth_f, 4)} down"),
            bound=f"alpha_F > {render_decimal(frac_f8, 4)}",
            satisfied=(38 in s and certified_sign(match.interval_F.lower, frac_f8) >= 0),
        ),
    )
    unsatisfied = [step.constraint for step in steps if not step.satisfied]
    if unsatisfied:
        raise RuntimeError("constraint replay failed: " + ", ".join(unsatisfied))
    return UniquenessReport(
        match=match,
        collapse_record=collapse(match.interval_F.representative),
        trace=steps,
    )
