"""Exhaustive feasibility searches across the metric and golden molds.

A multiplicity m is simultaneously discretizable when some rounding
threshold for the metric mold and some threshold for the golden mold
produce the same numerical semigroup.  The search first compares the
images below a small bound, as the paper's deduction does: when no
truncation of one mold's images equals one of the other's, m has no
match.  Only the m that survive enumerate both full alpha sweeps, merge
adjacent regions with equal images, pair the regions that agree, and
re-verify every emitted match from scratch at an interior rational
threshold.  An analytic certificate settles all multiplicities above a
fixed bound, so feasibility is decided everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .discretize import AlphaInterval, _discretize_at, _truncated_images, alpha_sweep
from .exactnum import (
    PrecisionBudgetExceeded,
    certified_sign,
    exact_floor,
    exact_frac,
    exact_is_integer,
    rational_between,
    scale,
)
from .molds import (
    Mold,
    PropertyReport,
    _check_multiplicity,
    golden_fractal_mold,
    metric_mold,
)
from .render import render_decimal
from .semigroups import (
    CollapseRecord,
    NumericalSemigroup,
    collapse,
    even_filterable_semigroup,
    verify_semigroup,
)


class SimultaneousMatch(NamedTuple):
    """One semigroup realized by both molds, with the threshold regions.

    even_filterable is each side's verdict, read at its region's upper end
    only.  The collapse can move inside a region (at m = 3 the golden side
    has a region holding collapses 8 and 9), but up to m = 34 the verdict
    is the same on every sweep interval of every region, as
    test_even_filterability_is_constant_on_each_region checks.
    """

    m: int
    interval_L: AlphaInterval
    interval_F: AlphaInterval
    semigroup: NumericalSemigroup
    even_filterable: tuple[PropertyReport, PropertyReport]


class TailCertificate(NamedTuple):
    """Analytic infeasibility witness for a multiplicity and all larger ones."""

    m: int
    anchor: int  # the element both scaled molds hit exactly at index 3
    comparison: str  # certified verdict on m*phi_4 versus m*lambda_4 + 2
    detail: str


class ConstraintStep(NamedTuple):
    """One replayed deduction in the uniqueness argument."""

    constraint: str
    description: str
    bound: str
    satisfied: bool


class UniquenessReport(NamedTuple):
    """The unique multiplicity-12 match plus its derivation trace."""

    match: SimultaneousMatch
    collapse_record: CollapseRecord
    trace: tuple[ConstraintStep, ...]

    @property
    def semigroup(self) -> NumericalSemigroup:
        return self.match.semigroup


class ReferenceMatch(NamedTuple):
    """A known threshold pair and the leading elements of its semigroup."""

    alpha_L: Fraction
    alpha_F: Fraction
    prefix: tuple[int, ...]


# the well-tempered harmonic semigroup, the unique multiplicity-12 answer
WELL_TEMPERED_H = NumericalSemigroup(
    prefix=(0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43), conductor=45)

# Known feasibility sets and one reference witness per feasible
# multiplicity; the command-line theorem checks compare against these.
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
    """Alpha sweep with adjacent equal-image intervals fused.

    Only the intervals' keys are compared, so no index map is built.  The
    fused region keeps the last constituent's upper endpoint, so its
    representative still describes the image at the region's upper
    endpoint.  The pure ceiling point stays a region of its own.
    """
    intervals = alpha_sweep(mold, m)
    regions = [intervals[0]]
    for iv in intervals[1:]:
        last = regions[-1]
        if not last.is_ceiling_point and iv.key == last.key:
            regions[-1] = AlphaInterval(last.lower, iv.upper, iv.key, iv.certificate)
        else:
            regions.append(iv)
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
    splits_l, splits_f = [], []
    for k in _LADDER:
        bound = exact_floor(scale(lmold.element(k), m))
        images_l = _truncated_images(lmold, m, bound, splits_l)
        images_f = _truncated_images(fmold, m, bound, splits_f)
        if images_l.isdisjoint(images_f):
            return k, bound, len(images_l), len(images_f)
    return None


def _matches(lmold: Mold, fmold: Mold, m: int) -> tuple[SimultaneousMatch, ...]:
    """The unpruned matcher: both full merged sweeps, paired by equal keys."""
    regions_l = _merged_regions(lmold, m)
    regions_f = _merged_regions(fmold, m)
    partners: dict[tuple, list[AlphaInterval]] = {}
    for region in regions_f:
        partners.setdefault(region.key, []).append(region)
    closed: dict[tuple, bool] = {}
    matches = []
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
            matches.append(SimultaneousMatch(
                m=m,
                interval_L=rl,
                interval_F=rf,
                semigroup=semigroup,
                even_filterable=(even_l, even_filterable_semigroup(rf.representative)),
            ))
    return tuple(matches)


# Bounded, but large enough for one census up to the CLI's bound (34), so
# a second census in the same process reads every m from the cache.
@lru_cache(maxsize=64)
def _search(m: int) -> tuple[SimultaneousMatch, ...]:
    """_matches for the m that survive _exclusion; no match for the rest."""
    return () if _exclusion(*_SEARCH_MOLDS, m) else _matches(*_SEARCH_MOLDS, m)


def simultaneous_search(m: int) -> list[SimultaneousMatch]:
    """All verified ways both molds discretize to one semigroup at m.

    Matches are ordered by ascending metric-side region, then ascending
    golden-side region.  Every match has been re-discretized at an
    interior rational of each region and closure-verified.  An m that
    _exclusion rules out comes back empty without a full sweep.
    """
    _check_multiplicity(m, "multiplicity must be a positive integer")
    return list(_search(m))


def multiplicity_census(m_max: int) -> set[int]:
    """The multiplicities up to m_max with at least one simultaneous match.

    Up to 34, only 1..15 and 18 survive _exclusion to be swept in full.
    """
    _check_multiplicity(m_max, "m_max must be a positive integer")
    return {m for m in range(1, m_max + 1) if _search(m)}


def even_filterable_census(m_max: int) -> set[int]:
    """Multiplicities whose some match is even-filterable on both sides."""
    _check_multiplicity(m_max, "m_max must be a positive integer")
    found = set()
    for m in range(1, m_max + 1):
        for match in _search(m):
            if all(report.holds for report in match.even_filterable):
                found.add(m)
                break
    return found


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
    third_l = scale(lmold.element(3), m)
    third_f = scale(fmold.element(3), m)
    if not (exact_is_integer(third_l) and exact_floor(third_l) == 2 * m):
        raise RuntimeError("metric mold lost its exact element at index 3")
    if not (exact_is_integer(third_f) and exact_floor(third_f) == 2 * m):
        raise RuntimeError("golden mold lost its exact element at index 3")
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
