"""Integer discretization of molds under threshold rounding.

The map sends each mold element mu_i to round(m * mu_i), where round floors
when the fractional part is below the threshold alpha and takes the ceiling
otherwise.  Because mold steps eventually drop below 1/m, the image is
cofinite: the mold's spacing index N proves every scaled step from N on is
below 1, so the set is fixed by the indices up to N, and everything at or
beyond the conductor ceil(m * mu_N) is present whatever alpha is used.
Sweeping alpha over (0, 1] produces finitely many distinct images, one per
gap between fractional parts; the sweep enumerates them exactly, with
alpha = 0 (pure ceiling) kept as a distinguished extra interval.  Image
sets rest on the spacing proof and the scaled prefix alone; the walk to
the horizon, which re-checks the steps past N exactly, and the index maps
are computed only when something reads them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, groupby, islice

from .exactnum import (
    ExactValue,
    GoldenNumber,
    Rational,
    _check_alpha,
    _floor_int_tau,
    _round,
    _split,
    certified_sign,
    exact_floor,
    scale,
)
from .molds import Mold, SpacingCertificateError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TruncationCertificate:
    """Evidence that a discretized mold is cofinite in the integers.

    prefix_end is the mold's spacing index N, whose spacing_index proof
    covers every i >= N: the scaled step m * (mu_(i+1) - mu_i) is strictly
    below 1, so discretized neighbours differ by at most 1 and no integer
    past the image of mu_N can be skipped, whatever the rounding threshold.
    conductor is ceil(m * mu_N), an alpha-independent bound; per-threshold
    conductors found later can only be smaller.  horizon is the last index
    of a finite exact re-check of the step inequality (chosen so consumers
    of index maps see the discretized run reach conductor + 2m).  Sweeps
    and discretizations build it on first read of a horizon.
    """

    mold_name: str
    multiplicity: int
    prefix_end: int
    conductor: int
    horizon: int
    spacing_witness: str


@dataclass(frozen=True)
class _PrefixTables:
    """One (mold, m) split for rounding at any threshold.

    floors[i] and fracs[i] are the floor and fractional part of m * mu_i
    for i <= prefix_end; fracs[i] is None when m * mu_i is an integer.
    These tables fix every image set, by the spacing proof of prefix_end;
    only the first certified step is checked here.  Indices past the prefix
    end are rounded from the mold when an index map needs them, and cert,
    the walk to the horizon, runs on first read and is shared by every
    discretization built from these tables.
    """

    mold: Mold
    multiplicity: int
    prefix_end: int
    witness: str
    conductor: int
    floors: tuple
    fracs: tuple

    @cached_property
    def cert(self) -> TruncationCertificate:
        return _certificate_with_values(self)


def _key_of(members: list) -> tuple:
    """(prefix, conductor) of a set given by its sorted distinct members.

    The conductor starts the run of consecutive integers that ends at the
    largest member; members[j] - j is nondecreasing, and constant exactly
    on that run, so its start is found by bisection.
    """
    run = members[-1] - len(members) + 1
    lo, hi = 0, len(members) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if members[mid] - mid < run:
            lo = mid + 1
        else:
            hi = mid
    return tuple(members[:lo]), members[lo]


@dataclass(frozen=True, eq=False)
class Discretization:
    """One discretized image: its cofinite shape, with the index map on demand.

    prefix holds the members below the (minimal) conductor; every integer
    at or beyond the conductor is a member.  The set rests on the spacing
    proof: the indices up to prefix_end fix it, and they are rounded when
    the discretization is made.  values[i] = round(m * mu_i) for
    0 <= i <= horizon; the horizon is computed on first read (of horizon,
    values or ==), and the rest of values is then rounded from the mold.
    iter_values() goes on past the prefix without a horizon and without
    storing anything.  The index map is kept because collapse detection
    needs to know which mold indices landed on the same integer, not just
    the resulting set.
    """

    mold_name: str
    multiplicity: int
    prefix_end: int
    conductor: int
    prefix: tuple
    _alpha: ExactValue = field(repr=False)
    _head: tuple = field(repr=False)
    _tables: _PrefixTables = field(repr=False)

    @property
    def horizon(self) -> int:
        return self._tables.cert.horizon

    def contains(self, n: int) -> bool:
        return n >= self.conductor or n in self.prefix

    def members_below(self, bound: int) -> list:
        out = [v for v in self.prefix if v < bound]
        out.extend(range(self.conductor, max(self.conductor, bound)))
        return out

    def iter_values(self):
        """round(m * mu_i) for i = 0, 1, 2, ... without end."""
        yield from self._head
        mold, m = self._tables.mold, self.multiplicity
        for i in count(self.prefix_end + 1):
            yield _round(*_split(scale(mold.element(i), m)), self._alpha)

    @cached_property
    def values(self) -> tuple:
        return tuple(islice(self.iter_values(), self.horizon + 1))

    def _fields(self) -> tuple:
        return (self.mold_name, self.multiplicity, self.prefix_end, self.conductor,
                self.prefix, self.values)

    def __eq__(self, other):
        if not isinstance(other, Discretization):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.mold_name, self.multiplicity, self.conductor, self.prefix))


def _check_step(mold: Mold, i: int, current, following) -> None:
    """Raise unless the scaled step from index i to i + 1 is below 1."""
    if not following < current + 1:
        raise SpacingCertificateError(
            f"mold {mold.name!r}: scaled step at index {i} is not below 1")


def _certificate_with_values(tables: _PrefixTables) -> TruncationCertificate:
    """The truncation certificate of the tables' (mold, m), by walking to the horizon.

    Every step from the prefix end to the horizon is checked exactly, a
    finite re-check of what the spacing index proves for all later steps;
    no scaled value is kept.
    """
    mold, m, prefix_end = tables.mold, tables.multiplicity, tables.prefix_end
    current = scale(mold.element(prefix_end), m)
    target = tables.conductor + 2 * m + 2
    horizon = prefix_end
    while exact_floor(current) < target:
        following = scale(mold.element(horizon + 1), m)
        _check_step(mold, horizon, current, following)
        horizon += 1
        current = following
    detail = f"{tables.witness}; m*step < 1 checked exactly for indices {prefix_end}..{horizon}"
    return TruncationCertificate(mold.name, m, prefix_end, tables.conductor, horizon, detail)


def _prefix_tables(mold: Mold, m: int) -> _PrefixTables:
    """Split m * mu_i for i <= prefix_end, after checking the step at prefix_end.

    That one exact check, the walk's first step with the walk's error,
    reads element prefix_end + 1 and no further.  A bad step further on is
    caught when the walk runs.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("multiplicity must be a positive integer")
    prefix_end, witness = mold.spacing_index(m)
    scaled = [scale(mold.element(i), m) for i in range(prefix_end + 2)]
    _check_step(mold, prefix_end, scaled[-2], scaled[-1])
    floors, fracs = zip(*map(_split, scaled[:-1]))
    conductor = floors[-1] if fracs[-1] is None else floors[-1] + 1
    return _PrefixTables(mold, m, prefix_end, witness, conductor, floors, fracs)


def truncation_certificate(mold: Mold, m: int) -> TruncationCertificate:
    """Certify prefix_end and conductor for discretizing mold at multiplicity m.

    Eager: the walk to the horizon runs before this returns.
    """
    return _prefix_tables(mold, m).cert


def _discretize_at(tables: _PrefixTables, alpha) -> Discretization:
    """The image at threshold alpha, which may be any exact value."""
    head = tuple(_round(fl, frac, alpha) for fl, frac in zip(tables.floors, tables.fracs))
    prefix, conductor = _key_of(sorted(set(head)))
    return Discretization(tables.mold.name, tables.multiplicity, tables.prefix_end,
                          conductor, prefix, alpha, head, tables)


def discretize(mold: Mold, m: int, alpha) -> Discretization:
    """The image of m * mold under threshold rounding at alpha.

    alpha must be an exact rational in [0, 1].  An AlphaInterval from
    alpha_sweep already holds its image: read its representative instead.
    """
    _check_alpha(alpha)
    return _discretize_at(_prefix_tables(mold, m), alpha)


@dataclass(frozen=True)
class AlphaInterval:
    """A maximal-by-construction run (lower, upper] of equal image sets.

    The image set is constant for alpha in (lower, upper]; key is that set
    as (prefix, conductor), stored eagerly.  representative, the full
    discretization at alpha = upper with its index map, is built on first
    access from the prefix tables the intervals of one sweep share.  The
    distinguished pure-ceiling case is stored as the degenerate interval
    [0, 0].  Endpoints are exact: fractional parts of scaled mold elements,
    or the outer rationals 0 and 1.
    """

    mold_name: str
    multiplicity: int
    lower: ExactValue
    upper: ExactValue
    key: tuple
    _tables: _PrefixTables = field(repr=False, compare=False)

    @cached_property
    def representative(self) -> Discretization:
        return _discretize_at(self._tables, self.upper)

    @property
    def is_ceiling_point(self) -> bool:
        return self.upper == 0

    def contains_alpha(self, alpha: Rational) -> bool:
        if self.is_ceiling_point:
            return alpha == 0
        return certified_sign(self.lower, alpha) < 0 <= certified_sign(self.upper, alpha)


def _rediscretize(interval: AlphaInterval, alpha: Rational) -> Discretization:
    """discretize() of the interval's mold and multiplicity at another
    threshold, reusing the prefix tables of the interval's sweep."""
    return _discretize_at(interval._tables, alpha)


def _breakpoint_key(fracs: tuple, live: list):
    """A sort key on the indices in live that orders fracs[i] exactly.

    When every fractional part is a golden a + b*tau with int coefficients,
    the key is (floor(2^P * frac), frac) with P = 2*bit_length(max |b|) + 8:
    the floor is exact (_floor_int_tau) and monotone in frac, so distinct
    floors order their parts and equal floors fall back to the exact
    comparison.  With P that large, equal floors of distinct parts are rare
    (the gaps between the points {k*tau}, |k| <= K, are at least about
    1/(sqrt(5)*K), by the three-distance theorem and Hurwitz's bound), but
    correctness does not rest on it.  Other families sort by value.
    """
    parts = [fracs[i] for i in live]
    if not parts or not all(type(f) is GoldenNumber and type(f.a) is int and type(f.b) is int
                            for f in parts):
        return fracs.__getitem__
    shift = 2 * max(abs(f.b) for f in parts).bit_length() + 8
    keys = {i: (_floor_int_tau(f.a << shift, f.b << shift), f) for i, f in zip(live, parts)}
    return keys.__getitem__


def alpha_sweep(mold: Mold, m: int) -> list:
    """All distinct discretizations of m * mold, as threshold intervals.

    Breakpoints are the distinct nonzero fractional parts of the scaled
    elements up to the certified prefix end; the image set is constant
    between consecutive breakpoints and changes exactly when alpha crosses
    one.  Fractional parts occurring only beyond the prefix end move
    individual index values but never the set, by the spacing proof of the
    prefix end, so they contribute no interval and the sweep reads no
    element past prefix_end + 1; representatives still account for them
    at alpha = upper.  The horizon is computed on first read, once for the
    whole sweep.

    One pass over the sorted breakpoints, starting from pure ceiling: a
    crossing moves each index of its group from its ceiling to its floor,
    which updates a hit count per integer and, when a count reaches or
    leaves zero, the sorted distinct values.  Each interval stores its key
    (the previous interval's tuple when the set did not change); index maps
    are built only when a representative is read.  Returned sorted by lower
    endpoint, pure-ceiling interval first.
    """
    tables = _prefix_tables(mold, m)
    floors, fracs = tables.floors, tables.fracs
    hits = Counter(fl if frac is None else fl + 1 for fl, frac in zip(floors, fracs))
    members = sorted(hits)
    key = _key_of(members)
    name = mold.name
    out = [AlphaInterval(name, m, _ZERO, _ZERO, key, tables)]
    prev = _ZERO
    live = [i for i, frac in enumerate(fracs) if frac is not None]
    order = sorted(live, key=_breakpoint_key(fracs, live))
    for frac, group in groupby(order, key=fracs.__getitem__):
        out.append(AlphaInterval(name, m, prev, frac, key, tables))
        prev = frac
        changed = False
        for i in group:  # crossing this breakpoint: ceiling drops to floor
            fl = floors[i]
            hits[fl + 1] -= 1
            if not hits[fl + 1]:
                del members[bisect_left(members, fl + 1)]
                changed = True
            if not hits[fl]:
                insort(members, fl)
                changed = True
            hits[fl] += 1
        if changed:
            key = _key_of(members)
    out.append(AlphaInterval(name, m, prev, _ONE, key, tables))
    return out


def interval_for_alpha(intervals, alpha: Rational) -> AlphaInterval:
    """Locate the sweep interval containing an exact rational alpha.

    intervals must be ordered by upper endpoint, as alpha_sweep returns
    them; a bisection with certified comparisons finds the first interval
    whose upper endpoint is not below alpha.
    """
    lo, hi = 0, len(intervals)
    while lo < hi:
        mid = (lo + hi) // 2
        if certified_sign(intervals[mid].upper, alpha) < 0:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(intervals) and intervals[lo].contains_alpha(alpha):
        return intervals[lo]
    raise ValueError(f"alpha {alpha} outside [0, 1]")
