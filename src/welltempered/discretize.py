"""Integer discretization of molds under threshold rounding.

The map sends each mold element mu_i to round(m * mu_i), where round floors
when the fractional part is below the threshold alpha and takes the ceiling
otherwise.  Because mold steps eventually drop below 1/m, the image is
cofinite: the mold's spacing index N proves every scaled step from N on is
below 1, so the set is fixed by the indices up to N, and everything at or
beyond the conductor ceil(m * mu_N) is present whatever alpha is used.
Sweeping alpha over (0, 1] produces finitely many distinct images, one per
gap between fractional parts; the sweep enumerates them exactly, with
alpha = 0 (pure ceiling) kept as a distinguished extra interval.  One
TruncationCertificate per (mold, m) carries the spacing proof and the
split prefix that fix every image set, and d.certificate and
interval.certificate expose it.  Its walk to the horizon, which re-checks
the steps past N exactly, and the index maps are computed only when
something reads them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import count, groupby, islice, takewhile
from operator import attrgetter

from .exactnum import (
    ExactValue,
    Rational,
    _check_alpha,
    _round,
    _split,
    certified_sign,
    exact_floor,
    scale,
)
from .molds import Mold, SpacingCertificateError, _check_multiplicity

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncationCertificate:
    """Evidence that a discretized mold is cofinite, and the split prefix it rests on.

    prefix_end is the mold's spacing index N, whose spacing_index proof
    (witness) covers every i >= N: the scaled step m * (mu_(i+1) - mu_i) is
    strictly below 1, so discretized neighbours differ by at most 1 and no
    integer past the image of mu_N can be skipped, whatever the rounding
    threshold.  conductor is ceil(m * mu_N), an alpha-independent bound;
    per-threshold conductors found later can only be smaller.  floors[i] and
    fracs[i] split m * mu_i for i <= N (fracs[i] is None at an integer) and
    fix every image set; the discretizations and sweep intervals of this
    (mold, m) all hold this one record.  horizon, walked on first read, is
    the last index of a finite exact re-check of the step inequality
    (chosen so consumers of index maps see the run reach conductor + 2m).
    Two certificates are equal when their mold name, multiplicity, prefix
    end, conductor and witness agree; mold, floors and fracs do not count.
    """

    def __init__(self, mold_name: str, multiplicity: int, prefix_end: int, conductor: int,
                 witness: str, mold: Mold, floors: tuple, fracs: tuple):
        self._mold_name = mold_name
        self._multiplicity = multiplicity
        self._prefix_end = prefix_end
        self._conductor = conductor
        self._witness = witness
        self._mold = mold
        self._floors = floors
        self._fracs = fracs

    mold_name = property(attrgetter("_mold_name"))
    multiplicity = property(attrgetter("_multiplicity"))
    prefix_end = property(attrgetter("_prefix_end"))
    conductor = property(attrgetter("_conductor"))
    witness = property(attrgetter("_witness"))
    mold = property(attrgetter("_mold"))
    floors = property(attrgetter("_floors"))
    fracs = property(attrgetter("_fracs"))

    def _fields(self) -> tuple:
        return (self._mold_name, self._multiplicity, self._prefix_end, self._conductor,
                self._witness)

    def __repr__(self) -> str:
        return (f"TruncationCertificate(mold_name={self._mold_name!r}, "
                f"multiplicity={self._multiplicity}, prefix_end={self._prefix_end}, "
                f"conductor={self._conductor}, witness={self._witness!r})")

    def __eq__(self, other):
        if not isinstance(other, TruncationCertificate):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @cached_property
    def horizon(self) -> int:
        """Walk from the prefix end, checking each step exactly; no scaled value is kept."""
        mold, m = self.mold, self.multiplicity
        current = scale(mold.element(self.prefix_end), m)
        target = self.conductor + 2 * m + 2
        horizon = self.prefix_end
        while exact_floor(current) < target:
            following = scale(mold.element(horizon + 1), m)
            _check_step(mold, horizon, current, following)
            horizon += 1
            current = following
        return horizon

    @property
    def spacing_witness(self) -> str:
        return (f"{self.witness}; m*step < 1 checked exactly for indices "
                f"{self.prefix_end}..{self.horizon}")


def _key_of(members: list) -> tuple:
    """(prefix, conductor) of a set given by its sorted distinct members.

    The conductor starts the run of consecutive integers that ends at the
    largest member; members[j] - j is nondecreasing, and constant exactly
    on that run, so its start is found by bisection.
    """
    run = members[-1] - len(members) + 1
    lo = bisect_left(range(len(members)), run, key=lambda j: members[j] - j)
    return tuple(members[:lo]), members[lo]


class Discretization:
    """One discretized image: its cofinite shape, with the index map on demand.

    prefix holds the members below the (minimal) conductor; every integer
    at or beyond the conductor is a member (from_discretization answers
    membership).  The set rests on the spacing proof: certificate, of the
    (mold, m), holds the split prefix that fixes it.  values[i] =
    round(m * mu_i) for 0 <= i <= horizon; the horizon is computed on first
    read (of horizon, values or ==), and the rest of values is then rounded
    from the mold.  iter_values() goes on past the prefix without a horizon
    and without storing anything.  The index map is kept because collapse
    detection needs to know which mold indices landed on the same integer.
    Two discretizations are equal when their certificates, conductors,
    prefixes and index maps agree.
    """

    def __init__(self, conductor: int, prefix: tuple, certificate: TruncationCertificate,
                 alpha: ExactValue, head: tuple):
        self._conductor = conductor
        self._prefix = prefix
        self._certificate = certificate
        self._alpha = alpha
        self._head = head

    conductor = property(attrgetter("_conductor"))
    prefix = property(attrgetter("_prefix"))
    certificate = property(attrgetter("_certificate"))

    def __repr__(self) -> str:
        return f"Discretization(conductor={self._conductor}, prefix={self._prefix!r})"

    @property
    def horizon(self) -> int:
        return self.certificate.horizon

    def iter_values(self):
        """round(m * mu_i) for i = 0, 1, 2, ... without end."""
        yield from self._head
        cert = self.certificate
        mold, m = cert.mold, cert.multiplicity
        for i in count(cert.prefix_end + 1):
            floor, frac, _ = _split(scale(mold.element(i), m))
            yield _round(floor, frac, self._alpha)

    @cached_property
    def values(self) -> tuple:
        return tuple(islice(self.iter_values(), self.horizon + 1))

    def _fields(self) -> tuple:
        return (self._certificate, self._conductor, self._prefix, self.values)

    def __eq__(self, other):
        if not isinstance(other, Discretization):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self._certificate, self._conductor, self._prefix))


def _check_step(mold: Mold, i: int, current, following) -> None:
    """Raise unless the scaled step from index i to i + 1 is below 1."""
    if not following < current + 1:
        raise SpacingCertificateError(
            f"mold {mold.name!r}: scaled step at index {i} is not below 1")


def _prefix_tables(mold: Mold, m: int) -> tuple:
    """(certificate, keys): m * mu_i split for i <= prefix_end, and the parts' sort keys.

    The step at prefix_end is checked first.  That one exact check, the
    walk's first step with the walk's error, reads element prefix_end + 1
    and no further.  A bad step further on is caught when the walk to the
    horizon runs.  Only sweeps read the keys, so the certificate does not
    keep them.
    """
    _check_multiplicity(m, "multiplicity must be a positive integer")
    prefix_end, witness = mold.spacing_index(m)
    _check_step(mold, prefix_end, scale(mold.element(prefix_end), m),
                scale(mold.element(prefix_end + 1), m))
    floors, fracs, keys = zip(*(_split(scale(mold.element(i), m))
                                for i in range(prefix_end + 1)))
    conductor = floors[-1] if fracs[-1] is None else floors[-1] + 1
    return TruncationCertificate(mold.name, m, prefix_end, conductor, witness,
                                 mold, floors, fracs), keys


def truncation_certificate(mold: Mold, m: int) -> TruncationCertificate:
    """Certify prefix_end and conductor for discretizing mold at multiplicity m.

    Eager: the walk to the horizon runs before this returns.
    """
    cert, _ = _prefix_tables(mold, m)
    cert.horizon  # walks now
    return cert


def _discretize_at(cert: TruncationCertificate, alpha) -> Discretization:
    """The image at threshold alpha, which may be any exact value."""
    head = tuple(_round(fl, frac, alpha) for fl, frac in zip(cert.floors, cert.fracs))
    prefix, conductor = _key_of(sorted(set(head)))
    return Discretization(conductor, prefix, cert, alpha, head)


def discretize(mold: Mold, m: int, alpha) -> Discretization:
    """The image of m * mold under threshold rounding at alpha.

    alpha must be an exact rational in [0, 1].  An AlphaInterval from
    alpha_sweep already holds its image: read its representative instead.
    """
    _check_alpha(alpha)
    return _discretize_at(_prefix_tables(mold, m)[0], alpha)


class AlphaInterval:
    """A maximal-by-construction run (lower, upper] of equal image sets.

    The image set is constant for alpha in (lower, upper]; key is that set
    as (prefix, conductor), stored eagerly.  representative, the full
    discretization at alpha = upper with its index map, is built on first
    access from certificate, the one record of the sweep's (mold, m) that
    its intervals and their representatives share.  The distinguished
    pure-ceiling case is stored as the degenerate interval [0, 0].
    Endpoints are exact: fractional parts of scaled mold elements, or the
    outer rationals 0 and 1.  Two intervals are equal when their endpoints,
    keys and certificates agree.
    """

    def __init__(self, lower: ExactValue, upper: ExactValue, key: tuple,
                 certificate: TruncationCertificate):
        self._lower = lower
        self._upper = upper
        self._key = key
        self._certificate = certificate

    lower = property(attrgetter("_lower"))
    upper = property(attrgetter("_upper"))
    key = property(attrgetter("_key"))
    certificate = property(attrgetter("_certificate"))

    def _fields(self) -> tuple:
        return (self._lower, self._upper, self._key, self._certificate)

    def __repr__(self) -> str:
        return f"AlphaInterval(lower={self._lower!r}, upper={self._upper!r}, key={self._key!r})"

    def __eq__(self, other):
        if not isinstance(other, AlphaInterval):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @cached_property
    def representative(self) -> Discretization:
        return _discretize_at(self.certificate, self.upper)

    @property
    def is_ceiling_point(self) -> bool:
        return self.upper == 0

    def contains_alpha(self, alpha: Rational) -> bool:
        if self.is_ceiling_point:
            return alpha == 0
        return certified_sign(self.lower, alpha) < 0 <= certified_sign(self.upper, alpha)


def _crossings(floors, fracs, keys):
    """(members, crossings): the sorted image at pure ceiling, and the pass moving it.

    Crossing each distinct nonzero fractional part, in increasing order,
    moves its indices from ceiling to floor, which updates a hit count per
    integer and, when a count reaches or leaves zero, members in place;
    crossings yields (frac, changed) after each.  The parts are sorted and
    grouped on keys, _split's sort keys, which order them exactly: integers
    first, the parts themselves only where the integers tie.  Unless every
    part has a key and all are of one family, they are sorted by value.
    """
    hits = Counter(fl if frac is None else fl + 1 for fl, frac in zip(floors, fracs))
    members = sorted(hits)
    live = [i for i, frac in enumerate(fracs) if frac is not None]
    if None in map(keys.__getitem__, live) or len({type(fracs[i]) for i in live}) > 1:
        keys = fracs
    order = sorted(live, key=keys.__getitem__)

    def crossings():
        for _, group in groupby(order, key=keys.__getitem__):
            changed = False
            for i in group:
                fl = floors[i]
                hits[fl + 1] -= 1
                if not hits[fl + 1]:
                    del members[bisect_left(members, fl + 1)]
                    changed = True
                if not hits[fl]:
                    insort(members, fl)
                    changed = True
                hits[fl] += 1
            yield fracs[i], changed
    return members, crossings()


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

    One pass of _crossings over the sorted breakpoints, starting from pure
    ceiling, on the integer-first sort keys that _split builds while it
    floors the prefix.  Each interval stores its key (the previous
    interval's tuple when the set did not change); index maps are built
    only when a representative is read.  Returned sorted by lower endpoint,
    pure-ceiling interval first.
    """
    cert, keys = _prefix_tables(mold, m)
    members, crossings = _crossings(cert.floors, cert.fracs, keys)
    key = _key_of(members)
    out = [AlphaInterval(_ZERO, _ZERO, key, cert)]
    prev = _ZERO
    for frac, changed in crossings:
        out.append(AlphaInterval(prev, frac, key, cert))
        prev = frac
        if changed:
            key = _key_of(members)
    out.append(AlphaInterval(prev, _ONE, key, cert))
    return out


def _truncated_images(mold: Mold, m: int, bound: int, splits: list) -> set:
    """Every image & [0, bound) of m * mold over alpha in [0, 1], as sorted tuples.

    Only elements with floor(m * mu_i) < bound enter (bound >= 1 keeps
    mu_0 = 0): one at or above bound rounds to at least bound.  splits, the
    _split(m * mu_i) of the leading indices, is extended as far as read, so
    a caller raising bound for one (mold, m) splits each element once.
    """
    while not splits or splits[-1][0] < bound:
        splits.append(_split(scale(mold.element(len(splits)), m)))
    members, crossings = _crossings(*zip(*takewhile(lambda s: s[0] < bound, splits)))
    images = {tuple(members)}
    images.update(tuple(members) for _, changed in crossings if changed)
    return {image[:bisect_left(image, bound)] for image in images}


def interval_for_alpha(intervals, alpha: Rational) -> AlphaInterval:
    """Locate the sweep interval containing an exact rational alpha.

    intervals must be ordered by upper endpoint, as alpha_sweep returns
    them; a bisection with certified comparisons finds the first interval
    whose upper endpoint is not below alpha.
    """
    lo = bisect_left(intervals, 0, key=lambda iv: certified_sign(iv.upper, alpha))
    if lo < len(intervals) and intervals[lo].contains_alpha(alpha):
        return intervals[lo]
    raise ValueError(f"alpha {alpha} outside [0, 1]")
