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
something reads them.  All of them read m * mu_i only as the mold's
scaled_components, (offset, component) pairs that a golden fractal mold
reads from its integer columns without building a number.  A sweep keeps
no image set per interval: it logs the members each crossing moves, and
an interval's key is replayed from that log when it is first read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, invert, is_not, itemgetter

from .exactnum import (
    ExactValue,
    Rational,
    _check_alpha,
    _part,
    _round,
    certified_sign,
)
from .molds import Mold, SpacingCertificateError, _check_multiplicity, _Record

_ZERO = Fraction(0)
_ONE = Fraction(1)
_CHUNK = 1024  # the most indices _scaled_from reads at once


class TruncationCertificate(_Record):
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
    the last index of a finite exact re-check of the step inequality on the
    pairs values reads (so consumers of index maps see it reach conductor + 2m).
    Two certificates are equal when their mold name, multiplicity, prefix
    end, conductor and witness agree; mold, floors and fracs do not count.
    """

    _fields = ("mold_name", "multiplicity", "prefix_end", "conductor", "witness", "mold",
               "floors", "fracs")
    _compared = _fields[:5]

    @cached_property
    def horizon(self) -> int:
        """Walk from the prefix end, splitting each pair that values reads; no split is kept.

        A checked step raises the floor by at most 1, so no read goes past
        the first index that could reach the target, nor past the horizon.
        """
        mold, m = self.mold, self.multiplicity
        target = self.conductor + 2 * m + 2
        horizon, current = self.prefix_end, (self.floors[-1], self.fracs[-1])
        while current[0] < target:
            for pair in mold.scaled_components(horizon + 1, horizon + 1 + target - current[0], m):
                current = _check_step(mold, horizon, current, pair)
                horizon += 1
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


class Discretization(_Record):
    """One discretized image: its cofinite shape, with the index map on demand.

    prefix holds the members below the (minimal) conductor; every integer
    at or beyond the conductor is a member (from_discretization answers
    membership).  The set rests on the spacing proof: certificate, of the
    (mold, m), holds the split prefix that fixes it.  values[i] =
    round(m * mu_i) for 0 <= i <= horizon; the horizon is computed on first
    read (of horizon, values or ==), and the rest of values is then rounded
    from the mold, reading no pair past the horizon.  iter_values() goes on
    past the prefix without a horizon, reading the mold's scaled_components
    in chunks (_scaled_from), and splitting and rounding each distinct
    component once.  The index map is
    kept because collapse detection needs to know which mold indices landed
    on the same integer.
    Two discretizations are equal when their certificates, conductors,
    prefixes and index maps agree; the hash leaves the index map out, so
    hashing never walks to the horizon.
    """

    _fields = ("conductor", "prefix", "certificate", "_alpha", "_head")
    _compared = ("certificate", "conductor", "prefix", "values")
    _shown = ("conductor", "prefix")

    @property
    def horizon(self) -> int:
        return self.certificate.horizon

    def iter_values(self, stop: int | None = None):
        """round(m * mu_i) for i = 0, 1, 2, ... without end, or past the prefix, below stop."""
        yield from self._head
        cert = self.certificate
        rounded = {}  # component -> its floor, rounded at alpha
        for offset, component in _scaled_from(cert.mold, cert.prefix_end + 1, cert.multiplicity,
                                              stop):
            if component not in rounded:
                rounded[component] = _round(*_part(component)[:2], self._alpha)
            yield offset + rounded[component]

    @cached_property
    def values(self) -> tuple:
        return tuple(self.iter_values(self.horizon + 1))

    def __hash__(self):
        return hash((self._certificate, self._conductor, self._prefix))


def _scaled_from(mold: Mold, start: int, m: int, stop: int | None = None):
    """mold.scaled_components from index start to stop, or without end, in chunks of 16, 32, ...

    The first chunk covers the ten or so indices a census bound adds; a
    values walk reads thousands, and reads no index at or past stop.
    """
    size = 16
    while stop is None or start < stop:
        end = start + size if stop is None else min(start + size, stop)
        yield from mold.scaled_components(start, end, m)
        start, size = end, min(2 * size, _CHUNK)


def _check_step(mold: Mold, i: int, current: tuple, pair: tuple) -> tuple:
    """Check that the scaled step from index i is below 1, and split m * mu_(i+1) from its pair.

    current splits m * mu_i, a None part being 0: the scaled step is below 1
    exactly when the floor does not rise, or rises by 1 onto a smaller part.
    """
    floor, part, _ = _part(pair[1])
    floor += pair[0]
    if floor > current[0] + 1 or floor == current[0] + 1 and not (part or 0) < (current[1] or 0):
        raise SpacingCertificateError(
            f"mold {mold.name!r}: scaled step at index {i} is not below 1")
    return floor, part


class _PartTable:
    """The split prefix of m * mold, with one entry per distinct component.

    floors[i] and fracs[i] split m * mu_i.  parts maps each component of
    the mold's scaled_components to [floor, part, key, floors...]: _part's
    split of the component, made on the first miss, then the floors of the
    indices that share it.  A golden or log part has one component; a value
    split whole is its own.  extend() takes (offset, component) pairs, as
    mold.scaled_components(start, stop, m) returns them, and splits each
    past the first of its component by one lookup and one addition.
    """

    def __init__(self, m: int):
        self.m, self.parts, self.floors, self.fracs = m, {}, [], []

    def extend(self, pairs) -> None:
        parts, entry_of = self.parts, self.parts.get
        add_floor, add_frac = self.floors.append, self.fracs.append
        for offset, component in pairs:
            entry = entry_of(component)
            if entry is None:
                entry = parts[component] = _part(component)
            floor = offset + entry[0]
            add_floor(floor)
            add_frac(entry[1])
            entry.append(floor)


def _prefix_tables(mold: Mold, m: int) -> tuple:
    """(certificate, table): m * mu_i split for i <= prefix_end, as one _PartTable.

    The walk's first step, at prefix_end, is checked here with its error, on
    the pair of element prefix_end + 1 and no further; the walk to the
    horizon catches a bad step further on.  Only sweeps read the table's
    parts, so the certificate keeps just its floors and fracs.
    """
    _check_multiplicity(m, "multiplicity must be a positive integer")
    prefix_end, witness = mold.spacing_index(m)
    following, = mold.scaled_components(prefix_end + 1, prefix_end + 2, m)
    table = _PartTable(m)
    table.extend(mold.scaled_components(0, prefix_end + 1, m))
    floors, fracs = table.floors, table.fracs
    _check_step(mold, prefix_end, (floors[-1], fracs[-1]), following)
    conductor = floors[-1] if fracs[-1] is None else floors[-1] + 1
    return TruncationCertificate(mold.name, m, prefix_end, conductor, witness,
                                 mold, tuple(floors), tuple(fracs)), table


def truncation_certificate(mold: Mold, m: int) -> TruncationCertificate:
    """Certify prefix_end and conductor for discretizing mold at multiplicity m.

    Eager: the walk to the horizon runs before this returns.
    """
    cert = _prefix_tables(mold, m)[0]
    cert.horizon  # walks now
    return cert


def _discretize_at(cert: TruncationCertificate, alpha) -> Discretization:
    """The image at threshold alpha, which may be any exact value.

    Each part object is rounded once, for all the indices that share it.
    """
    ups = {}  # 0 or 1 per part object

    def rounded(floor, frac):
        if frac is None:
            return floor
        up = ups.get(id(frac))
        if up is None:
            up = ups[id(frac)] = _round(0, frac, alpha)
        return floor + up

    head = tuple(map(rounded, cert.floors, cert.fracs))
    prefix, conductor = _key_of(sorted(set(head)))
    return Discretization(conductor, prefix, cert, alpha, head)


def discretize(mold: Mold, m: int, alpha) -> Discretization:
    """The image of m * mold under threshold rounding at alpha.

    alpha must be an exact rational in [0, 1].  An AlphaInterval from
    alpha_sweep already holds its image: read its representative instead.
    """
    _check_alpha(alpha)
    return _discretize_at(_prefix_tables(mold, m)[0], alpha)


class AlphaInterval(_Record):
    """A maximal-by-construction run (lower, upper] of equal image sets.

    The image set is constant for alpha in (lower, upper]; key is that set
    as (prefix, conductor).  An interval holds only its position in its
    sweep's move log, and its key is replayed from the log on first read.
    through(last) spans from this interval's lower end to last's upper end,
    with last's position, log and certificate.  representative, the full
    discretization at alpha = upper with its index map, is built on first
    access from certificate, the one record of the sweep's (mold, m) that
    its intervals and their representatives share.  The distinguished
    pure-ceiling case is stored as the degenerate interval [0, 0].
    Endpoints are exact: fractional parts of scaled mold elements, or the
    outer rationals 0 and 1.  Two intervals are equal when their endpoints,
    keys and certificates agree.
    """

    _fields = ("lower", "upper", "key", "certificate")
    _shown = ("lower", "upper", "key")

    # set directly, not bound by _Record's constructor: a sweep builds one per breakpoint
    def __init__(self, lower: ExactValue, upper: ExactValue, at: int,
                 certificate: TruncationCertificate, log: _MoveLog):
        self._lower = lower
        self._upper = upper
        self._at = at
        self._certificate = certificate
        self._log = log

    @property
    def key(self) -> tuple:
        return self._log.key(self._at)

    def through(self, last: AlphaInterval) -> AlphaInterval:
        return AlphaInterval(self.lower, last.upper, last._at, last.certificate, last._log)

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


def _crossings(table: _PartTable) -> tuple:
    """(log, crossed, ends): cross each distinct nonzero part of table in increasing order.

    hits counts the indices that round to each integer, from pure ceiling,
    whose members start the _MoveLog.  Crossing a part moves the indices of
    its entry from ceiling to floor, which updates the counts; each member
    that leaves is logged as ~v, each that enters as v.  crossed lists the
    parts in order, and ends the log's length after each.  The entries are
    sorted once on _split's sort keys, which order them exactly: integers
    first, the parts themselves only where the integers tie.  Unless every
    part has a key and all are of one family, they are sorted by value.
    Equal parts, such as two rationals an integer apart, cross together.
    """
    # each index's ceiling, counted in C; a plain dict updates faster than a Counter
    hits = dict(Counter(map(add, table.floors, map(is_not, table.fracs, repeat(None)))))
    log = _MoveLog(sorted(hits))
    entries = [entry for entry in table.parts.values() if entry[1] is not None]
    by_value = (None in map(itemgetter(2), entries)
                or len({type(entry[1]) for entry in entries}) > 1)
    order = itemgetter(1 if by_value else 2)
    entries.sort(key=order)
    crossed, ends, last = [], [], None
    move, count_of = log.moves.append, hits.get
    for entry in entries:
        for fl in entry[3:]:
            up = fl + 1
            left = hits[up] - 1
            hits[up] = left
            if not left:
                move(~up)
            held = count_of(fl, 0)
            if not held:
                move(fl)
            hits[fl] = held + 1
        key = order(entry)
        if key != last:
            crossed.append(entry[1])
            ends.append(None)
        ends[-1] = len(log.moves)
        last = key
    return log, crossed, ends


class _MoveLog:
    """A sweep's member moves, with the set after any prefix of them replayed on demand.

    moves holds v for a member entering and ~v for one leaving, in crossing
    order, from the sorted image at pure ceiling.  One cursor list is
    replayed to the position asked for: forward through the moves, or back
    through their inverses (~move), so reads in either order cost one pass
    in all.  Keys are cached per position, so the intervals at one position
    share one tuple.
    """

    __slots__ = ("moves", "_members", "_at", "_keys")

    def __init__(self, start: list):
        self.moves = []
        self._members = start
        self._at = 0
        self._keys = {}

    def members(self, at: int) -> list:
        """The sorted members after the first `at` moves, as the cursor's own list."""
        members, moves, now = self._members, self.moves, self._at
        steps = moves[now:at] if at >= now else map(invert, reversed(moves[at:now]))
        for move in steps:
            if move < 0:
                del members[bisect_left(members, ~move)]
            else:
                insort(members, move)
        self._at = at
        return members

    def key(self, at: int) -> tuple:
        key = self._keys.get(at)
        if key is None:
            key = self._keys[at] = _key_of(self.members(at))
        return key


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

    One _PartTable pass over the mold's scaled components of the prefix,
    then one pass of _crossings over its sorted entries, starting from pure
    ceiling, on the integer-first sort keys that _part builds while it
    floors each distinct part.  Each interval holds its position in the
    sweep's log of member moves; its key is replayed from the log when
    first read, and index maps are built only when a representative is
    read.  Returned sorted by lower endpoint, pure-ceiling interval first.
    """
    cert, table = _prefix_tables(mold, m)
    log, crossed, ends = _crossings(table)
    del table  # its entries are freed before the intervals are built
    out = [AlphaInterval(_ZERO, _ZERO, 0, cert, log)]
    prev, at = _ZERO, 0
    for frac, end in zip(crossed, ends):
        out.append(AlphaInterval(prev, frac, at, cert, log))
        prev, at = frac, end
    out.append(AlphaInterval(prev, _ONE, at, cert, log))
    return out


def _truncated_images(mold: Mold, m: int, bound: int, table: _PartTable) -> set:
    """Every image & [0, bound) of m * mold over alpha in [0, 1], as sorted tuples.

    table, a _PartTable at m, is extended until an element has
    floor(m * mu_i) >= bound, so a caller raising bound for one (mold, m)
    splits each element once.  Elements at or above bound round to at least
    bound, so the ones the table holds from a higher bound change no image.
    """
    floors = table.floors

    def below_bound(pairs):  # reads no element past the first floor at bound
        while not floors or floors[-1] < bound:
            yield next(pairs)

    table.extend(below_bound(_scaled_from(mold, len(floors), table.m)))
    log, _, ends = _crossings(table)
    return {tuple(ms[:bisect_left(ms, bound)]) for ms in map(log.members, [0, *ends])}


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
