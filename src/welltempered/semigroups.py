"""Numerical semigroups and their discretization-level predicates.

A numerical semigroup is stored canonically as a finite prefix plus a
conductor: the sorted members below the smallest integer from which
everything is present. Verification checks additive closure pair by pair,
reporting the smallest violating pair. On top of that sit the quantities
tied to discretized molds, each computed from the Discretization it
describes: the collapse (first integer hit by two consecutive mold
indices) and the even-index filter test (sums of even-indexed elements
must stay even-indexed until the collapse absorbs them), which is the
half-closed-pipe condition.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import pairwise

from .discretize import Discretization, _key_of
from .molds import PropertyReport, _pair_sums, _Record


class NumericalSemigroup(_Record):
    """Cofinite additive submonoid of the naturals, canonical form.

    prefix holds the members strictly below conductor; every integer at or
    beyond conductor is a member. The conductor is minimal, so two
    semigroups are equal, and hash alike, exactly when their prefix and
    conductor agree, which is equality of the underlying sets. Elements
    are indexed s_0 = 0 < s_1 < s_2 < ... across prefix and tail.
    """

    __slots__ = ("_prefix", "_conductor")
    _fields = ("prefix", "conductor")

    def __contains__(self, n) -> bool:
        if not isinstance(n, int) or isinstance(n, bool):
            return False
        return self.index_of(n) is not None

    def element(self, i: int) -> int:
        if i < 0:
            raise IndexError("element indices start at 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.conductor + (i - len(self.prefix))

    def index_of(self, n: int):
        """Index i with s_i = n, or None when n is not a member."""
        if n >= self.conductor:
            return len(self.prefix) + (n - self.conductor)
        pos = bisect_left(self.prefix, n)
        if pos < len(self.prefix) and self.prefix[pos] == n:
            return pos
        return None

    def elements_below(self, bound: int) -> list:
        out = [e for e in self.prefix if e < bound]
        out.extend(range(self.conductor, max(self.conductor, bound)))
        return out


def numerical_semigroup(elements, conductor: int) -> NumericalSemigroup:
    """Canonicalize a finite-complement set given by members plus conductor."""
    if isinstance(conductor, bool) or not isinstance(conductor, int) or conductor < 0:
        raise ValueError("conductor must be a nonnegative integer")
    members = set()
    for e in elements:
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValueError(f"member {e!r} is not a nonnegative integer")
        if e < conductor:
            members.add(e)
    if conductor > 0 and 0 not in members:
        raise ValueError("0 must be a member")
    return NumericalSemigroup(*_key_of(sorted(members) + [conductor]))


def from_discretization(d: Discretization) -> NumericalSemigroup:
    """The image set of a discretization, whose key is already canonical."""
    return NumericalSemigroup(d.prefix, d.conductor)


def verify_semigroup(candidate) -> PropertyReport:
    """Closure check; witness is the smallest violating pair (a, b) if any.

    Accepts a NumericalSemigroup or a Discretization. The pair scan covers
    every pair of nonzero prefix members a <= b with a + b below the
    conductor; sums at or beyond the conductor are members outright, so
    no pair reaching past the conductor can be a violation. The reported
    bound is conductor + largest prefix member.
    """
    prefix, conductor = tuple(candidate.prefix), candidate.conductor
    members = set(prefix)
    bound = conductor + (prefix[-1] if prefix else 0)
    nonzero = [e for e in prefix if e > 0]
    for i, j, s in _pair_sums(nonzero, conductor - 1):
        if s not in members:
            a, b = nonzero[i], nonzero[j]
            return PropertyReport(
                "semigroup-closure", "fails", bound, (a, b),
                f"{a} + {b} = {s} is not a member")
    return PropertyReport("semigroup-closure", "holds-on-prefix", bound, None,
                          f"all pairwise sums below {bound} are members")


def genus_multiplicity(s: NumericalSemigroup):
    """(gaps, genus, multiplicity) of a verified semigroup."""
    member = set(s.prefix)
    gaps = tuple(n for n in range(s.conductor) if n not in member)
    return gaps, len(gaps), s.element(1)


class CollapseRecord(_Record):
    """Smallest integer kappa hit by two consecutive mold indices: witness_index and the next."""

    _fields = ("kappa", "witness_index")


def collapse(d: Discretization) -> CollapseRecord:
    """First repeated value of the discretization's index map.

    The map is streamed from the mold, so no horizon is computed.
    """
    for i, (previous, value) in enumerate(pairwise(d.iter_values())):
        if value == previous:
            return CollapseRecord(value, i)


def even_filterable_semigroup(d: Discretization) -> PropertyReport:
    """Sums of two even-indexed elements must be even-indexed or >= collapse.

    Checks every pair (s_2i, s_2j) whose sum lies below the collapse of the
    discretization; each such sum must land on an element of even index.
    The witness is the first violating index pair (2i, 2j).
    """
    s = from_discretization(d)
    kappa = collapse(d).kappa
    identities = []
    for i, j, total in _pair_sums(s.elements_below(kappa), kappa - 1, step=2):
        k = s.index_of(total)
        if k is None or k % 2 == 1:
            where = "not a member" if k is None else f"s_{k} with odd index"
            return PropertyReport(
                "even-filterable-semigroup", "fails", kappa, (i, j),
                f"s_{i} + s_{j} = {total} is {where} below collapse {kappa}")
        if i > 0:
            identities.append(f"s_{i}+s_{j}=s_{k}")
    return PropertyReport(
        "even-filterable-semigroup", "holds-on-prefix", kappa, None,
        "; ".join(identities) or "no even-index sums below the collapse")
