"""Real molds of numerical semigroups: builders and property checks.

A mold is an increasing sequence mu_0 = 0 < mu_1 < ... with vanishing gaps
that is closed under addition; "normalized" means mu_1 = 1.  The period
pi_k(M) collects the elements in [k, k+1), and the granularity is the size
of the first period.  Everything here works on exact values (Fraction,
GoldenNumber, LogValue); every verdict is prefix-bounded and reported with
the checked bound and, on failure, the smallest lexicographic witness.
_Record, the base of PeriodSpec and of the semigroup and discretization
records, gives them equality, hashing and repr from two field lists.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence, Union

from .exactnum import (
    TAU,
    ExactValue,
    GoldenNumber,
    LogValue,
    _golden,
    certified_decision,
    certified_sign,
    exact_floor,
    scale,
)

CutValue = Union[int, Fraction, GoldenNumber]


class SpacingCertificateError(ValueError):
    """Raised when a mold cannot certify a spacing bound for truncation."""


class PropertyReport(NamedTuple):
    """Outcome of a prefix-bounded mold property check."""

    property: str  # "mold-axioms" | "metric" | "fractal" | "even-filterable"
    verdict: str  # "holds-on-prefix" | "fails"
    prefix_bound: int
    witness: Optional[tuple] = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-on-prefix"


class _Record:
    """Equality, hashing and repr of the hand-written records, from two field lists.

    A record class names public fields in _compared, which make two records
    of that class equal and hash alike, and in _shown, which its repr prints
    as Name(field=value, ...).  Records of different classes never compare
    equal.
    """

    __slots__ = ()
    _compared: tuple = ()
    _shown: tuple = ()

    def _compared_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared_values() == other._compared_values()

    def __hash__(self):
        return hash(self._compared_values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"


class PeriodSpec(_Record):
    """First period of a fractal mold: cut values 1 = c_0 < c_1 < ... < 2.

    All cuts must live in a single exact family: rational, or the golden
    ring Z[tau].  Mixing unrelated irrationals is rejected because the
    generation rule multiplies cut offsets.  Specs with equal cuts are equal.
    """

    __slots__ = ("_cuts",)
    _compared = _shown = ("cuts",)

    def __init__(self, cuts: Sequence[CutValue]):
        raw = []
        has_golden = False
        for c in cuts:
            if isinstance(c, GoldenNumber):
                if c.b == 0:
                    c = c.a
                else:
                    has_golden = True
            elif isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ValueError("cuts must be rational or golden exact values")
            raw.append(c)
        if not raw or raw[0] != 1:
            raise ValueError("first cut must be exactly 1")
        if has_golden:
            norm = [c if isinstance(c, GoldenNumber) else GoldenNumber(c, 0) for c in raw]
        else:
            norm = [Fraction(c) for c in raw]
        for left, right in zip(norm, norm[1:]):
            if not left < right:
                raise ValueError("cuts must be strictly increasing")
        if not norm[-1] < 2:
            raise ValueError("cuts must stay below 2")
        self._cuts = tuple(norm)

    cuts = property(attrgetter("_cuts"))

    @property
    def granularity(self) -> int:
        return len(self.cuts)

    @property
    def family(self) -> str:
        return "golden" if isinstance(self.cuts[0], GoldenNumber) else "rational"

    def offsets(self) -> list:
        one = self.cuts[0]
        return [c - one for c in self.cuts]


def _check_multiplicity(m, message: str) -> None:
    """Raise ValueError(message) unless m is an int, not a bool, and at least 1."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(message)


class Mold:
    """Base class: an exact-element accessor plus optional spacing data."""

    name: str = ""
    kind: str = ""

    def element(self, i: int) -> ExactValue:
        raise NotImplementedError

    def elements(self, count: int) -> list:
        return [self.element(i) for i in range(count)]

    def spacing_index(self, m: int) -> tuple[int, str]:
        """Smallest certified index N with m * (mu_(i+1) - mu_i) < 1 for all i >= N.

        Returns (N, witness description).  Raises SpacingCertificateError if
        this mold kind has no certified spacing bound.
        """
        raise SpacingCertificateError(f"mold {self.name!r} has no spacing certificate")


class MetricMold(Mold):
    """The unique normalized metric mold: element i is log2(i + 1).

    Elements are kept once built.  log2(2^s * r) is log2(r) + s, an offset
    bump, so only odd arguments are canonicalized.
    """

    name = "L"
    kind = "metric"

    def __init__(self):
        self._logs = {}  # log2(n) by n

    def element(self, i: int) -> LogValue:
        if i < 0:
            raise IndexError("mold indices start at 0")
        return self._log2(i + 1)

    def _log2(self, n: int) -> LogValue:
        v = self._logs.get(n)
        if v is None:
            twos = (n & -n).bit_length() - 1
            v = self._logs[n] = self._log2(n >> twos) + twos if twos else LogValue.log2(n)
        return v

    def spacing_index(self, m: int) -> tuple[int, str]:
        _check_multiplicity(m, "multiplicity must be >= 1")

        def ok(n: int) -> bool:
            return (n + 2) ** m < 2 * (n + 1) ** m

        hi = 1
        while not ok(hi):
            hi *= 2
        n = bisect.bisect_left(range(hi + 1), True, key=ok)  # ok is monotone, ok(0) false
        return n, f"({n}+2)^{m} < 2*({n}+1)^{m} and (n+2)/(n+1) decreases in n"


def f_ell(ell: int, n: int, p) -> ExactValue:
    """Fractal subdivision recursion with left proportion p (0 < p < 1).

    f_0(0) = 0; f_ell(n) = p * f_(ell-1)(n) when n < 2^(ell-1), and
    p + (1-p) * f_(ell-1)(n - 2^(ell-1)) otherwise.
    """
    if ell < 0 or not 0 <= n < (1 << ell):
        raise ValueError("need 0 <= n < 2^ell")
    q = 1 - p
    out = 0 * p
    for k in range(ell):
        if (n >> k) & 1:
            out = p + q * out
        else:
            out = p * out
    return out


def _fractal_elements(pieces: list):
    """Elements of the fractal mold with these first-period pieces, in order.

    pieces holds (o_j, w_j) per piece, the first starting at 0.  Period k+1
    is period k scaled into every piece; each element is yielded as soon as
    its offset is computed, and only the offsets of the previous period and
    of the current one so far are kept.  Offsets are (a, b) coefficient
    pairs of a + b*tau, so one number is built per element: a GoldenNumber,
    or k + a for rational cuts, whose b stay 0.
    """
    golden = isinstance(pieces[0][0], GoldenNumber)
    pairs = [[(v.a, v.b) if golden else (v, 0) for v in piece] for piece in pieces]
    prev = [pairs[0][0]]
    yield pieces[0][0]
    for k in itertools.count(1):
        offsets = []
        for (oa, ob), (wa, wb) in pairs:
            for xa, xb in prev:
                if golden:  # o + w*x, with tau^2 = 1 - tau
                    ya, yb = oa + wa * xa + wb * xb, ob + wa * xb + wb * (xa - xb)
                else:
                    ya, yb = oa + wa * xa, 0
                offsets.append((ya, yb))
                yield _golden(k + ya, yb) if golden else k + ya
        prev = offsets


class FractalMold(Mold):
    """Fractal mold generated from a first period by proportional subdivision.

    The first period cuts [0, 1) into pieces, piece j starting at offset o_j
    with width w_j (up to the next cut, or to 1).  Period k+1 is period k
    scaled into every piece in turn: the concatenation over j of
    [o_j + w_j * x for x in period k].  One generator computes the elements
    in order as they are read, into one flat cache that grows only up to the
    largest index asked for; it holds the pieces, not the mold.
    """

    def __init__(self, period: PeriodSpec, name: str = ""):
        if period.granularity < 2:
            raise ValueError("fractal generation needs granularity >= 2")
        self.spec = period
        l = period.granularity
        self.name = name or f"fractal[{l}]"
        if period == golden_period_spec():
            self.kind = "golden-fractal"
        else:
            self.kind = f"generic-fractal(granularity {l})"
        offsets = period.offsets()
        ends = offsets[1:] + [period.cuts[0]]  # the last piece ends at exact 1
        self._pieces = [(o, end - o) for o, end in zip(offsets, ends)]
        self._elements: list = []
        self._stream = _fractal_elements(self._pieces)

    @property
    def granularity(self) -> int:
        return self.spec.granularity

    def start_index(self, ell: int) -> int:
        l = self.spec.granularity
        return ((l ** ell) - 1) // (l - 1)

    def element(self, i: int):
        if i < 0:
            raise IndexError("mold indices start at 0")
        cache = self._elements
        if len(cache) <= i:
            cache.extend(itertools.islice(self._stream, i + 1 - len(cache)))
        return cache[i]

    def elements(self, count: int) -> list:
        if count < 1:
            return []
        self.element(count - 1)
        return self._elements[:count]

    def spacing_index(self, m: int) -> tuple[int, str]:
        _check_multiplicity(m, "multiplicity must be >= 1")
        rho = max(w for _, w in self._pieces)
        bound = Fraction(1, m)
        ell = 1
        power = rho
        while not power < bound:
            ell += 1
            power = power * rho
        return self.start_index(ell), f"rho^{ell} < 1/{m} with rho the largest first-period gap"


class GridMold(Mold):
    """Period k >= 1 is the even grid {k + j/n_k : 0 <= j < n_k}, n_k = first * base^(k-1).

    The perfect fractal mold of granularity l is first = base = l; mold Q
    (0, 1, 1.25, ..., 2, 2.125, ...) is first = 4, base = 2.
    """

    def __init__(self, first: int, base: int, name: str, kind: str):
        if first < 2 or base < 2:
            raise ValueError("granularity must be >= 2")
        self.granularity = first
        self.base = base
        self.name = name
        self.kind = kind

    def _size(self, k: int) -> int:
        return self.granularity * self.base ** (k - 1)

    def start_index(self, k: int) -> int:
        """Index of the first element of period k; period 0 is {0}."""
        if k == 0:
            return 0
        return 1 + self.granularity * (self.base ** (k - 1) - 1) // (self.base - 1)

    def element(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError("mold indices start at 0")
        if i == 0:
            return Fraction(0)
        k = 1
        while self.start_index(k + 1) <= i:
            k += 1
        return k + Fraction(i - self.start_index(k), self._size(k))

    def spacing_index(self, m: int) -> tuple[int, str]:
        _check_multiplicity(m, "multiplicity must be >= 1")
        k = 1
        while self._size(k) <= m:
            k += 1
        return self.start_index(k), f"{self._size(k)} > {m}, period-{k} step is 1/{self._size(k)}"


class ExplicitMold(Mold):
    """A finite explicit prefix; no spacing certificate."""

    def __init__(self, values: Sequence[ExactValue], name: str = "explicit"):
        self._values = list(values)
        self.name = name
        self.kind = "explicit(list rule)"

    def element(self, i: int):
        if not 0 <= i < len(self._values):
            raise IndexError("index beyond the explicit prefix")
        return self._values[i]


def metric_mold() -> MetricMold:
    return MetricMold()


def golden_fractal_mold() -> FractalMold:
    return FractalMold(golden_period_spec(), "F")


def perfect_fractal_mold(granularity: int) -> GridMold:
    return GridMold(granularity, granularity, f"perfect[{granularity}]",
                    f"perfect-fractal({granularity})")


def fractal_mold(period: PeriodSpec, name: str = "") -> FractalMold:
    return FractalMold(period, name)


def golden_period_spec() -> PeriodSpec:
    return PeriodSpec([GoldenNumber(1, 0), GoldenNumber(1, 1)])


def mold_q() -> GridMold:
    return GridMold(4, 2, "Q", "explicit(list rule)")


def mold_d() -> GridMold:
    return GridMold(10, 10, "D", "perfect-fractal(10)")


def _pair_sums(values: list, limit, step: int = 1):
    """(i, j, values[i] + values[j]) for i <= j on every step-th index.

    values must be increasing.  Pairs come in lexicographic order while the
    sum is at most limit: a row ends at its first larger sum, and the scan
    ends at the first i with 2 * values[i] > limit.  This is the one pair
    loop behind closure, semigroup and even-index checks.
    """
    n = len(values)
    for i in range(0, n, step):
        vi = values[i]
        for j in range(i, n, step):
            s = vi + values[j]
            if limit < s:
                if j == i:
                    return
                break
            yield i, j, s


def _closure_check(values: list, prop: str, bound: int, step: int = 1) -> PropertyReport:
    """Closure of the step-th values under addition, for sums inside the range.

    Each sum must be an element, and with step > 1 one on a step-th index.
    The report carries the given bound.
    """
    index_of = {v: k for k, v in enumerate(values)}
    for i, j, s in _pair_sums(values, values[-1], step):
        k = index_of.get(s)
        if k is None:
            return PropertyReport(prop, "fails", bound, (i, j),
                                  f"mu_{i} + mu_{j} = {s} is not an element")
        if k % step:
            return PropertyReport(prop, "fails", bound, (i, j),
                                  f"mu_{i} + mu_{j} = mu_{k} has odd index {k}")
    return PropertyReport(prop, "holds-on-prefix", bound)


def check_mold_axioms(mold: Mold, count: int,
                      gap_epsilon: Optional[Fraction] = None) -> PropertyReport:
    """Zero start, strict monotonicity and closure on the first `count` elements.

    The vanishing-gap axiom is a limit statement; with `gap_epsilon` given,
    its finite stand-in is checked too: every gap inside the last complete
    unit interval covered by the prefix must be strictly below epsilon,
    decided exactly, so a gap equal to epsilon fails.
    """
    _check_multiplicity(count, "count must be >= 1")
    values = mold.elements(count)
    if values[0] != 0:
        return PropertyReport("mold-axioms", "fails", count, (0,), "mu_0 is not 0")
    for i in range(count - 1):
        if not values[i] < values[i + 1]:
            return PropertyReport("mold-axioms", "fails", count, (i, i + 1),
                                  "sequence is not strictly increasing")
    if gap_epsilon is not None:
        cell = exact_floor(values[-1]) - 1
        for i, (a, b) in enumerate(zip(values, values[1:])):
            if exact_floor(a) == cell and not _gap_strictly_below(a, b, gap_epsilon):
                return PropertyReport("mold-axioms", "fails", count, (i, i + 1),
                                      f"gap at index {i} is not below {gap_epsilon}")
    return _closure_check(values, "mold-axioms", count)


def _gap_strictly_below(a, b, eps: Fraction) -> bool:
    """Whether b - a < eps = p/q, decided exactly as q*b < q*a + p by certified_sign.

    Both sides stay in their family (two logs go through _log_order), so a
    gap equal to eps is decided, not enclosed, and is not below it.
    """
    p, q = Fraction(eps).as_integer_ratio()
    return certified_sign(scale(b, q), scale(a, q) + p) < 0


def generic_fractal_mold(period: PeriodSpec, count: int) -> tuple[list, PropertyReport]:
    """Generate a fractal mold from its first period and closure-check it.

    Generation runs to the end of the period containing element count-1, so
    full periods are always compared.  Returns (elements, report); failures
    carry the smallest lexicographic witness pair of element indices.
    """
    _check_multiplicity(count, "count must be >= 1")
    mold = FractalMold(period)
    ell = 1
    while mold.start_index(ell + 1) < count:
        ell += 1
    total = mold.start_index(ell + 1)
    values = mold.elements(total)
    report = _closure_check(values, "fractal", total)
    return values, report


def check_metric(mold: Mold, bound: int) -> PropertyReport:
    """mu_(a*b-1) == mu_(a-1) + mu_(b-1) for all 2 <= a <= b with a*b - 1 <= bound."""
    _check_multiplicity(bound, "bound must be >= 1")
    values = mold.elements(bound + 1)
    for a in range(2, math.isqrt(bound + 1) + 1):
        for b in range(a, (bound + 1) // a + 1):
            if values[a * b - 1] != values[a - 1] + values[b - 1]:
                return PropertyReport("metric", "fails", bound, (a, b),
                                      f"mu_{a * b - 1} != mu_{a - 1} + mu_{b - 1}")
    return PropertyReport("metric", "holds-on-prefix", bound)


def check_even_filterable_mold(mold: Mold, bound: int) -> PropertyReport:
    """Sums of two even-index elements must land on even indices.

    Checked for all even pairs i <= j <= bound whose sum stays inside the
    generated range.
    """
    _check_multiplicity(bound, "bound must be >= 1")
    return _closure_check(mold.elements(bound + 1), "even-filterable", bound, step=2)


# enclosure width below which check_fractal lets a log-valued element pass
_FRACTAL_GAP = Fraction(1, 10 ** 9)


def check_fractal(mold: Mold, periods: int) -> PropertyReport:
    """Does the mold's subdivision structure reproduce itself?

    Period k+1 must equal period k refined at the first-period proportions.
    Rational and golden elements are compared exactly; log values have no
    exact differences or products, so those go through certified enclosures:
    a proven separation fails, agreement within _FRACTAL_GAP passes on this
    prefix.
    """
    _check_multiplicity(periods, "periods must be >= 1")
    try:
        values = list(itertools.takewhile(lambda v: v < periods + 1,
                                         map(mold.element, itertools.count())))
    except IndexError:
        raise ValueError(f"mold {mold.name!r}: its prefix ends before period {periods} "
                         "is complete") from None
    bound = len(values)
    grouped: list[list] = [[] for _ in range(periods + 1)]
    for v in values:
        grouped[exact_floor(v)].append(v)
    if len(grouped[0]) != 1 or len(grouped[1]) < 2:
        return PropertyReport("fractal", "fails", bound, (0,),
                              "need one element in period 0 and granularity >= 2")
    exact = not any(isinstance(v, LogValue) for v in values)
    base = [c - 1 for c in grouped[1]]
    l = len(base)
    for k in range(1, periods):
        actual = [v - (k + 1) for v in grouped[k + 1]]
        prev = [v - k for v in grouped[k]]
        if len(actual) != l * len(prev):
            return PropertyReport("fractal", "fails", bound, (k + 1,),
                                  f"period {k + 1} has {len(actual)} elements, expected {l * len(prev)}")
        pos = 0
        for r, left in enumerate(prev):
            right = prev[r + 1] if r + 1 < len(prev) else 1
            for o in base:
                if exact:
                    match = actual[pos] == left + o * (right - left)
                else:
                    match = _certified_subdivision_match(actual[pos], left, o, right)
                if match is False:
                    return PropertyReport(
                        "fractal", "fails", bound, (k + 1, pos),
                        f"period {k + 1} element {pos} differs from the subdivision prediction")
                pos += 1
    return PropertyReport("fractal", "holds-on-prefix", bound)


def _certified_subdivision_match(actual, left, o, right) -> Optional[bool]:
    """Compare actual against left + o*(right - left) through enclosures.

    True is never returned: enclosures only ever prove separation (False)
    or leave the pair indistinguishable at width _FRACTAL_GAP (None).
    """

    def indistinguishable(a, x, o, y):
        (a_lo, a_hi), (x_lo, x_hi), (y_lo, y_hi) = a, x, y
        prod_lo, prod_hi = _iv_mul(o, (y_lo - x_hi, y_hi - x_lo))
        lo_pred = x_lo + prod_lo
        hi_pred = x_hi + prod_hi
        if a_hi < lo_pred or hi_pred < a_lo:
            return False
        if (hi_pred - lo_pred) < _FRACTAL_GAP and a_hi - a_lo < _FRACTAL_GAP:
            return True
        return None

    return None if certified_decision((actual, left, o, right), indistinguishable) else False


def _iv_mul(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return (min(products), max(products))


class UniquenessCertificate(NamedTuple):
    """Exact evidence that tau is the only granularity-2 proportion in (1/2, 1).

    The closure constraint 2*(1+p) in M forces one of three polynomials to
    vanish; each factors over the integers, and only p^2 + p - 1 has a root
    strictly between 1/2 and 1, namely tau.
    """

    root: GoldenNumber
    root_satisfies_quadratic: bool
    root_in_open_interval: bool
    factorizations: tuple  # ((cubic, factors), ...) as coefficient tuples
    factorizations_verified: bool
    alternative_roots_excluded: bool


def _poly_mul(p: tuple, q: tuple) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_eval(poly: tuple, x):
    """poly(x) by Horner's rule, for a little-endian coefficient tuple."""
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# The closure constraint's three case polynomials with their integer
# factors; coefficient tuples are little-endian: (c0, c1, c2, ...)
_CASE_FACTS = (
    ((1, -2, 0, 1), ((-1, 1, 1), (-1, 1))),  # p^3 - 2p + 1 = (p^2 + p - 1)(p - 1)
    ((1, -2, 1), ((-1, 1), (-1, 1))),  # p^2 - 2p + 1 = (p - 1)^2
    ((-1, 2, -2, 1), ((1, -1, 1), (-1, 1))),  # p^3 - 2p^2 + 2p - 1 = (p^2 - p + 1)(p - 1)
)


def uniqueness_certificate() -> UniquenessCertificate:
    """Check the case factorizations, and the roots of each factor, exactly.

    Every verdict is evaluated from the coefficients in _CASE_FACTS; the
    case polynomials themselves are typed in, not derived from the period
    construction.
    """
    facts = _CASE_FACTS
    verified = all(_poly_mul(f1, f2) == cubic for cubic, (f1, f2) in facts)
    (_, (quad, _)), _, (_, (no_real, _)) = facts
    tau_quad = _poly_eval(quad, TAU) == 0
    tau_interval = certified_sign(TAU, Fraction(1, 2)) > 0 and certified_sign(TAU, 1) < 0
    # a quadratic that changes sign on (1/2, 1) has exactly one root there
    quad_signs = len(quad) == 3 and _poly_eval(quad, Fraction(1, 2)) < 0 < _poly_eval(quad, 1)
    # every linear factor vanishes at the endpoint 1, outside the open interval
    linear_at_one = all(_poly_eval(f, 1) == 0 for _, factors in facts for f in factors
                        if len(f) == 2)
    c0, c1, c2 = no_real
    disc_negative = c1 * c1 - 4 * c0 * c2 < 0
    other = quad_signs and linear_at_one and disc_negative
    return UniquenessCertificate(
        root=TAU,
        root_satisfies_quadratic=tau_quad,
        root_in_open_interval=tau_interval,
        factorizations=facts,
        factorizations_verified=verified,
        alternative_roots_excluded=other,
    )


class ScanResult(NamedTuple):
    grid_step: Fraction
    prefix: int
    tolerance: Fraction
    survivors: tuple  # grid proportions passing both axiom sieves
    violations: tuple  # (p, worst closure violation) for each survivor
    degenerate: tuple  # grid proportions whose prefix gaps fall below tolerance
    certificate: UniquenessCertificate


def period_uniqueness_scan(grid_step: Fraction, prefix: int) -> ScanResult:
    """Scan granularity-2 periods {1, 1+p} for p on a rational grid in (0,1), p != 1/2.

    Each grid point generates its first `prefix` elements and must pass both
    mold axioms at tolerance resolution, the tolerance being the grid step:
    consecutive elements separated by more than the tolerance (as p nears 0
    or 1 the sequence collapses toward the integers and every sum lands
    near an element, so closure alone cannot reject the degenerate
    endpoints), and every pairwise sum inside the generated range within
    the tolerance of an element.  p = 1/2 is excluded: its period generates
    the perfect halving mold, which really is closed.  The scan is a
    tolerance sieve, not a proof: the exact certificate, which evaluates its
    case polynomials, pins the unique surviving proportion, tau.
    """
    grid_step = Fraction(grid_step)
    if not 0 < grid_step < Fraction(1, 10):
        raise ValueError("grid step must lie in (0, 0.1)")
    if prefix < 8:
        raise ValueError("prefix must be at least 8")
    half = Fraction(1, 2)
    survivors = []
    violations = []
    degenerate = []
    for k in range(1, math.ceil(1 / grid_step)):
        p = k * grid_step
        if p == half:
            continue
        values = FractalMold(PeriodSpec([Fraction(1), 1 + p])).elements(prefix)
        if any(b - a <= grid_step for a, b in zip(values, values[1:])):
            degenerate.append(p)
            continue
        worst = _worst_closure_violation(values)
        if worst <= grid_step:
            survivors.append(p)
            violations.append((p, worst))
    return ScanResult(grid_step, prefix, grid_step, tuple(survivors), tuple(violations),
                      tuple(degenerate), uniqueness_certificate())


def _worst_closure_violation(values: list) -> Fraction:
    present = set(values)
    n = len(values)
    worst = Fraction(0)
    for _, _, s in _pair_sums(values, values[-1]):
        if s in present:
            continue
        pos = bisect.bisect_left(values, s)
        dist = s - values[pos - 1]
        if pos < n and values[pos] - s < dist:
            dist = values[pos] - s
        if dist > worst:
            worst = dist
    return worst
