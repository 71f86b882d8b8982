"""Exact number families used throughout the library.

``GoldenNumber`` is the ring Z[tau], tau = (sqrt(5) - 1)/2, with a total
order decided purely by integer sign analysis.  ``LogValue`` is an
unevaluated m*log2(n) + c, floored and ordered against another log or a
small-denominator rational by exact integer powers n**m up to a size gate,
and past it through certified enclosures.
``fractions.Fraction`` covers the rational family.  Floats never decide
anything: certified enclosures are built from integer square roots and
interval squaring.

Every certified decision goes through one refinement loop,
``certified_decision``, which holds the only precision counter: each round
it encloses every value as a (lower, upper) pair, ``x.enclosure(bits)`` for
a golden or log value and (r, r) for a rational, and it doubles bits from
64 until a decision rule settles, up to ``PREC_BUDGET_BITS`` (4096), past
which it raises ``PrecisionBudgetExceeded`` (a ValueError) with the values,
the bits reached and the last pairs.  ``certified_sign`` orders any two
exact values, and both order operators, ``GoldenNumber.__lt__`` and
``LogValue.__lt__``, call it for a value of their own family or a rational.
A golden number and a log have no operator order: ``<`` between them
raises TypeError in either order.

``_split``, the discretizations' split kernel, floors a value once and
returns (floor, fractional part, sort key).  A golden or log part's key is
an integer, monotone in the part and a by-product of the floor, so sweeps
order their breakpoints by integer comparisons and compare exact parts
only where two integers tie.
``_scaled_component`` writes m * x as an integer plus a component, m*b of
a golden a + b*tau or (m*mult, arg) of a log, which fixes the fractional
part.  Its one caller is ``Mold.scaled_components``; a golden fractal mold
overrides that and reads the same pairs from its integer coefficient
columns, with no number built.  ``_part`` splits a component, so tables
keyed on components split each distinct part once.  Every Z[tau] floor, split or not, comes from
``_floor_int_tau``, which brackets |b|*sqrt(5) with a fixed-point sqrt(5)
built once at import and settles the bracket by at most one integer
test, taking no square root below 2^256.

Arithmetic results are built through two private raw constructors,
``_golden`` and ``_log``, which skip the coefficient checks and the
canonicalization.  They are used only where the form is already
canonical: integer coefficients of a GoldenNumber (anything else goes
through the checked constructor), and a LogValue whose (mult, arg) is
copied from a canonical value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering

Rational = int | Fraction

_TAU_FLOAT = (math.sqrt(5.0) - 1.0) / 2.0


def _as_coeff(x: Rational) -> Rational:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 1, exactly, by integer Newton steps.

    The seed 2^ceil(bits/k) is at least the root, and from above the
    Newton iterates decrease to the floor of the root, where they stop.
    """
    if k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _primitive_power(n: int) -> tuple[int, int]:
    """Write an odd n >= 3 as r**k with k maximal; the base r is then not a perfect power.

    n must be odd, as LogValue passes it: every root is then odd and at
    least 3, so an exponent p with 3**p > n (for n as reduced so far) has
    no root, and the exponents stop there.
    """
    k, p, low = 1, 2, 9  # low = 3**p
    while low <= n:  # n is an e-th power just for e dividing k, so
        if pow(2, p, p) == 2 % p:  # try each prime (this passes all; a composite finds none)
            while (r := math.isqrt(n) if p == 2 else _integer_root(n, p)) ** p == n:
                n, k = r, k * p
        p, low = p + 1, low * 3
    return n, k


def _sign_u_v_sqrt5(u: int, v: int) -> int:
    """Sign of u + v*sqrt(5) for integers u, v.

    When u and v have opposite signs the comparison u**2 vs 5*v**2 decides;
    5*v**2 is never a perfect square for v != 0, so the result is never a
    spurious zero.
    """
    if v == 0:
        return (u > 0) - (u < 0)
    if v > 0:
        if u >= 0:
            return 1
        return 1 if u * u < 5 * v * v else -1
    if u <= 0:
        return -1
    return 1 if u * u > 5 * v * v else -1


def _cleared(a: Rational, b: Rational) -> tuple[int, int, int]:
    """(q*a, q*b, q) for the least positive integer q that clears both denominators."""
    fa, fb = Fraction(a), Fraction(b)
    q = math.lcm(fa.denominator, fb.denominator)
    return int(fa * q), int(fb * q), q


def _sign_a_b_tau(a: Rational, b: Rational) -> int:
    """Sign of a + b*tau for rational a, b."""
    if not (type(a) is int and type(b) is int):
        a, b, _ = _cleared(a, b)
    # a + b*tau = ((2a - b) + b*sqrt(5)) / 2
    return _sign_u_v_sqrt5(2 * a - b, b)


# sqrt(5) in fixed point: _SQRT5 = floor(sqrt(5) * 2^_SQRT5_BITS), built once
_SQRT5_BITS = 256
_SQRT5 = math.isqrt(5 << (2 * _SQRT5_BITS))


def _floor_int_tau(a: int, b: int) -> int:
    """floor(a + b*tau) for integers a, b, from s = floor(|b|*sqrt(5)).

    For 0 < |b| < 2^E, E = _SQRT5_BITS, p = |b| * _SQRT5 satisfies
    p < |b|*sqrt(5) * 2^E < p + |b|, as 0 < sqrt(5) * 2^E - _SQRT5 < 1, so
    q = p >> E satisfies q <= |b|*sqrt(5) < q + 2.  s is q unless
    (p + |b|) >> E passes q, and then q + 1 exactly when
    (q + 1)^2 <= 5*b^2.  Only a larger |b| takes math.isqrt(5*b^2).
    """
    if b == 0:
        return a
    n = b if b > 0 else -b
    if n >> _SQRT5_BITS:
        s = math.isqrt(5 * n * n)
    else:
        p = n * _SQRT5
        s = p >> _SQRT5_BITS
        if (p + n) >> _SQRT5_BITS > s and (s + 1) * (s + 1) <= 5 * n * n:
            s += 1
    if b > 0:
        # max k with 2k + b <= b*sqrt(5); equality is impossible
        return a + (s - b) // 2
    # b*tau is irrational, so floor(-x) = -floor(x) - 1
    return a - ((s + b) // 2 + 1)


@total_ordering
class GoldenNumber:
    """An element a + b*tau of Z[tau] (or Q[tau] with Fraction coefficients).

    tau = (sqrt(5) - 1)/2 satisfies tau**2 = 1 - tau, which keeps products
    inside the ring.  Ordering, floor and fractional part are all exact.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        self._a = _as_coeff(a)
        self._b = _as_coeff(b)

    @property
    def a(self) -> Rational:
        return self._a

    @property
    def b(self) -> Rational:
        return self._b

    def __repr__(self) -> str:
        return f"GoldenNumber({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*tau"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a}{sign}{abs(self._b)}*tau"

    def _coerce(self, other) -> "GoldenNumber | None":
        if isinstance(other, GoldenNumber):
            return other
        if type(other) is int:
            return _golden(other, 0)
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(other, 0)
        return None

    def __add__(self, other):
        if type(other) is int:
            return _golden(self._a + other, self._b)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _golden(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _golden(self._a - o._a, self._b - o._b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> GoldenNumber:
        return _golden(-self._a, -self._b)

    def __mul__(self, other):
        if type(other) is int:
            return _golden(self._a * other, self._b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        # (a1 + b1 tau)(a2 + b2 tau) with tau^2 = 1 - tau
        return _golden(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenNumber:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = _golden(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, GoldenNumber):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, (GoldenNumber, int, Fraction)) and not isinstance(other, bool):
            return certified_sign(self, other) < 0
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def sign(self) -> int:
        return _sign_a_b_tau(self._a, self._b)

    def is_integer(self) -> bool:
        return self._b == 0 and (isinstance(self._a, int))

    def floor(self) -> int:
        if type(self._a) is int and type(self._b) is int:
            return _floor_int_tau(self._a, self._b)
        a, b, q = _cleared(self._a, self._b)
        # floor(x/q) = floor(floor(x)/q) for positive integer q
        return _floor_int_tau(a, b) // q

    def ceil(self) -> int:
        f = self.floor()
        return f if self == f else f + 1

    def frac(self) -> GoldenNumber:
        return self - self.floor()

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * _TAU_FLOAT

    def enclosure(self, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
        """Certified rational interval containing the value."""
        a, b = Fraction(self._a), Fraction(self._b)
        s = math.isqrt(5 << (2 * prec_bits))
        scale = 1 << (prec_bits + 1)
        tau_lo = Fraction((s - (1 << prec_bits)), scale)
        tau_hi = Fraction((s + 1 - (1 << prec_bits)), scale)
        if b >= 0:
            return (a + b * tau_lo, a + b * tau_hi)
        return (a + b * tau_hi, a + b * tau_lo)


def _golden(a: Rational, b: Rational) -> GoldenNumber:
    """GoldenNumber(a, b), skipping the coefficient checks when both are int."""
    if type(a) is int and type(b) is int:
        g = object.__new__(GoldenNumber)
        g._a = a
        g._b = b
        return g
    return GoldenNumber(a, b)


TAU = GoldenNumber(0, 1)


@lru_cache(maxsize=None)
def certified_log2(n: int, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of log2(n) by interval squaring.

    Keeps lower/upper mantissas with directed rounding; stops early (with a
    correct, wider interval) if the interval ever straddles a bit decision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = n.bit_length() - 1
    if n == (1 << e):
        return (Fraction(e), Fraction(e))
    B = prec_bits + 16
    one = 1 << B
    two = one << 1
    lo = n << (B - e) if B >= e else n >> (e - B)
    hi = lo
    y = 0
    k = 0
    while k < prec_bits:
        lo = (lo * lo) >> B
        hi = ((hi * hi) + one - 1) >> B
        k += 1
        y <<= 1
        if hi < two:
            continue
        if lo >= two:
            y |= 1
            lo >>= 1
            hi = (hi + 1) >> 1
            continue
        # interval straddles 2: cannot certify this bit, widen and stop
        y >>= 1
        k -= 1
        break
    scale = 1 << k
    return (Fraction(e) + Fraction(y, scale), Fraction(e) + Fraction(y + 1, scale))


# largest mult * bit_length(arg) for which LogValue._power builds arg**mult.  This is
# the sweeps' gate; PREC_BUDGET_BITS gates certified_floor and certified_sign's
# log-vs-rational order, where a one-off power costs more than an enclosure.  Keep the
# two (2-core VM): one gate at 4096 took alpha_sweep(L, 1000) from 0.12 to 0.46 s, and
# one at 10**6 took `mold show --mold L --count 2000` from 0.25 to 5.9 s.
_EXACT_POWER_BITS = 10 ** 6

# largest odd part of a log's argument, in bits: canonicalizing takes a root for each
# prime below its bit length, 0.1 s at this size (2-core VM) and 0.6 s at twice it
_MAX_ARG_BITS = 4096


@total_ordering
class LogValue:
    """Unevaluated m*log2(n) + c with integers m >= 1, n >= 1 and c.

    Canonical form keeps n odd (powers of two fold into the offset) and not
    a perfect power (m absorbs the exponent), so equal values share one
    representation and the value is an integer exactly when n == 1.
    Equality is therefore structural (an integer-valued log also equals its
    int, Fraction or GoldenNumber).  Floors and _log_order use arg**mult from
    _power, cached per (mult, arg) and declined past _EXACT_POWER_BITS, where
    enclosures decide instead.  A rational goes to certified_sign, which
    orders a small denominator exactly through _log_order and a large one
    through enclosures.  A golden number has no operator order against a
    log (< raises TypeError); certified_sign orders the two by enclosures.
    """

    __slots__ = ("_m", "_n", "_c", "_pow")

    def __init__(self, mult: int, arg: int, offset: int = 0):
        if not (isinstance(mult, int) and isinstance(arg, int) and isinstance(offset, int)):
            raise TypeError("LogValue parts must be integers")
        if mult < 1 or arg < 1:
            raise ValueError("need mult >= 1 and arg >= 1")
        twos = (arg & -arg).bit_length() - 1
        arg >>= twos
        offset += mult * twos
        if arg.bit_length() > _MAX_ARG_BITS:
            raise ValueError("log argument too large to represent exactly")
        if arg > 1:
            # canonical base is not a perfect power, so equal values share
            # one representation (and one hash): m*log2(r^k) = (m*k)*log2(r)
            root, k = _primitive_power(arg)
            if k > 1:
                arg = root
                mult *= k
        if arg == 1:
            mult = 1
        self._m = mult
        self._n = arg
        self._c = offset
        self._pow = None

    @property
    def mult(self) -> int:
        return self._m

    @property
    def arg(self) -> int:
        return self._n

    @property
    def offset(self) -> int:
        return self._c

    @classmethod
    def log2(cls, n: int) -> LogValue:
        return cls(1, n)

    def __repr__(self) -> str:
        return f"LogValue({self._m}, {self._n}, {self._c})"

    def __str__(self) -> str:
        if self._n == 1:
            return str(self._c)
        head = f"log2({self._n})" if self._m == 1 else f"{self._m}*log2({self._n})"
        if self._c == 0:
            return head
        return f"{head}{self._c:+d}"

    def is_integer(self) -> bool:
        return self._n == 1

    def __add__(self, other):
        if isinstance(other, LogValue):
            if self._n == 1:
                return other + self._c
            if other._n == 1:
                return self + other._c
            if self._m == other._m:
                return LogValue(self._m, self._n * other._n, self._c + other._c)
            # arg**mult has more than mult*(bits(arg) - 1) bits; this bound on the
            # product needs neither power, and when it passes both are under the gate
            if sum(v._m * (v._n.bit_length() - 1) for v in (self, other)) + 1 > _MAX_ARG_BITS:
                raise ValueError("sum too large to represent exactly")
            ps, po = self._power(), other._power()
            if ps.bit_length() + po.bit_length() - 1 > _MAX_ARG_BITS:  # a tighter bound
                raise ValueError("sum too large to represent exactly")
            return LogValue(1, ps * po, self._c + other._c)
        if isinstance(other, int) and not isinstance(other, bool):
            return _log(self._m, self._n, self._c + other, self._pow)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return _log(self._m, self._n, self._c - other, self._pow)
        return NotImplemented

    def scaled(self, k: int) -> LogValue:
        """k * (m*log2(n) + c) for a positive integer k."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("scale must be a positive integer")
        if self._n == 1:
            return _log(1, 1, self._c * k, 1)
        return _log(self._m * k, self._n, self._c * k)

    def _has_power(self) -> bool:
        """Whether _power gives arg**mult: cached, or mult*bit_length(arg) <= _EXACT_POWER_BITS."""
        return self._pow is not None or self._m * self._n.bit_length() <= _EXACT_POWER_BITS

    def _power(self) -> "int | None":
        """arg**mult, cached; None when not _has_power()."""
        if self._pow is None and self._has_power():
            self._pow = self._n ** self._m
        return self._pow

    def floor(self) -> int:
        power = self._power()
        if power is None:
            return certified_decision((self,), _settled_floor)
        return power.bit_length() - 1 + self._c

    def ceil(self) -> int:
        return self._c if self._n == 1 else self.floor() + 1

    def frac(self) -> LogValue:
        return _log(self._m, self._n, self._c - self.floor(), self._pow)

    def __eq__(self, other):
        # canonical forms are unique, and a non-integer log is transcendental
        if isinstance(other, LogValue):
            return (self._m, self._n, self._c) == (other._m, other._n, other._c)
        if isinstance(other, (int, Fraction, GoldenNumber)) and not isinstance(other, bool):
            return self._n == 1 and other == self._c
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (LogValue, int, Fraction)) and not isinstance(other, bool):
            return certified_sign(self, other) < 0
        return NotImplemented

    def __hash__(self):
        if self._n == 1:
            return hash(self._c)
        return hash((self._m, self._n, self._c))

    def __float__(self) -> float:
        return self._m * math.log2(self._n) + self._c

    def enclosure(self, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
        lo, hi = certified_log2(self._n, prec_bits)
        return (self._m * lo + self._c, self._m * hi + self._c)


def _log(mult: int, arg: int, offset: int, power: "int | None" = None) -> LogValue:
    """LogValue(mult, arg, offset) for a form that is already canonical.

    power, when given, is arg**mult (carried over from a value with the
    same mult and arg).
    """
    v = object.__new__(LogValue)
    v._m = mult
    v._n = arg
    v._c = offset
    v._pow = power
    return v


def _log_order(x: LogValue, y: LogValue) -> int:
    """-1, 0 or 1 as the log x is below, equal to, or above the log y.

    x - y = log2(px) - log2(py) + d for the powers px, py and offset gap d;
    as 0 <= log2(p) < bit_length(p), a gap at least the opposite power's bit
    length decides alone.  Distinct canonical forms are never equal.  When
    _power would decline either power, enclosures decide instead, and
    neither power is built.
    """
    if x._n == y._n and x._m == y._m:
        return (x._c > y._c) - (x._c < y._c)
    if not (x._has_power() and y._has_power()):
        return certified_decision((x, y), _separation)
    px, py = x._power(), y._power()
    d = x._c - y._c
    if d >= py.bit_length() or -d >= px.bit_length():
        return 1 if d > 0 else -1
    if d > 0:
        px <<= d
    elif d < 0:  # not shifting by 0, which would copy the power
        py <<= -d
    return 1 if px > py else -1


ExactValue = int | Fraction | GoldenNumber | LogValue


def is_exact_value(x) -> bool:
    return isinstance(x, (int, Fraction, GoldenNumber, LogValue)) and not isinstance(x, bool)


def exact_floor(x: ExactValue) -> int:
    if isinstance(x, (GoldenNumber, LogValue)):
        return x.floor()
    return math.floor(x)


def exact_ceil(x: ExactValue) -> int:
    if isinstance(x, (GoldenNumber, LogValue)):
        return x.ceil()
    return math.ceil(x)


def exact_frac(x: ExactValue):
    """x - floor(x), in the same family as x."""
    if isinstance(x, (GoldenNumber, LogValue)):
        return x.frac()
    return Fraction(x) - math.floor(x)


def exact_is_integer(x: ExactValue) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    return x.is_integer()


# bits of a sort key's integer: at 64, no two distinct parts share one in the golden
# sweeps at m <= 60, 100 and 200 or the metric ones at m <= 60 and 400 (checked by the
# tests), and the parts themselves decide any tie
_KEY_BITS = 64


def _split(x: ExactValue) -> tuple:
    """(floor, fractional part, sort key) of x, flooring x once.

    The part and the key are None at an integer, and the key is None for a
    part without one.  A golden a + b*tau with int coefficients is a plus
    _part(b).  A log m*log2(n) + c whose power p = n**m _power builds is
    floored as bit_length(p) - 1 + c, and its key is p's leading K + 1
    bits, K = _KEY_BITS, which are floor(2^(K + part)).  A key is a plain
    integer, nondecreasing in the part: equal parts have equal keys, and
    where two keys tie the parts themselves decide.
    """
    if type(x) is GoldenNumber and type(x._a) is int and type(x._b) is int:
        floor, frac, key = _part(x._b)
        return x._a + floor, frac, key
    if type(x) is LogValue and x._n != 1 and (power := x._power()) is not None:
        bits = power.bit_length()
        floor = bits - 1 + x._c
        frac = _log(x._m, x._n, x._c - floor, power)
        cut = bits - 1 - _KEY_BITS
        return floor, frac, power >> cut if cut >= 0 else power << -cut
    floor = exact_floor(x)
    if exact_is_integer(x):
        return floor, None, None
    return floor, x - floor, None


def _scaled_component(x: ExactValue, m: int) -> tuple:
    """(offset, component) of m * x, an integer plus the value of the component.

    The component is m*b, for m*b*tau, of a golden a + b*tau with int
    coefficients, or (m*mult, arg), for (m*mult)*log2(arg), of a log; the
    offset is m*a or m*c.  Any other value is scaled whole, with component
    0 at an integer.
    """
    if type(x) is GoldenNumber and type(x._a) is int and type(x._b) is int:
        return x._a * m, x._b * m
    if type(x) is LogValue and x._n != 1:
        return x._c * m, (x._m * m, x._n)
    y = scale(x, m)
    return (exact_floor(y), 0) if exact_is_integer(y) else (0, y)


def _part(component) -> list:
    """_split's [floor, fractional part, sort key] of a component of _scaled_component.

    An int c is split by one _floor_int_tau: t = floor(2^K * c*tau), K =
    _KEY_BITS, gives the floor t >> K, and t's low K bits are the key,
    the integer floor(2^K * part).
    """
    if type(component) is not int:
        return list(_split(_log(*component, 0) if type(component) is tuple else component))
    if not component:
        return [0, None, None]
    t = _floor_int_tau(0, component << _KEY_BITS)
    frac = _golden(-(t >> _KEY_BITS), component)
    return [t >> _KEY_BITS, frac, t & ((1 << _KEY_BITS) - 1)]


def _round(floor: int, frac, alpha) -> int:
    """Threshold rounding: the floor when frac < alpha, else the ceiling."""
    if frac is None or certified_sign(frac, alpha) < 0:
        return floor
    return floor + 1


def _check_alpha(alpha) -> None:
    """Raise unless alpha is an exact rational threshold in [0, 1]."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise TypeError("alpha must be an exact rational")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")


def floor_alpha(x: ExactValue, alpha: Rational) -> int:
    """Rounding with threshold: floor(x) if frac(x) < alpha, else ceiling(x).

    alpha must be an exact rational in [0, 1].  The floor condition is
    strict, so a fractional part exactly equal to alpha rounds up; alpha = 0
    is pure ceiling and alpha = 1 pure flooring.  Integers are fixed points
    for every alpha.
    """
    _check_alpha(alpha)
    floor, frac, _ = _split(x)
    return _round(floor, frac, alpha)


def scale(x: ExactValue, k: int) -> ExactValue:
    """k * x for a positive integer k, staying inside x's exact family."""
    if isinstance(x, LogValue):
        return x.scaled(k)
    if isinstance(x, GoldenNumber):
        return x * k
    return Fraction(x) * k


PREC_BUDGET_BITS = 4096


class PrecisionBudgetExceeded(ValueError):
    """A certified decision still open at PREC_BUDGET_BITS.

    values are the exact values being decided, bits the precision their
    enclosures reached, and enclosures the last (lower, upper) of each.
    """

    def __init__(self, values: tuple, bits: int, enclosures: tuple):
        super().__init__(f"certified comparison not decided within the {bits}-bit precision budget")
        self.values = values
        self.bits = bits
        self.enclosures = enclosures


def certified_decision(values: tuple, rule):
    """The one refinement loop: rule(*enclosures) of values, at doubling precision.

    Each round encloses every value at bits as a (lower, upper) pair of
    Fractions, x.enclosure(bits) for a golden or log value and (r, r) for a
    rational r, and calls rule on the pairs.  bits starts at 64 and doubles
    while rule returns None; a rule still undecided at PREC_BUDGET_BITS raises
    PrecisionBudgetExceeded with the last pairs.  A value that is not exact
    raises TypeError.
    """
    if not all(map(is_exact_value, values)):
        raise TypeError("certified_decision needs exact values")
    bits = 64
    while True:
        enclosures = tuple(v.enclosure(bits) if isinstance(v, (GoldenNumber, LogValue))
                           else (Fraction(v),) * 2 for v in values)
        verdict = rule(*enclosures)
        if verdict is not None:
            return verdict
        if bits >= PREC_BUDGET_BITS:
            raise PrecisionBudgetExceeded(tuple(values), bits, enclosures)
        bits *= 2


def _separation(x: tuple, y: tuple):
    (x_lo, x_hi), (y_lo, y_hi) = x, y
    if x_hi < y_lo:
        return -1
    if y_hi < x_lo:
        return 1
    return None


def certified_sign(x: ExactValue, y: ExactValue) -> int:
    """-1, 0 or 1 as x is below, equal to, or above y, for any two exact values.

    Exact for Z[tau] against Z[tau] or a rational, for integer-valued logs,
    and for two logs (_log_order, as LogValue's operators).  A non-integer
    log v = m*log2(n) + c is never equal to a rational or a golden number.
    Against a rational p/q with m*q*bit_length(n) <= PREC_BUDGET_BITS it is
    ordered exactly, as the log q*v against the integer log p by _log_order;
    against a larger denominator or a golden number, by certified_decision.
    """
    if type(x) is LogValue or type(y) is LogValue:
        if type(x) is type(y):
            return _log_order(x, y)
        if type(x) is LogValue and x._n == 1:
            x = x._c
        if type(y) is LogValue and y._n == 1:
            y = y._c
        if type(x) is LogValue or type(y) is LogValue:
            flip = type(y) is LogValue
            v, r = (y, x) if flip else (x, y)
            if ((type(r) is int or type(r) is Fraction)
                    and v._m * r.denominator * v._n.bit_length() <= PREC_BUDGET_BITS):
                # q*v against p, for r = p/q, is the order of two logs
                order = _log_order(v.scaled(r.denominator), _log(1, 1, r.numerator, 1))
                return -order if flip else order
            return certified_decision((x, y), _separation)
    if type(x) is GoldenNumber:
        if type(y) is Fraction and type(x._a) is int and type(x._b) is int:
            q = y.denominator  # q*x - q*y in integers, for the _round hot path
            return _sign_a_b_tau(q * x._a - y.numerator, q * x._b)
        return (x - y).sign()
    if type(y) is GoldenNumber:
        return -certified_sign(y, x)
    if not (is_exact_value(x) and is_exact_value(y)):
        raise TypeError("certified_sign needs exact values")
    return (x > y) - (x < y)


def _settled_floor(x: tuple):
    lower, upper = x
    floor = math.floor(lower)
    return floor if floor == math.floor(upper) else None


def certified_floor(x: ExactValue) -> int:
    """floor(x); a non-integer log is enclosed only past the exact size.

    That is when n**m is uncached and m*bit_length(n) > PREC_BUDGET_BITS, the
    size up to which certified_sign orders a log against an integer exactly;
    below it, floor builds n**m and caches it on x.  This gate is not
    _EXACT_POWER_BITS on purpose: rendering floors a fresh 10**places-scaled
    log per value, which a 64-bit enclosure settles faster than its power.
    """
    if (type(x) is LogValue and x._n != 1 and x._pow is None
            and x._m * x._n.bit_length() > PREC_BUDGET_BITS):
        return certified_decision((x,), _settled_floor)
    return exact_floor(x)


def rational_between(lo: ExactValue, hi: ExactValue) -> Fraction:
    """A dyadic rational strictly between two exact values (lo < hi required)."""
    for k in range(1, 513):
        j = certified_floor(scale(hi, 1 << k))
        for num in (j, j - 1):
            cand = Fraction(num, 1 << k)
            if certified_sign(lo, cand) < 0 and certified_sign(cand, hi) < 0:
                return cand
    raise ValueError("values are not separated (or not ordered lo < hi)")
