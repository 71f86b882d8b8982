"""Tests for the exact number families."""

import ast
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import welltempered
from welltempered import exactnum
from welltempered.exactnum import (
    PREC_BUDGET_BITS,
    TAU,
    _EXACT_POWER_BITS,
    _floor_int_tau,
    _golden,
    _integer_root,
    _primitive_power,
    _split,
    GoldenNumber,
    LogValue,
    certified_floor,
    certified_log2,
    certified_sign,
    exact_ceil,
    exact_floor,
    exact_frac,
    floor_alpha,
    rational_between,
    scale,
)
from welltempered.discretize import _PartTable
from welltempered.molds import ExplicitMold


def _golden_sign_highprec(x: GoldenNumber) -> int:
    """Sign via a certified 400-bit enclosure; returns None if undecided."""
    lo, hi = x.enclosure(400)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi == 0:
        return 0
    return None


def test_tau_identities():
    one = GoldenNumber(1, 0)
    assert TAU * TAU == one - TAU
    assert TAU + TAU * TAU == one
    assert 2 * TAU == one + TAU ** 3
    assert TAU ** 2 == GoldenNumber(1, -1)


def test_golden_sum_hits_integer():
    # (1 + tau) + (2 + tau^2) = (1 + tau) + (3 - tau) = 4
    x = GoldenNumber(1, 1)
    y = GoldenNumber(2, 0) + TAU ** 2
    assert y == GoldenNumber(3, -1)
    assert x + y == 4
    assert (x + y).is_integer()


def test_golden_compare_examples():
    assert certified_sign(TAU, GoldenNumber(1, -1)) == 1  # tau > 1 - tau
    assert certified_sign(TAU, Fraction(618, 1000)) == 1
    assert certified_sign(TAU, Fraction(619, 1000)) == -1
    assert certified_sign(TAU, TAU) == 0


def test_golden_ring_laws():
    rng = random.Random(20260822)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(6)]
        x = GoldenNumber(coeffs[0], coeffs[1])
        y = GoldenNumber(coeffs[2], coeffs[3])
        z = GoldenNumber(coeffs[4], coeffs[5])
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0


def test_golden_compare_matches_high_precision():
    rng = random.Random(987654321)
    checked = 0
    for _ in range(10_000):
        x = GoldenNumber(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
        y = GoldenNumber(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
        expected = _golden_sign_highprec(x - y)
        if expected is None:
            continue
        assert certified_sign(x, y) == expected
        checked += 1
    assert checked >= 9_990


def test_golden_against_fraction_takes_the_integer_path(monkeypatch):
    # int-coefficient golden numbers against p/q, in both argument orders,
    # agree with the sign of the difference without clearing denominators
    grid = [(GoldenNumber(a, b), Fraction(p, q))
            for a in range(-6, 7) for b in range(-4, 5)
            for q in (1, 2, 3, 7) for p in range(-6 * q, 6 * q + 1)]
    expected = [(x - y).sign() for x, y in grid]
    assert expected.count(0) == 13 * 4  # b = 0 and a = p/q, for every a and q

    def no_clearing(*args):
        raise AssertionError("_cleared called on the integer path")
    monkeypatch.setattr(exactnum, "_cleared", no_clearing)
    assert [certified_sign(x, y) for x, y in grid] == expected
    assert [certified_sign(y, x) for x, y in grid] == [-e for e in expected]
    # the operators take the same path, and build no Fraction-coefficient number
    as_coeff = exactnum._as_coeff

    def integer_coeff(c):
        c = as_coeff(c)
        if type(c) is not int:
            raise AssertionError(f"a Q[tau] number was built from {c!r}")
        return c
    monkeypatch.setattr(exactnum, "_as_coeff", integer_coeff)
    assert [x < y for x, y in grid] == [e < 0 for e in expected]
    assert [x > y for x, y in grid] == [e > 0 for e in expected]
    assert [x == y for x, y in grid] == [e == 0 for e in expected]


def test_golden_floor_basics():
    assert GoldenNumber(12, 12).floor() == 19
    assert GoldenNumber(0, 1).floor() == 0
    assert GoldenNumber(0, -1).floor() == -1
    assert GoldenNumber(5, 0).floor() == 5
    assert GoldenNumber(-14, 24).floor() == 0  # frac(12*phi_8) in [0, 1)
    assert GoldenNumber(Fraction(1, 2), Fraction(3, 2)).floor() == 1


def test_golden_floor_matches_enclosure():
    rng = random.Random(424242)
    for _ in range(2_000):
        x = GoldenNumber(rng.randint(-10 ** 5, 10 ** 5), rng.randint(-10 ** 5, 10 ** 5))
        f = x.floor()
        lo, hi = x.enclosure(200)
        assert lo >= f
        assert hi < f + 1
        assert f <= x < f + 1
        fr = x.frac()
        assert 0 <= fr
        assert fr < 1


def test_golden_hash_and_rational_equality():
    assert GoldenNumber(3, 0) == 3
    assert hash(GoldenNumber(3, 0)) == hash(3)
    assert GoldenNumber(Fraction(1, 2), 0) == Fraction(1, 2)
    assert GoldenNumber(1, 1) != GoldenNumber(1, 2)
    s = {GoldenNumber(1, 1), GoldenNumber(1, 1), GoldenNumber(2, 0), 2}
    assert len(s) == 2


def test_log_value_canonical_form():
    assert LogValue(1, 8) == 3
    assert LogValue(1, 8).is_integer()
    twelve = LogValue(2, 12)  # 2*log2(12) = 2*log2(3) + 4
    assert twelve.arg == 3 and twelve.mult == 2 and twelve.offset == 4
    assert LogValue(1, 1, 7) == 7


def test_log_value_floor_power_property():
    rng = random.Random(13579)
    for _ in range(500):
        m = rng.randint(1, 40)
        n = rng.randint(1, 400)
        v = LogValue(m, n)
        k = v.floor()
        p = n ** m
        assert (1 << k) <= p
        assert p < (1 << (k + 1))


def test_log_value_frac_comparison_property():
    rng = random.Random(24680)
    for _ in range(300):
        m = rng.randint(1, 20)
        n1 = rng.randint(2, 200)
        n2 = rng.randint(2, 200)
        v1 = LogValue(m, n1)
        v2 = LogValue(m, n2)
        k1, k2 = v1.floor(), v2.floor()
        expected = (n1 ** m) * (1 << k2) < (n2 ** m) * (1 << k1)
        assert (v1.frac() < v2.frac()) == expected


def test_log_value_metric_identity():
    for a in range(2, 30):
        for b in range(2, 30):
            assert LogValue.log2(a) + LogValue.log2(b) == LogValue.log2(a * b)


def test_log_value_ordering_against_rationals():
    v = LogValue(12, 5, -27)  # frac(12*log2(5)), about 0.8631
    assert Fraction(86, 100) < v < Fraction(87, 100)
    assert v < 1
    assert v > 0
    assert LogValue(1, 3) > Fraction(3, 2)
    assert LogValue(1, 3) < Fraction(8, 5)


def test_log_value_against_fine_rational_is_fast():
    # 12*log2(3) - 19 is about 0.0196; an exact power comparison would
    # raise 3 to the 12 * 10**6 to decide it
    start = time.perf_counter()
    assert LogValue(12, 3, -19) < Fraction(500001, 10 ** 6)
    assert not LogValue(12, 3, -19) >= Fraction(500001, 10 ** 6)
    assert LogValue(12, 3, -19) != Fraction(500001, 10 ** 6)
    assert time.perf_counter() - start < 1.0


def test_log_value_huge_perfect_power_canonicalizes():
    assert LogValue(1, 3 ** 700) == LogValue(700, 3)
    assert hash(LogValue(1, 3 ** 700)) == hash(LogValue(700, 3))


def test_log_value_strips_a_huge_power_of_two_at_once():
    # one bit per loop pass took seconds at this size
    start = time.perf_counter()
    one = LogValue(1, 2 ** 100_000)
    three = LogValue(3, 3 * 2 ** 100_000)
    assert time.perf_counter() - start < 0.5
    assert (one.mult, one.arg, one.offset) == (1, 1, 100_000)
    assert (three.mult, three.arg, three.offset) == (3, 3, 300_000)


def test_integer_root_brackets_the_root():
    rng = random.Random(97531)
    samples = [1, 2, 3, 7, 8, 9, 10 ** 6, 3 ** 700 - 1, 3 ** 700, 3 ** 700 + 1, 10 ** 400]
    samples += [rng.randint(1, 1 << rng.randint(1, 1500)) for _ in range(200)]
    for n in samples:
        for k in (1, 2, 3, 5, 7, 64, 700):
            r = _integer_root(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)


def test_primitive_power_finds_the_largest_exponent():
    def largest(n):  # r**k == n for the largest k, trying every exponent
        return next((r, k) for k in range(n.bit_length(), 0, -1)
                    if (r := _integer_root(n, k)) ** k == n)

    powers = [3 ** 700, 15 ** 64, 105 ** 210, (3 ** 5 * 7) ** 64, 1001 ** 97, 3 ** 2581,
              (3 ** 40 + 2) ** 3, 9 ** 2 * 25 ** 2]
    for n in [*range(3, 10 ** 4, 2), *powers, *(p + 2 for p in powers)]:
        assert _primitive_power(n) == largest(n), n


def _floor_sqrt5_tau(a, b):
    """floor(a + b*tau) from math.isqrt(5*b*b), the floor's defining formula."""
    if b == 0:
        return a
    s = math.isqrt(5 * b * b)
    return a + (s - b) // 2 if b > 0 else a - ((s + b) // 2 + 1)


def test_floor_int_tau_matches_the_integer_square_root_on_every_branch():
    # the fixed-point bracket floors |b|*sqrt(5) as q or, after its one
    # integer test, q + 1; only |b| >= 2^E takes math.isqrt
    E, root5 = exactnum._SQRT5_BITS, exactnum._SQRT5
    rng = random.Random(24)
    samples = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(1, 401) for _ in range(3)]
    fib = [0, 1]
    while len(fib) <= 400:
        fib.append(fib[-1] + fib[-2])
    # F_n * sqrt(5) is within 2/L_n of the Lucas number L_n
    samples += [m * f for f in fib[1:] for m in (1, 2, 3, 12, 200)]
    samples += [1 << E, (1 << E) - 1, (1 << E) + 1, rng.getrandbits(3 * E), fib[400] << E]
    branches = Counter()
    for b in samples:
        if b >> E:
            branches["isqrt"] += 1
        else:
            q = (b * root5) >> E
            branches["q + 1" if math.isqrt(5 * b * b) > q else "q"] += 1
        for sb in (b, -b):
            a = rng.randint(-10 ** 6, 10 ** 6)
            assert _floor_int_tau(a, sb) == _floor_sqrt5_tau(a, sb), sb
    assert branches["q"] and branches["q + 1"] and branches["isqrt"], branches
    assert _floor_int_tau(5, 0) == 5


def test_floor_alpha_threshold_semantics():
    x = GoldenNumber(12, 12)  # about 19.4164
    assert floor_alpha(x, 1) == 19
    assert floor_alpha(x, 0) == 20
    assert floor_alpha(x, Fraction(1, 2)) == 19
    assert floor_alpha(x, Fraction(42, 100)) == 19
    assert floor_alpha(x, Fraction(41, 100)) == 20
    # a tie (frac == alpha) rounds up because the floor test is strict
    assert floor_alpha(Fraction(5, 2), Fraction(1, 2)) == 3
    assert floor_alpha(Fraction(5, 2), 1) == 2
    assert floor_alpha(7, Fraction(1, 3)) == 7
    assert floor_alpha(7, 0) == 7
    assert (exact_floor(Fraction(5, 2)), exact_ceil(Fraction(5, 2))) == (2, 3)


def test_floor_alpha_monotone_in_alpha():
    rng = random.Random(112233)
    alphas = sorted(Fraction(rng.randint(0, 100), 100) for _ in range(12))
    for _ in range(200):
        x = GoldenNumber(rng.randint(-100, 100), rng.randint(-100, 100))
        values = [floor_alpha(x, a) for a in alphas]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))
        assert all(v in (exact_floor(x), exact_ceil(x)) for v in values)


def test_floor_alpha_flips_exactly_at_frac():
    x = GoldenNumber(12, 12)
    f = exact_frac(x)
    below = rational_between(GoldenNumber(0, 0), f)
    above = rational_between(f, GoldenNumber(1, 0))
    assert floor_alpha(x, below) == 20
    assert floor_alpha(x, above) == 19
    assert 0 < below < above < 1


def test_split_floors_once_and_keys_by_integers(monkeypatch):
    rng = random.Random(20261019)
    golden = [GoldenNumber(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 30, 10 ** 30) or 1)
              for _ in range(200)]
    logs = [LogValue(rng.randint(1, 500), rng.choice((3, 5, 7, 1001)), rng.randint(-99, 99))
            for _ in range(200)]
    calls = Counter()
    monkeypatch.setattr(exactnum, "_floor_int_tau", lambda a, b, _fn=exactnum._floor_int_tau:
                        calls.update(["_floor_int_tau"]) or _fn(a, b))
    for x in golden + logs:
        calls.clear()
        floor, frac, key = _split(x)
        is_golden = type(x) is GoldenNumber
        assert calls["_floor_int_tau"] == is_golden  # one _floor_int_tau, or none
        assert (floor, frac) == (exact_floor(x), exact_frac(x)) and type(key) is int
        if is_golden:  # floor(2^64 * frac)
            assert key == exact_floor(frac * 2 ** 64)
        else:  # floor(2^(64 + frac)): the power's 65 leading bits
            assert certified_sign(LogValue(1, key), frac + 64) <= 0
            assert certified_sign(frac + 64, LogValue(1, key + 1)) < 0
    for family in golden, logs:
        parts = [_split(x)[1:] for x in family]
        assert [f for f, _ in sorted(parts, key=lambda s: s[1])] == sorted(f for f, _ in parts)
    # integers, rationals and Fraction-coefficient golden values have no key
    half = Fraction(1, 2)
    for x, expected in ((7, (7, None, None)),
                        (Fraction(7, 2), (3, half, None)),
                        (GoldenNumber(5, 0), (5, None, None)),
                        (LogValue(3, 1, 4), (4, None, None)),
                        (GoldenNumber(half, 1), (1, GoldenNumber(-half, 1), None))):
        assert _split(x) == expected


def test_part_table_splits_each_distinct_part_once(monkeypatch):
    rng = random.Random(20261020)
    values = [GoldenNumber(rng.randint(-50, 50), rng.randint(-9, 9)) for _ in range(300)]
    values += [LogValue(rng.randint(1, 3), rng.choice((3, 5, 12, 40)), rng.randint(-9, 9))
               for _ in range(300)]
    values += [Fraction(rng.randint(-99, 99), 7), LogValue(2, 1, 5), GoldenNumber(Fraction(1, 2), 1)]
    calls = Counter()
    monkeypatch.setattr(exactnum, "_floor_int_tau", lambda a, b, _fn=exactnum._floor_int_tau:
                        calls.update(["_floor_int_tau"]) or _fn(a, b))
    for m in (1, 7, 400):
        expected = [_split(scale(x, m)) for x in values]
        calls.clear()
        table, parts = _PartTable(m), {}
        table.extend(ExplicitMold(values).scaled_components(0, len(values), m))
        golden_parts = {m * x.b for x in values[:300] if x.b}
        # one floor each, and the Q[tau] one
        assert calls["_floor_int_tau"] == len(golden_parts) + 1
        for k, (x, each) in enumerate(zip(values, expected)):
            floor, frac = table.floors[k], table.fracs[k]
            key = table.parts[exactnum._scaled_component(x, m)[1]][2]
            assert (floor, frac, key) == each, (m, x)
            if k < 600 and key is not None:  # equal parts are one object, with one key
                assert parts.setdefault(frac, (frac, key)) == (frac, key)
                assert parts[frac][0] is frac and parts[frac][1] is key


def test_floor_alpha_rejects_bad_alpha():
    with pytest.raises(ValueError):
        floor_alpha(TAU, Fraction(3, 2))
    with pytest.raises(ValueError):
        floor_alpha(TAU, Fraction(-1, 2))
    with pytest.raises(TypeError):
        floor_alpha(TAU, 0.5)


def test_certified_log2_enclosures():
    for n in (2, 3, 5, 7, 10, 100, 12345):
        lo, hi = certified_log2(n, 80)
        assert lo <= hi
        assert hi - lo <= Fraction(1, 1 << 70)
        f = math.log2(n)
        assert float(lo) <= f + 1e-9
        assert float(hi) >= f - 1e-9
        assert (2 ** Fraction(1) == 2) or True
    assert certified_log2(8, 50) == (Fraction(3), Fraction(3))
    assert certified_log2(1, 50) == (Fraction(0), Fraction(0))


def test_certified_log2_stops_early_when_a_bit_straddles():
    # at 16 bits the squared interval of 14917 straddles 2 at the last bit,
    # so the enclosure stops one bit short: wider, and still correct
    lo, hi = certified_log2(14917, 16)
    assert hi - lo == Fraction(1, 1 << 15)
    fine_lo, fine_hi = certified_log2(14917, 256)
    assert lo <= fine_lo <= fine_hi <= hi
    # 2^lo <= 14917 < 2^hi, with the rational exponents cleared
    assert 2 ** lo.numerator <= 14917 ** lo.denominator
    assert not 2 ** hi.numerator <= 14917 ** hi.denominator


def test_certified_sign_cross_family_examples():
    # 34 * (fifth golden element) vs 34 * log2(5) + 2
    g = GoldenNumber(102, -34)
    lv = LogValue(34, 5, 2)
    assert certified_sign(g, lv) == 1
    assert certified_sign(lv, g) == -1
    assert certified_sign(GoldenNumber(1, 1), LogValue(1, 3)) == 1
    assert certified_sign(GoldenNumber(2, 0), LogValue(1, 4)) == 0
    assert certified_sign(TAU, Fraction(618, 1000)) == 1


def test_certified_sign_golden_vs_log_agrees_with_high_precision():
    rng = random.Random(5551212)
    for _ in range(200):
        g = GoldenNumber(rng.randint(-30, 30), rng.randint(-30, 30))
        lv = LogValue(rng.randint(1, 10), rng.randint(1, 50), rng.randint(-30, 30))
        sign = certified_sign(g, lv)
        glo, ghi = g.enclosure(700)
        llo, lhi = lv.enclosure(700)
        if sign == 1:
            assert glo > lhi or (glo >= lhi and g != 0)
            assert glo > llo
            assert ghi > lhi
        elif sign == -1:
            assert ghi < llo
        else:
            assert sign == 0
            assert glo <= lhi and llo <= ghi


def test_cross_compare_mixed_direct_comparison_raises():
    # the operators give no order across golden and log values, in either
    # order, while certified_sign orders the same pairs
    for g, v, sign in ((TAU, LogValue(1, 3), -1), (GoldenNumber(1, 1), LogValue(1, 3), 1)):
        assert certified_sign(g, v) == sign == -certified_sign(v, g)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for args in ((g, v), (v, g)):
                with pytest.raises(TypeError):
                    compare(*args)


def test_certified_sign_rejects_inexact_values():
    # Fraction() accepts a float or a numeric string, so an enclosure loop
    # that built Fractions unchecked would order them
    for inexact in (1.5, "2"):
        for args in ((LogValue(1, 3), inexact), (inexact, LogValue(1, 3))):
            with pytest.raises(TypeError):
                certified_sign(*args)
    for args in ((TAU, 1.5), (1.5, TAU), (1.5, 2), (2, 1.5)):
        with pytest.raises(TypeError):
            certified_sign(*args)


def _at_700_bits(x) -> tuple:
    """x's 700-bit enclosure as (lower, upper); a rational is its own point."""
    if isinstance(x, (GoldenNumber, LogValue)):
        return x.enclosure(700)
    return Fraction(x), Fraction(x)


def _sign_at_700_bits(x, y) -> int:
    """The order of x and y shown by disjoint 700-bit enclosures (0 for one point)."""
    (a_lo, a_hi), (b_lo, b_hi) = _at_700_bits(x), _at_700_bits(y)
    if a_hi < b_lo:
        return -1
    if b_hi < a_lo:
        return 1
    assert a_lo == a_hi == b_lo == b_hi, (x, y)
    return 0


def test_certified_sign_agrees_with_high_precision(monkeypatch):
    # floats only place each partner near the first value, so the pairs are close
    rng = random.Random(20261018)

    def log():
        return LogValue(rng.randint(1, 12), rng.randint(1, 60), rng.randint(-40, 40))

    def golden_near(v):
        b = rng.randint(-40, 40)
        return GoldenNumber(round(float(v) - b * 0.6180339887) + rng.randint(-1, 1), b)

    def rational_near(v):
        q = rng.randint(1, 10 ** 4)
        return Fraction(round(float(v) * q) + rng.randint(-2, 2), q)

    def log_near(v, mults):
        m, n = rng.randint(*mults), rng.randint(3, 60)
        return LogValue(m, n, round(float(v) - m * math.log2(n)) + rng.randint(-1, 1))

    def dyadics_around(v):
        # the two thresholds j/2^k and (j + 1)/2^k around v, for k = 1..10
        lo, hi = v.enclosure(700)
        for k in range(1, 11):
            j = math.floor(lo * (1 << k))
            assert j == math.floor(hi * (1 << k))
            yield Fraction(j, 1 << k), 1
            yield Fraction(j + 1, 1 << k), -1

    for _ in range(150):
        lv = log()
        golden = GoldenNumber(rng.randint(-40, 40), rng.randint(-40, 40))
        # log partners with 1..12 and 3000..6000 multipliers both compare by
        # exact powers, far inside _EXACT_POWER_BITS; a rational partner p/q
        # compares exactly when m*q*bit_length(n) <= PREC_BUDGET_BITS, and
        # through enclosures past that
        pairs = [(golden_near(lv), lv), (lv, log_near(lv, (1, 12))),
                 (lv, log_near(lv, (3000, 6000))), (lv, rational_near(lv)),
                 (golden, rational_near(golden))]
        for x, y in pairs:
            sign = certified_sign(x, y)
            assert certified_sign(y, x) == -sign
            if isinstance(y, Fraction) and isinstance(x, GoldenNumber) or (
                    isinstance(y, LogValue) and isinstance(x, LogValue) and x.arg == y.arg):
                assert sign == (x > y) - (x < y), (x, y)  # exact, within one family
            else:
                assert sign == _sign_at_700_bits(x, y), (x, y)
        if not lv.is_integer():
            # near-breakpoint dyadic thresholds at the fractional part, as
            # the rounding of m*log2(n) meets them
            frac = lv.frac()
            for alpha, expected in dyadics_around(frac):
                assert certified_sign(frac, alpha) == expected == _sign_at_700_bits(frac, alpha)
                assert certified_sign(alpha, frac) == -expected

    # one pair on each side of the exact gate: m*q*bit_length(n) = 4096, then 4097
    decisions = []
    original = exactnum.certified_decision
    monkeypatch.setattr(exactnum, "certified_decision",
                        lambda *args: decisions.append(args) or original(*args))
    for x, q, enclosed in ((LogValue(1, 3, -1), 2048, False),
                           (LogValue(1, 65537, -16), 241, True)):
        assert x.mult * q * x.arg.bit_length() == PREC_BUDGET_BITS + enclosed
        j = math.floor(x.enclosure(700)[0] * q)
        alpha = Fraction(j | 1, q)  # an odd numerator keeps the denominator q
        assert alpha.denominator == q
        decisions.clear()
        sign = certified_sign(x, alpha)
        assert bool(decisions) == enclosed
        assert sign == _sign_at_700_bits(x, alpha) != 0
        assert certified_sign(alpha, x) == -sign


def test_small_denominator_thresholds_need_no_enclosure(monkeypatch):
    # a non-integer log against p/q decides from n**(m*q) and a power of two
    def no_enclosures(values, rule):
        raise AssertionError(f"enclosure decision for {values}")

    monkeypatch.setattr(exactnum, "certified_decision", no_enclosures)
    frac = LogValue(12, 3, -19)  # 0.0195..., the metric breakpoint of index 2 at m = 12
    assert certified_sign(frac, Fraction(1, 50)) == -1
    assert certified_sign(Fraction(1, 52), frac) == -1
    assert certified_sign(frac, 0) == 1 and certified_sign(1, frac) == 1
    assert floor_alpha(LogValue(12, 3), Fraction(2, 5)) == 19
    assert floor_alpha(LogValue(12, 3), Fraction(1, 64)) == 20
    assert Fraction(1584, 1000) < LogValue(1, 3) < Fraction(1585, 1000)
    with pytest.raises(AssertionError, match="enclosure decision"):
        certified_sign(frac, Fraction(1, 10 ** 6))  # past the gate


def test_small_logs_floor_without_enclosures(monkeypatch):
    # certified_floor encloses a log only when n**m is uncached and
    # m*bit_length(n) > PREC_BUDGET_BITS
    def no_enclosures(values, rule):
        raise AssertionError(f"enclosure decision for {values}")

    monkeypatch.setattr(exactnum, "certified_decision", no_enclosures)
    for c in (-3300, 0, 7):
        x = LogValue(2048, 3, c)
        assert x.mult * x.arg.bit_length() == PREC_BUDGET_BITS
        assert certified_floor(x) == (3 ** 2048).bit_length() - 1 + c
    # the probe floors of a log's dyadic multiples are exact, k = 1..6 here
    between = rational_between(Fraction(85, 100), LogValue(12, 5, -27))
    assert Fraction(85, 100) < between < LogValue(12, 5, -27)
    with pytest.raises(AssertionError, match="enclosure decision"):
        certified_floor(LogValue(2049, 3))  # 4098 bits, past the gate
    cached = LogValue(2049, 3)
    cached._power()
    assert certified_floor(cached) == (3 ** 2049).bit_length() - 1


def test_certified_floor_refines_wide_enclosures():
    # the 64-bit enclosure of 2^k * log2(3) is about 2^(k - 63) wide
    for k in range(40, 90):
        x = LogValue(2 ** k, 3)
        lo, hi = x.enclosure(700)
        assert certified_floor(x) == math.floor(lo) == math.floor(hi), k


def test_only_exactnum_builds_and_refines_enclosures():
    # one refinement loop: every other module, and the rest of exactnum,
    # decides through certified_decision, the one caller of enclosure()
    sites, loop = [], None
    for path in sorted(Path(welltempered.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "certified_decision":
                loop = (path.name, range(node.lineno, node.end_lineno + 1))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "enclosure":
                sites.append((path.name, node.lineno))
    assert loop[0] == "exactnum.py"
    assert len(sites) == 1 and sites[0][0] == loop[0] and sites[0][1] in loop[1], sites


def test_rational_between():
    a = rational_between(GoldenNumber(-14, 24), Fraction(1))
    assert GoldenNumber(-14, 24) < a < 1
    b = rational_between(LogValue(12, 5, -27), Fraction(87, 100))
    assert LogValue(12, 5, -27) < b < Fraction(87, 100)
    c = rational_between(Fraction(1, 3), Fraction(1, 2))
    assert Fraction(1, 3) < c < Fraction(1, 2)
    for lo, hi in ((Fraction(1, 2), Fraction(1, 3)), (TAU, TAU)):
        with pytest.raises(ValueError, match="not separated"):
            rational_between(lo, hi)


def test_certified_approx_refine():
    for x in (LogValue(1, 3), LogValue(12, 5, -27), GoldenNumber(-14, 24)):
        (lo16, hi16), (lo32, hi32) = x.enclosure(16), x.enclosure(32)
        assert lo16 <= lo32 < hi32 <= hi16, x
        assert hi32 - lo32 < hi16 - lo16, x
    # certified_decision hands a rational to its rule as a point
    rational = Fraction(7, 3)
    first = exactnum.certified_decision((rational, LogValue(1, 3)), lambda r, x: r)
    assert first == (rational, rational)


def _checked_mul(x: GoldenNumber, y: GoldenNumber) -> GoldenNumber:
    a1, b1, a2, b2 = x.a, x.b, y.a, y.b
    return GoldenNumber(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)


def _same_golden(got: GoldenNumber, expected: GoldenNumber) -> bool:
    return (got.a == expected.a and got.b == expected.b
            and type(got.a) is type(expected.a) and type(got.b) is type(expected.b)
            and got == expected and hash(got) == hash(expected))


def test_raw_golden_arithmetic_matches_checked_constructor():
    # results built without the coefficient checks equal the checked
    # constructor's, down to coefficient types (Fraction(k, 1) becomes k)
    rng = random.Random(20260413)

    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-40, 40)
        return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4)))

    collapsed = 0
    for _ in range(2000):
        x = GoldenNumber(coeff(), coeff())
        y = GoldenNumber(coeff(), coeff())
        k = rng.randint(-9, 9)
        q = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        e = rng.randint(0, 4)
        a1, b1, a2, b2 = x.a, x.b, y.a, y.b
        power = GoldenNumber(1, 0)
        for _ in range(e):
            power = _checked_mul(power, x)
        cases = [
            (_golden(a1, b1), GoldenNumber(a1, b1)),
            (x + y, GoldenNumber(a1 + a2, b1 + b2)),
            (x - y, GoldenNumber(a1 - a2, b1 - b2)),
            (x * y, _checked_mul(x, y)),
            (-x, GoldenNumber(-a1, -b1)),
            (x ** e, power),
            (x + k, GoldenNumber(a1 + k, b1)),
            (k + x, GoldenNumber(a1 + k, b1)),
            (x - k, GoldenNumber(a1 - k, b1)),
            (k - x, GoldenNumber(k - a1, -b1)),
            (x * k, GoldenNumber(a1 * k, b1 * k)),
            (k * x, GoldenNumber(a1 * k, b1 * k)),
            (x + q, GoldenNumber(a1 + q, b1)),
            (x - q, GoldenNumber(a1 - q, b1)),
            (x * q, GoldenNumber(a1 * q, b1 * q)),
        ]
        for got, expected in cases:
            assert _same_golden(got, expected), (x, y, k, q, e, got, expected)
        collapsed += type((x + y).a) is int and Fraction in (type(a1), type(a2))
        assert (x < y) == (_golden_sign_highprec(y - x) == 1)
    assert collapsed > 10  # Fraction sums that land on integers were exercised


def test_raw_log_values_match_checked_constructor():
    rng = random.Random(20260414)
    args = (1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 81, 243, 1000, 3 ** 7 * 2, 5 ** 4)
    for _ in range(600):
        n = rng.choice(args) if rng.random() < 0.6 else rng.randint(1, 5000)
        x = LogValue(rng.randint(1, 40), n, rng.randint(-50, 50))
        k, j = rng.randint(1, 30), rng.randint(-20, 20)
        m, a, c = x.mult, x.arg, x.offset
        if rng.random() < 0.5:
            x._power()  # derived values then inherit a filled power cache
        cases = [
            (x.scaled(k), LogValue(m * k, a, c * k)),
            (x + j, LogValue(m, a, c + j)),
            (j + x, LogValue(m, a, c + j)),
            (x - j, LogValue(m, a, c - j)),
            (x.frac(), LogValue(m, a, c - x.floor())),
        ]
        for got, expected in cases:
            assert repr(got) == repr(expected) and hash(got) == hash(expected)
            assert got == expected
            assert got._power() == got.arg ** got.mult


def test_log_comparisons_unchanged_by_the_power_cache():
    rng = random.Random(20260415)

    def fresh():
        return LogValue(rng.randint(1, 30), rng.randint(1, 300), rng.randint(-40, 40))

    values = [fresh() for _ in range(40)]
    values += [v + 1 for v in values[:10]] + [v.frac() for v in values[10:20]]
    values += [v.scaled(3) for v in values[20:30]]

    def twin(v):
        return LogValue(v.mult, v.arg, v.offset)

    def table(vs):
        return [[(x > y) - (x < y) for y in vs] for x in vs]

    cold = table([twin(v) for v in values])  # every comparison computes its powers
    first = table(values)
    again = table(values)  # every power now cached
    assert cold == first == again


def _near(rng, v: float):
    """An exact value of a random family placed near v (floats only place it)."""
    kind = rng.randrange(9)
    if kind == 0:
        return round(v) + rng.randint(-1, 1)
    if kind == 1:
        q = rng.randint(1, 60)
        return Fraction(round(v * q) + rng.randint(-2, 2), q)
    if kind == 2:
        b = rng.randint(-40, 40)
        return GoldenNumber(round(v - b * 0.6180339887) + rng.randint(-1, 1), b)
    if kind == 3:
        b = Fraction(rng.randint(-80, 80), rng.randint(1, 6))
        return GoldenNumber(Fraction(round((v - float(b) * 0.6180339887) * 6), 6), b)
    if kind == 4:
        return GoldenNumber(round(v) + rng.randint(-1, 1), 0)
    if kind == 5:  # integer-valued: the base is a power of two
        m, n = rng.randint(1, 5), 2 ** rng.randint(0, 4)
        return LogValue(m, n, round(v - m * math.log2(n)) + rng.randint(-1, 1))
    m = rng.randint(1, 12) if kind < 8 else rng.randint(200, 2000)
    n = rng.randint(3, 60)
    return LogValue(m, n, round(v - m * math.log2(n)) + rng.randint(-1, 1))


def test_operators_agree_with_certified_sign():
    rng = random.Random(20261019)
    families, equal_across = set(), 0
    for _ in range(1500):
        v = rng.choice((1, 10, 10 ** 6, 10 ** 12)) * rng.uniform(-1, 1)
        # most partners are near, some up to 10**12 away
        w = v if rng.random() < 0.75 else v + rng.uniform(-1, 1) * 10 ** 12
        x, y = _near(rng, v), _near(rng, w)
        families.add((type(x).__name__, type(y).__name__))
        sign = certified_sign(x, y)
        assert certified_sign(y, x) == -sign
        assert (x == y) == (y == x) == (sign == 0), (x, y)
        if sign == 0:
            assert hash(x) == hash(y)
            equal_across += type(x) is not type(y)
        (a_lo, a_hi), (b_lo, b_hi) = _at_700_bits(x), _at_700_bits(y)
        assert not (a_hi < b_lo and sign != -1 or b_hi < a_lo and sign != 1)
        if {type(x), type(y)} == {GoldenNumber, LogValue}:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(x, y)
            continue
        assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0), (x, y)
    assert len(families) == 16 and equal_across > 20


def test_cross_family_equality_is_transitive():
    assert GoldenNumber(3, 0) == LogValue(1, 8) == 3
    assert LogValue(1, 8) == GoldenNumber(3, 0)
    assert len({GoldenNumber(3, 0), LogValue(1, 8), 3}) == 1
    assert GoldenNumber(3, 1) != LogValue(1, 8)
    assert LogValue(1, 3) != GoldenNumber(1, 0)


def test_far_apart_and_huge_log_pairs_stay_bounded():
    # neither a 10**12-bit shift nor 3**(10**9) is ever built
    start = time.perf_counter()
    far, near = LogValue(1, 3, 10 ** 12), LogValue(1, 5)
    assert far > near and not far <= near and near < far
    assert certified_sign(far, near) == 1 and certified_sign(near, far) == -1
    big3, big5 = LogValue(10 ** 9, 3), LogValue(10 ** 9, 5)
    assert big3 < big5 and not big3 >= big5 and big5 > big3
    assert certified_sign(big3, big5) == -1 and certified_sign(big5, big3) == 1
    assert big3._pow is None and big5._pow is None
    assert time.perf_counter() - start < 1.0


def test_log_sums_and_perfect_powers_stay_bounded():
    # the perfect-power search tries prime exponents only, and an odd part
    # past 4096 bits is rejected before it is searched
    start = time.perf_counter()
    total = LogValue(1000, 3) + LogValue(1001, 5)
    assert time.perf_counter() - start < 0.15
    assert (total.mult, total.arg, total.offset) == (1, 3 ** 1000 * 5 ** 1001, 0)
    assert total.arg.bit_length() == 3910
    start = time.perf_counter()
    with pytest.raises(ValueError):
        LogValue(3000, 3) + LogValue(3001, 5)
    with pytest.raises(ValueError):
        LogValue(1, 3 ** 3000)
    assert time.perf_counter() - start < 0.01
    assert LogValue(1, 3 ** 700) == LogValue(700, 3)
    assert LogValue(1, 2 ** 5000 * 9) == LogValue(2, 3, 5000)  # only the odd part counts


def test_log_orders_and_sums_check_both_sizes_before_building_a_power():
    # 3**500000 is under the power gate and 5**(10**9) past it; neither an
    # order nor a sum that cannot use both powers builds the one it could
    for swap in (False, True):
        x, y = LogValue(500000, 3), LogValue(10 ** 9, 5)
        if swap:
            x, y = y, x
        below = x < y
        assert x._pow is None and y._pow is None
        assert below is not swap and certified_sign(x, y) == (1 if swap else -1)
    for swap in (False, True):
        x, y = LogValue(500000, 3), LogValue(2, 5)
        if swap:
            x, y = y, x
        with pytest.raises(ValueError, match="^sum too large to represent exactly$"):
            x + y
        assert x._pow is None and y._pow is None


def test_hostile_log_floors_are_decided_on_enclosures():
    # 3**(10**7) and 3**(10**8) are never built
    half = Fraction(1, 2)
    small, big = LogValue(10 ** 7, 3), LogValue(10 ** 8, 3)
    fs, fb = certified_floor(small), certified_floor(big)
    cases = [
        (lambda: floor_alpha(small, half), fs + (certified_sign(small - fs, half) >= 0)),
        (big.floor, fb),
        (big.ceil, fb + 1),
        (big.frac, big - fb),
        (lambda: _split(big), (fb, big - fb, None)),
    ]
    for op, expected in cases:
        start = time.perf_counter()
        got = op()
        assert time.perf_counter() - start < 0.1, op
        assert got == expected
    assert small._pow is None and big._pow is None


def test_log_floors_agree_with_certified_floor_across_the_power_gate():
    # mult * bit_length(arg) just below the gate builds the power, just above
    # it falls back to enclosures; both must give the same floor
    rng = random.Random(20261018)
    for _ in range(6):
        n = rng.choice((3, 5, 7, 11, 13, 59, 1001))
        top = _EXACT_POWER_BITS // n.bit_length()
        for m in (top - rng.randint(0, 3), top + rng.randint(1, 3)):
            x = LogValue(m, n, rng.randint(-10 ** 6, 10 ** 6))
            fl = x.floor()
            assert (x._pow is not None) == (m <= top)
            assert fl == certified_floor(x) and x.ceil() == fl + 1
            frac = x.frac()
            assert frac == x - fl and certified_sign(frac, 0) == 1 == certified_sign(1, frac)
            alpha = Fraction(rng.randint(1, 99), 100)
            up = certified_sign(frac, alpha) >= 0
            assert floor_alpha(x, alpha) == fl + up


def test_only_power_builds_log_powers():
    # one size gate: every arg**mult in exactnum is built by LogValue._power
    tree = ast.parse(Path(welltempered.__file__).with_name("exactnum.py").read_text())
    exponents = ("self._m", "other._m", "mult")
    sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.BinOp)
             and isinstance(node.op, ast.Pow) and ast.unparse(node.right) in exponents]
    assert sites == ["_power"]
