"""Round-half-even decimal rendering of exact values."""

import random
from fractions import Fraction

import pytest

from welltempered.exactnum import GoldenNumber, LogValue, scale
from welltempered.molds import golden_fractal_mold, metric_mold
from welltempered.render import (
    render_compact,
    render_decimal,
    render_exact,
)

L = metric_mold()
F = golden_fractal_mold()


def test_golden_mold_listing():
    got = [render_compact(F.element(i)) for i in range(12)]
    assert got == ["0", "1", "1.6180", "2", "2.3820", "2.6180", "2.8541",
                   "3", "3.2361", "3.3820", "3.5279", "3.6180"]


def test_metric_mold_listing():
    got = [render_compact(L.element(i)) for i in range(5)]
    assert got == ["0", "1", "1.5850", "2", "2.3219"]


def test_scaled_table_spot_values():
    assert render_decimal(scale(L.element(2), 12)) == "19.0196"
    assert render_decimal(scale(F.element(2), 12)) == "19.4164"
    assert render_decimal(scale(L.element(4), 12)) == "27.8631"
    assert render_decimal(scale(F.element(4), 12)) == "28.5836"
    assert render_decimal(scale(L.element(16), 18)) == "73.5743"
    assert render_decimal(scale(F.element(16), 18)) == "74.6262"
    assert render_decimal(scale(L.element(0), 9)) == "0.0000"


def test_halves_round_to_even():
    assert render_decimal(Fraction(25, 1000), 2) == "0.02"
    assert render_decimal(Fraction(35, 1000), 2) == "0.04"
    assert render_decimal(Fraction(5, 2), 0) == "2"
    assert render_decimal(Fraction(7, 2), 0) == "4"
    assert render_decimal(Fraction(-5, 2), 0) == "-2"
    assert render_decimal(GoldenNumber(Fraction(1, 2), 0), 0) == "0"


def test_rational_rendering_matches_round():
    rng = random.Random(771240)
    for _ in range(300):
        num = rng.randrange(-10 ** 6, 10 ** 6)
        den = rng.randrange(1, 10 ** 4)
        places = rng.randrange(0, 6)
        value = Fraction(num, den)
        got = render_decimal(value, places)
        expected = round(value * 10 ** places)
        sign = "-" if expected < 0 else ""
        whole, frac = divmod(abs(expected), 10 ** places)
        want = f"{sign}{whole}" if places == 0 else f"{sign}{whole}.{frac:0{places}d}"
        assert got == want, (value, places)


def test_precision_is_display_only():
    x = scale(L.element(2), 12)
    assert render_decimal(x, 0) == "19"
    assert render_decimal(x, 1) == "19.0"
    assert render_decimal(x, 6) == "19.019550"
    assert render_decimal(x, 8) == "19.01955001"


def test_compact_keeps_integers_bare():
    assert render_compact(GoldenNumber(2, 0)) == "2"
    assert render_compact(LogValue(1, 1, 3)) == "3"
    assert render_compact(7) == "7"


def test_compact_prints_short_terminating_rationals_exactly():
    assert render_compact(Fraction(5, 4)) == "1.25"
    assert render_compact(Fraction(1, 8)) == "0.125"
    assert render_compact(Fraction(1, 5)) == "0.2"
    assert render_compact(Fraction(3, 2)) == "1.5"
    assert render_compact(Fraction(1, 3)) == "0.3333"
    assert render_compact(Fraction(1, 32)) == "0.0312"  # exact tie, to even
    assert render_compact(Fraction(1, 32), places=5) == "0.03125"


def test_exact_forms():
    assert render_exact(GoldenNumber(3, -1)) == "3-1*tau"
    assert render_exact(GoldenNumber(0, 1)) == "1*tau"
    assert render_exact(LogValue(12, 5, -27)) == "12*log2(5)-27"
    assert render_exact(Fraction(5, 4)) == "5/4"
    assert render_exact(2) == "2"
    with pytest.raises(TypeError):
        render_exact(0.5)


def test_validation():
    with pytest.raises(ValueError):
        render_decimal(Fraction(1, 2), -1)


def test_rendering_is_stable_across_calls():
    values = [scale(F.element(i), 13) for i in range(40)]
    first = [render_decimal(v) for v in values]
    second = [render_decimal(v) for v in values]
    assert first == second
