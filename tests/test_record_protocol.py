"""The five hand-written records: exact reprs, and equality across classes."""

from fractions import Fraction

import pytest

from welltempered.discretize import alpha_sweep, discretize, truncation_certificate
from welltempered.molds import golden_fractal_mold, golden_period_spec, metric_mold
from welltempered.theorems import WELL_TEMPERED_H

L = metric_mold()
F = golden_fractal_mold()

H_PREFIX = "(0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43)"

REPRS = [
    (lambda: truncation_certificate(L, 12),
     "TruncationCertificate(mold_name='L', multiplicity=12, prefix_end=16, conductor=50, "
     "witness='(16+2)^12 < 2*(16+1)^12 and (n+2)/(n+1) decreases in n')"),
    (lambda: discretize(F, 12, 1),
     f"Discretization(conductor=45, prefix={H_PREFIX})"),
    (lambda: alpha_sweep(L, 12)[1],
     "AlphaInterval(lower=Fraction(0, 1), upper=LogValue(12, 3, -19), "
     "key=((0, 12, 20, 24, 28, 32, 34, 36, 39, 40, 42, 44, 45, 46, 47, 48), 50))"),
    (lambda: WELL_TEMPERED_H,
     f"NumericalSemigroup(prefix={H_PREFIX}, conductor=45)"),
    (golden_period_spec,
     "PeriodSpec(cuts=(GoldenNumber(1, 0), GoldenNumber(1, 1)))"),
]


@pytest.mark.parametrize("build, expected", REPRS,
                         ids=["TruncationCertificate", "Discretization", "AlphaInterval",
                              "NumericalSemigroup", "PeriodSpec"])
def test_record_repr_is_pinned(build, expected):
    assert repr(build()) == expected


def test_records_of_different_classes_never_compare_equal():
    d = discretize(F, 12, Fraction(1))
    assert (d.prefix, d.conductor) == (WELL_TEMPERED_H.prefix, WELL_TEMPERED_H.conductor)
    assert d != WELL_TEMPERED_H and WELL_TEMPERED_H != d
    assert not d == WELL_TEMPERED_H and not WELL_TEMPERED_H == d
    interval = alpha_sweep(L, 12)[1]
    assert interval != interval.certificate and interval.certificate != interval
    for record in (d, interval, interval.certificate, WELL_TEMPERED_H, golden_period_spec()):
        assert record != object() and object() != record
        assert not record == object()


def test_hashing_a_discretization_does_not_walk_to_the_horizon():
    d = discretize(F, 12, Fraction(1))
    hash(d)
    assert "values" not in vars(d) and "horizon" not in vars(d.certificate)
    assert d == discretize(F, 12, Fraction(1))
    assert "values" in vars(d)
