"""The one record protocol: exact reprs, constructor errors, and equality across classes."""

from fractions import Fraction

import pytest

from welltempered import cli
from welltempered.discretize import (
    AlphaInterval,
    Discretization,
    alpha_sweep,
    discretize,
    truncation_certificate,
)
from welltempered.molds import PropertyReport, golden_fractal_mold, golden_period_spec, metric_mold
from welltempered.semigroups import CollapseRecord, NumericalSemigroup, collapse, verify_semigroup
from welltempered.theorems import WELL_TEMPERED_H, TailCertificate, _merged_regions

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
    (lambda: collapse(discretize(L, 12, Fraction(2, 5))),
     "CollapseRecord(kappa=54, witness_index=21)"),
    (lambda: verify_semigroup(WELL_TEMPERED_H),
     "PropertyReport(property='semigroup-closure', verdict='holds-on-prefix', "
     "prefix_bound=88, witness=None, detail='all pairwise sums below 88 are members')"),
]


@pytest.mark.parametrize("build, expected", REPRS,
                         ids=["TruncationCertificate", "Discretization", "AlphaInterval",
                              "NumericalSemigroup", "PeriodSpec", "CollapseRecord",
                              "PropertyReport"])
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
    # a record is not a tuple, even one holding its field values
    record = collapse(discretize(L, 12, Fraction(2, 5)))
    assert record == CollapseRecord(54, 21) and record != (54, 21) and (54, 21) != record
    assert not record == (54, 21)


# (a call that a record's constructor must refuse, the argument it names)
BAD_CALLS = [
    (lambda: PropertyReport("p", "fails", 1, None, detial="x"), "detial"),
    (lambda: PropertyReport("p", "fails", 1, None, "", "extra"), "6 were given"),
    (lambda: PropertyReport("p", "fails"), "prefix_bound"),
    (lambda: PropertyReport("p", "fails", 1, verdict="holds-on-prefix"), "verdict"),
    (lambda: CollapseRecord(kappa=54), "witness_index"),
    (lambda: NumericalSemigroup((0,), 1, 2), "3 were given"),
    (lambda: TailCertificate(35, 70, "greater", detial=""), "detial"),
    (lambda: cli.Result(["x"], [], {}, 0, 1), "5 were given"),
    (lambda: Discretization(45, (0,), None, 1, (), None), "6 were given"),
    (lambda: AlphaInterval(0, 0, 0), "certificate"),
]


@pytest.mark.parametrize("call, named", BAD_CALLS)
def test_record_constructors_refuse_unknown_missing_repeated_or_extra_arguments(call, named):
    with pytest.raises(TypeError, match=named):
        call()



def test_hashing_a_discretization_does_not_walk_to_the_horizon():
    d = discretize(F, 12, Fraction(1))
    hash(d)
    assert "values" not in vars(d) and "horizon" not in vars(d.certificate)
    assert d == discretize(F, 12, Fraction(1))
    assert "values" in vars(d)


def test_sweep_interval_fields_are_its_values():
    # an interval holds a move-log position, but _asdict gives the key it stands for
    interval = alpha_sweep(L, 12)[3]
    fields = interval._asdict()
    assert list(fields) == ["lower", "upper", "key", "certificate"]
    assert type(fields["key"]) is tuple and fields["key"] == interval.key
    for region in _merged_regions(F, 12):
        assert region._asdict()["key"] == region.key
