"""Mold construction and mold-level property checks."""

import random
import weakref
from fractions import Fraction

import pytest

from welltempered import exactnum, molds
from welltempered.discretize import alpha_sweep
from welltempered.exactnum import TAU, GoldenNumber, LogValue
from welltempered.molds import (
    ExplicitMold,
    FractalMold,
    PeriodSpec,
    SpacingCertificateError,
    check_even_filterable_mold,
    check_fractal,
    check_metric,
    check_mold_axioms,
    f_ell,
    fractal_mold,
    generic_fractal_mold,
    golden_fractal_mold,
    golden_period_spec,
    metric_mold,
    mold_d,
    mold_q,
    perfect_fractal_mold,
    period_uniqueness_scan,
    uniqueness_certificate,
)

# Rounded reference prefixes. The sources display these with mixed
# truncate/round conventions, so the comparison tolerance is one unit
# in the fourth decimal place.
L_PREFIX = [
    0, 1, 1.5849, 2, 2.3219, 2.5849, 2.8073, 3, 3.1699, 3.3219, 3.4594,
    3.5849, 3.7004, 3.8073, 3.9068, 4, 4.0874, 4.1699, 4.2479, 4.3219,
    4.3923, 4.4594, 4.5235, 4.5849, 4.6438, 4.7004, 4.7548, 4.8073,
    4.8579, 4.9068, 4.9541, 5, 5.0443, 5.0874, 5.1292, 5.1699, 5.2094,
    5.2479, 5.2854, 5.3219, 5.3575,
]
F_PREFIX = [
    0, 1, 1.6180, 2, 2.3820, 2.6180, 2.8541, 3, 3.2361, 3.3820, 3.5279,
    3.6180, 3.7639, 3.8541, 3.9443, 4, 4.1459, 4.2361, 4.3262, 4.3820,
    4.4721, 4.5279, 4.5836, 4.6180, 4.7082, 4.7639, 4.8197, 4.8541,
    4.9098, 4.9443, 4.9787, 5, 5.0902, 5.1459, 5.2016, 5.2361, 5.2918,
    5.3262, 5.3607, 5.3820, 5.4377, 5.4721, 5.5066, 5.5279, 5.5623,
    5.5836, 5.6049, 5.6180, 5.6738, 5.7082, 5.7426, 5.7639, 5.7984,
    5.8197, 5.8409, 5.8541, 5.8885, 5.9098, 5.9311, 5.9443, 5.9656,
    5.9787, 5.9919, 6,
]
# Q scaled by 19 is exactly representable in decimal; the reference
# listing doubles as a check of the period start indices 1, 5, 13, 29.
Q_TIMES_19 = [
    "0", "19", "23.75", "28.5", "33.25", "38", "40.375", "42.75",
    "45.125", "47.5", "49.875", "52.25", "54.625", "57", "58.1875",
    "59.375", "60.5625", "61.75", "62.9375", "64.125", "65.3125",
    "66.5", "67.6875", "68.875", "70.0625", "71.25", "72.4375",
    "73.625", "74.8125", "76", "76.59375", "77.1875", "77.78125",
    "78.375", "78.96875", "79.5625", "80.15625", "80.75", "81.34375",
]


def test_metric_mold_prefix():
    L = metric_mold()
    for i, expected in enumerate(L_PREFIX):
        assert abs(float(L.element(i)) - expected) <= 1.0e-4, i


def test_metric_mold_exact_values():
    L = metric_mold()
    assert L.element(0) == 0
    assert L.element(1) == 1
    assert L.element(3) == 2
    assert L.element(2) == LogValue.log2(3)
    assert L.element(2) + L.element(3) == L.element(11)
    with pytest.raises(IndexError):
        L.element(-1)


def test_golden_mold_prefix():
    F = golden_fractal_mold()
    for i, expected in enumerate(F_PREFIX):
        assert abs(float(F.element(i)) - expected) <= 1.0e-4, i


def test_golden_mold_exact_values():
    """Small golden elements have closed forms in the a+b*tau basis."""
    F = golden_fractal_mold()
    assert F.element(2) == GoldenNumber(1, 1)
    assert F.element(4) == GoldenNumber(3, -1)  # 2 + tau^2
    assert F.element(6) == 2 + TAU + TAU ** 3
    assert F.element(8) == GoldenNumber(2, 2)  # 3 + tau^3
    assert F.element(15) == 4
    assert F.element(63) == 6


def test_golden_mold_matches_generic_generation():
    F = golden_fractal_mold()
    generic = FractalMold(golden_period_spec())
    assert F.elements(512) == generic.elements(512)
    # independent oracle: the bit recursion f_ell at proportion tau
    count = (1 << 10) - 1
    expected = []
    for i in range(count):
        ell = (i + 1).bit_length() - 1
        expected.append(ell + f_ell(ell, i + 1 - (1 << ell), TAU))
    assert golden_fractal_mold().elements(count) == expected
    # a cache filled out of order hands out the same values
    shuffled = golden_fractal_mold()
    order = list(range(count))
    random.Random(20261018).shuffle(order)
    for i in order:
        assert shuffled.element(i) == expected[i], i


@pytest.mark.parametrize("m, most", [(100, 1033), (200, 4107)])
def test_golden_sweep_builds_only_the_elements_it_reads(monkeypatch, m, most):
    # a sweep reads the first two elements of the period at F's spacing
    # index; building that whole period made 2055 and 8201 products.  The
    # generator multiplies coefficient pairs, so it builds one number per
    # element read and no product of GoldenNumbers
    mul, golden = GoldenNumber.__mul__, molds._golden
    products = built = 0

    def counted(self, other):
        nonlocal products
        products += isinstance(other, GoldenNumber)
        return mul(self, other)

    def counted_golden(a, b):
        nonlocal built
        built += 1
        return golden(a, b)

    monkeypatch.setattr(GoldenNumber, "__mul__", counted)
    monkeypatch.setattr(molds, "_golden", counted_golden)
    mold = golden_fractal_mold()
    alpha_sweep(mold, m)
    assert products <= most
    assert built == mold.spacing_index(m)[0] + 1 <= most  # elements 1..prefix_end + 1


def test_metric_mold_canonicalizes_each_odd_argument_once(monkeypatch):
    # log2(2^s * r) = log2(r) + s, so even arguments reuse their odd parts
    calls = 0
    primitive_power = exactnum._primitive_power

    def counted(n):
        nonlocal calls
        calls += 1
        return primitive_power(n)

    monkeypatch.setattr(exactnum, "_primitive_power", counted)
    L = metric_mold()
    alpha_sweep(L, 400)
    assert calls <= 290
    expected, read = LogValue.log2(401), calls + 1
    assert L.element(11) is L.element(11) == LogValue(1, 3, 2)
    assert L.element(400) == expected and calls == read  # kept, not rebuilt
    assert L.element(2 ** 3000 - 1) == LogValue(1, 1, 3000)  # no halving recursion
    ref = weakref.ref(L)
    del L
    assert ref() is None


def test_fractal_mold_is_freed_by_reference_counting():
    # the element generator holds the pieces, not the mold, so no cycle
    F = golden_fractal_mold()
    F.elements(300)
    ref = weakref.ref(F)
    del F
    assert ref() is None


def test_f_ell_base_cases():
    assert f_ell(0, 0, TAU) == 0
    assert f_ell(1, 1, TAU) == TAU
    assert f_ell(2, 3, TAU) == TAU + TAU ** 3
    for ell in range(6):
        assert f_ell(ell, 0, TAU) == 0
    with pytest.raises(ValueError):
        f_ell(2, 4, TAU)
    with pytest.raises(ValueError):
        f_ell(1, -1, TAU)


def test_f_ell_matches_subdivision_for_random_proportions():
    """The bit recursion and gap subdivision build the same sequence."""
    rng = random.Random(20260822)
    for _ in range(60):
        p = Fraction(rng.randint(1, 99), 100)
        mold = FractalMold(PeriodSpec([Fraction(1), 1 + p]))
        ell = rng.randint(1, 5)
        n = rng.randrange(1 << ell)
        idx = (1 << ell) - 1 + n
        assert mold.element(idx) == ell + f_ell(ell, n, p)


def test_golden_level_shape():
    # tau + f_ell(n) for 1 <= n < 2^ell lands in level ell+1, either
    # directly or as 1 + tau * (a level ell+1 value); levels 1..12
    p, q = TAU, GoldenNumber(1, -1)
    level = [GoldenNumber(0, 0), p]
    for ell in range(1, 13):
        nxt = [p * x for x in level] + [p + q * x for x in level]
        direct = set(nxt)
        shifted = {1 + p * x for x in nxt}
        for n in range(1, 1 << ell):
            target = p + level[n]
            assert target in direct or target in shifted, (ell, n)
        level = nxt


def test_perfect_fractal_mold_structure():
    D = mold_d()
    assert D.name == "D"
    assert D.granularity == 10
    assert D.element(0) == 0
    assert D.element(1) == 1
    assert D.element(10) == Fraction(19, 10)
    assert D.element(11) == 2
    assert D.element(12) == 2 + Fraction(1, 100)
    assert D.element(111) == 3
    assert check_fractal(D, 2).holds
    four = perfect_fractal_mold(4)
    assert check_mold_axioms(four, 85).holds
    # same first period as Q, but different second period
    assert four.elements(6) == mold_q().elements(6)
    assert four.element(6) == Fraction(33, 16)


def test_halving_step_mold():
    Q = mold_q()
    for i, s in enumerate(Q_TIMES_19):
        assert 19 * Q.element(i) == Fraction(s)
    assert Q.start_index(1) == 1
    assert Q.start_index(2) == 5
    assert Q.start_index(3) == 13
    assert Q.start_index(4) == 29
    assert check_mold_axioms(Q, 64, gap_epsilon=Fraction(1, 4)).holds
    report = check_fractal(Q, 2)
    assert not report.holds
    assert report.witness == (2,)


def test_bisectional_period_gives_perfect_mold():
    half = FractalMold(PeriodSpec([1, Fraction(3, 2)]))
    assert half.elements(31) == perfect_fractal_mold(2).elements(31)
    for l in (3, 4, 10):
        even = FractalMold(PeriodSpec([1 + Fraction(j, l) for j in range(l)]))
        perfect = perfect_fractal_mold(l)
        count = perfect.start_index(4) + 1  # three full periods and the next start
        assert even.elements(count) == perfect.elements(count), l
        for m in range(1, 301):
            assert even.spacing_index(m)[0] == perfect.spacing_index(m)[0], (l, m)


def test_generic_fractal_simple_period():
    values, report = generic_fractal_mold(PeriodSpec([1, Fraction(3, 2)]), 15)
    assert values[:8] == [0, 1, Fraction(3, 2), 2, Fraction(9, 4),
                          Fraction(5, 2), Fraction(11, 4), 3]
    assert report.holds
    assert report.property == "fractal"


def test_generic_fractal_granularity_three():
    spec = PeriodSpec([1, Fraction(3, 2), Fraction(7, 4)])
    values, report = generic_fractal_mold(spec, 40)
    assert report.holds
    assert values[:8] == [0, 1, Fraction(3, 2), Fraction(7, 4), 2,
                          Fraction(9, 4), Fraction(19, 8), Fraction(5, 2)]
    # periods of a granularity-l mold carry l^i elements
    counts = {}
    for v in values:
        cell = v.numerator // v.denominator
        counts[cell] = counts.get(cell, 0) + 1
    assert counts == {0: 1, 1: 3, 2: 9, 3: 27}


def test_generic_fractal_closure_failure():
    values, report = generic_fractal_mold(PeriodSpec([1, 1 + Fraction(7, 12)]), 16)
    assert not report.holds
    assert report.witness == (2, 2)
    assert "19/6" in report.detail
    assert values[2] + values[2] == Fraction(19, 6)


def test_mold_axiom_checks_hold_for_named_molds():
    assert check_mold_axioms(metric_mold(), 200).holds
    assert check_mold_axioms(golden_fractal_mold(), 200).holds
    assert check_mold_axioms(metric_mold(), 120, gap_epsilon=Fraction(1, 8)).holds
    for count in (1, 2, 50):
        assert check_mold_axioms(golden_fractal_mold(), count).prefix_bound == count


@pytest.mark.parametrize("check, arg, bad", [
    (check_mold_axioms, "count", 0),
    (check_even_filterable_mold, "bound", -1),
    (check_metric, "bound", -1),
    (check_fractal, "periods", 0),
])
def test_mold_checks_reject_an_empty_prefix(check, arg, bad):
    with pytest.raises(ValueError, match=f"{arg} must be >= 1"):
        check(golden_fractal_mold(), bad)


def test_generic_fractal_mold_rejects_an_empty_count():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="count must be >= 1"):
            generic_fractal_mold(golden_period_spec(), bad)


def test_gap_check_is_decided_exactly():
    # a gap equal to epsilon is not below it, and a tie of two logs is a
    # verdict, not an enclosure that never separates
    tie = ExplicitMold([0, LogValue(1, 3), LogValue(1, 3, 1)])
    report = check_mold_axioms(tie, 3, gap_epsilon=Fraction(1))
    assert (report.verdict, report.witness) == ("fails", (1, 2))
    assert report.detail == "gap at index 1 is not below 1"
    report = check_mold_axioms(metric_mold(), 120, gap_epsilon=Fraction(1, 100))
    assert (report.verdict, report.witness) == ("fails", (31, 32))
    # Q's checked cell at 64 elements is [4, 5), with step 1/32
    report = check_mold_axioms(mold_q(), 64, gap_epsilon=Fraction(1, 32))
    assert (report.verdict, report.witness) == ("fails", (29, 30))
    assert check_mold_axioms(mold_q(), 64, gap_epsilon=Fraction(1, 31)).holds


def test_golden_closure_random_pairs():
    F = golden_fractal_mold()
    values = F.elements((1 << 12) - 1)  # everything below 12
    members = set(values)
    rng = random.Random(987001)
    for _ in range(400):
        i = rng.randrange(63)
        j = rng.randrange(63)
        s = values[i] + values[j]  # both below 6, sum below 12
        assert s in members


def test_metric_property():
    assert check_metric(metric_mold(), 2000).holds
    report = check_metric(golden_fractal_mold(), 100)
    assert not report.holds
    assert report.witness == (3, 5)


def test_even_filterable_mold_checks():
    assert check_even_filterable_mold(metric_mold(), 200).holds
    report = check_even_filterable_mold(golden_fractal_mold(), 20)
    assert tuple(report)[1:] == ("fails", 20, (2, 4), "mu_2 + mu_4 = mu_15 has odd index 15")
    report = check_even_filterable_mold(mold_q(), 16)
    assert tuple(report)[1:] == ("fails", 16, (2, 2), "mu_2 + mu_2 = mu_9 has odd index 9")
    # the 7/12 cut is not closed: an even pair sums outside the mold
    report = check_even_filterable_mold(FractalMold(PeriodSpec([1, 1 + Fraction(7, 12)])), 16)
    assert (report.verdict, report.witness) == ("fails", (2, 2))
    assert report.detail == "mu_2 + mu_2 = 19/6 is not an element"


def test_metric_mold_is_not_fractal():
    report = check_fractal(metric_mold(), 2)
    assert not report.holds
    assert report.witness == (2, 1)


def test_golden_mold_is_fractal():
    assert check_fractal(golden_fractal_mold(), 4).holds


def test_spacing_indices():
    L, F, Q = metric_mold(), golden_fractal_mold(), mold_q()
    assert L.spacing_index(12)[0] == 16
    assert L.spacing_index(2)[0] == 2
    assert F.spacing_index(12)[0] == 63
    assert F.spacing_index(2)[0] == 3
    assert Q.spacing_index(16)[0] == 29
    assert Q.spacing_index(19)[0] == 29
    assert Q.spacing_index(3)[0] == 1
    assert perfect_fractal_mold(10).spacing_index(12)[0] == 11
    assert perfect_fractal_mold(10).spacing_index(100)[0] == 111
    # the certified bounds are exact inequalities
    assert 18 ** 12 < 2 * 17 ** 12
    assert not (17 ** 12 < 2 * 16 ** 12)
    assert 12 * TAU ** 6 < 1
    assert not (12 * TAU ** 5 < 1)
    # F's index is 2^ell - 1 for the least ell with tau^ell < 1/m
    for m in range(1, 401):
        ell = 1
        while not m * TAU ** ell < 1:
            ell += 1
        assert F.spacing_index(m)[0] == (1 << ell) - 1, m


@pytest.mark.parametrize("m", [2.5, True, 0])
@pytest.mark.parametrize("mold", [metric_mold(), golden_fractal_mold(), mold_q()],
                         ids=["L", "F", "Q"])
def test_spacing_index_rejects_non_multiplicities(mold, m):
    # a float would be decided by float powers, and True would pass as 1
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        mold.spacing_index(m)


def test_explicit_mold_boundaries():
    mold = ExplicitMold([0, 1, Fraction(3, 2)], name="listed")
    assert mold.element(2) == Fraction(3, 2)
    with pytest.raises(IndexError):
        mold.element(3)
    with pytest.raises(SpacingCertificateError):
        mold.spacing_index(5)
    report = check_mold_axioms(ExplicitMold([1, 2]), 2)
    assert (report.verdict, report.witness, report.detail) == ("fails", (0,), "mu_0 is not 0")
    report = check_mold_axioms(ExplicitMold([0, 1, 1, 2]), 4)
    assert (report.verdict, report.witness) == ("fails", (1, 2))
    report = check_fractal(ExplicitMold([0, Fraction(1, 2), 1, Fraction(3, 2), 2]), 1)
    assert (report.verdict, report.witness) == ("fails", (0,))
    assert report.detail.startswith("need one element in period 0")
    # a prefix that ends inside the checked periods is an error, not a verdict
    with pytest.raises(ValueError, match="'listed': its prefix ends before period 1 is complete"):
        check_fractal(mold, 1)
    longer = ExplicitMold([0, 1, Fraction(3, 2), 2, Fraction(9, 4), Fraction(5, 2)])
    assert check_fractal(longer, 1).holds
    with pytest.raises(ValueError, match="before period 2 is complete"):
        check_fractal(longer, 2)


def test_period_spec_validation():
    with pytest.raises(ValueError):
        PeriodSpec([Fraction(3, 2), Fraction(7, 4)])  # must start at 1
    with pytest.raises(ValueError):
        PeriodSpec([1, 1])  # strictly increasing
    with pytest.raises(ValueError):
        PeriodSpec([1, 2])  # below 2
    with pytest.raises(ValueError):
        PeriodSpec([1, 1.5])  # floats carry no exactness
    spec = golden_period_spec()
    assert spec.granularity == 2
    assert spec.family == "golden"
    assert spec.cuts[1] == GoldenNumber(1, 1)
    mixed = PeriodSpec([1, Fraction(3, 2), GoldenNumber(1, 1)])
    assert mixed.family == "golden"
    assert PeriodSpec([1, GoldenNumber(Fraction(3, 2), 0)]).family == "rational"


def test_fractal_mold_builder_names():
    assert metric_mold().kind == "metric"
    assert golden_fractal_mold().kind == "golden-fractal"
    assert mold_q().kind == "explicit(list rule)"
    assert perfect_fractal_mold(3).kind == "perfect-fractal(3)"
    named = fractal_mold(PeriodSpec([1, Fraction(4, 3)]), name="thirds")
    assert named.name == "thirds"
    assert named.kind == "generic-fractal(granularity 2)"


def test_uniqueness_certificate_is_exact():
    cert = uniqueness_certificate()
    assert cert.root == TAU
    assert cert.root_satisfies_quadratic
    assert cert.root_in_open_interval
    assert cert.factorizations_verified
    assert cert.alternative_roots_excluded
    assert len(cert.factorizations) == 3


@pytest.mark.parametrize("case, factor", [(0, (1, -3, 1)), (0, (1, 1, 1)), (2, (1, -3, 1)),
                                          (1, (-3, 4))],
                         ids=["quad-no-root", "quad-positive", "no_real-real", "linear-inside"])
def test_uniqueness_certificate_evaluates_its_polynomials(monkeypatch, case, factor):
    # one factor's coefficients changed, with the product recomputed so the
    # factorizations still verify: the root exclusion must notice
    facts = list(molds._CASE_FACTS)
    _, (_, other) = facts[case]
    facts[case] = (molds._poly_mul(factor, other), (factor, other))
    monkeypatch.setattr(molds, "_CASE_FACTS", tuple(facts))
    cert = uniqueness_certificate()
    assert cert.factorizations_verified
    assert not cert.alternative_roots_excluded


def test_period_uniqueness_scan_coarse_grid():
    """At resolution 1/100 with 32 elements only the grid point nearest
    the golden cut survives both axiom sieves."""
    result = period_uniqueness_scan(Fraction(1, 100), 32)
    assert result.survivors == (Fraction(31, 50),)
    (p, violation), = result.violations
    assert 0 < violation <= result.tolerance
    assert abs(p - Fraction(618, 1000)) <= Fraction(1, 100)
    assert Fraction(1, 2) not in result.survivors
    assert all(q != Fraction(1, 2) for q in result.degenerate)
    # endpoints collapse toward the integers and are sieved as degenerate
    assert Fraction(1, 100) in result.degenerate
    assert Fraction(99, 100) in result.degenerate


def test_period_uniqueness_scan_validation():
    with pytest.raises(ValueError):
        period_uniqueness_scan(Fraction(1, 5), 32)
    with pytest.raises(ValueError):
        period_uniqueness_scan(Fraction(1, 100), 4)
