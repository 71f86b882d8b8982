"""Semigroup verification, gap data, collapse, even-index filterability."""

import random
from fractions import Fraction
from math import gcd

import pytest

from welltempered.discretize import alpha_sweep, discretize, interval_for_alpha
from welltempered.molds import golden_fractal_mold, metric_mold, mold_q
from welltempered.semigroups import (
    CollapseRecord,
    collapse,
    even_filterable_semigroup,
    from_discretization,
    genus_multiplicity,
    numerical_semigroup,
    verify_semigroup,
)

L = metric_mold()
F = golden_fractal_mold()
Q = mold_q()

H = from_discretization(discretize(F, 12, 1))


def test_canonical_form_walks_conductor_down():
    s = numerical_semigroup(set(H.prefix) | set(range(45, 60)), 60)
    assert s == H
    assert s.conductor == 45


def test_constructor_validation():
    with pytest.raises(ValueError):
        numerical_semigroup({1, 2}, 5)  # no zero
    with pytest.raises(ValueError):
        numerical_semigroup({0, -3}, 5)
    with pytest.raises(ValueError):
        numerical_semigroup({0, True}, 5)
    with pytest.raises(ValueError):
        numerical_semigroup({0}, -1)


def test_membership_and_indexing():
    assert 0 in H and 12 in H and 43 in H and 45 in H and 1000 in H
    assert 11 not in H and 44 not in H and -1 not in H
    assert H.element(0) == 0 and H.element(1) == 12 and H.element(2) == 19
    assert H.element(12) == 45 and H.element(14) == 47
    assert H.index_of(19) == 2 and H.index_of(38) == 8
    assert H.index_of(47) == 14 and H.index_of(44) is None
    assert H.elements_below(25) == [0, 12, 19, 24]


def test_naturals_edge_case():
    n0 = numerical_semigroup({0}, 1)
    assert n0.conductor == 0 and n0.prefix == ()
    assert n0.element(0) == 0 and n0.element(5) == 5
    assert verify_semigroup(n0).holds
    gaps, genus, mult = genus_multiplicity(n0)
    assert gaps == () and genus == 0 and mult == 1


def test_hermite_semigroup_gap_data():
    s = numerical_semigroup({0, 4, 5, 8, 9, 10}, 12)
    assert verify_semigroup(s).holds
    gaps, genus, mult = genus_multiplicity(s)
    assert gaps == (1, 2, 3, 6, 7, 11)
    assert genus == 6
    assert mult == 4


def test_twelve_tone_semigroup_verifies():
    report = verify_semigroup(H)
    assert report.holds
    assert report.prefix_bound == 45 + 43
    gaps, genus, mult = genus_multiplicity(H)
    assert mult == 12
    assert genus == 33
    assert gaps[:12] == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)
    assert gaps[-5:] == (35, 37, 39, 41, 44)


def test_nineteen_q_nearest_fails_with_smallest_pair():
    d = discretize(Q, 19, Fraction(1, 2))
    report = verify_semigroup(d)
    assert not report.holds
    assert report.witness == (24, 29)
    assert "53" in report.detail
    # the classically quoted witness is also a violation, just not minimal
    s = from_discretization(d)
    assert 33 in s and 40 in s and 73 not in s


def test_nineteen_q_flooring_fails_with_smallest_pair():
    d = discretize(Q, 19, 1)
    report = verify_semigroup(d)
    assert not report.holds
    assert report.witness == (23, 23)
    s = from_discretization(d)
    assert 28 in s and 56 not in s


def test_sixteen_q_verifies():
    for alpha in (Fraction(1, 2), 1):
        assert verify_semigroup(discretize(Q, 16, alpha)).holds


def test_collapse_golden_twelve_flooring():
    record = collapse(discretize(F, 12, 1))
    assert record == CollapseRecord(kappa=55, witness_index=22)
    iv = interval_for_alpha(alpha_sweep(F, 12), 1)
    assert collapse(iv.representative) == record
    assert record.witness_index < 63  # repeat sits safely inside the prefix


def test_checks_take_the_discretization_they_check():
    # a (mold, m, threshold) triple is refused, so a threshold interval of
    # one mold cannot stand in for another mold's image
    iv = interval_for_alpha(alpha_sweep(F, 12), 1)
    with pytest.raises(TypeError):
        collapse(L, 12, iv)
    with pytest.raises(TypeError):
        even_filterable_semigroup(L, 12, iv)
    assert collapse(discretize(L, 12, iv.upper)).kappa == 50


def test_collapse_metric_multiplicity_one():
    assert collapse(discretize(L, 1, 1)) == CollapseRecord(kappa=1, witness_index=1)


def test_collapse_metric_eighteen_small_threshold():
    record = collapse(discretize(L, 18, Fraction(1, 20)))
    assert record.kappa == 90
    assert record.witness_index == 30


def test_collapse_metric_twelve_at_representative():
    iv = interval_for_alpha(alpha_sweep(L, 12), Fraction(2, 5))
    assert collapse(iv.representative) == CollapseRecord(kappa=54, witness_index=21)


def test_even_filterable_twelve_tone_both_molds():
    ivf = interval_for_alpha(alpha_sweep(F, 12), 1)
    report = even_filterable_semigroup(ivf.representative)
    assert report.holds
    assert report.prefix_bound == 55
    for identity in ("s_2+s_2=s_8", "s_2+s_4=s_14", "s_2+s_6=s_20"):
        assert identity in report.detail
    ivl = interval_for_alpha(alpha_sweep(L, 12), Fraction(2, 5))
    assert even_filterable_semigroup(ivl.representative).holds


def test_even_filterable_thirteen_fails():
    report = even_filterable_semigroup(discretize(L, 13, Fraction(3, 20)))
    assert not report.holds
    assert report.witness == (2, 4)
    assert "52" in report.detail and "s_15" in report.detail


def test_even_filterable_eighteen_fails():
    report = even_filterable_semigroup(discretize(L, 18, Fraction(1, 20)))
    assert not report.holds
    assert report.witness == (2, 8)
    assert "87" in report.detail and "s_27" in report.detail


def _even_filterable_brute_force(d):
    """(verdict, witness, detail) of the even-index filter, by a plain double loop."""
    s = from_discretization(d)
    kappa = collapse(d).kappa
    below = [n for n in range(kappa) if n in s]
    identities = []
    for i in range(0, len(below), 2):
        for j in range(i, len(below), 2):
            total = below[i] + below[j]
            if total >= kappa:
                continue
            if total not in s or below.index(total) % 2 == 1:
                where = ("not a member" if total not in s
                         else f"s_{below.index(total)} with odd index")
                return ("fails", (i, j),
                        f"s_{i} + s_{j} = {total} is {where} below collapse {kappa}")
            if i > 0:
                identities.append(f"s_{i}+s_{j}=s_{below.index(total)}")
    return ("holds-on-prefix", None,
            "; ".join(identities) or "no even-index sums below the collapse")


@pytest.mark.parametrize("mold", [L, F], ids=["L", "F"])
def test_even_filterable_matches_double_loop(mold):
    for m in range(1, 14):
        for iv in alpha_sweep(mold, m):
            d = iv.representative
            report = even_filterable_semigroup(d)
            assert (report.verdict, report.witness, report.detail) == \
                _even_filterable_brute_force(d), (mold.name, m, iv.upper)


def _oracle_closed(ns):
    bound = 2 * ns.conductor + 2
    mask = 0
    for e in ns.elements_below(bound):
        mask |= 1 << e
    window = (1 << ns.conductor) - 1
    for a in ns.prefix:
        if a and ((mask << a) & ~mask) & window:
            return False
    return True


def _random_candidate(rng):
    mode = rng.randrange(5)
    if mode < 3:
        c = rng.randrange(2, 201)
        density = 0.1 + 0.8 * rng.random()
        return {0} | {n for n in range(1, c) if rng.random() < density}, c
    if mode == 3:
        while True:
            a, b = rng.randrange(2, 21), rng.randrange(2, 21)
            if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 200:
                break
        c = (a - 1) * (b - 1)
        members = {i * a + j * b for i in range(c // a + 1)
                   for j in range(c // b + 1)}
        return {m for m in members if m < c} | {0}, c
    base = set(H.prefix)
    if rng.random() < 0.7:
        base.discard(rng.choice(sorted(base - {0})))
    else:
        base.add(rng.randrange(1, 45))
    return base, 45


def _smallest_violation(ns):
    """The lexicographically smallest pair a <= b of members whose sum is not one."""
    nonzero = [e for e in ns.prefix if e > 0]
    for a in nonzero:
        for b in nonzero:
            if a <= b and a + b not in ns:
                return a, b
    return None


def _minimal_conductor(members, c):
    return min(n for n in range(c + 1) if all(k in members for k in range(n, c)))


def test_verify_matches_bitset_oracle():
    rng = random.Random(551203)
    for _ in range(300):
        members, c = _random_candidate(rng)
        ns = numerical_semigroup(members, c)
        conductor = _minimal_conductor(members, c)
        assert ns.conductor == conductor
        assert ns.prefix == tuple(sorted(e for e in members if e < conductor))
        report = verify_semigroup(ns)
        assert report.holds == _oracle_closed(ns)
        assert report.witness == _smallest_violation(ns)
        if report.witness is not None:
            a, b = report.witness
            assert report.detail == f"{a} + {b} = {a + b} is not a member"


def test_genus_complements_member_count():
    rng = random.Random(90125)
    for _ in range(50):
        members, c = _random_candidate(rng)
        ns = numerical_semigroup(members, c)
        _, genus, _ = genus_multiplicity(ns)
        assert genus + len(ns.elements_below(ns.conductor)) == ns.conductor
