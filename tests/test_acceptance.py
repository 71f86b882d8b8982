"""End-to-end checks: censuses, the 12-division match, table fidelity,
worked examples, closure suites, uniqueness of the golden cut, oracle
agreement, and run-to-run determinism."""

import json
import random
import time
import types
from fractions import Fraction

import welltempered
from welltempered.cli import main
from welltempered.discretize import alpha_sweep, discretize, interval_for_alpha
from welltempered.exactnum import TAU, scale
from welltempered.molds import (
    PeriodSpec,
    check_even_filterable_mold,
    check_metric,
    generic_fractal_mold,
    golden_fractal_mold,
    metric_mold,
    mold_q,
    period_uniqueness_scan,
    uniqueness_certificate,
)
from welltempered.render import render_decimal
from welltempered.semigroups import (
    CollapseRecord,
    collapse,
    even_filterable_semigroup,
    from_discretization,
    genus_multiplicity,
    numerical_semigroup,
    verify_semigroup,
)
from welltempered.theorems import (
    EVEN_FILTERABLE_MULTIPLICITIES,
    FEASIBLE_MULTIPLICITIES,
    REFERENCE_MATCHES,
    TAIL_START,
    even_filterable_census,
    multiplicity_census,
    simultaneous_search,
    tail_certificate,
)

from reference_tables import TABLES

L = metric_mold()
F = golden_fractal_mold()
Q = mold_q()

H_SET = (0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43)
H_CONDUCTOR = 45


def test_multiplicity_census_with_tail():
    """Searching every m up to 34 and certifying the tail to 200 finds
    exactly thirteen feasible multiplicities, well under the time budget."""
    start = time.monotonic()
    found = multiplicity_census(34)
    for m in range(TAIL_START, 201):
        cert = tail_certificate(m)
        assert cert.comparison == "greater"
    elapsed = time.monotonic() - start
    assert found == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 18}
    assert found == FEASIBLE_MULTIPLICITIES
    assert elapsed < 120.0
    for m in range(1, 35):
        if m not in found:
            assert simultaneous_search(m) == []


def test_even_filterable_census():
    found = even_filterable_census(34)
    assert found == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12}
    assert found == EVEN_FILTERABLE_MULTIPLICITIES
    assert found < FEASIBLE_MULTIPLICITIES


def test_unique_twelve_division_match():
    matches = simultaneous_search(12)
    assert len(matches) == 1
    (match,) = matches
    s = match.semigroup
    assert s.prefix == H_SET
    assert s.conductor == H_CONDUCTOR
    assert collapse(discretize(F, 12, 1)) == CollapseRecord(kappa=55, witness_index=22)
    for report in match.even_filterable:
        assert report.holds
    detail = even_filterable_semigroup(match.interval_F.representative).detail
    assert detail == "s_2+s_2=s_8; s_2+s_4=s_14; s_2+s_6=s_20"


def test_reference_table_renderings():
    """All 510 published four-decimal entries are reproduced byte for byte,
    hence far inside the 5e-5 tolerance."""
    for m, rows in TABLES.items():
        assert len(rows) == 51
        for i, (lam_text, phi_text) in enumerate(rows):
            lam = render_decimal(scale(L.element(i), m))
            phi = render_decimal(scale(F.element(i), m))
            assert lam == lam_text, (m, i)
            assert phi == phi_text, (m, i)
            assert abs(float(lam) - float(lam_text)) < 5e-5
            assert abs(float(phi) - float(phi_text)) < 5e-5


def test_reference_match_prefixes():
    """Each feasible multiplicity admits a search match reproducing the
    known semigroup listing element by element."""
    assert set(REFERENCE_MATCHES) == FEASIBLE_MULTIPLICITIES
    assert REFERENCE_MATCHES[9].prefix[:13] == (
        0, 9, 15, 18, 21, 24, 26, 27, 29, 30, 32, 33, 34)
    assert REFERENCE_MATCHES[18].prefix[:21] == (
        0, 18, 29, 36, 42, 47, 51, 54, 58, 60, 63, 65, 67, 69, 71, 72,
        74, 76, 77, 78, 80)
    for m, ref in REFERENCE_MATCHES.items():
        dl = from_discretization(discretize(L, m, ref.alpha_L))
        df = from_discretization(discretize(F, m, ref.alpha_F))
        assert dl == df
        for i, value in enumerate(ref.prefix):
            assert dl.element(i) == value, (m, i)
        matched = [mt for mt in simultaneous_search(m)
                   if mt.semigroup == dl
                   and mt.interval_L.contains_alpha(ref.alpha_L)
                   and mt.interval_F.contains_alpha(ref.alpha_F)]
        assert len(matched) == 1, m


def test_worked_examples():
    hermite = numerical_semigroup({0, 4, 5, 8, 9, 10}, 12)
    assert verify_semigroup(hermite).holds
    gaps, genus, mult = genus_multiplicity(hermite)
    assert gaps == (1, 2, 3, 6, 7, 11)
    assert genus == 6
    assert mult == 4

    sixteen = (0, 16, 20, 24, 28, 32, 34, 36, 38, 40, 42, 44, 46)
    nearest16 = from_discretization(discretize(Q, 16, Fraction(1, 2)))
    floor16 = from_discretization(discretize(Q, 16, 1))
    assert nearest16 == floor16
    assert nearest16.prefix == sixteen
    assert nearest16.conductor == 48
    assert verify_semigroup(nearest16).holds

    nearest19 = discretize(Q, 19, Fraction(1, 2))
    assert not verify_semigroup(nearest19).holds
    s19 = from_discretization(nearest19)
    assert 33 in s19 and 40 in s19 and 73 not in s19

    floor19 = discretize(Q, 19, 1)
    assert not verify_semigroup(floor19).holds
    f19 = from_discretization(floor19)
    assert 28 in f19 and 56 not in f19


def test_closure_property_suite():
    values = F.elements((1 << 18) - 1)  # everything below 18
    members = set(values)
    first = values[:500]  # all below 9, so sums stay below 18
    for i, vi in enumerate(first):
        for vj in first[i:]:
            assert vi + vj in members

    assert check_metric(L, 10 ** 4).holds

    for i in range(101):
        for j in range(101):
            assert L.element(2 * i) + L.element(2 * j) == \
                L.element(2 * (2 * i * j + i + j))

    report = check_even_filterable_mold(F, 64)
    assert not report.holds
    assert report.witness == (2, 4)
    assert F.element(2) + F.element(4) == 4
    assert F.element(15) == 4
    assert "15" in report.detail


def test_golden_cut_uniqueness():
    result = period_uniqueness_scan(Fraction(1, 1000), 64)
    assert result.survivors == (Fraction(309, 500),)
    for p in result.survivors:
        assert abs(float(p) - float(TAU)) < Fraction(1, 1000)

    cert = uniqueness_certificate()
    cubic, (quad, linear) = cert.factorizations[0]
    assert cubic == (1, -2, 0, 1)  # p^3 - 2p + 1
    assert quad == (-1, 1, 1)  # p^2 + p - 1
    assert linear == (-1, 1)  # p - 1
    product = [0] * 4
    for a, qa in enumerate(quad):
        for b, lb in enumerate(linear):
            product[a + b] += qa * lb
    assert tuple(product) == cubic
    assert cert.root == TAU
    assert cert.root_satisfies_quadratic
    assert cert.root_in_open_interval
    assert cert.factorizations_verified
    assert cert.alternative_roots_excluded

    values, report = generic_fractal_mold(
        PeriodSpec([1, 1 + Fraction(7, 12)]), 16)
    assert not report.holds
    assert report.witness == (2, 2)
    assert values[2] + values[2] == 3 + Fraction(2, 12)


def _bitset_closed(ns):
    bound = 2 * ns.conductor + 2
    mask = 0
    for e in ns.elements_below(bound):
        mask |= 1 << e
    below_conductor = (1 << ns.conductor) - 1
    for a in ns.prefix:
        if a and ((mask << a) & ~mask) & below_conductor:
            return False
    return True


def test_verifier_agrees_with_bitset_oracle():
    rng = random.Random(662433)
    disagreements = 0
    for _ in range(1000):
        c = rng.randrange(2, 201)
        density = 0.05 + 0.9 * rng.random()
        members = {0} | {n for n in range(1, c) if rng.random() < density}
        ns = numerical_semigroup(members, c)
        if verify_semigroup(ns).holds != _bitset_closed(ns):
            disagreements += 1
    assert disagreements == 0


def test_byte_identical_reruns(capsys):
    commands = (
        ["mold", "show", "--mold", "F", "--count", "30"],
        ["mold", "show", "--mold", "L", "--count", "30", "--format", "json"],
        ["table", "--m", "18", "--count", "51", "--format", "csv"],
        ["discretize", "--mold", "F", "--m", "12", "--alpha", "1",
         "--format", "json"],
        ["search", "--m", "13", "--format", "json"],
        ["search", "--m", "18", "--exact"],
        ["theorem", "--which", "4"],
        ["theorem", "--which", "5", "--format", "csv"],
        ["theorem", "--which", "6", "--format", "json"],
        ["fractal-division", "--p", "golden", "--depth", "5"],
    )
    for argv in commands:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first, argv
        if argv[-1] == "json":
            payload = json.loads(first)
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == first


def test_package_exports_every_public_name_once():
    exported = welltempered.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(welltempered, name) for name in exported)
    public = {name for name, value in vars(welltempered).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public
