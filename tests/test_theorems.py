"""Simultaneous-discretization search, censuses, tail certificate, uniqueness."""

import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from welltempered import theorems
from welltempered.cli import _M_RANGE, SEARCH_BOUND, main
from welltempered.discretize import alpha_sweep, discretize
from welltempered.exactnum import GoldenNumber, LogValue, PrecisionBudgetExceeded, certified_sign
from welltempered.molds import golden_fractal_mold, metric_mold, mold_d, mold_q
from welltempered.semigroups import collapse, even_filterable_semigroup, from_discretization
from welltempered.theorems import (
    EVEN_FILTERABLE_MULTIPLICITIES,
    FEASIBLE_MULTIPLICITIES,
    REFERENCE_MATCHES,
    TailCertificate,
    h_uniqueness,
    multiplicity_census,
    even_filterable_census,
    simultaneous_search,
    tail_certificate,
)
from welltempered.theorems import _exclusion, _iter_matches, _merged_regions

L = metric_mold()
F = golden_fractal_mold()

H_PREFIX = (0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43)

# match counts per multiplicity, fixed by the two alpha sweeps
MATCH_COUNTS = {1: 4, 2: 5, 3: 3, 4: 5, 5: 4, 6: 4, 7: 5, 8: 2, 9: 2,
                10: 4, 11: 0, 12: 1, 13: 3}


def test_merged_regions_read_keys_only():
    regions = _merged_regions(F, 34)
    assert all("representative" not in vars(region) for region in regions)
    keys = [region.key for region in regions[1:]]
    assert all(a != b for a, b in zip(keys, keys[1:]))  # neighbours were fused
    assert regions[-1].upper == 1


def test_census_up_to_20():
    assert multiplicity_census(20) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 18}


def test_census_m_max_1():
    assert multiplicity_census(1) == {1}


def test_census_13():
    assert multiplicity_census(13) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13}


def test_match_counts_are_deterministic():
    for m, count in MATCH_COUNTS.items():
        assert len(simultaneous_search(m)) == count, m


def test_infeasible_multiplicities_come_back_empty():
    assert simultaneous_search(11) == []
    assert simultaneous_search(14) == []
    assert simultaneous_search(17) == []


def test_matches_carry_verified_data():
    for m in (5, 9, 12):
        matches = simultaneous_search(m)
        lowers = [float(mt.interval_L.lower) for mt in matches]
        assert lowers == sorted(lowers)
        for mt in matches:
            assert mt.m == m
            assert mt.semigroup.element(1) == m
            assert mt.semigroup == from_discretization(mt.interval_L.representative)
            assert mt.semigroup == from_discretization(mt.interval_F.representative)
            assert len(mt.even_filterable) == 2
            for report in mt.even_filterable:
                assert report.verdict in ("holds-on-prefix", "fails")


def test_reference_witnesses_are_recovered():
    # each known alpha pair lands inside a found region pair and the
    # semigroup agrees with the listed leading elements
    for m, ref in REFERENCE_MATCHES.items():
        hits = [mt for mt in simultaneous_search(m)
                if tuple(mt.semigroup.elements_below(ref.prefix[-1] + 1)) == ref.prefix
                and mt.interval_L.contains_alpha(ref.alpha_L)
                and mt.interval_F.contains_alpha(ref.alpha_F)]
        assert hits, m


def test_even_filterability_is_constant_on_each_region():
    # the search reads the verdict at each merged region's upper end; the
    # collapse may move inside a region, but the verdict does not
    collapse_moved = 0
    for m in range(1, SEARCH_BOUND + 1):
        matches = simultaneous_search(m)
        if not matches:
            continue
        sweeps = (alpha_sweep(L, m), alpha_sweep(F, m))
        for mt in matches:
            for side, region in enumerate((mt.interval_L, mt.interval_F)):
                inside = [iv for iv in sweeps[side]
                          if iv.is_ceiling_point == region.is_ceiling_point
                          and certified_sign(region.lower, iv.lower) <= 0
                          and certified_sign(iv.upper, region.upper) <= 0]
                assert inside and inside[-1].upper == region.upper, (m, side)
                kappas = {collapse(iv.representative).kappa for iv in inside}
                collapse_moved += len(kappas) > 1
                for iv in inside:
                    assert iv.key == region.key
                    verdict = even_filterable_semigroup(iv.representative).holds
                    assert verdict == mt.even_filterable[side].holds, (m, side, iv.upper)
    assert collapse_moved == 11


def test_m12_unique_match_is_h():
    matches = simultaneous_search(12)
    assert len(matches) == 1
    mt = matches[0]
    assert mt.semigroup.prefix == H_PREFIX
    assert mt.semigroup.conductor == 45
    assert mt.interval_L.lower == LogValue(12, 17, -49)
    assert mt.interval_L.upper == LogValue(12, 13, -44)
    assert mt.interval_F.upper == Fraction(1)
    assert mt.interval_F.lower == GoldenNumber(-51, 84)
    assert abs(float(mt.interval_F.lower) - 0.9148551) < 1e-6
    assert all(report.holds for report in mt.even_filterable)


def test_m13_two_semigroups_both_fail_even_filterability():
    matches = simultaneous_search(13)
    sets = {(mt.semigroup.prefix, mt.semigroup.conductor) for mt in matches}
    assert len(sets) == 2
    assert {c for _, c in sets} == {54, 55}
    for mt in matches:
        for report in mt.even_filterable:
            assert report.verdict == "fails"
            assert report.witness == (2, 4)
            assert "52" in report.detail and "s_15" in report.detail


def test_m9_exclusion_witness():
    for mt in simultaneous_search(9):
        report = mt.even_filterable[0]
        assert report.verdict == "fails"
        assert report.witness == (2, 2)
        assert "30 is s_9" in report.detail


def test_even_filterable_census_13():
    assert even_filterable_census(13) == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12}


def test_census_constants_are_consistent():
    assert EVEN_FILTERABLE_MULTIPLICITIES < FEASIBLE_MULTIPLICITIES
    assert set(REFERENCE_MATCHES) == set(FEASIBLE_MULTIPLICITIES)
    for ref in REFERENCE_MATCHES.values():
        assert ref.prefix[0] == 0
        assert 0 < ref.alpha_L <= 1 and 0 < ref.alpha_F <= 1


def test_tail_certificate_range():
    for m in range(35, 201):
        cert = tail_certificate(m)
        assert isinstance(cert, TailCertificate)
        assert cert.anchor == 2 * m
        assert cert.comparison == "greater"
    assert tail_certificate(1000).anchor == 2000


def test_tail_certificate_covers_every_larger_multiplicity():
    cert = tail_certificate(theorems.TAIL_START)
    assert cert.m == 35 and cert.comparison == "greater"
    assert "grows with m" in cert.detail and "from 35 on" in cert.detail


def test_tail_certificate_needs_the_growth_comparison(monkeypatch, capsys):
    # mutation: the comparison phi_4 > lambda_4, which carries the tail
    # from one m to every larger one, reports the wrong sign
    real = theorems.certified_sign
    monkeypatch.setattr(theorems, "certified_sign", lambda x, y: -real(x, y))
    with pytest.raises(RuntimeError):
        tail_certificate(theorems.TAIL_START)
    assert main(["theorem", "--which", "4"]) == 1
    assert "tail: m >= 35 NOT certified" in capsys.readouterr().out


def test_tail_certificate_fails_on_an_undecided_comparison(monkeypatch, capsys):
    def undecided(x, y):
        raise PrecisionBudgetExceeded((x, y), 4096, ())
    monkeypatch.setattr(theorems, "certified_sign", undecided)
    with pytest.raises(RuntimeError, match="undecided at multiplicity 35"):
        tail_certificate(theorems.TAIL_START)
    assert main(["theorem", "--which", "4"]) == 1
    assert "tail: m >= 35 NOT certified" in capsys.readouterr().out


@pytest.mark.parametrize("side, name", ((0, "metric"), (1, "golden")))
def test_tail_certificate_needs_the_exact_anchor(monkeypatch, side, name):
    # mutation: one search mold's index-3 element is 3/2, not the exact 2
    molds = list(theorems._SEARCH_MOLDS)
    molds[side] = mold_q()
    monkeypatch.setattr(theorems, "_SEARCH_MOLDS", tuple(molds))
    with pytest.raises(RuntimeError, match=f"{name} mold lost its exact element at index 3"):
        tail_certificate(theorems.TAIL_START)


def test_midpoint_recheck_catches_a_disagreeing_rediscretization(monkeypatch):
    region = _merged_regions(F, 12)[1]
    theorems._midpoint_recheck(region, region.key)  # the real re-rounding agrees
    # mutation: the interior re-rounding returns another set than the sweep's
    monkeypatch.setattr(theorems, "_discretize_at",
                        lambda certificate, alpha: SimpleNamespace(prefix=(0,), conductor=1))
    with pytest.raises(RuntimeError, match="failed its interior re-check"):
        theorems._midpoint_recheck(region, region.key)
    with pytest.raises(RuntimeError, match="failed its interior re-check"):
        tuple(_iter_matches(L, F, 12))


def test_tail_certificate_rejects_search_territory():
    with pytest.raises(ValueError):
        tail_certificate(34)
    with pytest.raises(ValueError):
        tail_certificate(0)


def test_validation():
    with pytest.raises(ValueError):
        simultaneous_search(0)
    with pytest.raises(ValueError):
        simultaneous_search(True)
    with pytest.raises(ValueError):
        multiplicity_census(0)
    with pytest.raises(ValueError):
        even_filterable_census(-2)


def test_h_uniqueness_report():
    rep = h_uniqueness()
    assert rep.semigroup.prefix == H_PREFIX
    assert rep.semigroup.conductor == 45
    assert rep.collapse_record.kappa == 55
    assert rep.collapse_record.witness_index == 22
    assert [st.constraint for st in rep.trace] == [
        "shared-fourth-element",
        "second-element-forced",
        "doubling-the-second-element",
    ]
    assert all(st.satisfied for st in rep.trace)
    assert "0.8631" in rep.trace[0].bound and "0.5836" in rep.trace[0].bound
    assert rep.trace[1].bound == "s_2 = 19"
    assert "0.8328" in rep.trace[2].bound


def test_match_semigroup_membership_spot_checks():
    # the m=18 candidate contains 58 and 87 but not 59
    mt = simultaneous_search(18)[0]
    assert 58 in mt.semigroup and 87 in mt.semigroup
    assert 59 not in mt.semigroup
    assert mt.semigroup.element(2) == 29
    # its even-filterability fails because 29 + 58 = 87 has odd index
    report = mt.even_filterable[0]
    assert report.verdict == "fails"
    assert report.witness == (2, 8)
    assert "87" in report.detail and "s_27" in report.detail


def test_searches_agree_with_direct_discretization():
    # reference alpha pairs rebuild the same sets through discretize alone
    for m in (3, 6, 10):
        ref = REFERENCE_MATCHES[m]
        dl = from_discretization(discretize(L, m, ref.alpha_L))
        df = from_discretization(discretize(F, m, ref.alpha_F))
        assert dl == df
        assert tuple(dl.elements_below(ref.prefix[-1] + 1)) == ref.prefix


def _count_calls(monkeypatch, *names) -> Counter:
    """Count the calls of each named function of theorems, which still runs."""
    calls = Counter()
    for name in names:
        monkeypatch.setattr(theorems, name, lambda *args, _name=name, _fn=getattr(theorems, name):
                            calls.update([_name]) or _fn(*args))
    return calls


def test_search_cache_is_bounded_above_the_cli_census(monkeypatch):
    assert SEARCH_BOUND <= theorems._search.cache_info().maxsize < 1000
    theorems._search.cache_clear()
    multiplicity_census(SEARCH_BOUND)  # theorem --which 4, then --which 5
    calls = _count_calls(monkeypatch, "_exclusion", "alpha_sweep")
    even_filterable_census(SEARCH_BOUND)
    assert calls == Counter()  # the second census resumes the first one's streams


def test_censuses_stop_at_the_first_certified_witness(monkeypatch):
    theorems._search.cache_clear()
    calls = _count_calls(monkeypatch, "_midpoint_recheck", "_exclusion")
    assert multiplicity_census(SEARCH_BOUND) == FEASIBLE_MULTIPLICITIES
    # one metric-side and one golden-side re-check for each of the 13 feasible m
    assert calls == {"_midpoint_recheck": 26, "_exclusion": SEARCH_BOUND}
    assert even_filterable_census(SEARCH_BOUND) == EVEN_FILTERABLE_MULTIPLICITIES
    assert calls == {"_midpoint_recheck": 38, "_exclusion": SEARCH_BOUND}
    for m in range(1, SEARCH_BOUND + 1):
        simultaneous_search(m)  # reads and re-checks every match
    assert calls == {"_midpoint_recheck": 82, "_exclusion": SEARCH_BOUND}


def test_a_failed_stream_is_not_cached_as_a_short_list(monkeypatch):
    theorems._search.cache_clear()
    recheck = theorems._midpoint_recheck
    calls = Counter()

    def fail_second(region, key):
        calls.update(["recheck"])
        if calls["recheck"] == 2:
            raise RuntimeError("injected re-check failure")
        recheck(region, key)

    with monkeypatch.context() as patch:
        patch.setattr(theorems, "_midpoint_recheck", fail_second)
        with pytest.raises(RuntimeError, match="injected"):
            simultaneous_search(2)
    matches = simultaneous_search(2)
    assert len(matches) == 5 and matches == list(_iter_matches(L, F, 2))


# (molds, largest m) for the differential oracle of the pruned search
ORACLE_PAIRS = (((L, F), 60), ((L, mold_q()), 34), ((F, mold_d()), 34))


def _oracle_disagreements() -> list:
    """("L/F"-style pair name, m) where the pruned and unpruned searches differ.

    An excluded m must have no shared key between the two full merged
    sweeps and no unpruned match; for L/F, _search must return the
    unpruned matcher's matches at every m.
    """
    found = []
    for molds, m_max in ORACLE_PAIRS:
        pair = "/".join(mold.name for mold in molds)
        for m in range(1, m_max + 1):
            unpruned = tuple(_iter_matches(*molds, m))
            if _exclusion(*molds, m) is not None:
                keys_l = {region.key for region in _merged_regions(molds[0], m)}
                if unpruned or any(region.key in keys_l
                                   for region in _merged_regions(molds[1], m)):
                    found.append((pair, m))
            if molds == theorems._SEARCH_MOLDS and tuple(theorems._search(m)) != unpruned:
                found.append((pair, m))
    return found


def test_pruned_search_agrees_with_the_unpruned_matcher():
    assert _oracle_disagreements() == []


def test_oracle_catches_an_always_disjoint_exclusion(monkeypatch):
    # tag each truncation with its mold, so the two sets never meet
    truncated = theorems._truncated_images
    monkeypatch.setattr(theorems, "_truncated_images", lambda mold, *args: {
        (mold.name, image) for image in truncated(mold, *args)})
    theorems._search.cache_clear()
    try:
        assert ("L/F", 12) in _oracle_disagreements()
    finally:
        theorems._search.cache_clear()  # drop the empty results cached above


def test_exclusion_evidence():
    # (k, B, truncations of L below B, truncations of F below B)
    assert _exclusion(L, F, 34) == (5, 87, 3, 3)
    assert _exclusion(L, F, 16) == (20, 70, 10, 10)
    survivors = {m for m in range(1, 35) if _exclusion(L, F, m) is None}
    assert survivors == set(range(1, 16)) | {18}
    assert FEASIBLE_MULTIPLICITIES <= survivors


def test_census_to_1000_cross_checks_the_tail():
    # a sweep-based cross-check; the analytic tail stays the proof
    start = time.perf_counter()
    assert multiplicity_census(1000) == FEASIBLE_MULTIPLICITIES
    assert time.perf_counter() - start < 30.0
    assert simultaneous_search(_M_RANGE[-1]) == []  # the --m ceiling
