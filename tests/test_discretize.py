"""Threshold rounding of molds, truncation certificates, alpha sweep."""

import importlib
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from welltempered.cli import main
from welltempered.exactnum import (
    PREC_BUDGET_BITS,
    GoldenNumber,
    LogValue,
    PrecisionBudgetExceeded,
    exact_floor,
    exact_frac,
    exact_is_integer,
    floor_alpha,
    rational_between,
    scale,
)
from welltempered.discretize import (
    AlphaInterval,
    _prefix_tables,
    _truncated_images,
    alpha_sweep,
    discretize,
    interval_for_alpha,
    truncation_certificate,
)
from welltempered.molds import (
    ExplicitMold,
    Mold,
    SpacingCertificateError,
    golden_fractal_mold,
    metric_mold,
    mold_q,
)
from welltempered.semigroups import from_discretization

H_PREFIX = (0, 12, 19, 24, 28, 31, 34, 36, 38, 40, 42, 43)

L = metric_mold()
F = golden_fractal_mold()
Q = mold_q()


def test_twelve_tone_set_from_golden_flooring():
    d = discretize(F, 12, 1)
    assert d.prefix == H_PREFIX
    assert d.conductor == 45


def test_twelve_tone_set_from_metric_at_two_fifths():
    d = discretize(L, 12, Fraction(2, 5))
    assert d.prefix == H_PREFIX
    assert d.conductor == 45


def test_metric_twelve_flooring_differs():
    # pure flooring of 12*L is a different set with conductor 48
    d = discretize(L, 12, 1)
    assert d.prefix == (0, 12, 19, 24, 27, 31, 33, 36, 38, 39, 41, 43, 44, 45, 46)
    assert d.conductor == 48
    assert 47 not in from_discretization(d)
    assert 48 in from_discretization(d)


def test_sixteen_q_same_under_nearest_and_flooring():
    expected = (0, 16, 20, 24, 28, 32, 34, 36, 38, 40, 42, 44, 46)
    for alpha in (Fraction(1, 2), 1):
        d = discretize(Q, 16, alpha)
        assert d.prefix == expected
        assert d.conductor == 48


def test_nineteen_q_nearest_listing():
    d = discretize(Q, 19, Fraction(1, 2))
    assert d.prefix == (0, 19, 24, 29, 33, 38, 40, 43, 45, 48, 50, 52, 55, 57,
                        58, 59, 61, 62, 63, 64, 65, 67, 68, 69, 70, 71, 72)
    assert d.conductor == 74


def test_nineteen_q_flooring_listing():
    d = discretize(Q, 19, 1)
    assert d.prefix == (0, 19, 23, 28, 33, 38, 40, 42, 45, 47, 49, 52, 54, 57,
                        58, 59, 60, 61, 62, 64, 65, 66, 67, 68, 70, 71, 72, 73, 74)
    assert d.conductor == 76


def test_certificate_metric_twelve():
    cert = truncation_certificate(L, 12)
    assert cert.prefix_end == 16
    assert cert.conductor == 50
    assert "(16+2)^12 < 2*(16+1)^12" in cert.spacing_witness
    # exact form of the boundary inequality
    assert 18 ** 12 < 2 * 17 ** 12
    assert not (17 ** 12 < 2 * 16 ** 12)


def test_certificate_golden_twelve():
    cert = truncation_certificate(F, 12)
    assert cert.prefix_end == 63
    assert cert.conductor == 72
    assert cert.horizon > cert.prefix_end


def test_certificate_q_and_trivial_multiplicity():
    assert truncation_certificate(Q, 16).prefix_end == 29
    assert truncation_certificate(Q, 19).prefix_end == 29
    assert truncation_certificate(L, 1).prefix_end == 1


def test_certificate_rejects_bad_input():
    with pytest.raises(SpacingCertificateError):
        truncation_certificate(ExplicitMold([0, 1, 2], name="X"), 3)
    with pytest.raises(ValueError):
        truncation_certificate(L, 0)
    with pytest.raises(ValueError):
        discretize(L, 12, Fraction(3, 2))


class _ShortSpacingMold(Mold):
    """The metric mold with a spacing index three below the true one."""

    name = "short"

    def element(self, i):
        return L.element(i)

    def spacing_index(self, m):
        n, witness = L.spacing_index(m)
        return n - 3, witness


def test_certificate_checks_every_step_up_to_the_horizon():
    for mold, m in ((L, 12), (F, 12), (Q, 19), (L, 400)):
        cert = truncation_certificate(mold, m)
        n, witness = mold.spacing_index(m)
        floors = [exact_floor(_scaled_element(mold, m, i)) for i in range(n, cert.horizon + 1)]
        # the horizon is the first index from n on whose floor reaches conductor + 2m + 2
        target = cert.conductor + 2 * m + 2
        assert floors[-1] >= target and all(f < target for f in floors[:-1])
        assert cert.spacing_witness == (
            f"{witness}; m*step < 1 checked exactly for indices {n}..{cert.horizon}")
    # metric steps at indices 13..15 are at least 1/12: the first is reported
    with pytest.raises(SpacingCertificateError,
                       match=r"^mold 'short': scaled step at index 13 is not below 1$"):
        truncation_certificate(_ShortSpacingMold(), 12)


def test_sweep_and_discretize_check_the_first_certified_step():
    # neither walks to the horizon, but both still reject a spacing index
    # that undershoots, with the walk's error
    message = r"^mold 'short': scaled step at index 13 is not below 1$"
    with pytest.raises(SpacingCertificateError, match=message):
        alpha_sweep(_ShortSpacingMold(), 12)
    with pytest.raises(SpacingCertificateError, match=message):
        discretize(_ShortSpacingMold(), 12, Fraction(1, 2))


def test_discretization_membership_helpers():
    s = from_discretization(discretize(F, 12, 1))
    assert 0 in s and 43 in s and 100 in s
    assert 44 not in s and 11 not in s
    assert s.elements_below(20) == [0, 12, 19]
    assert s.elements_below(47)[-3:] == [43, 45, 46]


def test_sweep_interval_chain_and_count():
    for mold, m in ((L, 11), (F, 12), (Q, 16)):
        sweep = alpha_sweep(mold, m)
        n_end = truncation_certificate(mold, m).prefix_end
        assert len(sweep) <= n_end + 2
        first, last = sweep[0], sweep[-1]
        assert first.lower == 0 and first.upper == 0 and first.is_ceiling_point
        assert last.upper == 1
        assert sweep[1].lower == 0
        for a, b in zip(sweep[1:], sweep[2:]):  # gap-free cover of (0, 1]
            assert a.upper == b.lower


def test_sweep_locates_supplied_alpha():
    sweep = alpha_sweep(F, 12)
    assert interval_for_alpha(sweep, 0).is_ceiling_point
    assert interval_for_alpha(sweep, 1).upper == 1
    iv = interval_for_alpha(sweep, Fraction(2, 5))
    assert iv.contains_alpha(Fraction(2, 5))
    assert not iv.contains_alpha(iv.lower)
    assert iv.contains_alpha(iv.upper)
    with pytest.raises(ValueError):
        interval_for_alpha(sweep, Fraction(3, 2))


def test_golden_twelve_breakpoint_for_element_28():
    # 12 * mu_4 = 36 - 12*tau = 28.5836...; 28 appears exactly when the
    # threshold exceeds its fractional part
    breakpoint = GoldenNumber(8, -12)
    sweep = alpha_sweep(F, 12)
    assert any(iv.upper == breakpoint for iv in sweep)
    for iv in sweep[1:]:
        has_28 = 28 in iv.representative.prefix
        assert has_28 == (not iv.lower < breakpoint)


def test_metric_eleven_element_two_rounds_both_ways():
    # 11 * mu_2 = 11*log2(3) = 17.4346...: large thresholds keep 17, small
    # thresholds push it to 18
    sweep = alpha_sweep(L, 11)
    assert interval_for_alpha(sweep, Fraction(1, 2)).representative.values[2] == 17
    assert interval_for_alpha(sweep, 1).representative.values[2] == 17
    assert interval_for_alpha(sweep, Fraction(1, 10)).representative.values[2] == 18


def test_metric_eighteen_small_threshold_interval():
    sweep = alpha_sweep(L, 18)
    iv = interval_for_alpha(sweep, Fraction(1, 20))
    assert iv.upper == LogValue(18, 9, -57)  # frac(18*log2 9) = 0.0586...
    vals = iv.representative.values
    assert vals[30] == vals[31] == 90


def test_twelve_tone_interval_endpoints():
    swl = alpha_sweep(L, 12)
    ivl = interval_for_alpha(swl, Fraction(2, 5))
    assert ivl.representative.prefix == H_PREFIX
    assert ivl.lower == LogValue(12, 17, -49)
    assert ivl.upper == LogValue(12, 13, -44)
    swf = alpha_sweep(F, 12)
    ivf = interval_for_alpha(swf, 1)
    assert ivf.representative.prefix == H_PREFIX
    assert not ivf.lower < GoldenNumber(-14, 24)  # above frac(12*mu_8)


def _rationals_inside(iv, count, rng):
    lo, hi = float(iv.lower), float(iv.upper)
    out = []
    while len(out) < count:
        cand = Fraction(rng.uniform(lo, hi)).limit_denominator(10 ** 9)
        if iv.contains_alpha(cand):
            out.append(cand)
        else:
            out.append(rational_between(iv.lower, iv.upper))
    return out


def test_constancy_inside_intervals():
    rng = random.Random(411085)
    for mold, m in ((L, 11), (F, 12)):
        sweep = alpha_sweep(mold, m)
        for iv in rng.sample(sweep[1:], 4):
            rep = iv.representative
            for alpha in _rationals_inside(iv, 25, rng):
                d = discretize(mold, m, alpha)
                assert d.prefix == rep.prefix
                assert d.conductor == rep.conductor


def test_crossing_breakpoint_flips_matching_indices():
    for mold, m in ((F, 12), (L, 11)):
        sweep = alpha_sweep(mold, m)
        n_end = sweep[1].representative.certificate.prefix_end
        for below, above in zip(sweep[1:], sweep[2:]):
            b = above.lower  # the breakpoint being crossed
            flipped = [i for i in range(n_end + 1)
                       if below.representative.values[i] != above.representative.values[i]]
            assert flipped, (m, float(b))
            for i in flipped:
                assert below.representative.values[i] - above.representative.values[i] == 1
                assert exact_frac(_scaled_element(mold, m, i)) == b


def _scaled_element(mold, m, i):
    mu = mold.element(i)
    if isinstance(mu, LogValue):
        return mu.scaled(m)
    return mu * m


def test_conductor_soundness_with_margin():
    for mold, m in ((L, 11), (F, 12), (Q, 16)):
        for iv in alpha_sweep(mold, m):
            rep = iv.representative
            for n in range(rep.conductor, rep.conductor + 2 * m + 1):
                assert n in from_discretization(rep)


def test_ceiling_minus_floor_is_zero_or_one():
    for mold, m in ((L, 12), (F, 12), (Q, 19)):
        ceilings = discretize(mold, m, 0).values
        floorings = discretize(mold, m, 1).values
        assert all(c - f in (0, 1) for c, f in zip(ceilings, floorings))


def test_values_monotone_with_small_tail_steps():
    for mold, m in ((L, 12), (F, 12), (Q, 19)):
        for alpha in (0, Fraction(1, 3), 1):
            d = discretize(mold, m, alpha)
            assert all(a <= b for a, b in zip(d.values, d.values[1:]))
            tail = d.values[d.certificate.prefix_end:]
            assert all(b - a <= 1 for a, b in zip(tail, tail[1:]))


def test_discretize_rejects_interval_argument():
    # an interval holds the image of its own mold and multiplicity, which
    # need not be the ones passed alongside it
    iv = interval_for_alpha(alpha_sweep(F, 12), 1)
    with pytest.raises(TypeError):
        discretize(Q, 7, iv)


def test_multiplicity_is_m_on_every_interval():
    for mold, m in ((L, 11), (F, 12), (Q, 16), (L, 18)):
        for iv in alpha_sweep(mold, m):
            rep = iv.representative
            smallest = rep.prefix[1] if len(rep.prefix) > 1 else rep.conductor
            assert smallest == m


def test_multiplicity_one_gives_all_naturals():
    for mold in (L, F):
        d = discretize(mold, 1, 1)
        assert d.conductor <= 1
        s = from_discretization(d)
        assert 0 in s and 1 in s and 2 in s


def _floor_rule(splits, alpha):
    # round(m * mu_i) at an exact threshold, straight from the definition
    return [fl if frac is None or frac < alpha else fl + 1 for fl, frac in splits]


@pytest.mark.parametrize("mold, ms", [(L, range(1, 21)), (F, range(1, 25)), (Q, (16, 19))],
                         ids=["L", "F", "Q"])
def test_every_interval_matches_direct_discretization(mold, ms):
    for m in ms:
        sweep = alpha_sweep(mold, m)
        scaled = [_scaled_element(mold, m, i)
                  for i in range(truncation_certificate(mold, m).horizon + 1)]
        splits = [(exact_floor(s), None if exact_is_integer(s) else exact_frac(s))
                  for s in scaled]
        for iv in sweep:
            alpha = 0 if iv.is_ceiling_point else rational_between(iv.lower, iv.upper)
            d = discretize(mold, m, alpha)
            assert iv.key == (d.prefix, d.conductor), (mold.name, m, alpha)
            rep = iv.representative
            assert (rep.prefix, rep.conductor) == iv.key
            assert list(rep.values) == _floor_rule(splits, iv.upper)
        for rep, alpha in ((sweep[0].representative, 0), (sweep[-1].representative, 1)):
            d = discretize(mold, m, alpha)
            assert rep == d and hash(rep) == hash(d)


def test_one_sweep_shares_one_certificate():
    for m in (1, 12, 34):
        sweeps = []
        for mold in (L, F):
            sweep = alpha_sweep(mold, m)
            cert = sweep[0].certificate
            assert all(iv.certificate is cert for iv in sweep)
            assert all(iv.representative.certificate is cert for iv in sweep)
            assert cert == truncation_certificate(mold, m)
            assert (cert.mold_name, cert.multiplicity) == (mold.name, m)
            sweeps.append(sweep)
        # the certificate tells the molds' intervals apart, in equality and in hashing
        lsweep, fsweep = sweeps
        assert not any(a == b for a in lsweep for b in fsweep), m
        assert len(set(lsweep) | set(fsweep)) == len(lsweep) + len(fsweep), m


def _record_reads(mold) -> list:
    """Record every index the mold's element() is asked for."""
    read = []
    element = mold.element

    def recorded(i):
        read.append(i)
        return element(i)

    mold.element = recorded
    return read


@pytest.mark.parametrize("make, m", [(golden_fractal_mold, 200), (metric_mold, 400)],
                         ids=["F200", "L400"])
def test_sweep_reads_only_the_certified_prefix(make, m):
    mold = make()
    read = _record_reads(mold)
    sweep = alpha_sweep(mold, m)
    prefix_end = mold.spacing_index(m)[0]
    assert max(read) == prefix_end + 1  # the prefix and the first certified step
    cert = truncation_certificate(make(), m)
    first, last = sweep[0].representative, sweep[-1].representative
    assert first.horizon == cert.horizon
    walked = len(read)
    assert last.horizon == cert.horizon and len(read) == walked  # one walk per sweep
    scaled = [_scaled_element(mold, m, i) for i in range(cert.horizon + 1)]
    splits = [(exact_floor(s), None if exact_is_integer(s) else exact_frac(s)) for s in scaled]
    for iv, rep in ((sweep[0], first), (sweep[-1], last)):
        assert list(rep.values) == _floor_rule(splits, iv.upper)


@pytest.mark.parametrize("mold, m", [(L, 12), (L, 18), (F, 12), (F, 34), (Q, 19)],
                         ids=["L12", "L18", "F12", "F34", "Q19"])
def test_truncated_images_are_the_sweep_images_below_the_bound(mold, m):
    sweep = alpha_sweep(mold, m)
    splits = []
    for bound in (1, 2 * m, 3 * m, sweep[0].certificate.conductor + 3):
        expected = {tuple(v for v in (*iv.key[0], *range(iv.key[1], bound)) if v < bound)
                    for iv in sweep}
        assert _truncated_images(mold, m, bound, splits) == expected
        assert splits[-1][0] >= bound and all(s[0] < bound for s in splits[:-1])
    grown = len(splits)
    _truncated_images(mold, m, 2 * m, splits)
    assert len(splits) == grown  # a lower bound splits nothing new


def test_equal_fractional_parts_flip_in_one_crossing():
    # log2(6) = 1 + log2(3): indices 2 and 5 of the metric mold share every
    # fractional part, so one breakpoint moves both
    for m in (11, 12, 18):
        sweep = alpha_sweep(L, m)
        b = exact_frac(LogValue(m, 3))
        assert exact_frac(LogValue(m, 6)) == b
        (k,) = [k for k, iv in enumerate(sweep) if iv.upper == b]
        below, above = sweep[k].representative, sweep[k + 1].representative
        floors = (exact_floor(LogValue(m, 3)), exact_floor(LogValue(m, 6)))
        assert (below.values[2], below.values[5]) == (floors[0] + 1, floors[1] + 1)
        assert (above.values[2], above.values[5]) == floors


def test_interval_lookup_agrees_with_a_linear_scan():
    rng = random.Random(20170303)
    for mold, m in ((L, 11), (F, 12), (F, 34)):
        sweep = alpha_sweep(mold, m)
        alphas = [Fraction(0), Fraction(1)]
        for iv in rng.sample(sweep[1:], min(12, len(sweep) - 1)):
            alphas.extend(_rationals_inside(iv, 3, rng))
        for alpha in alphas:
            (expected,) = [iv for iv in sweep if iv.contains_alpha(alpha)]
            assert interval_for_alpha(sweep, alpha) is expected
    for outside in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="outside"):
            interval_for_alpha(sweep, outside)


def test_sweep_keeps_keys_and_builds_representatives_on_demand():
    tracemalloc.start()
    try:
        sweep = alpha_sweep(F, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sweep) == 513
    assert peak < 6 * 2 ** 20
    assert all("representative" not in vars(iv) for iv in sweep)
    # a crossing that leaves the set unchanged hands on the same key tuple
    assert all((a.key == b.key) == (a.key is b.key) for a, b in zip(sweep[1:], sweep[2:]))
    rep = sweep[-1].representative
    assert rep is sweep[-1].representative
    assert "values" not in vars(rep)
    assert (rep.prefix, rep.conductor) == sweep[-1].key


def _breakpoints(mold, m):
    cert, keys = _prefix_tables(mold, m)
    return cert.fracs, keys, [i for i, frac in enumerate(cert.fracs) if frac is not None]


def _rows(sweep):
    return [(iv.lower, iv.upper, iv.key) for iv in sweep]


@pytest.mark.parametrize("mold, ms", [(F, (*range(1, 61), 100, 200)), (L, (*range(1, 61), 400))],
                         ids=["F", "L"])
def test_breakpoint_keys_order_exactly(mold, ms):
    duplicated = 0
    for m in ms:
        fracs, keys, live = _breakpoints(mold, m)
        assert all(keys[i][1] is fracs[i] for i in live)
        # same order as the exact sort, equal parts in index order
        assert sorted(live, key=keys.__getitem__) == sorted(live, key=fracs.__getitem__), m
        distinct = set(fracs[i] for i in live)
        assert len({keys[i][0] for i in live}) == len(distinct), m  # no integer collides
        duplicated += len(distinct) < len(live)
        if m <= 24:
            for i in live:
                for j in live:
                    assert (keys[i] < keys[j]) == (fracs[i] < fracs[j]), (m, i, j)
    assert duplicated > 30  # equal fractional parts were part of the check


def test_equal_log_parts_share_one_key():
    # log2(6) = 1 + log2(3), so m * mu_5 and m * mu_2 have one fractional part
    for m in (12, 60, 400):
        fracs, keys, _ = _breakpoints(L, m)
        assert fracs[5] == fracs[2] and keys[5] == keys[2]
        assert keys[5][1] is keys[2][1]  # one split, shared


def test_colliding_keys_fall_back_to_the_exact_parts(monkeypatch):
    # with 2-bit keys distinct parts share integers, and only the exact
    # tie-break on the parts keeps sweeps and census images as they were
    exactnum = importlib.import_module("welltempered.exactnum")
    cases = ((F, 34), (F, 100), (L, 60), (L, 400), (Q, 19))
    rows = {(mold.name, m): _rows(alpha_sweep(mold, m)) for mold, m in cases}
    images = {(mold.name, m): _truncated_images(mold, m, 3 * m, []) for mold, m in cases}
    monkeypatch.setattr(exactnum, "_KEY_BITS", 2)
    for mold, m in cases[:-1]:
        fracs, keys, live = _breakpoints(mold, m)
        assert len({keys[i][0] for i in live}) <= 4 < len(set(fracs[i] for i in live))
        assert sorted(live, key=keys.__getitem__) == sorted(live, key=fracs.__getitem__), m
    for mold, m in cases:
        assert _rows(alpha_sweep(mold, m)) == rows[mold.name, m], (mold.name, m)
        assert _truncated_images(mold, m, 3 * m, []) == images[mold.name, m], (mold.name, m)


def test_keyless_or_mixed_parts_sort_by_value():
    # rational parts have no key, and golden and log parts never share one order
    fracs, keys, live = _breakpoints(Q, 19)
    assert live and all(keys[i] is None for i in live)
    mixed = ExplicitMold([0, GoldenNumber(0, 1), LogValue(1, 3, -1), GoldenNumber(1, 1), 2])
    mixed.spacing_index = lambda m: (3, "given")
    with pytest.raises(TypeError):
        alpha_sweep(mixed, 1)  # as an exact sort of the parts raises


def test_sweeps_build_few_checked_numbers(monkeypatch):
    # counts, not times: arithmetic on the sweep path takes the raw
    # constructors, each metric element is canonicalized once, and each
    # distinct breakpoint is floored and keyed by one integer square root
    # or one power, so the sort makes next to no exact comparison
    exactnum = importlib.import_module("welltempered.exactnum")
    calls = Counter()
    for name in ("_as_coeff", "_primitive_power", "_floor_int_tau", "certified_sign"):
        def counted(*args, _name=name, _fn=getattr(exactnum, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(exactnum, name, counted)
    powers = Counter()  # arg**mult built, by (mult, arg)
    power = LogValue._power

    def counted_power(self):
        if self._pow is None and self._has_power():
            powers[self._m, self._n] += 1
        return power(self)

    monkeypatch.setattr(LogValue, "_power", counted_power)
    monkeypatch.setattr(importlib.import_module("welltempered.discretize"), "certified_sign",
                        exactnum.certified_sign)
    alpha_sweep(golden_fractal_mold(), 100)
    assert calls["_as_coeff"] < 100
    golden = golden_fractal_mold()
    distinct = len(set(_prefix_tables(golden_fractal_mold(), 200)[0].fracs) - {None})
    calls.clear()
    alpha_sweep(golden, 200)
    assert 0 < calls["_floor_int_tau"] <= distinct + 2  # one root per distinct part
    horizon = truncation_certificate(L, 400).horizon
    calls.clear()
    powers.clear()
    fracs = alpha_sweep(L, 400)[0].certificate.fracs
    assert calls["_primitive_power"] <= horizon + 1
    assert 0 < calls["certified_sign"] < 50
    # m*log2(2^k * r) has the part of m*log2(r): one power per (mult, arg),
    # past the two of the checked first step, for about half as many parts
    parts = {(f.mult, f.arg) for f in fracs if f is not None}
    assert parts <= set(powers) and len(set(powers) - parts) <= 1
    assert sum(powers.values()) <= len(powers) + 2 and len(parts) < len(fracs) / 1.9


@pytest.mark.parametrize("mold, m", [(F, 100), (F, 200), (L, 400), (L, 60)],
                         ids=["F100", "F200", "L400", "L60"])
def test_equal_parts_of_one_sweep_are_one_object(mold, m):
    sweep = alpha_sweep(mold, m)
    parts = [f for f in sweep[0].certificate.fracs if f is not None]
    distinct = set(parts)
    assert len({id(f) for f in parts}) == len(distinct) < len(parts)
    # each breakpoint is the shared object itself
    by_value = {f: f for f in parts}
    assert all(by_value[iv.upper] is iv.upper for iv in sweep[1:-1])
    assert len(sweep) == len(distinct) + 2


def test_floor_alpha_is_the_discretization_rule():
    # a threshold with a large denominator is decided on enclosures, not by
    # raising 3 to a power the size of the denominator
    start = time.perf_counter()
    assert floor_alpha(LogValue(12, 3), Fraction(500001, 10 ** 6)) == 19
    assert time.perf_counter() - start < 1.0
    rng = random.Random(6180339)
    for mold, m in ((L, 12), (L, 34), (F, 12), (F, 34), (Q, 16)):
        for _ in range(4):
            q = rng.randint(1, 10 ** 4)
            alpha = Fraction(rng.randint(0, q), q)
            d = discretize(mold, m, alpha)
            assert [floor_alpha(scale(mold.element(i), m), alpha)
                    for i in range(d.horizon + 1)] == list(d.values), (mold.name, m, alpha)


@pytest.fixture(scope="module")
def breakpoint_enclosure():
    # frac(12*log2(3)) is the metric breakpoint of index 2 at m = 12
    return LogValue(12, 3, -19).enclosure(9064)


def _dyadic_above(enclosure, bits):
    return Fraction(math.ceil(enclosure[1] * (1 << bits)), 1 << bits)


def test_hostile_alpha_stops_at_the_precision_budget(breakpoint_enclosure, capsys):
    alpha = _dyadic_above(breakpoint_enclosure, 9000)
    with pytest.raises(PrecisionBudgetExceeded) as info:
        discretize(L, 12, alpha)
    evidence = info.value
    assert evidence.bits == PREC_BUDGET_BITS == 4096
    assert evidence.values == (LogValue(12, 3, -19), alpha)
    (lower, upper), point = evidence.enclosures
    assert lower <= alpha <= upper and point == (alpha, alpha)
    assert main(["discretize", "--mold", "L", "--m", "12", "--alpha", str(alpha)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "4096-bit precision budget" in err


def test_near_breakpoint_alpha_inside_the_budget_resolves(breakpoint_enclosure):
    alpha = _dyadic_above(breakpoint_enclosure, 2048)
    d = discretize(L, 12, alpha)
    located = interval_for_alpha(alpha_sweep(L, 12), alpha)
    assert located.lower == LogValue(12, 3, -19)
    assert (d.prefix, d.conductor) == located.key
