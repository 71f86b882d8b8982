"""Threshold rounding of molds, truncation certificates, alpha sweep."""

import hashlib
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
    TAU,
    GoldenNumber,
    LogValue,
    PrecisionBudgetExceeded,
    _scaled_component,
    _split,
    exact_ceil,
    exact_floor,
    exact_frac,
    exact_is_integer,
    floor_alpha,
    rational_between,
    scale,
)
from welltempered.discretize import (
    AlphaInterval,
    _PartTable,
    _prefix_tables,
    _truncated_images,
    alpha_sweep,
    discretize,
    interval_for_alpha,
    truncation_certificate,
)
from welltempered.molds import (
    ExplicitMold,
    FractalMold,
    Mold,
    PeriodSpec,
    SpacingCertificateError,
    f_ell,
    golden_fractal_mold,
    metric_mold,
    mold_d,
    mold_q,
    perfect_fractal_mold,
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


class _UndershootingMold(Mold):
    """mold with a spacing index short below its own; from index lifted on, each element + lift."""

    def __init__(self, mold, short, lifted=None, lift=0):
        self.name, self._mold, self._short = f"short {mold.name}", mold, short
        self._lifted, self._lift = lifted, lift

    def element(self, i):
        mu = self._mold.element(i)
        return mu + self._lift if self._lifted is not None and i >= self._lifted else mu

    def spacing_index(self, m):
        n, witness = self._mold.spacing_index(m)
        return n - self._short, witness


def _walk_against_the_exact_rule(mold, m):
    """The first bad step index, or None, after checking the walk against exact values.

    The reference scans not m*mu_(i+1) < m*mu_i + 1 on scaled exact values,
    from the spacing index until a floor reaches the conductor + 2m + 2.
    A sweep checks only the first step, so it must fail only there.
    """
    i = prefix_end = mold.spacing_index(m)[0]
    current = scale(mold.element(i), m)
    target = exact_ceil(current) + 2 * m + 2
    while exact_floor(current) < target:
        following = scale(mold.element(i + 1), m)
        if not following < current + 1:
            break
        i, current = i + 1, following
    else:
        assert truncation_certificate(mold, m).horizon == i
        alpha_sweep(mold, m)
        return None
    message = f"mold {mold.name!r}: scaled step at index {i} is not below 1"
    with pytest.raises(SpacingCertificateError) as raised:
        truncation_certificate(mold, m)
    assert str(raised.value) == message
    if i == prefix_end:
        with pytest.raises(SpacingCertificateError) as raised:
            alpha_sweep(mold, m)
        assert str(raised.value) == message
    else:
        alpha_sweep(mold, m)
    return i


@pytest.mark.parametrize("mold, ms", [(L, (1, 4, 12)), (F, (2, 7, 12)), (Q, (4, 16)),
                                      (mold_d(), (12,)), (perfect_fractal_mold(2), (4, 16))],
                         ids=["L", "F", "Q", "D", "perfect2"])
def test_split_step_rule_agrees_with_the_exact_rule(mold, ms):
    for m in ms:
        n = mold.spacing_index(m)[0]
        for short in range(n + 1):
            _walk_against_the_exact_rule(_UndershootingMold(mold, short), m)
        # raising every element from j on breaks only the step at j - 1, past the first
        lift = 1 if mold is L else Fraction(1, m)
        for j in range(n + 2, n + 8):
            shifted = _UndershootingMold(mold, 0, j, lift)
            assert _walk_against_the_exact_rule(shifted, m) == j - 1


def test_split_step_rule_rejects_steps_of_exactly_one_and_golden_undershoots():
    # a step of exactly 1/m is a scaled step of 1: equal parts, or two integers
    assert _walk_against_the_exact_rule(_UndershootingMold(Q, 3), 16) == 26
    assert _walk_against_the_exact_rule(_UndershootingMold(perfect_fractal_mold(2), 1), 4) == 6
    # F at m = 12 passes 31 short; 32 short fails its first step, 33 short the one after
    assert _walk_against_the_exact_rule(_UndershootingMold(F, 31), 12) is None
    assert _walk_against_the_exact_rule(_UndershootingMold(F, 32), 12) == 31
    assert _walk_against_the_exact_rule(_UndershootingMold(F, 33), 12) == 31


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


def _record_reads(mold, method: str = "element") -> list:
    """Record the first argument of every call to the mold's element(), or another method."""
    read = []
    read_from = getattr(mold, method)

    def recorded(i, *rest):
        read.append(i)
        return read_from(i, *rest)

    setattr(mold, method, recorded)
    return read


@pytest.mark.parametrize("make, m", [(golden_fractal_mold, 200), (metric_mold, 400)],
                         ids=["F200", "L400"])
def test_sweep_reads_only_the_certified_prefix(make, m):
    mold = make()
    read = _record_reads(mold)
    sweep = alpha_sweep(mold, m)
    prefix_end = mold.spacing_index(m)[0]
    if isinstance(mold, FractalMold):
        # F's pairs come from its columns, which stop at the first certified step;
        # the walk is then counted by the column reads it asks for
        assert not read and [len(column) for column in mold._columns] == [prefix_end + 2] * 2
        read = _record_reads(mold, "scaled_components")
    else:
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


@pytest.mark.parametrize("make, m", [(golden_fractal_mold, 200), (metric_mold, 400), (mold_q, 16),
                                     (lambda: FractalMold(PeriodSpec([1, 1 + Fraction(3, 5)])), 12)],
                         ids=["F200", "L400", "Q16", "rational-cut"])
def test_horizon_walk_reads_no_pair_past_the_horizon(make, m):
    # a checked step raises the floor by at most 1, so each read of the walk
    # stops at the first index that could reach the target floor
    mold = make()
    cert = _prefix_tables(mold, m)[0]
    read = _record_reads(mold)
    horizon = cert.horizon
    if isinstance(mold, FractalMold):
        assert len(mold._columns[0]) == horizon + 1
    # F's pairs come from its integer columns, not through element()
    assert max(read, default=horizon) == horizon


@pytest.mark.parametrize("mold, m", [(L, 12), (L, 18), (F, 12), (F, 34), (Q, 19)],
                         ids=["L12", "L18", "F12", "F34", "Q19"])
def test_truncated_images_are_the_sweep_images_below_the_bound(mold, m):
    sweep = alpha_sweep(mold, m)

    def expected(bound):
        return {tuple(v for v in (*iv.key[0], *range(iv.key[1], bound)) if v < bound)
                for iv in sweep}

    table = _PartTable(m)
    floors = table.floors
    for bound in (1, 2 * m, 3 * m, sweep[0].certificate.conductor + 3):
        assert _truncated_images(mold, m, bound, table) == expected(bound)
        assert floors[-1] >= bound and all(floor < bound for floor in floors[:-1])
    grown = len(floors)
    # a lower bound splits nothing new, and the elements above it change no image
    assert _truncated_images(mold, m, 2 * m, table) == expected(2 * m)
    assert len(floors) == grown


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


def _sweep_peak(m):
    """alpha_sweep of a fresh golden mold at m, and its tracemalloc peak in MiB."""
    mold = golden_fractal_mold()  # its elements are built inside the trace
    tracemalloc.start()
    try:
        sweep = alpha_sweep(mold, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sweep, peak / 2 ** 20


def test_sweep_builds_keys_and_representatives_on_demand():
    sweep, peak = _sweep_peak(100)
    assert len(sweep) == 513
    assert peak < 0.6  # 0.47 MiB on CPython 3.11; 0.72 with a key tuple per change
    assert all("representative" not in vars(iv) for iv in sweep)
    # a crossing that leaves the set unchanged hands on the same key tuple
    assert all((a.key == b.key) == (a.key is b.key) for a, b in zip(sweep[1:], sweep[2:]))
    rep = sweep[-1].representative
    assert rep is sweep[-1].representative
    assert "values" not in vars(rep)
    assert (rep.prefix, rep.conductor) == sweep[-1].key


def test_sweep_memory_grows_with_the_prefix_not_the_keys():
    # the sweep logs member moves; a tuple per change made this 7.9 MiB
    sweep, peak = _sweep_peak(400)
    assert len(sweep) == 4097
    assert peak < 5  # 3.9 MiB on CPython 3.11


def test_sweep_keys_are_built_on_first_read(monkeypatch):
    module = importlib.import_module("welltempered.discretize")
    built = []
    key_of = module._key_of
    monkeypatch.setattr(module, "_key_of", lambda members: built.append(1) or key_of(members))
    sweep = alpha_sweep(F, 200)
    assert len(sweep) == 2049 and not built
    last = sweep[-1].key
    assert len(built) == 1 and sweep[-1].key is last and len(built) == 1
    # one build per log position: intervals whose set no crossing changed
    # share their position, and so one tuple
    keys = [iv.key for iv in sweep]
    assert len(built) == len({id(key) for key in keys}) < len(sweep)


def _count_golden_builds(monkeypatch) -> list:
    """Record every GoldenNumber built, raw in either module or through the constructor."""
    exactnum = importlib.import_module("welltempered.exactnum")
    molds = importlib.import_module("welltempered.molds")
    built = []
    raw, init = exactnum._golden, GoldenNumber.__init__
    for module in (exactnum, molds):
        monkeypatch.setattr(module, "_golden", lambda a, b: built.append(1) or raw(a, b))
    monkeypatch.setattr(GoldenNumber, "__init__",
                        lambda self, a=0, b=0: built.append(1) or init(self, a, b))
    return built


def test_golden_sweep_builds_numbers_only_for_its_distinct_parts(monkeypatch):
    # the part table reads F's coefficient columns as integers; building a
    # number per prefix element made about 6 100 here
    mold = golden_fractal_mold()
    built = _count_golden_builds(monkeypatch)
    sweep = alpha_sweep(mold, 200)
    parts = len(sweep) - 2  # one breakpoint per distinct part
    # _part builds each part; the spacing proof's powers of tau build 15
    # more, and the checked step 5
    assert parts == 2047 and len(built) <= parts + 20


@pytest.mark.parametrize("mold, m", [(F, 100), (L, 400), (Q, 19)], ids=["F100", "L400", "Q19"])
def test_keys_read_in_any_order_agree(mold, m):
    in_order = [iv.key for iv in alpha_sweep(mold, m)]
    backward = alpha_sweep(mold, m)
    assert [iv.key for iv in reversed(backward)][::-1] == in_order
    shuffled = alpha_sweep(mold, m)
    order = list(range(len(shuffled)))
    random.Random(m).shuffle(order)
    keys = {k: shuffled[k].key for k in order}
    assert [keys[k] for k in range(len(shuffled))] == in_order
    for iv, key in zip(shuffled, in_order):
        rep = iv.representative
        assert (rep.prefix, rep.conductor) == key


def test_discretize_rounds_each_distinct_part_once(monkeypatch):
    # _round reads exactnum's binding, so that is the one counted
    exactnum = importlib.import_module("welltempered.exactnum")
    calls = []
    sign = exactnum.certified_sign
    monkeypatch.setattr(exactnum, "certified_sign", lambda *args: calls.append(1) or sign(*args))
    d = discretize(F, 2000, Fraction(1, 3))
    parts = [frac for frac in d.certificate.fracs if frac is not None]
    distinct = len({id(frac) for frac in parts})
    assert distinct == 32767 and len(parts) == 65519
    assert len(calls) <= distinct + 8  # the rest check the spacing and the first step
    calls.clear()
    d = discretize(L, 400, Fraction(2, 5))
    distinct = len({id(frac) for frac in d.certificate.fracs if frac is not None})
    assert len(calls) <= distinct + 8


def _breakpoints(mold, m):
    # the sort key of each index, as its part's table entry holds it
    cert, table = _prefix_tables(mold, m)
    key_of = {entry[1]: entry[2] for entry in table.parts.values()}
    keys = [None if frac is None else key_of[frac] for frac in cert.fracs]
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
    images = {(mold.name, m): _truncated_images(mold, m, 3 * m, _PartTable(m))
              for mold, m in cases}
    monkeypatch.setattr(exactnum, "_KEY_BITS", 2)
    for mold, m in cases[:-1]:
        fracs, keys, live = _breakpoints(mold, m)
        assert len({keys[i][0] for i in live}) <= 4 < len(set(fracs[i] for i in live))
        assert sorted(live, key=keys.__getitem__) == sorted(live, key=fracs.__getitem__), m
    for mold, m in cases:
        assert _rows(alpha_sweep(mold, m)) == rows[mold.name, m], (mold.name, m)
        images_now = _truncated_images(mold, m, 3 * m, _PartTable(m))
        assert images_now == images[mold.name, m], (mold.name, m)


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
    # distinct breakpoint is floored and keyed by one _floor_int_tau or one
    # power, so the sort makes next to no exact comparison
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
    assert 0 < calls["_floor_int_tau"] <= distinct + 2  # one floor per distinct part
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


def test_golden_sweeps_take_no_integer_square_root(monkeypatch):
    # a fixed-point sqrt(5) floors every golden part of these sizes
    roots = Counter()
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: roots.update(["isqrt"]) or isqrt(n))
    alpha_sweep(golden_fractal_mold(), 200)
    discretize(golden_fractal_mold(), 2000, Fraction(1, 3))
    assert roots["isqrt"] == 0


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


# sha256 of repr(values) of alpha_sweep(F, 200)[-1].representative, as recorded
# while each index past the prefix was still split on its own
F200_LAST_VALUES = (16404, "68f375d412e6c09981c104b14c74cff69bf14b076ebbb88c196d74602bb7b5f6")


def test_values_past_the_prefix_split_each_distinct_component_once(monkeypatch):
    exactnum = importlib.import_module("welltempered.exactnum")
    rep = alpha_sweep(F, 200)[-1].representative
    horizon = rep.horizon  # the walk splits each element it checks; it is not counted here
    calls = Counter()
    monkeypatch.setattr(exactnum, "_floor_int_tau", lambda a, b, _fn=exactnum._floor_int_tau:
                        calls.update(["_floor_int_tau"]) or _fn(a, b))
    values = rep.values
    components = {200 * x.b for x in F.elements(horizon + 1)}
    assert calls["_floor_int_tau"] <= len(components) + 2 < horizon - rep.certificate.prefix_end
    assert (len(values), hashlib.sha256(repr(values).encode()).hexdigest()) == F200_LAST_VALUES


def test_values_past_the_prefix_build_one_number_per_distinct_component(monkeypatch):
    mold = golden_fractal_mold()
    rep = alpha_sweep(mold, 200)[-1].representative
    horizon = rep.horizon  # the walk builds the parts it checks; they are not counted here
    components = {200 * x.b for x in mold.elements(horizon + 1)}
    built = _count_golden_builds(monkeypatch)
    values = rep.values
    assert len(built) <= len(components) + 2
    assert len(mold._columns[0]) == horizon + 1  # values reads no pair past the horizon
    assert (len(values), hashlib.sha256(repr(values).encode()).hexdigest()) == F200_LAST_VALUES


def test_horizon_walk_builds_no_element_and_about_one_number_per_index(monkeypatch):
    # the walk splits the pairs values reads; checking each step on built
    # elements made 36 926 numbers for 12 308 indices here
    rep = alpha_sweep(golden_fractal_mold(), 200)[-1].representative
    built = _count_golden_builds(monkeypatch)
    molds = importlib.import_module("welltempered.molds")
    elements = []
    monkeypatch.setattr(molds, "_golden", lambda a, b, _fn=molds._golden:
                        elements.append(1) or _fn(a, b))
    walked = rep.horizon - rep.certificate.prefix_end
    assert not elements and len(built) < 1.1 * walked


def _period_start_reads(count: int, seed: int) -> list:
    """Indices below count around each period start 2^k - 1, and a few others, shuffled."""
    rng = random.Random(seed)
    near = {(1 << k) - 1 + d for k in range(count.bit_length()) for d in (-2, -1, 0, 1, 2)}
    reads = sorted(i for i in near | set(rng.sample(range(count), 40)) if 0 <= i < count)
    rng.shuffle(reads)
    return reads


@pytest.mark.parametrize("make, p", [
    (lambda: FractalMold(PeriodSpec([1, 1 + Fraction(3, 5)])), Fraction(3, 5)),
    (golden_fractal_mold, TAU)], ids=["rational", "F"])
def test_fractal_columns_agree_with_the_recursion_after_shuffled_reads(make, p):
    count = (1 << 11) - 1
    expected = [0]
    for i in range(1, count):
        ell = (i + 1).bit_length() - 1
        expected.append(ell + f_ell(ell, i + 1 - (1 << ell), p))
    mold = make()
    for i in _period_start_reads(count, 20261020):
        assert mold.element(i) == expected[i], i
    assert mold.elements(count) == expected
    # windows around the period starts, read in any order from fresh columns
    mold = make()
    for i in _period_start_reads(count, 7):
        start, stop = max(0, i - 3), min(count, i + 4)
        pairs = list(mold.scaled_components(start, stop, 12))
        assert pairs == [_scaled_component(x, 12) for x in expected[start:stop]], i


# rational sweeps that no sha256 row covers, several with equal parts at one m
ORACLE_CASES = [(mold_d(), 12), (mold_d(), 19), (perfect_fractal_mold(3), 12),
                (FractalMold(PeriodSpec([1, 1 + Fraction(3, 5)])), 12),
                (FractalMold(PeriodSpec([1, 1 + Fraction(3, 5)])), 34)]


@pytest.mark.parametrize("mold, m", ORACLE_CASES, ids=["D12", "D19", "perfect3_12", "R12", "R34"])
def test_sweeps_match_a_brute_force_oracle(mold, m):
    # breakpoints are the distinct parts of the split prefix in exact order,
    # and each interval's key is the direct discretization at its upper end
    sweep = alpha_sweep(mold, m)
    prefix_end = mold.spacing_index(m)[0]
    parts = sorted({_split(scale(mold.element(i), m))[1] for i in range(prefix_end + 1)} - {None})
    ends = [0, *parts, 1]
    expected = []
    for lower, upper in [(0, 0), *zip(ends, ends[1:])]:
        d = discretize(mold, m, upper)
        expected.append((lower, upper, (d.prefix, d.conductor)))
    assert _rows(sweep) == expected


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
