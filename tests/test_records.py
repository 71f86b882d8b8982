"""The package's record types: read-only fields, equality and hashing."""

import hashlib
from fractions import Fraction

import pytest

from welltempered import cli
from welltempered.discretize import (
    AlphaInterval,
    TruncationCertificate,
    alpha_sweep,
    discretize,
    truncation_certificate,
)
from welltempered.molds import (
    golden_fractal_mold,
    golden_period_spec,
    metric_mold,
    mold_q,
    period_uniqueness_scan,
    uniqueness_certificate,
)
from welltempered.semigroups import collapse, verify_semigroup
from welltempered.theorems import (
    REFERENCE_MATCHES,
    WELL_TEMPERED_H,
    _merged_regions,
    h_uniqueness,
    simultaneous_search,
    tail_certificate,
)

L = metric_mold()
F = golden_fractal_mold()

# (class name, a builder of one instance, one of its fields)
RECORDS = [
    ("PropertyReport", lambda: verify_semigroup(WELL_TEMPERED_H), "verdict"),
    ("UniquenessCertificate", uniqueness_certificate, "root"),
    ("ScanResult", lambda: period_uniqueness_scan(Fraction(1, 20), 8), "survivors"),
    ("CollapseRecord", lambda: collapse(discretize(L, 12, Fraction(2, 5))), "kappa"),
    ("SimultaneousMatch", lambda: simultaneous_search(12)[0], "semigroup"),
    ("TailCertificate", lambda: tail_certificate(35), "comparison"),
    ("ConstraintStep", lambda: h_uniqueness().trace[0], "satisfied"),
    ("UniquenessReport", h_uniqueness, "match"),
    ("ReferenceMatch", lambda: REFERENCE_MATCHES[12], "alpha_L"),
    ("Result", lambda: cli.Result(["x"], [("i", "x")], {"x": 1}), "code"),
    ("PeriodSpec", golden_period_spec, "cuts"),
    ("NumericalSemigroup", lambda: WELL_TEMPERED_H, "conductor"),
    ("TruncationCertificate", lambda: truncation_certificate(L, 12), "prefix_end"),
    ("Discretization", lambda: discretize(F, 12, Fraction(1)), "prefix"),
    ("AlphaInterval", lambda: alpha_sweep(L, 12)[1], "upper"),
]


@pytest.mark.parametrize("name, build, field", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_fields_are_read_only(name, build, field):
    record = build()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    assert record == build()
    if name != "Result":  # a Result holds lists
        assert hash(record) == hash(build())


def test_truncation_certificate_equality_ignores_mold_and_split_prefix():
    cert = truncation_certificate(L, 12)
    other = TruncationCertificate(cert.mold_name, cert.multiplicity, cert.prefix_end,
                                  cert.conductor, cert.witness, mold_q(), (), ())
    assert cert == other and hash(cert) == hash(other)
    assert cert != TruncationCertificate(cert.mold_name, cert.multiplicity, cert.prefix_end,
                                         cert.conductor + 1, cert.witness, cert.mold,
                                         cert.floors, cert.fracs)


def test_equal_alpha_intervals_hash_equal():
    first, second = alpha_sweep(F, 12), alpha_sweep(F, 12)
    assert first[0].certificate is not second[0].certificate
    assert first == second
    assert [hash(iv) for iv in first] == [hash(iv) for iv in second]
    assert len(set(first) | set(second)) == len(first)
    moved = AlphaInterval(first[1].lower, first[2].upper, first[2].key, first[2].certificate)
    assert moved != first[2] and moved != first[1]


# sha256 of repr([(lower, upper, key), ...]) over the merged regions, as
# recorded from the dataclass records these classes replace
MERGED_REGIONS_12 = {
    "L": (10, "6940819bad7fa25d396e1c9597ad18bc1bd5a8bef9609fac7e9ce56c5c9abf91"),
    "F": (14, "937711a31851aa7f6355fb515cfa1ae91563842fe46821c704e20c612ebbfe85"),
}


@pytest.mark.parametrize("mold", [L, F], ids=["L", "F"])
def test_merged_regions_at_12_are_unchanged(mold):
    rows = [(region.lower, region.upper, region.key) for region in _merged_regions(mold, 12)]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == MERGED_REGIONS_12[mold.name]
