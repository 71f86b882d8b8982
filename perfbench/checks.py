"""Output checks, run outside the timed region.

Each check takes the results a workload produced and returns a list of
problems (empty when the output is right).  They compare semigroups as
(prefix, conductor), the set a discretization describes, so a library
that stores its index maps differently still passes.
"""

from __future__ import annotations

import json


def semigroup_key(discretization) -> tuple:
    return tuple(discretization.prefix), discretization.conductor


def check_census(label: str, found, expected, m_max: int) -> list[str]:
    """A census equals its published set restricted to 1..m_max."""
    want = set(expected) & set(range(1, m_max + 1))
    if set(found) != want:
        return [f"{label} {sorted(found)} != {sorted(want)}"]
    return []


def check_search(m: int, matches, feasible) -> list[str]:
    """A search finds a match exactly at the feasible multiplicities."""
    if bool(matches) != (m in feasible):
        return [f"search at m={m} found {len(matches)} matches"]
    return []


def check_tail(m: int, certificate) -> list[str]:
    if certificate.m != m or certificate.comparison != "greater":
        return [f"tail certificate at m={m} says {certificate.comparison!r}"]
    return []


def check_uniqueness(report, expected_semigroup) -> list[str]:
    if report.semigroup != expected_semigroup:
        return [f"h_uniqueness returned {report.semigroup}, not H"]
    return []


def check_sweep(intervals, expected_count: int) -> list[str]:
    """Intervals tile [0, 1] in order and their count is the recorded one."""
    problems = []
    if len(intervals) != expected_count:
        problems.append(f"{len(intervals)} intervals, expected {expected_count}")
    if not intervals:
        return problems + ["no intervals"]
    first, last = intervals[0], intervals[-1]
    if not (first.lower == 0 and first.upper == 0):
        problems.append("first interval is not the pure-ceiling point [0, 0]")
    prev = 0
    for k, iv in enumerate(intervals[1:], start=1):
        if iv.lower != prev or not iv.lower < iv.upper:
            problems.append(f"interval {k} breaks contiguity")
            break
        prev = iv.upper
    if last.upper != 1:
        problems.append("last interval does not end at 1")
    return problems


def check_endpoints(ends, direct_ends) -> list[str]:
    """A sweep's first and last representatives, as semigroup keys, equal
    direct discretizations at alpha 0 and 1 made by another process."""
    return [f"alpha={alpha} representative differs from discretize(alpha={alpha})"
            for alpha, got, want in zip((0, 1), ends, direct_ends) if got != want]


def check_probe(direct_key: tuple, located_key: tuple) -> list[str]:
    """The direct discretization equals the sweep interval's representative."""
    if direct_key != located_key:
        return ["direct discretization differs from the sweep representative"]
    return []


def check_command(argv, returncode: int, stdout: str, reference: str | None) -> list[str]:
    """Exit 0, stdout equal to the reference run, JSON that parses, PASS verdicts."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if reference is not None and stdout != reference:
        problems.append("stdout differs from the reference run")
    if argv[-1] == "json":
        try:
            json.loads(stdout)
        except ValueError:
            problems.append("JSON output does not parse")
    if argv[0] == "theorem" and ("PASS" not in stdout or "FAIL" in stdout):
        problems.append("theorem does not report PASS")
    return problems
