"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

import welltempered  # noqa: E402
from welltempered import golden_fractal_mold, metric_mold  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def test_layer_totals_group_self_time_by_name():
    tracer = Tracer()
    a, b = tracer._name_id("outer"), tracer._name_id("inner")
    tracer.span_name[:] = [a, b, b, a]
    tracer.span_parent[:] = [-1, 0, 0, -1]
    tracer.span_start[:] = [0.0, 1.0, 3.0, 10.0]
    tracer.span_end[:] = [5.0, 2.0, 4.0, 12.0]
    assert tracer.layer_totals() == {"outer": (2, 5.0), "inner": (2, 2.0)}


def test_same_seed_gives_the_same_probe_inputs():
    first = inputs.alpha_probe_inputs(7)
    assert first == inputs.alpha_probe_inputs(7)
    assert first != inputs.alpha_probe_inputs(8)


def test_probe_slots_do_not_depend_on_the_seed():
    def slots(seed):
        return sorted((p["mold"], p["m"], p["kind"], p["bits"] if p["kind"] != "moderate" else 0)
                      for p in inputs.alpha_probe_inputs(seed))
    assert slots(1) == slots(2) == slots(3)


def test_near_probes_sit_next_to_their_breakpoint():
    L, F = metric_mold(), golden_fractal_mold()
    for p in inputs.alpha_probe_inputs(3):
        if p["kind"] == "moderate" or p["bits"] > 256:
            continue
        alpha = Fraction(p["alpha"])
        if p["mold"] == "L":
            point = L.element(p["base"] - 1).scaled(p["m"]).frac()
        else:
            point = (F.element(p["index"]) * p["m"]).frac()
        lo, hi = point.enclosure(p["bits"] + 32)
        assert abs(alpha - lo) < Fraction(2, 2 ** p["bits"])
        assert abs(alpha - hi) < Fraction(2, 2 ** p["bits"])


def test_golden_element_matches_the_mold():
    F = golden_fractal_mold()
    for i in range(130):
        e = F.element(i)
        assert inputs.golden_element(i) == (e.a, e.b)


def test_census_checks_flag_corrupted_results():
    feasible = welltempered.FEASIBLE_MULTIPLICITIES
    even = welltempered.EVEN_FILTERABLE_MULTIPLICITIES
    good = set(feasible) & set(range(1, 35))
    good_even = set(even) & set(range(1, 35))
    assert checks.check_census("census", good, feasible, 34) == []
    assert checks.check_census("census", good | {11}, feasible, 34)
    assert checks.check_census("census", good - {18}, feasible, 34)
    assert checks.check_census("even-census", good_even, even, 34) == []
    assert checks.check_census("even-census", good_even - {12}, even, 34)
    assert checks.check_search(12, [object()], feasible) == []
    assert checks.check_search(12, [], feasible)
    assert checks.check_search(11, [object()], feasible)
    cert = SimpleNamespace(m=40, comparison="greater")
    assert checks.check_tail(40, cert) == []
    assert checks.check_tail(40, SimpleNamespace(m=40, comparison="inconclusive"))
    assert checks.check_tail(41, cert)
    h = welltempered.WELL_TEMPERED_H
    assert checks.check_uniqueness(SimpleNamespace(semigroup=h), h) == []
    other = welltempered.numerical_semigroup([0, 12, 19, 24], 45)
    assert checks.check_uniqueness(SimpleNamespace(semigroup=other), h)


def test_sweep_checks_flag_corrupted_results():
    F = golden_fractal_mold()
    intervals = welltempered.alpha_sweep(F, 12)
    n = len(intervals)
    assert checks.check_sweep(intervals, n) == []
    assert checks.check_sweep(intervals, n + 1)
    assert checks.check_sweep(intervals[:3] + intervals[4:], n - 1)
    assert checks.check_sweep(intervals[:-1], n - 1)
    assert checks.check_sweep(intervals[1:], n - 1)
    ends = [checks.semigroup_key(welltempered.discretize(F, 12, a)) for a in (0, 1)]
    swept = [checks.semigroup_key(intervals[0].representative),
             checks.semigroup_key(intervals[-1].representative)]
    assert checks.check_endpoints(swept, ends) == []
    assert checks.check_endpoints(swept[::-1], ends)
    assert checks.check_endpoints([swept[0], swept[0]], ends)


def test_probe_check_flags_a_corrupted_result():
    L = metric_mold()
    alpha = Fraction(2, 5)
    direct = checks.semigroup_key(welltempered.discretize(L, 12, alpha))
    located = welltempered.interval_for_alpha(welltempered.alpha_sweep(L, 12), alpha)
    assert checks.check_probe(direct, checks.semigroup_key(located.representative)) == []
    prefix, conductor = direct
    assert checks.check_probe(direct, (prefix, conductor + 1))


def test_command_check_flags_corrupted_results():
    json_argv = ("search", "--m", "13", "--format", "json")
    assert checks.check_command(json_argv, 0, '{"a": 1}\n', '{"a": 1}\n') == []
    assert checks.check_command(json_argv, 1, '{"a": 1}\n', '{"a": 1}\n')
    assert checks.check_command(json_argv, 0, '{"a": 2}\n', '{"a": 1}\n')
    assert checks.check_command(json_argv, 0, '{"a": \n', '{"a": \n')
    theorem = ("theorem", "--which", "4")
    assert checks.check_command(theorem, 0, "verdict: PASS\n", "verdict: PASS\n") == []
    assert checks.check_command(theorem, 0, "verdict: FAIL\n", "verdict: FAIL\n")


def _library_state():
    state = {}
    for name, module in sys.modules.items():
        if name == "welltempered" or name.startswith("welltempered."):
            for attr, value in vars(module).items():
                state[name, attr] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        state[name, attr, cattr] = cvalue
    return state


def test_tracer_wrappers_are_removed_after_the_traced_run():
    import welltempered.cli  # noqa: F401  (rebinding must cover cli too)
    theorems = sys.modules["welltempered.theorems"]
    before = _library_state()
    expected = theorems.simultaneous_search(5)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.item", 0):
            traced = theorems.simultaneous_search(5)
            welltempered.discretize(metric_mold(), 12, Fraction(1, 3))
    finally:
        tracer.uninstall()
    after = _library_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [m.semigroup for m in traced] == [m.semigroup for m in expected]
    totals = tracer.layer_totals()
    assert totals["theorems.simultaneous_search"][0] == 1
    assert totals["discretize.discretize"][0] == 1
    assert tracer.counts["exactnum.logvalue_new"] > 0
    calls = len(tracer.span_start)
    welltempered.discretize(metric_mold(), 12, Fraction(1, 3))
    assert len(tracer.span_start) == calls


def test_tail_percentile_by_nearest_rank():
    assert run.tail_percentile(range(1, 1001), 99.0) == (990, 10)
    assert run.tail_percentile(range(1, 41), 75.0) == (30, 10)
    assert run.tail_percentile([5.0], 99.0) == (5.0, 0)


def test_reference_loop_does_not_load_the_library():
    # the loop measures the host, so no change to the library may move it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "assert run.reference_seconds() > 0; "
            "assert not [m for m in sys.modules if m.startswith('welltempered')]")
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True, timeout=60)


def test_benchmark_json_lists_what_the_driver_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
