"""Cold-process benchmark for welltempered.

    python3 perfbench/run.py --workload census34 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A closed loop with one client: each
iteration starts one fresh worker interpreter (``worker.py``) and waits
for it, so at most two processes run at a time and every iteration pays
the cold caches a CLI call pays.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics, the tracing overhead included.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
details: environment, the timings in seconds and milliseconds as measured,
quartiles over iterations, the tail percentile and its sample count, each
item's median time, and the first problems found.  The result line gives
those timings in units of a reference loop timed before each iteration
(``reference_seconds``), so that the host's speed swings cancel out.
Both go to ``.perfbench/`` in the checkout as well, with the spans of the
last traced iteration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("census34", "sweep_large_m", "alpha_probe", "cli_commands")
ITEMS_PER_ITERATION = {"census34": 2 + inputs.CENSUS_M + len(inputs.TAIL_RANGE) + 1,
                       "sweep_large_m": len(inputs.SWEEPS),
                       "alpha_probe": None,  # the length of the seeded list
                       "cli_commands": len(inputs.COMMANDS)}

# Timings other than set-up are reported in units of the reference loop
# (see reference_seconds) timed right before each iteration; the seconds
# and milliseconds themselves are in the detail line.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "items_per_ref": "items/ref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "growth_exp": "exponent",
}

IMPORT_MODULES = ("welltempered", "welltempered.exactnum", "welltempered.molds",
                  "welltempered.discretize", "welltempered.semigroups",
                  "welltempered.theorems", "welltempered.render", "welltempered.cli")
PER_LAYER = {**tracer.UNITS, "trace.overhead_s": "s"}
PER_LAYER.update({"setup.import_us." + module: "us" for module in IMPORT_MODULES})
PER_LAYER["setup.import_us.total"] = "us"

# The tail percentile is fixed per workload so every run and every commit
# reports the same statistic.  Each keeps at least ten samples beyond it at
# the benchmark's run length on a 2-core box, except sweep_large_m: its three
# sweeps per iteration leave seven to ten beyond p85, which is there the
# median golden m=200 sweep.  On cli_commands the two theorem commands are
# the slowest fifth of the samples, and p90 is their median, so a change to
# them moves the tail.
TAIL_PERCENTILE = {"census34": 99.0, "sweep_large_m": 85.0, "alpha_probe": 99.0,
                   "cli_commands": 90.0}
# a run starts no iteration after LAST_START_S and stops waiting at RUN_LIMIT_S,
# so it ends inside 180 s whatever the library does
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0


def tail_percentile(samples, percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at the percentile, by nearest rank."""
    data = sorted(samples)
    rank = max(1, math.ceil(percentile * len(data) / 100))
    return data[rank - 1], len(data) - rank


def loglog_slope(points) -> float:
    """Least-squares slope of ln(y) against ln(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def growth_exponent(workload: str, times: dict[str, list[float]], probes) -> float:
    """How item cost grows with problem size, as a log-log slope.

    census34: search time against m for m = 10..34.  sweep_large_m: the
    golden sweep from m = 100 to 200.  alpha_probe: the near-breakpoint
    metric pair at each denominator size against its bits.  cli_commands:
    command time against the largest m it searches (18, then 34).
    """
    med = {label: statistics.median(ts) for label, ts in times.items()}
    if workload == "census34":
        return loglog_slope([(m, med[f"search:{m}"]) for m in range(10, inputs.CENSUS_M + 1)])
    if workload == "sweep_large_m":
        return math.log(med["sweep:F:200"] / med["sweep:F:100"]) / math.log(2)
    if workload == "alpha_probe":
        by_bits: dict[int, float] = {}
        for k, p in enumerate(probes):
            if p["kind"] in ("near-fresh", "near-shared"):
                by_bits[p["bits"]] = by_bits.get(p["bits"], 0.0) + med[f"probe:{k}"]
        return loglog_slope(sorted(by_bits.items()))
    (small_argv, small_m), (large_argv, large_m) = inputs.GROWTH_COMMANDS
    small = med[f"cmd:{inputs.COMMANDS.index(small_argv)}"]
    large = med[f"cmd:{inputs.COMMANDS.index(large_argv)}"]
    return math.log(large / small) / math.log(large_m / small_m)


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment.

    The machine this benchmark was written on, a 2-core share of a busy
    host, runs the same code 20-60% slower for minutes at a time, which
    moves one-minute runs apart by more than any bound the benchmark may
    set.  Every part of an iteration slows alike (user time, not system
    time), so each iteration is divided by this loop timed just before it.
    The loop uses what the library spends its time on: Fraction and big
    integer arithmetic, dict stores and a sort.  It never imports the
    library, so no change to the library moves it.
    """
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 18000):
        total += Fraction(i % 97 + 1, i % 89 + 2)
        seen[i & 255] = total.numerator & 0xFFFF
    sorted((i * 7919) % 10007 for i in range(180000))
    return time.perf_counter() - start


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(spec: dict, env: dict, timeout: float):
    """One iteration: (result or None, setup seconds, error text)."""
    spawned = time.monotonic()
    if timeout <= 0:
        return None, 0.0, "no time left for the worker"
    # a session of its own, so a timeout also ends the commands a worker started
    with subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(json.dumps(spec), timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, 0.0, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, 0.0, f"worker exit {proc.returncode}: {stderr.strip()[-500:]}"
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, 0.0, "worker printed no result"
    return result, result["ready"] - spawned, ""


def import_probe(env: dict) -> dict[str, float]:
    """Per-module self import time (us) from -X importtime, plus the total."""
    code = ("import time; t = time.perf_counter(); import welltempered.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=60, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].strip()
        if module in IMPORT_MODULES and fields[0].strip().isdigit():
            out["setup.import_us." + module] = float(fields[0])
    out["setup.import_us.total"] = float(proc.stdout.strip()) * 1e6
    return out


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "welltempered" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'welltempered'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    env = worker_env()
    # compile the package once, so no iteration pays for writing bytecode
    warm = subprocess.run([sys.executable, "-c", "import welltempered.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"perfbench: cannot import welltempered:\n{warm.stderr}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    load_start = os.getloadavg()
    started = time.monotonic()
    workload, traced_run = args.workload, bool(args.trace)
    base = {"workload": workload, "root": str(ROOT)}
    probes = None
    if workload == "alpha_probe":
        probes = base["probes"] = inputs.alpha_probe_inputs(args.seed)
    expected_items = ITEMS_PER_ITERATION[workload] or len(probes)
    in_process = workload == "cli_commands" and traced_run
    spans_path = OUT / f"spans-{workload}-seed{args.seed}.json"

    imports = [import_probe(env) for _ in range(3)] if traced_run else []
    iterations = []  # (traced, result or None, setup seconds, error, reference seconds)
    durations = {False: [], True: []}  # seconds per iteration, checks included
    while True:
        trace_this = traced_run and len(iterations) % 2 == 1
        elapsed = time.monotonic() - started
        done_pair = (not traced_run) or any(t for t, *_ in iterations)
        if iterations and done_pair:
            # stop once the next iteration would end past --seconds
            expected = statistics.median(durations[trace_this] or durations[not trace_this])
            if elapsed + expected > args.seconds or elapsed >= LAST_START_S:
                break
        spec = dict(base, trace=trace_this, mode="in_process" if in_process else "subprocess",
                    spans_path=str(spans_path) if trace_this else None)
        began = time.monotonic()
        ref_s = reference_seconds()
        result, setup, error = run_worker(spec, env, started + RUN_LIMIT_S - time.monotonic())
        durations[trace_this].append(time.monotonic() - began)
        iterations.append((trace_this, result, setup, error, ref_s))

    # outputs that are compared with a reference run instead of stored values
    reference = None
    if in_process:
        reference = next((r for t, r, *_ in iterations if r and not t), None)
    elif workload in ("sweep_large_m", "cli_commands"):
        reference, _, error = run_worker(dict(base, trace=False, mode="reference"),
                                         env, started + RUN_LIMIT_S - time.monotonic())
        if reference is None:
            iterations.append((False, None, 0.0, "reference run: " + error, None))
    load_end = os.getloadavg()

    attempted = failed = 0
    problems: list[str] = []
    times: dict[str, list[float]] = {}
    pooled_ref = []  # each untraced item's time over its iteration's reference loop
    ok_runs = []
    for traced, result, setup, error, ref_s in iterations:
        if result is None:
            attempted += expected_items
            failed += expected_items
            problems.append(error)
            continue
        for k, (label, seconds, found) in enumerate(result["items"]):
            if workload == "cli_commands":
                code, stdout = result["outputs"][k]
                ref = reference["outputs"][k][1] if reference else None
                found = found + checks.check_command(inputs.COMMANDS[k], code, stdout, ref)
            elif workload == "sweep_large_m" and reference:
                found = found + checks.check_endpoints(result["outputs"][k],
                                                       reference["outputs"][k])
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{label}: {p}" for p in found)
            if not traced:  # a wrong item still took its time; `correct` reports it
                times.setdefault(label, []).append(seconds)
                pooled_ref.append(seconds / ref_s)
        ok_runs.append((traced, result, setup, ref_s))

    untraced = [(r, s, ref_s) for t, r, s, ref_s in ok_runs if not t]
    if not untraced or not times:
        print("perfbench: no iteration completed: " + "; ".join(problems[:5]), file=sys.stderr)
        return 1
    walls = [r["wall_s"] for r, _, _ in untraced]
    setups = [s for _, s, _ in untraced]
    refs = [ref_s for _, _, ref_s in untraced]
    walls_ref = [r["wall_s"] / ref_s for r, _, ref_s in untraced]
    rss = [r["rss_mb"] for r, _, _ in untraced]
    pooled = [t for ts in times.values() for t in ts]
    tail_p = TAIL_PERCENTILE[workload]
    tail_value, tail_beyond = tail_percentile(pooled, tail_p)

    if traced_run:
        layer_runs = [r["layers"] for t, r, *_ in ok_runs if t]
        if not layer_runs:
            print("perfbench: no traced iteration completed: " + "; ".join(problems[:5]),
                  file=sys.stderr)
            return 1
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        metrics.update({name: statistics.median(p[name] for p in imports if name in p)
                        for name in PER_LAYER if name.startswith("setup.import_us.")})
        traced_walls = [r["wall_s"] for t, r, *_ in ok_runs if t]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(walls_ref),
            "items_per_ref": statistics.median(len(r["items"]) / w
                                               for (r, _, _), w in zip(untraced, walls_ref)),
            "item_p50_ref": statistics.median(pooled_ref),
            "item_tail_ref": tail_percentile(pooled_ref, tail_p)[0],
            "peak_rss_mb": statistics.median(rss),
            "growth_exp": growth_exponent(workload, times, probes),
        }
        units = END_TO_END

    detail = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "iterations": len(iterations),
            "traced_iterations": sum(1 for t, *_ in iterations if t),
            "run_s": time.monotonic() - started,
        },
        "failed_ratio": failed / attempted,
        "measured": {"wall_s": statistics.median(walls),
                     "items_per_s": statistics.median(len(r["items"]) / r["wall_s"]
                                                      for r, _, _ in untraced),
                     "item_ms_p50": statistics.median(pooled) * 1e3,
                     "item_ms_tail": tail_value * 1e3},
        "tail": {"percentile": tail_p, "samples": len(pooled), "beyond": tail_beyond},
        "quartiles": {"setup_s": quartiles(setups), "wall_s": quartiles(walls),
                      "reference_s": quartiles(refs), "wall_ref": quartiles(walls_ref),
                      "peak_rss_mb": quartiles(rss)},
        "item_median_ms": {label: statistics.median(ts) * 1e3 for label, ts in times.items()},
        "problems": problems[:20],
    }
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}}
    stem = f"result-{workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": final}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
