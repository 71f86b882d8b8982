"""One benchmark iteration in a fresh interpreter.

Reads a JSON spec on stdin, imports the library and builds the molds
(set-up), runs the workload's body (the timed region), checks every
output outside the timed region, and prints one JSON result line.
Starting cold is the point: the library's search, logarithm and floor
caches begin empty, as they do for every CLI call or research script.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

# what the console script does: welltempered = "welltempered.cli:main"
CLI_STUB = "import sys; from welltempered.cli import main; sys.exit(main(sys.argv[1:]))"
COMMAND_TIMEOUT_S = 120


class Item:
    """One timed call and whatever its checks found wrong with it."""

    def __init__(self, label: str):
        self.label = label
        self.seconds = 0.0
        self.problems: list[str] = []
        self.output = None  # compared by run.py with a reference run

    def as_list(self) -> list:
        return [self.label, self.seconds, self.problems]


@contextlib.contextmanager
def timed(item: Item, tracer, index: int):
    """Time one item; an exception marks it failed instead of ending the run."""
    span = tracer.span("bench.item", index) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            yield
    except Exception as exc:  # an item that raises is a failed item, not a crash
        item.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        item.seconds = time.perf_counter() - start


@contextlib.contextmanager
def untraced(tracer):
    """Checks that must run inside the body stay out of the trace."""
    if tracer:
        tracer.uninstall()
    try:
        yield
    finally:
        if tracer:
            tracer.install()


def run_census(lib, spec, tracer):
    theorems = lib.theorems
    items, found = [], {}
    for m in range(1, inputs.CENSUS_M + 1):
        items.append(Item(f"search:{m}"))
        with timed(items[-1], tracer, len(items) - 1):
            found[m] = theorems.simultaneous_search(m)
    census_item, even_item = Item("census"), Item("even-census")
    items += [census_item, even_item]
    census = even = ()
    with timed(census_item, tracer, len(items) - 2):
        census = theorems.multiplicity_census(inputs.CENSUS_M)
    with timed(even_item, tracer, len(items) - 1):
        even = theorems.even_filterable_census(inputs.CENSUS_M)
    tails = {}
    for m in inputs.TAIL_RANGE:
        items.append(Item(f"tail:{m}"))
        with timed(items[-1], tracer, len(items) - 1):
            tails[m] = theorems.tail_certificate(m)
    unique_item = Item("uniqueness")
    items.append(unique_item)
    report = None
    with timed(unique_item, tracer, len(items) - 1):
        report = theorems.h_uniqueness()

    def verify():
        for item in items:
            if item.problems:
                continue
            kind, _, arg = item.label.partition(":")
            if kind == "search":
                item.problems += checks.check_search(int(arg), found[int(arg)],
                                                     theorems.FEASIBLE_MULTIPLICITIES)
            elif kind == "tail":
                item.problems += checks.check_tail(int(arg), tails[int(arg)])
            elif kind == "uniqueness":
                item.problems += checks.check_uniqueness(report, theorems.WELL_TEMPERED_H)
        for item, got, expected in ((census_item, census, theorems.FEASIBLE_MULTIPLICITIES),
                                    (even_item, even, theorems.EVEN_FILTERABLE_MULTIPLICITIES)):
            if not item.problems:
                item.problems += checks.check_census(item.label, got, expected, inputs.CENSUS_M)

    return items, verify


def run_sweeps(lib, spec, tracer):
    molds = {"L": lib.metric, "F": lib.golden}
    items = []
    for mold_name, m in inputs.SWEEPS:
        item = Item(f"sweep:{mold_name}:{m}")
        items.append(item)
        mold = molds[mold_name]
        intervals = None
        with timed(item, tracer, len(items) - 1):
            intervals = lib.discretize.alpha_sweep(mold, m)
        if intervals is not None:  # checked between sweeps so only one is alive
            with untraced(tracer):
                item.problems += checks.check_sweep(intervals,
                                                    inputs.SWEEP_INTERVALS[(mold_name, m)])
                item.output = [checks.semigroup_key(intervals[0].representative),
                               checks.semigroup_key(intervals[-1].representative)]
        del intervals
    return items, lambda: None


def run_sweep_ends(lib, spec, tracer):
    """The reference for sweep_large_m: direct discretizations at alpha 0 and 1."""
    molds = {"L": lib.metric, "F": lib.golden}
    items = []
    for k, (mold_name, m) in enumerate(inputs.SWEEPS):
        item = Item(f"sweep:{mold_name}:{m}")
        items.append(item)
        with timed(item, None, k):
            item.output = [checks.semigroup_key(lib.discretize.discretize(molds[mold_name], m, a))
                           for a in (0, 1)]
    return items, lambda: None


def run_probes(lib, spec, tracer):
    molds = {"L": lib.metric, "F": lib.golden}
    probes = [(molds[p["mold"]], p["m"], Fraction(p["alpha"])) for p in spec["probes"]]
    items, keys = [], []
    for k, (mold, m, alpha) in enumerate(probes):
        items.append(Item(f"probe:{k}"))
        with timed(items[-1], tracer, k):
            keys.append(checks.semigroup_key(lib.discretize.discretize(mold, m, alpha)))

    def verify():
        sweeps = {}
        for item, key, (mold, m, alpha) in zip(items, keys, probes):
            if item.problems:
                continue
            if (mold.name, m) not in sweeps:
                sweeps[mold.name, m] = lib.discretize.alpha_sweep(mold, m)
            located = lib.discretize.interval_for_alpha(sweeps[mold.name, m], alpha)
            item.problems += checks.check_probe(key, checks.semigroup_key(located.representative))

    return items, verify


def run_commands(lib, spec, tracer):
    """Each command in its own interpreter, as a user runs the CLI."""
    root = Path(spec["root"])
    items = []
    for k, argv in enumerate(inputs.COMMANDS):
        item = Item(f"cmd:{k}")
        items.append(item)
        item.output = [None, ""]
        with timed(item, None, k):
            proc = subprocess.run([sys.executable, "-c", CLI_STUB, *argv], cwd=root,
                                  capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            item.output = [proc.returncode, proc.stdout]
    return items, lambda: None


def run_commands_in_process(lib, spec, tracer):
    """The same commands through cli.main in this process, stdout captured."""
    items = []
    for k, argv in enumerate(inputs.COMMANDS):
        item = Item(f"cmd:{k}")
        items.append(item)
        buffer = io.StringIO()
        code = None
        with timed(item, tracer, k), contextlib.redirect_stdout(buffer):
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        item.output = [code, buffer.getvalue()]
    return items, lambda: None


BODIES = {
    "census34": run_census,
    "sweep_large_m": run_sweeps,
    "alpha_probe": run_probes,
    "cli_commands": run_commands,
}
# what run.py compares item outputs with, computed once per run
REFERENCES = {
    "sweep_large_m": run_sweep_ends,
    "cli_commands": run_commands_in_process,
}


class Library:
    """The modules and molds a body calls into, looked up at call time so
    traced rebinding applies."""

    def __init__(self, with_cli: bool):
        import welltempered  # the package import is part of set-up
        # the package re-exports a function named discretize, which shadows
        # the submodule as an attribute, so take the modules from sys.modules
        self.discretize = sys.modules["welltempered.discretize"]
        self.theorems = sys.modules["welltempered.theorems"]
        self.metric = welltempered.metric_mold()
        self.golden = welltempered.golden_fractal_mold()
        self.package_file = welltempered.__file__
        self.cli = None
        if with_cli:
            from welltempered import cli
            self.cli = cli


def main() -> int:
    spec = json.load(sys.stdin)
    workload, mode = spec["workload"], spec.get("mode", "subprocess")
    body = {"subprocess": BODIES, "in_process": {"cli_commands": run_commands_in_process},
            "reference": REFERENCES}[mode][workload]
    lib = Library(with_cli=(body is run_commands_in_process))
    ready = time.monotonic()
    expected_src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(lib.package_file).startswith(expected_src + os.sep):
        print(f"welltempered imported from {lib.package_file}, not {expected_src}", file=sys.stderr)
        return 2

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        items, verify = body(lib, spec, tracer)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    usage = resource.RUSAGE_CHILDREN if body is run_commands else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    if workload == "sweep_large_m":  # checks ran between sweeps, outside their timers
        wall = sum(item.seconds for item in items)
    verify()

    result = {"ready": ready, "wall_s": wall, "rss_mb": rss_mb,
              "items": [item.as_list() for item in items]}
    if items[0].output is not None:
        result["outputs"] = [item.output for item in items]
    if tracer:
        result["layers"] = tracer.metrics()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
