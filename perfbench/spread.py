"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --runs 10 [--workloads census34,alpha_probe] [--out FILE]

Runs ``run.py`` once per seed and workload, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median,
the quartiles and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.  The
seeds are 1 to ``--runs``.  The spread of every metric, setup_s included,
must stay within its bound, and should stay below a third of it; the exit
code is 1 when one does not.  ``--out`` writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table, ok = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(q2)
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            flag = ""
            if spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"{workload:14s} {name:13s} median {q2:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}"
                  f"  spread {spread:6.3f} / bound {bounds[name]}{flag}")
        table[workload] = {"failed": failed, "runs": args.runs, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seeds": [1, args.runs],
            "run_seconds": bench["run_seconds"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "workloads": table,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
