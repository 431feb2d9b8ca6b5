"""Run the benchmark on several seeds per workload and record the baseline.

    python3 perfbench/record_baseline.py [--out perfbench/BASELINE.json]

Each run is a separate ``run.py`` process started from the checkout root:
``RUNS`` untraced runs per workload on seeds 1..RUNS, then one
traced run per workload on seed 1. The output holds, per workload, each
end-to-end metric's median, quartiles and quartile spread as a share of
the median, the input properties the traced run counted, and its
per-layer table (total and self wall seconds per layer, with the
reference loop's time during that run).
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

from checkout import ROOT

HERE = Path(__file__).resolve().parent
RUNS = 10
# Hand-timed figures per 100k events from ROADMAP.md, for comparison.
ROADMAP_PER_100K = {
    "evidence.parse": 2.6,
    "evidence.sessions": 0.23,
    "detectors.total": "2.3-3.9",
    "evidence.to_jsonl": 3.0,
}
INPUT_PROPERTIES = (
    "evidence.events", "evidence.bytes", "evidence.distinct_ids", "evidence.sessions",
    "context.whitelist_entries", "simulator.injections", "detectors.findings",
    "detectors.violated", "compliance.report_bytes",
)


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{proc.stdout}{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]

    record: dict = {
        "machine": {
            "cores": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "arch": platform.machine(),
        },
        "run_seconds": seconds,
        "runs_per_workload": RUNS,
        "roadmap_per_100k_events_s": ROADMAP_PER_100K,
        "workloads": {},
    }
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = [run_once(name, seed, seconds, traced=False) for seed in range(1, RUNS + 1)]
        traced = run_once(name, 1, seconds, traced=True)
        layers = json.loads((ROOT / ".perfbench_out" / f"trace-{name}-seed1.json").read_text(encoding="utf-8"))
        end_to_end = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs]) | {"unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
        events = traced["metrics"]["evidence.events"]["value"]
        record["workloads"][name] = {
            "why": workload["why"],
            "input": {key: traced["metrics"][key]["value"] for key in INPUT_PROPERTIES},
            "end_to_end": end_to_end,
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "trace_ref_loop_s": traced["metrics"]["machine.ref_loop_s"]["value"],
            "per_100k_events_s": {
                name: layers["layers"][name]["total_s"] * 100_000 / events
                for layer in ROADMAP_PER_100K
                for name in (layer, f"setup.{layer}")
                if name in layers["layers"]
            },
            "per_layer": {
                layer: {"total_s": row["total_s"], "self_s": row["self_s"]}
                for layer, row in layers["layers"].items()
            },
        }
        for metric, summary in end_to_end.items():
            print(f"{name:15} {metric:17} median {summary['median']:.5g} spread {summary['spread']:.4f}")
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
