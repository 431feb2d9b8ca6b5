"""otcms pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``long_capture``, ``wide_plant`` and
``incident_storm``. The seed goes to the simulator, which generates the
workload's inputs; otcms sees only those inputs.

The load is a closed loop: one process, one client, no threads, and each
operation starts when the previous one has finished. A run sets up
``SETUP_ROUNDS`` times, runs one untimed reference operation, then runs
operations for ``--seconds`` and finally one operation in a fresh process
for its peak memory. Every operation is checked: it must not raise or exit
2, its exit code must agree with its report, and its report body must
equal the reference operation's byte for byte.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced operations with traced ones that call the pipeline layer by
layer, fails unless their report bodies are equal, prints the per-layer
metrics and writes every span to ``.perfbench_out/``. A layer metric is
the median time of that layer inside one operation, 0 when the
workload's operation does not run the layer; set-up's layers are
reported apart, as ``setup.<layer>_s``.

Timings are reported at a fixed machine speed. On a shared host the
speed of the whole machine drifts by tens of percent within minutes, for
every process alike, so raw wall times of one run say more about the
neighbours than about otcms. Each timed interval is therefore bracketed by
runs of a fixed pure-Python reference loop (JSON decoding, string and dict
work, garbage collection off), and its wall time is multiplied by
``REF_LOOP_S`` over the mean of the two loop times around it. Raw wall
times are printed beside the rescaled ones; the traced run reports raw
seconds together with the reference loop's time (``machine.ref_loop_s``).

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, SRC, use_checkout_source
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 3
PROBE_TIMEOUT_S = 170

# The reference loop's time at the speed timings are reported at: about
# its fastest time on a 2-core x86-64 Xeon host with CPython 3.11
# (0.029 s minimum, 0.031 s tenth percentile, over 300 runs).
REF_LOOP_S = 0.030
REF_RECORD = json.dumps({
    "timestamp": 1_700_000_000_000, "src_id": "10.0.1.10", "dst_id": "10.0.1.20",
    "protocol": "OPCUA", "port": 4840, "tls_present": True, "session_id": "s-1",
})

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import otcms; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "eval_s_p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "oracle_agree_srs": "count",
    "ok_op_share": "ratio",
}

TIMED_LAYERS = (
    "catalog.load",
    "context.load",
    "simulator.generate",
    "evidence.to_jsonl",
    "evidence.read",
    "evidence.parse",
    "engine.digest",
    "evidence.sessions",
    "detectors.total",
    *(f"detectors.{name}" for name in (
        "unknown_factors", "abnormal_behavior", "security_strength", "cleartext_authenticators",
        "auth_attempts", "session_violations", "integrity_anomalies", "iac_management",
        "pki_best_practice", "wireless_iac", "untrusted_access", "authorization_controls",
        "segmentation", "least_functionality", "audit_and_monitoring",
    )),
    "engine.manual",
    "compliance.build",
    "compliance.render_json",
    "compliance.render_text",
)

COUNT_UNITS = {
    "evidence.events": "count",
    "evidence.bytes": "bytes",
    "evidence.distinct_ids": "count",
    "evidence.sessions": "count",
    "context.whitelist_entries": "count",
    "simulator.injections": "count",
    "detectors.findings": "count",
    "detectors.violated": "count",
    "compliance.report_bytes": "bytes",
}

# Set-up's spans, reported as ``setup.<layer>_s``; the import is not traced.
SETUP_LAYERS = (
    "catalog.load",
    "scenario.build",
    "simulator.generate",
    "evidence.to_jsonl",
    "inputs.write",
)

PER_LAYER_UNITS = (
    {f"{layer}_s": "s" for layer in TIMED_LAYERS}
    | {f"setup.{layer}_s": "s" for layer in SETUP_LAYERS}
    | COUNT_UNITS
    | {"trace.overhead_s": "s", "machine.ref_loop_s": "s"}
)


class Ledger:
    """Attempted operations and the reasons the failed ones failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(reason)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python job, garbage collection off so the
    heap the program left behind does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict[str, int] = {}
        for i in range(10_000):
            record = json.loads(REF_RECORD)
            key = f"{record['src_id']}|{record['dst_id']}|{i % 512}"
            seen[key] = seen.get(key, 0) + record["port"]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Reference-loop runs between timed intervals, for rescaling them."""

    def __init__(self) -> None:
        self.loops = [reference_loop()]

    def after(self) -> float:
        """Run the loop once more; the factor that rescales the interval
        since the previous run to the reference speed."""
        self.loops.append(reference_loop())
        return REF_LOOP_S * 2 / (self.loops[-2] + self.loops[-1])


def time_import() -> float:
    """Seconds to import otcms in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def set_up(workloads, workload, seed, scale, workdir, tracer, gauge: SpeedGauge):
    """Set up ``SETUP_ROUNDS`` times; returns the last inputs and every
    round's wall time and rescaled time."""
    wall, scaled = [], []
    for _ in range(SETUP_ROUNDS):
        imported = time_import()
        start = time.perf_counter()
        inputs = workloads.set_up(workload, seed, scale, workdir, tracer)
        wall.append(imported + time.perf_counter() - start)
        scaled.append(wall[-1] * gauge.after())
    return inputs, wall, scaled


def reference_operation(workloads, inputs, ledger):
    result = workloads.outcome(inputs, workloads.operate(inputs))
    ledger.record(workloads.check(result, result.body))
    return result


def timed_operation(workloads, inputs, reference_body: bytes, ledger: Ledger) -> float | None:
    """Run and check one operation; its wall time, or None when it failed."""
    start = time.perf_counter()
    try:
        result = workloads.operate(inputs)
        elapsed = time.perf_counter() - start
        reason = workloads.check(workloads.outcome(inputs, result), reference_body)
    except Exception as exc:  # a raising operation counts as failed; the run goes on
        reason = f"raised {type(exc).__name__}: {exc}"
    ledger.record(reason)
    return None if reason else elapsed


def probe_peak_rss_mb(inputs, workdir: Path, reference, ledger: Ledger) -> float:
    """Run one operation in a fresh process; its peak RSS in MiB."""
    manifest = {"workload": inputs.workload.name, "files": {k: str(v) for k, v in inputs.files.items()}}
    (workdir / "probe.json").write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe exited {proc.returncode}: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    reason = None
    if probe["body_sha256"] != hashlib.sha256(reference.body).hexdigest():
        reason = "memory probe: report body differs from the first operation's"
    elif probe["exit_code"] != reference.exit_code:
        reason = f"memory probe: exit code {probe['exit_code']} != {reference.exit_code}"
    ledger.record(reason)
    return probe["peak_rss_kb"] / 1024


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[pct - 1]
            return f"p{pct}={value:.4f} s"
    return "no tail percentile (needs >= 10 samples beyond it)"


def measure(workloads, workload, seed: int, seconds: float, scale: float, workdir: Path, ledger: Ledger):
    gauge = SpeedGauge()
    inputs, setup_wall, setup_scaled = set_up(workloads, workload, seed, scale, workdir, NullTracer(), gauge)
    reference = reference_operation(workloads, inputs, ledger)
    gauge.after()
    wall: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    while ledger.attempted < 2 or time.perf_counter() - start < seconds:
        elapsed = timed_operation(workloads, inputs, reference.body, ledger)
        factor = gauge.after()
        if elapsed is not None:
            wall.append(elapsed)
            scaled.append(elapsed * factor)
    if not scaled:
        raise SystemExit(f"perfbench: every operation failed: {ledger.failures[:3]}")
    peak_rss_mb = probe_peak_rss_mb(inputs, workdir, reference, ledger)

    mismatch = sorted(reference.noncompliant ^ reference.expected_noncompliant)
    n_srs = len(list(inputs.catalog.iter_srs()))
    p50 = statistics.median(scaled)
    print(f"{workload.name} seed {seed}: {reference.events} events; closed loop, one client; "
          f"{len(scaled)} timed operations")
    print(f"eval_s: n={len(scaled)} p50={p50:.4f} s (wall {statistics.median(wall):.4f} s); "
          f"{tail_note(scaled)}")
    print(f"reference loop: p50={statistics.median(gauge.loops):.4f} s over {len(gauge.loops)} runs "
          f"(REF_LOOP_S={REF_LOOP_S})")
    print(f"setup_s rounds: {', '.join(f'{t:.4f}' for t in setup_scaled)} "
          f"(wall {', '.join(f'{t:.4f}' for t in setup_wall)})")
    print(f"oracle_mismatch_srs {len(mismatch)} of {n_srs} ({', '.join(mismatch) or 'none'})")
    print(f"failed_op_share {len(ledger.failures) / ledger.attempted} "
          f"({len(ledger.failures)}/{ledger.attempted})")
    return {
        "events_per_s": reference.events / p50,
        "eval_s_p50": p50,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
        "oracle_agree_srs": n_srs - len(mismatch),
        "ok_op_share": 1 - len(ledger.failures) / ledger.attempted,
    }


def trace(workloads, workload, seed: int, seconds: float, scale: float, workdir: Path, ledger: Ledger):
    tracer = Tracer()
    gauge = SpeedGauge()
    inputs, _, _ = set_up(workloads, workload, seed, scale, workdir, tracer, gauge)
    reference = reference_operation(workloads, inputs, ledger)
    untraced: list[float] = []
    counts: dict[str, int] | None = None
    start = time.perf_counter()
    while ledger.attempted < 3 or time.perf_counter() - start < seconds:
        elapsed = timed_operation(workloads, inputs, reference.body, ledger)
        if elapsed is not None:
            untraced.append(elapsed)
        try:
            traced, counts = workloads.run_traced(inputs, tracer)
            reason = None if traced.body == reference.body else "traced report body differs from the untraced one"
        except Exception as exc:  # a raising traced operation counts as failed
            reason = f"traced operation raised {type(exc).__name__}: {exc}"
        ledger.record(reason)
        gauge.after()
    if not untraced or counts is None:
        raise SystemExit(f"perfbench: no operation completed: {ledger.failures[:3]}")

    # A layer the operation does not run reads 0, never its set-up time.
    table = tracer.layer_table("op") | {
        f"setup.{name}": row for name, row in tracer.layer_table("setup").items() if name != "setup"
    }
    op_totals = [s.end - s.start for s in tracer.roots("op")]
    overhead = statistics.median(op_totals) - statistics.median(untraced)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    out_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "layers": table, "counts": counts,
        "spans": tracer.dump(),
    }), encoding="utf-8")

    print(f"{workload.name} seed {seed}: {len(op_totals)} traced and {len(untraced)} untraced "
          f"operations; spans in {out_path.relative_to(ROOT)}")
    print(f"{'layer':34} {'total_s':>9} {'self_s':>9}")
    for name, row in table.items():
        print(f"{name:34} {row['total_s']:9.4f} {row['self_s']:9.4f}")
    layers = (*TIMED_LAYERS, *(f"setup.{layer}" for layer in SETUP_LAYERS))
    metrics = {f"{layer}_s": table[layer]["total_s"] if layer in table else 0.0 for layer in layers}
    metrics.update(counts)
    metrics["trace.overhead_s"] = overhead
    metrics["machine.ref_loop_s"] = statistics.median(gauge.loops)
    return metrics


def execute(workload_name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed last."""
    use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workdir = ROOT / ".perfbench_work" / f"{workload_name}-seed{seed}-{os.getpid()}"
    ledger = Ledger()
    try:
        run = trace if traced else measure
        values = run(workloads, workload, seed, seconds, scale, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            workdir.parent.rmdir()
    for reason in ledger.failures[:10]:
        print(f"failed: {reason}")
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    use_checkout_source()
    import workloads

    parser = argparse.ArgumentParser(description="otcms pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
