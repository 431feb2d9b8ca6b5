"""Run one benchmark operation in a fresh process and report its peak RSS.

Usage: ``python3 perfbench/probe.py WORKDIR`` where ``WORKDIR/probe.json``
names the workload and its input files. The process imports otcms, loads
the written inputs and runs the operation once, so its peak resident set
holds the interpreter, otcms and the evaluation, but never the simulator
run that generated the CLI workloads' files. Prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

from checkout import use_checkout_source


def main(workdir: str) -> int:
    use_checkout_source()
    import workloads

    manifest = json.loads((Path(workdir) / "probe.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[manifest["workload"]]
    files = {key: Path(value) for key, value in manifest["files"].items()}
    inputs = workloads.reload_inputs(workload, files)
    result = workloads.outcome(inputs, workloads.operate(inputs))
    print(json.dumps({
        # ru_maxrss is in KiB on Linux
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "body_sha256": hashlib.sha256(result.body).hexdigest(),
        "exit_code": result.exit_code,
        "noncompliant": sorted(result.noncompliant),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
