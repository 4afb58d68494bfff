"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode {setup,run,trace} [--serial]

Set-up (interpreter start, `import krall6`, building the workload's inputs)
ends when `ready_at` is taken; `run.py` subtracts its own launch time, which
is read from the same monotonic clock, and scales the difference by
`probe_s`, the host's speed right after set-up.  `setup` mode stops there.
`run` and `trace` then time the verification work (`trace` with spans
installed) in wall and process CPU time, both raw and scaled to the
reference host's speed by a `speedprobe.SpeedProbe` running alongside,
check the known answers, and print one JSON line with the child's peak
memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports krall6 from the checkout's src/)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--serial", action="store_true", help="verify-all with the CLI's --serial")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, serial=args.serial)
    result = {"ready_at": time.monotonic(), "probe_s": speedprobe.probe_time()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        probe = speedprobe.SpeedProbe()
        probe.start()
        start, cpu_start = time.perf_counter(), time.process_time()
        finished = None
        try:
            outcome = workload.execute(inputs)
            finished = time.perf_counter(), time.process_time()
            failures, info = workload.check(inputs, outcome)
        except Exception:  # any raise is a failed run, reported with its traceback
            failures, info = [traceback.format_exc()], {}
        end, cpu_end = finished or (time.perf_counter(), time.process_time())
        probe.stop()
        result.update(info, failures=failures)
        result.update(
            wall_s=end - start,
            cpu_s=cpu_end - cpu_start,
            norm_wall_s=probe.normalised(0, start, end),
            norm_cpu_s=probe.normalised(1, cpu_start, cpu_end),
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["untraced_spans"] = tracer.missing
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
