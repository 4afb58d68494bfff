"""krall6 benchmark: one workload per invocation, every repetition in a fresh
interpreter, because CLI users pay for imports and caches on every call.

    python3 perfbench/run.py --workload {verify-all,spectral-deep,endpoint-log}
                             --seed N --seconds S --trace {0,1}

Closed loop: one child process at a time (single-threaded apart from the
CLI's own suite pool).

`--trace 0` first starts a few set-up-only children, then repeats the
workload until about `--seconds` have passed (at least once), and reports
the medians of the end-to-end metrics named in BENCHMARK.json:

- norm_cpu_s: user+sys CPU time (all threads) of the child's verification
  work, first call to last verdict, set-up excluded, scaled to the
  reference host's unloaded speed by a probe timed next to it (see
  speedprobe.py);
- setup_s: interpreter start + `import krall6` + building the inputs,
  scaled the same way by probe loops timed right after it;
- peak_rss_mb: peak resident memory of the child, from its own RUSAGE_SELF.

The work's wall time, scaled the same way (`norm_wall_s`), and the raw wall
and CPU times (`wall_s`, `cpu_s`) are printed in the summary above the
result line but not gated: on a shared host the raw times spread too
widely, and wall time also counts the time the hypervisor gives the
host's cores to other machines (up to 20% of a verify-all run), which no
probe sees.  CPU time leaves that out.

`--trace 1` runs the workload once untraced and once with spans installed
(verify-all also once with `--serial`), and reports the per-layer metrics
named in BENCHMARK.json, including `trace.overhead_ratio`, the traced
`norm_wall_s` over the untraced one.

A run fails if the child raises or exits non-zero, if a known-answer check
does not hold, or if its result digest differs from the first run's in the
same invocation.  The result line counts runs attempted and failed;
`failed_ratio` is printed in the summary above it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "spectral-deep", "endpoint-log")
BUDGET_S = 170  # the whole invocation has to end within 180 s
SETUP_SAMPLES = 9


def spawn(workload: str, seed: int, mode: str, deadline: float, serial: bool = False) -> dict:
    """Run one child to completion; a child that fails yields a result with `failures`."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--serial"] if serial else [])
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} child killed at the time budget"]}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"{mode} child exited with status {proc.returncode}"]}
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready_at"] - launched) * speedprobe.REFERENCE_S / result["probe_s"]
    result.setdefault("failures", [])
    return result


def median_of(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def flag_digest_mismatch(runs: list[dict]):
    """Every run of one invocation must produce the same report or verdicts."""
    digests = [r["digest"] for r in runs if "digest" in r]
    for run in runs:
        if "digest" in run and run["digest"] != digests[0]:
            run["failures"].append(f"digest {run['digest']} differs from {digests[0]}")


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    runs = []
    started = time.monotonic()
    while True:
        launched = time.monotonic()
        runs.append(spawn(workload, seed, "run", deadline))
        now = time.monotonic()
        last = now - launched
        # stop once a further run would end more than half a run past `seconds`
        if now - started + last / 2 >= seconds or now + last >= deadline:
            break
    flag_digest_mismatch(runs)
    metrics = {
        "norm_cpu_s": median_of(runs, "norm_cpu_s"),
        "setup_s": median_of(setups + runs, "setup_s"),
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
    }
    return setups + runs, metrics


def traced(workload: str, seed: int, deadline: float):
    reference = spawn(workload, seed, "run", deadline)
    runs = [reference]
    serial = None
    if workload == "verify-all":
        serial = spawn(workload, seed, "run", deadline, serial=True)
        runs.append(serial)
    with_spans = spawn(workload, seed, "trace", deadline)
    runs.append(with_spans)
    flag_digest_mismatch(runs)
    metrics = dict(with_spans.get("layers", {}))
    if with_spans.get("untraced_spans"):
        print("spans without a target: " + ", ".join(with_spans["untraced_spans"]), file=sys.stderr)
    ref_wall = reference.get("norm_wall_s", 0.0)
    metrics["trace.overhead_ratio"] = with_spans.get("norm_wall_s", 0.0) / ref_wall if ref_wall else 0.0
    metrics["suites.pool_wall_s"] = ref_wall if serial is not None else 0.0
    metrics["suites.serial_wall_s"] = serial.get("norm_wall_s", 0.0) if serial is not None else 0.0
    return runs, metrics


def seed_commit_digest(workload: str, seed: int):
    recorded = json.loads((HERE / "seed_digests.json").read_text())
    return recorded["digests"].get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "krall6" / "__init__.py").is_file():
        print(f"error: no krall6 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S

    if args.trace:
        runs, computed = traced(args.workload, args.seed, deadline)
        listed = spec["per_layer"]
    else:
        runs, computed = untraced(args.workload, args.seed, args.seconds, deadline)
        listed = spec["end_to_end"]
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    # a traced child that failed leaves its span metrics unmeasured
    metrics = {
        m["name"]: {"value": computed.get(m["name"], 0.0) if failed else computed[m["name"]],
                    "unit": m["unit"]}
        for m in listed
    }
    for failure in (f for r in runs for f in r["failures"]):
        print("FAILED: " + failure.rstrip(), file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} runs, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':48s} {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"  {'norm_wall_s':48s} {median_of(runs, 'norm_wall_s'):.6g} s (not gated)")
        for key in ("wall_s", "cpu_s"):
            print(f"  {key:48s} {median_of(runs, key):.6g} s (raw, not gated)")
    digests = sorted({r["digest"] for r in runs if "digest" in r})
    cases = sorted({r["cases"] for r in runs if "cases" in r})
    print(f"  checks/cases per run: {cases}; digest(s): {digests}")
    for key in ("norm_wall_s", "wall_s", "cpu_s"):
        print(f"  {key} of each run: " + " ".join(f"{r[key]:.4f}" for r in runs if key in r))
    recorded = seed_commit_digest(args.workload, args.seed)
    if recorded is not None:
        verdict = "matches" if digests == [recorded] else "differs from"
        print(f"  report {verdict} the seed commit's report for this seed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
