"""Self-test of the benchmark itself (about three minutes):

    python3 perfbench/selftest.py

- After `Tracer.install`, no krall6 module still holds an untraced target,
  and every span has a target.
- Each workload, run once with `--trace 1`, is correct.  That run already
  fails if the traced report or verdicts differ from the untraced ones.
- The traced metric names are exactly BENCHMARK.json's `per_layer` names.
- Every span fires on each workload meant to exercise it, and spectral-deep
  makes no germ or RationalFn calls (the germ-kernel bypass).
- In a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_result(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def stale_bindings() -> list[str]:
    """krall6 names that still hold an untraced original after `install`."""
    sys.path.insert(0, str(ROOT / "src"))
    import krall6.cli  # noqa: F401  (loads every krall6 module)

    tracer = tracing.Tracer()
    tracer.install()
    replaced = {id(f) for f in tracer.replaced}
    stale = []
    for module in tracing.krall6_modules():
        for key, value in vars(module).items():
            held = list(value.values()) if type(value) is dict else [value]
            if any(id(v) in replaced for v in held):
                stale.append(f"{module.__name__}.{key}")
    return stale + [f"{name} has no target" for name in tracer.missing]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    homes = {name: home for name, _, _, _, home in tracing.SPANS}
    homes.update({"suites." + s: (tracing.VERIFY_ALL,) for s in tracing.SUITE_NAMES})
    problems = [f"untraced binding: {name}" for name in stale_bindings()]
    for workload in (w["name"] for w in spec["workloads"]):
        result = traced_result(workload)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if not result["correct"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} runs failed")
        if list(metrics) != per_layer:
            problems.append(f"{workload}: metric names differ from BENCHMARK.json per_layer")
        for span, home in homes.items():
            values = [v for k, v in metrics.items() if k.startswith(span + ".")]
            if workload in home and not any(values):
                problems.append(f"{workload}: span {span} never fired")
        if workload == tracing.SPECTRAL:
            for name in ("polynomials.RationalFn.init.calls", "germs.LogGerm.derivative.calls"):
                if metrics[name]:
                    problems.append(f"{workload}: {name} = {metrics[name]}, expected 0")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "spectral-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without krall6 sources did not fail cleanly")

    for problem in problems:
        print("FAIL: " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
