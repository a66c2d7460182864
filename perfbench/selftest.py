#!/usr/bin/env python3
"""Self-test of the benchmark on shrunken versions of its workloads.

    python3 perfbench/selftest.py

Run it from the repository root; it builds the harness like run.py and
takes about a minute. It checks that
  - every metric BENCHMARK.json names prints with its unit, on every
    workload, untraced and traced;
  - each layer counter is non-zero only where expected: detailed-tier
    event rates only on detailed_poisson, fast-tier streams only on the
    fast workloads, task-proxy evaluations only on fast_overload_quality;
  - the same seed gives the same digest, traced or not;
  - a corrupted record trips the output checks;
  - the detailed_poisson configuration at serving_trace's section 1
    shape (32 requests, seed 42) reproduces the makespan recorded in
    BENCH_serving_trace.json, when that file is present.
Exits non-zero on the first failed expectation.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helper lives next to this file)

SEED = 5


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def harness(binary: Path, *args: str, expect_ok: bool = True):
    proc = subprocess.run([str(binary), *args], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=120)
    if expect_ok and proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_metrics(result, expected, stdout: str, label: str) -> None:
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{label}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            fail(f"{label}: {name} has unit {got[name]['unit']}, expected {unit}")
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}", stdout, re.M):
            fail(f"{label}: {name} is not printed with its unit")


def digest_of(stdout: str) -> str:
    match = re.search(r"^digest ([0-9a-f]{16})$", stdout, re.M)
    if not match:
        fail("no digest printed")
    return match.group(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    moves = json.loads((run.HERE / "metric_map.json").read_text())["per_layer_moves"]
    if set(moves) != set(layers):
        fail("metric_map.json does not cover exactly the per-layer metrics")
    binary = run.build()

    per_request_events = {}
    for workload in run.WORKLOADS:
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                  "--shrink"]
        first, untraced = harness(binary, *common, "--trace", "0")
        second, _ = harness(binary, *common, "--trace", "0")
        traced_proc, traced = harness(binary, *common, "--trace", "1")
        for label, result in (("untraced", untraced), ("traced", traced)):
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} {label}: outputs failed their checks")
        check_metrics(untraced, e2e, first.stdout, f"{workload} untraced")
        check_metrics(traced, layers, traced_proc.stdout, f"{workload} traced")
        digests = {digest_of(p.stdout) for p in (first, second, traced_proc)}
        if len(digests) != 1:
            fail(f"{workload}: one seed gave different digests {sorted(digests)}")

        m = {name: v["value"] for name, v in traced["metrics"].items()}
        requests = re.search(r"(\d+) requests per pass", first.stdout)
        per_request_events[workload] = m["sim.events"] / int(requests.group(1))
        fast = workload != "detailed_poisson"
        if (m["core.fast.streams"] > 0) != fast:
            fail(f"{workload}: core.fast.streams = {m['core.fast.streams']}")
        if (m["pruning.proxy_evals"] > 0) != (workload == "fast_overload_quality"):
            fail(f"{workload}: pruning.proxy_evals = {m['pruning.proxy_evals']}")
        if (m["core.fast.drift_pct"] > 0) == fast:
            fail(f"{workload}: core.fast.drift_pct = {m['core.fast.drift_pct']}")
        print(f"selftest: {workload}: metrics, units, digest and layer counters ok")

    detailed = per_request_events.pop("detailed_poisson")
    for workload, events in per_request_events.items():
        if detailed < 10 * events:
            fail(f"sim.events per request on detailed_poisson ({detailed:.0f}) is "
                 f"not at detailed-tier scale against {workload} ({events:.0f})")

    proc, corrupted = harness(binary, "--workload", "fast_zoo_long", "--seed",
                              str(SEED), "--seconds", "0", "--shrink", "--trace", "0",
                              "--corrupt-record", expect_ok=False)
    if proc.returncode == 0 or corrupted["correct"] or corrupted["failed"] == 0:
        fail("a corrupted record did not trip the output checks")
    print("selftest: a corrupted record trips the output checks")

    bench = run.ROOT / "BENCH_serving_trace.json"
    if bench.is_file():
        cases = json.loads(bench.read_text())["sections"][0]["cases"]
        expected = next(c["makespan_ms"] for c in cases
                        if c["label"] == "s1 continuous bw-mgmt")
        proc, _ = harness(binary, "--reference")
        got = re.search(r"%\.6g: (\S+)\)", proc.stdout).group(1)
        if got != f"{expected:.6g}":
            fail(f"section 1 makespan {got} ms, BENCH_serving_trace.json has {expected}")
        print(f"selftest: section 1 reference makespan {got} ms reproduced")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
