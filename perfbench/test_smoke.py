#!/usr/bin/env python3
"""Small-size run of the whole-pipeline benchmark.

    python3 perfbench/test_smoke.py      # from the root of a checkout

Runs every workload briefly, untraced and traced, and checks that:
  * each run exits 0 and ends with the result object, correct and
    without failed operations;
  * the printed metric names and units match BENCHMARK.json exactly
    (end_to_end untraced, per_layer traced);
  * the deterministic outputs repeat: the three untraced runs share a seed,
    so their deploy/fleet/serve digests, deploy_energy_gain_pct and
    fleet_availability must be identical;
  * a traced run writes a Perfetto-openable trace with host spans;
  * the benchmark refuses to run, without printing a result, from a
    directory holding only BENCHMARK.json and the benchmark's files.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "1"


def run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    untraced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                fail(f"{workload} trace={trace} exited {proc.returncode}\n"
                     f"{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {info.get('errors')}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                fail(f"{workload} trace={trace}: metrics differ from "
                     f"BENCHMARK.json (missing {sorted(missing)}, extra "
                     f"{sorted(extra)}, or units)")
            if trace == "0":
                untraced[workload] = (info["digests"], result["metrics"])
            else:
                path = os.path.join(ROOT, ".bench_out",
                                    f"{workload}_trace.perfetto.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e.get("ph") == "X" for e in events):
                    fail(f"{workload}: trace holds no spans")
            print(f"ok {workload} trace={trace}")

    digests = {json.dumps(d, sort_keys=True) for d, _ in untraced.values()}
    if len(digests) != 1:
        fail(f"digests differ between runs of one seed: {digests}")
    for name in ("deploy_energy_gain_pct", "fleet_availability"):
        values = {m[name]["value"] for _, m in untraced.values()}
        if len(values) != 1:
            fail(f"{name} differs between runs of one seed: {values}")
    print("ok deterministic outputs repeat")

    # Without the library sources the build must fail and print no result.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run("deploy", "0", cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark ran without the library sources")
    print("ok refuses to run without the library")
    print("PASS")


if __name__ == "__main__":
    main()
