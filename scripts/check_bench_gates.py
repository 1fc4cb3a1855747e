#!/usr/bin/env python3
"""Assert every acceptance gate in the BENCH_*.json artifacts passed.

The benches emit their pass/fail verdicts as booleans alongside the numbers
they gate on (docs/architecture.md § "Bench artifacts"). Each binary
already exits nonzero when a
gate fails, but the JSON is what gets committed and compared across PRs —
this script re-derives the verdict from the artifact alone, so CI catches a
stale or hand-edited BENCH file even when the bench binary was never rerun.

A boolean is a gate unless it is descriptive state rather than a verdict:
  * "smoke" — records which mode produced the artifact;
  * booleans inside per-policy report arrays ("policies") or Pareto-point
    arrays ("pareto", "availability_pareto") — per-point annotations like
    on_front / battery_depleted / truncated describe where a policy landed,
    not whether the bench passed;
  * those same three key names anywhere, for safety.
Everything else must be true.

For BENCH_fleet.json the script additionally re-derives the hardware-scaled
speedup requirement from the recorded core count (the same formula
bench_fleet.cpp applies: 4x when >= 8 effective threads, otherwise
max(0.85, 0.45 * effective)) and recomputes speedup_ok /
batch_no_regression from the raw numbers, so a hand-edited verdict cannot
disagree with the measurements it claims to summarize.

For BENCH_scenario.json it re-derives the mission_v5 duty-cycling verdicts
(batching_dominates_lateness / batching_dominates_availability) from the
raw energy / lateness / availability numbers the bench recorded, with a
relative epsilon absorbing the artifact's 6-significant-digit rounding —
so a hand-edited "batching dominates" boolean cannot disagree with the
measurements next to it.

Usage: python3 scripts/check_bench_gates.py [repo_root]
"""
import glob
import json
import os
import sys

SKIP_KEYS = {"smoke", "on_front", "battery_depleted", "truncated"}
SKIP_ARRAYS = {"policies", "fault_policies", "pareto", "availability_pareto",
               "fleet_pareto"}

# The bench artifacts print numbers at 6 significant digits; dominance
# re-derivation must tolerate that rounding (a relative epsilon well above
# the 1e-6 rounding step but far below any real dominance margin).
REL_EPS = 1e-5

BATCH_MAX_RATIO = 1.25  # mirrored from bench_fleet.cpp


def fleet_required_speedup(effective_threads):
    if effective_threads >= 8:
        return 4.0
    return max(0.85, 0.45 * effective_threads)


def check_fleet_derivations(doc):
    """Re-derives BENCH_fleet.json's scaled verdicts; yields error strings."""
    try:
        effective = min(int(doc["threads_requested"]),
                        int(doc["hardware_concurrency"]))
        required = fleet_required_speedup(effective)
        if abs(doc["required_speedup"] - required) > 1e-9:
            yield (f"required_speedup {doc['required_speedup']} != "
                   f"{required} derived from {effective} effective threads")
        if doc["speedup_ok"] != (doc["speedup"] >= doc["required_speedup"]):
            yield (f"speedup_ok inconsistent with speedup "
                   f"{doc['speedup']} vs required {doc['required_speedup']}")
        if doc["batch_no_regression"] != (
                doc["batch_per_mission_ratio"] <= BATCH_MAX_RATIO):
            yield (f"batch_no_regression inconsistent with ratio "
                   f"{doc['batch_per_mission_ratio']} (max {BATCH_MAX_RATIO})")
    except (KeyError, TypeError, ValueError) as err:
        yield f"fleet derivation fields missing/malformed ({err!r})"


def dominates_or_ties(a, b, lower_is_better=True):
    """a dominates-or-ties b on one axis, within the artifact's rounding."""
    if lower_is_better:
        return a <= b * (1.0 + REL_EPS) + 1e-12
    return a >= b * (1.0 - REL_EPS) - 1e-12


def check_scenario_derivations(doc):
    """Re-derives BENCH_scenario.json's batching verdicts from raw numbers."""
    try:
        v5 = doc["mission_v5"]
        lateness = (
            dominates_or_ties(v5["batched_total_uj"],
                              v5["predictive_total_uj"]) and
            dominates_or_ties(v5["batched_mean_lateness_s"],
                              v5["predictive_mean_lateness_s"]))
        if v5["batching_dominates_lateness"] and not lateness:
            yield ("batching_dominates_lateness contradicted by raw numbers: "
                   f"batched ({v5['batched_total_uj']} uJ, "
                   f"{v5['batched_mean_lateness_s']} s) vs predictive "
                   f"({v5['predictive_total_uj']} uJ, "
                   f"{v5['predictive_mean_lateness_s']} s)")
        availability = (
            dominates_or_ties(v5["batched_fault_total_uj"],
                              v5["ckpt_predictive_total_uj"]) and
            dominates_or_ties(v5["batched_availability"],
                              v5["ckpt_predictive_availability"],
                              lower_is_better=False))
        if v5["batching_dominates_availability"] and not availability:
            yield ("batching_dominates_availability contradicted by raw "
                   f"numbers: batched ({v5['batched_fault_total_uj']} uJ, "
                   f"availability {v5['batched_availability']}) vs ckpt "
                   f"predictive ({v5['ckpt_predictive_total_uj']} uJ, "
                   f"availability {v5['ckpt_predictive_availability']})")
    except (KeyError, TypeError, ValueError) as err:
        yield f"scenario derivation fields missing/malformed ({err!r})"


def gates(node, path="", in_skipped_array=False):
    """Yields (json_path, value) for every gate boolean under `node`."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            if key in SKIP_KEYS:
                continue
            yield from gates(value, f"{path}/{key}",
                             in_skipped_array or key in SKIP_ARRAYS)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from gates(value, f"{path}[{i}]", in_skipped_array)
    elif isinstance(node, bool) and not in_skipped_array:
        yield path, node


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    artifacts = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {root}", file=sys.stderr)
        return 1
    failed = []
    total = 0
    for artifact in artifacts:
        name = os.path.basename(artifact)
        try:
            with open(artifact) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{name}: unreadable ({err})", file=sys.stderr)
            failed.append(f"{name}: unreadable")
            continue
        artifact_gates = list(gates(doc))
        if not artifact_gates:
            # An artifact without a single verdict boolean is a bench that
            # forgot to emit its gates — treat as a failure, not a pass.
            print(f"{name}: no gate booleans found", file=sys.stderr)
            failed.append(f"{name}: no gates")
            continue
        total += len(artifact_gates)
        for path, value in artifact_gates:
            if not value:
                print(f"{name}: gate {path} = false", file=sys.stderr)
                failed.append(f"{name}{path}")
        if name == "BENCH_fleet.json":
            for err in check_fleet_derivations(doc):
                print(f"{name}: {err}", file=sys.stderr)
                failed.append(f"{name}: derivation")
        if name == "BENCH_scenario.json":
            for err in check_scenario_derivations(doc):
                print(f"{name}: {err}", file=sys.stderr)
                failed.append(f"{name}: derivation")
    if failed:
        print(f"{len(failed)} gate(s) failed across "
              f"{len(artifacts)} artifact(s)", file=sys.stderr)
        return 1
    print(f"all {total} gates passed across {len(artifacts)} artifact(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
