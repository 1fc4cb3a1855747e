#!/usr/bin/env python3
"""Pin deterministic CLI outputs by SHA-256.

Runs each producer below from a build directory and compares the SHA-256 of
its output with tests/data/outputs.sha256 (one "<sha256>  <name>" line per
output, the format `sha256sum` prints):

  energy_planner_<model>_<slack>.stdout  energy_planner stdout for the
                                         vww/pd/mbv2 models at QoS slack
                                         0.1/0.3/0.5
  bench_fleet_dump_1.json                the FleetReport JSON written by
                                         `bench_fleet dump 1`
  mission_sim_pd_days2.trace.json        the sim-time Perfetto trace and the
  mission_sim_pd_days2.metrics.json      metrics JSON (decision counters
                                         included) written by `mission_sim pd
                                         --days 2 --trace F --metrics F`

None of these outputs carries a wall-clock field, so they are hashed as
written. mission_sim's stdout is not pinned: it prints wall-clock times. A change that moves an entry on purpose reruns with --update and
records the old and new hash and the reason in CHANGES.md.

Usage (from a checkout root, after building):
  python3 scripts/check_outputs.py [--build build] [--update]
"""
import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "data", "outputs.sha256")
MODELS = ("vww", "pd", "mbv2")
SLACKS = ("0.1", "0.3", "0.5")


def run(cmd):
    """Stdout bytes of `cmd`; raises on a nonzero exit."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc.stdout


def outputs(build):
    """(name, sha256) of every pinned output, in manifest order."""
    planner = os.path.join(build, "energy_planner")
    for model in MODELS:
        for slack in SLACKS:
            data = run([planner, model, slack])
            yield (f"energy_planner_{model}_{slack}.stdout",
                   hashlib.sha256(data).hexdigest())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fleet1.json")
        run([os.path.join(build, "bench_fleet"), "dump", "1", path])
        with open(path, "rb") as f:
            yield "bench_fleet_dump_1.json", hashlib.sha256(f.read()).hexdigest()
        trace = os.path.join(tmp, "trace.json")
        metrics = os.path.join(tmp, "metrics.json")
        run([os.path.join(build, "mission_sim"), "pd", "--days", "2",
             "--trace", trace, "--metrics", metrics])
        for name, path in (("trace", trace), ("metrics", metrics)):
            with open(path, "rb") as f:
                yield (f"mission_sim_pd_days2.{name}.json",
                       hashlib.sha256(f.read()).hexdigest())


def read_manifest():
    pinned = {}
    with open(MANIFEST, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                digest, name = line.split(maxsplit=1)
                pinned[name.strip()] = digest
    return pinned


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="directory holding the built binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest from this build")
    args = parser.parse_args()

    got = list(outputs(os.path.abspath(args.build)))
    if args.update:
        with open(MANIFEST, "w", encoding="utf-8") as f:
            f.writelines(f"{digest}  {name}\n" for name, digest in got)
        print(f"wrote {len(got)} entries to {os.path.relpath(MANIFEST, ROOT)}")
        return 0

    pinned = read_manifest()
    errors = []
    for name, digest in got:
        want = pinned.pop(name, None)
        if want is None:
            errors.append(f"{name}: not in the manifest")
        elif digest != want:
            errors.append(f"{name}: sha256 {digest}, pinned {want}")
    errors.extend(f"{name}: pinned but not produced" for name in pinned)
    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    print(f"{len(got)} outputs match {os.path.relpath(MANIFEST, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
