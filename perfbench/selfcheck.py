#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat, and tracing changes nothing.

    python3 perfbench/selfcheck.py [--seed N]

On the two single-client workloads it runs the driver four times at one
seed with --seconds 1 (twice untraced, twice traced) and compares the
counts of each run's first round. It asserts that

  * every run is correct, with no failed operation (error_rate 0);
  * the four runs have the same build record;
  * storage.buffer_pool.misses, remote round trips and WAL appends are
    identical in all four runs, so the timing decorator did not change
    what the program did;
  * hypermodel store calls per category are identical in both traced
    runs.

Exits 0 when every check holds, 1 otherwise. Takes about a minute.
"""

import argparse
import json
import sys

import run

WORKLOADS = ("paper-oodb-outofcore", "paper-shard2-mem")
DEFAULT_SEED = 1


def first_round(workload, seed, trace):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                              trace=trace)
    code, lines = run.run_driver(args)
    if code != 0 or not lines:
        raise SystemExit("%s trace %d: driver exited %d" % (workload, trace, code))
    tags = run.tagged(lines)
    return json.loads(lines[-1]), tags["record"], tags["counts"]


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed = parser.parse_args(argv).seed
    run.build()
    problems = []
    for workload in WORKLOADS:
        runs = [first_round(workload, seed, trace) for trace in (0, 0, 1, 1)]
        for i, (result, _, _) in enumerate(runs):
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s run %d: correct=%s failed=%d" % (
                    workload, i, result["correct"], result["failed"]))
        records = [{k: rec.get(k) for k in run.BUILD_FIELDS}
                   for _, rec, _ in runs]
        if any(r != records[0] for r in records):
            problems.append("%s: build records differ; counts not compared"
                            % workload)
            continue
        counts = [c for _, _, c in runs]
        for key in ("storage.buffer_pool.misses", "remote.round_trips",
                    "storage.wal.appends"):
            values = [c[key] for c in counts]
            status = "same" if len(set(values)) == 1 else "DIFFERENT"
            print("%-22s %-28s %s %s" % (workload, key, values, status))
            if status != "same":
                problems.append("%s: %s differs: %s" % (workload, key, values))
        for key in sorted(k for k in counts[2] if k.startswith("hypermodel.")):
            values = [counts[2][key], counts[3][key]]
            status = "same" if values[0] == values[1] else "DIFFERENT"
            print("%-22s %-28s %s %s" % (workload, key, values, status))
            if status != "same":
                problems.append("%s: %s differs: %s" % (workload, key, values))
    for p in problems:
        print("FAIL: " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
