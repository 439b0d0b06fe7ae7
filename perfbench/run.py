#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the program from src/ plus the driver) into
.bench_build/; later runs rebuild incrementally.

An untraced measurement runs the driver in PROCESSES processes of S /
PROCESSES seconds each, one after another: set-up, memory layout and
the CPU each one pins itself to differ between processes, and so do
the database and the inputs (process_seed). A metric measured per
round is the trimmed mean over the rounds of all processes (as the
driver takes it over its own rounds); set-up time and peak memory,
measured once per process, are the median over the processes. A
traced measurement is one process, process 0. Each process's output
is passed through with a [n] prefix; the last line is the JSON
result.
"""

import argparse
import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "hm_perfbench")
RUN_TIMEOUT_S = 175
PROCESSES = 5
# The record fields that must agree before two runs are compared.
BUILD_FIELDS = ("source", "build_type", "lock_rank_checks", "failpoint_sites",
                "nproc", "workload", "seed", "level", "cache_pages",
                "client_threads", "connections", "iterations")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a checkout of the repository")
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "hm_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_id():
    """Names the measured code: the git commit, plus a digest of the
    sources the driver is built from when src/ or perfbench/ differ from
    that commit; without git, the digest alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"],
                             capture_output=True, text=True)
        changed = subprocess.run(
            git + ["status", "--porcelain", "--", "src", "perfbench"],
            capture_output=True, text=True)
        if sha.returncode == 0 and changed.returncode == 0:
            commit = "git:" + sha.stdout.strip()
            if not changed.stdout.strip():
                return commit
            return commit + "+dirty:" + source_digest()
    return "sha256:" + source_digest()


def source_digest():
    """A digest of src/ and perfbench/: every file's path and contents."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def process_seed(seed, index):
    """The driver seed of process `index` of a measurement at `seed`.
    Each process generates its own database and inputs, so a run
    averages over PROCESSES of them: on paper-oodb-outofcore the five
    processes of a run at one seed differed by 3-7%, while one seed's
    warm edits cost twice another's."""
    return seed * PROCESSES + index


def run_driver(args):
    """Runs the driver, returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--source", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def tagged(lines):
    """The driver's '# record', '# counts' and '# rounds' lines, parsed."""
    out = {}
    for line in lines:
        if line.startswith("# "):
            tag, _, body = line[2:].partition(" ")
            out[tag] = json.loads(body)
    return out


def checked_run(args, label):
    code, lines = run_driver(args)
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        fail("driver failed (exit %d)" % code)
    for line in lines[:-1]:
        print(label + line)
    return json.loads(lines[-1]), tagged(lines)


def trimmed_mean(values):
    """The mean without the lowest and highest tenth (TrimmedMean in
    main.cc)."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def combine_processes(args):
    """Runs PROCESSES untraced processes; returns the combined result."""
    runs = []
    for i in range(PROCESSES):
        each = copy.copy(args)
        each.seed = process_seed(args.seed, i)
        each.seconds = max(1, round(args.seconds / PROCESSES))
        runs.append(checked_run(each, "[%d] " % (i + 1)))
    records = [tags["record"] for _, tags in runs]
    for rec in records[1:]:
        # The processes' seeds differ by design (process_seed).
        if any(rec.get(k) != records[0].get(k)
               for k in BUILD_FIELDS if k != "seed"):
            fail("processes ran different builds; not combining them")
    gated = list(runs[0][0]["metrics"])
    names = list(records[0]["samples"])  # every metric, gated or not
    metrics = {}
    print("%-22s %16s  %-8s %9s  per process" % ("metric", "value", "unit",
                                                 "samples"))
    for name in names:
        samples = sum(rec["samples"][name] for rec in records)
        rounds = [tags["rounds"].get(name) for _, tags in runs]
        if rounds[0] is not None:
            unit = rounds[0]["unit"]
            values = [trimmed_mean(r["values"]) for r in rounds]
            value = trimmed_mean([v for r in rounds for v in r["values"]])
        else:
            unit = runs[0][0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r, _ in runs]
            value = statistics.median(values)
        print("%-22s %16.6g  %-8s %9d  %s%s" % (
            name, value, unit, samples, " ".join("%.4g" % v for v in values),
            "" if name in gated else "  (not gated)"))
        if name in gated:
            metrics[name] = {"value": value, "unit": unit}
    record = dict(records[0], seed=args.seed,
                  process_seeds=[rec["seed"] for rec in records],
                  processes=PROCESSES,
                  rounds=sum(rec["rounds"] for rec in records),
                  samples={n: sum(rec["samples"][n] for rec in records)
                           for n in names})
    print("# record " + json.dumps(record))
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    print("error_rate %.6g (%d of %d operations failed)" % (
        failed / attempted, failed, attempted))
    return {"correct": all(r["correct"] for r, _ in runs),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    build()
    if args.trace == 1:
        args.seed = process_seed(args.seed, 0)
        result, _ = checked_run(args, "")
    else:
        result = combine_processes(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
