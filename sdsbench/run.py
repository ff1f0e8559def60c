#!/usr/bin/env python3
"""sdsbench: build the benchmark from source, run one workload, check it.

    python3 sdsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any copy of it). The first run builds
sdsbench/ (its own CMake project, compiling ../src) into
$CARGO_TARGET_DIR/sdsbench, default .bench_build/sdsbench; later runs
only re-check the build.

Output, in order: the build log on stderr; the run's human-readable
table; the reference check; one machine-readable line
`SDSBENCH {...}` with the host block and every metric's unit, workload,
value and sample count; and, last, the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed.

Other modes:
    --write-reference   store this seed's simulated outputs under
                        sdsbench/reference/ (after a deliberate change
                        of the program's results)
    --selftest          build and run the benchmark's own unit tests
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORKLOADS = ("sim_hier_100k_churn", "sim_flat_2500_faults", "live_tcp_flat_64")
RUN_TIMEOUT_S = 175
REL_TOL = 1e-9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "sdsbench")


def build(target):
    """Configure (once) and build `target`; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def close(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def compare(ref, got, path="outputs"):
    """Differences between reference and produced outputs: counts must
    match exactly, floating-point values within 1e-9 relative."""
    diffs = []
    if isinstance(ref, dict) and isinstance(got, dict):
        for key in sorted(set(ref) | set(got)):
            if key not in ref or key not in got:
                diffs.append(f"{path}.{key}: present on one side only")
            else:
                diffs += compare(ref[key], got[key], f"{path}.{key}")
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            diffs.append(f"{path}: length {len(got)}, reference {len(ref)}")
        else:
            bad = [i for i, (a, b) in enumerate(zip(ref, got)) if not close(a, b)]
            if bad:
                i = bad[0]
                diffs.append(f"{path}: {len(bad)} values differ, first [{i}] "
                             f"{got[i]!r} vs reference {ref[i]!r}")
    elif not close(ref, got):
        diffs.append(f"{path}: {got!r} vs reference {ref!r}")
    return diffs


def reference_path(workload, seed):
    return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.json")


def parse_result(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("SDSBENCH_RESULT "):
            return json.loads(line[len("SDSBENCH_RESULT "):])
    return None


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.cc")):
        log(f"sdsbench: no sdscale sources under {ROOT}/src; run from a "
            "checkout of the repository")
        return 2
    binary = build("sdsbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # One CPU for the whole run: on a shared virtual machine, migrations
    # between vCPUs and cross-vCPU wake-ups move the figures by 2-3x from
    # run to run; on one CPU they stay within a few percent (README.md).
    cpu = max(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log(f"sdsbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stdout.write(proc.stdout)
        log(f"sdsbench: {args.workload} exited {proc.returncode} without a result")
        return 1
    for line in proc.stdout.splitlines():
        if not line.startswith("SDSBENCH_RESULT "):
            print(line)

    failures = list(result["check_failures"])
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    outputs = result["outputs"]
    if args.write_reference:
        if not outputs:
            log("sdsbench: this workload has no reference outputs")
            return 2
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(reference_path(args.workload, args.seed), "w") as f:
            json.dump(outputs, f, indent=1)
            f.write("\n")
        print(f"reference: wrote {os.path.relpath(reference_path(args.workload, args.seed), ROOT)}")
    elif outputs:
        # Every repetition reproduced the warm-up's digest (checked by the
        # binary), so a reference mismatch fails every repetition.
        ref_file = reference_path(args.workload, args.seed)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                diffs = compare(json.load(f), outputs)
            if diffs:
                failures += ["reference mismatch: " + d for d in diffs[:20]]
                failed = attempted
            else:
                print(f"reference: outputs match {os.path.relpath(ref_file, ROOT)}")
        else:
            print(f"reference: none committed for seed {args.seed}; outputs "
                  "checked for repetition determinism and invariants only")
    overshoot = result["detail"].get("budget_overshoot_pct", 0)
    if overshoot > 0:
        print(f"KNOWN DEFECT: enforced limits overshoot the budget by "
              f"{overshoot:.3f}% under the fault plan (legacy batch path "
              "computes degraded cycles over received stages only)")
    for f in failures:
        print(f"CHECK FAILED: {f}")

    correct = not failures and failed == 0 and attempted > 0
    metrics = result["metrics"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": dict(result["host"], pinned_cpu=cpu),
        "results": [{"metric": m["metric"], "unit": m["unit"],
                     "workload": args.workload, "value": m["value"],
                     "samples": m["samples"]} for m in metrics],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "correct": correct,
        "check_failures": failures,
        "detail": result["detail"],
    }
    print("SDSBENCH " + json.dumps(summary, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {m["metric"]: {"value": m["value"], "unit": m["unit"]}
                    for m in metrics if math.isfinite(m["value"])},
    }, separators=(",", ":")))
    sys.stdout.flush()
    return 0 if correct else 1


def selftest():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.cc")):
        log(f"sdsbench: no sdscale sources under {ROOT}/src")
        return 2
    binary = build("sdsbench_selftest")
    return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        return run(args)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"sdsbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
