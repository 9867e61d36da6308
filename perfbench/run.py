#!/usr/bin/env python3
"""Builds and runs the varpred benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds
perfbench/ (the varpred library from src/ plus the program) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
rebuild what changed. The last line of standard output is the verdict:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

One run is PROCESSES perfbench processes in a row, each measuring for an equal
share of --seconds and each set up afresh. Each process reports its raw
set-up and pass times; setup_s and wall_s are the medians of these samples
pooled over the processes (the fastest sample for the metrics in FASTEST),
peak_rss_mb the median over the processes.

The program's own checks (repeats bit-identical, traced scores identical to
untraced, served samples identical to a direct computation) count failed
operations. On top of that, every process must report the same scores, and
scores at a seed listed in refs.json must match the references within the
quality ledger's absolute tolerance, with labels (tune winners, response
digests) matching exactly. Each mismatch counts as one failed operation.

--out FILE also writes the verdict with the environment stamp, for
compare.py. --write-refs records this run's scores as the references for
its (workload, seed).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("logo_trees", "logo_knn", "serve_predict", "tune_sweep")
PROCESSES = 5
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
# Timed metrics that report their fastest sample instead of the median.
# serve_predict's closed-loop burst mostly waits (the 500 us batch timer,
# the loopback wire), and a loaded host stretches every wait: in a ten-run
# set on the shared 4-core VM this was written on, two whole runs read about
# 55% slower, so the burst median spread 22% from run to run and the fastest
# burst 10%.
FASTEST = {("serve_predict", "wall_s")}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no varpred sources (src/) next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.getcwd(), build_dir)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_GIT_DESCRIBE=" + git_describe()]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def load_refs():
    if not os.path.exists(REFS):
        return {}
    with open(REFS) as f:
        return json.load(f)


def compare_refs(result, refs):
    """Returns (mismatches, checked) against refs for this run's seed."""
    ref = refs.get(result["workload"], {}).get(str(result["seed"]))
    if ref is None:
        return 0, False
    tol = result["tolerance"]
    bad = 0
    for name, want in ref["scores"].items():
        got = result["scores"].get(name)
        if got is None or len(got) != len(want):
            bad += max(1, len(want))
            log(f"reference mismatch: {name} missing or resized")
            continue
        for i, (a, b) in enumerate(zip(got, want)):
            if a is None or abs(a - b) > tol:
                bad += 1
                log(f"reference mismatch: {name}[{i}] = {a}, reference {b}")
    for name, want in ref["labels"].items():
        if result["labels"].get(name) != want:
            bad += 1
            log(f"reference mismatch: {name} = {result['labels'].get(name)!r}, "
                f"reference {want!r}")
    return bad, True


def run_process(binary, args, index, deadline):
    """Runs one perfbench process for its share of --seconds; returns its RESULT."""
    # Library switches (VARPRED_OBS, VARPRED_EVAL_NO_CACHE, ...) would change
    # what is measured; the benchmark runs the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VARPRED_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PROCESSES), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith("RESULT "):
            print(f"[{index}] {line}")
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise SystemExit(f"perfbench: {binary} exited with {proc.returncode}")
    return json.loads(results[-1][len("RESULT "):])


def merge(results):
    """Medians of the metrics, timed ones over the samples of all processes
    (or their minimum, see FASTEST); summed operations; scores must agree."""
    merged = dict(results[0])
    merged["metrics"] = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    for name in results[0]["timings"]:
        pooled = [t for r in results for t in r["timings"][name]]
        stat = min if (merged["workload"], name) in FASTEST else statistics.median
        merged["metrics"][name] = {"value": stat(pooled), "unit": "s"}
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    for r in results[1:]:
        for key in ("scores", "labels"):
            for name, value in results[0][key].items():
                if r[key].get(name) != value:
                    merged["failed"] += 1
                    log(f"process mismatch: {name} differs between processes")
    return merged


def ordered_metrics(metrics, trace):
    """The metrics in BENCHMARK.json's order and units. A traced run reports
    0 for a layer its workload never calls; anything else missing, renamed or
    in another unit is an error."""
    with open(SPEC) as f:
        specs = json.load(f)["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None and trace:
            m = {"value": 0.0, "unit": spec["unit"]}
        if m is None or m["unit"] != spec["unit"]:
            raise SystemExit(f"perfbench: metric {spec['name']} missing or not in {spec['unit']}")
        out[spec["name"]] = m
    unknown = sorted(set(metrics) - set(out))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--out", help="also write the result here (JSON)")
    parser.add_argument("--write-refs", action="store_true",
                        help="record this run's scores as references")
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    result = merge([run_process(binary, args, k, deadline) for k in range(PROCESSES)])

    refs = load_refs()
    if args.write_refs:
        refs.setdefault(result["workload"], {})[str(result["seed"])] = {
            "scores": result["scores"], "labels": result["labels"]}
        with open(REFS, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    mismatches, checked = compare_refs(result, refs)
    failed = result["failed"] + mismatches
    metrics = ordered_metrics(result["metrics"], result["trace"] == 1)
    for name, m in metrics.items():
        print(f"  {name:30} {m['value']:16.6f} {m['unit']}")
    env_stamp = result["env"]
    print(f"env: nproc={env_stamp['nproc']} workers={env_stamp['workers']} "
          f"build={env_stamp['build_type']} git={env_stamp['git']}")
    print(f"references: {'checked, %d mismatches' % mismatches if checked else 'none for this seed'}")
    print(f"operations: attempted {result['attempted']}, failed {failed}")
    verdict = {"correct": failed == 0, "attempted": result["attempted"],
               "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(verdict, workload=result["workload"],
                           seed=result["seed"], trace=result["trace"],
                           env=env_stamp), f)
            f.write("\n")
    print(json.dumps(verdict))


if __name__ == "__main__":
    main()
