#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload in
a fresh process and prints its JSON record as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench in Release. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step; shows its output on stderr only if it fails."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"command failed: {' '.join(cmd)}")


def build(root, build_root):
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"no wfire sources at {src}; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=Release"])
        run_quiet(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    return os.path.join(bdir, "wfbench")


def declared_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def run_driver(cmd):
    """Runs the driver in its own process group; kills the group on timeout."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"driver exited with {p.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("WFIRE_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set: captures measure "
             "the production defaults", code=2)
    declared, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}", code=2)

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(root, build_root)
    if subprocess.run([exe, "--selftest"]).returncode != 0:
        fail("driver self-tests failed")

    meta = json.loads(subprocess.run([exe, "--meta"], stdout=subprocess.PIPE,
                                     text=True, check=True).stdout)
    meta.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "omp_env": {k: v for k, v in os.environ.items() if k.startswith("OMP_")},
        "loadavg_1m": os.getloadavg()[0],
    })
    print(json.dumps({"meta": meta}), flush=True)

    workdir = os.path.join(build_root, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        out = run_driver([exe, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", str(args.trace), "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    if set(result["metrics"]) != set(declared):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - set(result['metrics']))}, extra "
             f"{sorted(set(result['metrics']) - set(declared))}")
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name) or name not in declared:
            fail(f"metric {name!r} is not declared in BENCHMARK.json")
        if m["unit"] != declared[name]:
            fail(f"metric {name} has unit {m['unit']}, declared {declared[name]}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
