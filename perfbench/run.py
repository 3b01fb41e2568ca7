#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of an mrwsn checkout. The first call configures and
builds perfbench/ (which compiles the library from ../src) under
$CARGO_TARGET_DIR/perfbench-<digest of the checkout's path>, default
.bench_build/; later calls rebuild only what changed. Each checkout gets
its own build directory, so two checkouts that share CARGO_TARGET_DIR
never build or run each other's sources. MRWSN_THREADS is set to 1, so
every timed op runs on its client lane's own thread. The last line of
standard output is the JSON result; every metric in it is checked against
BENCHMARK.json before it is printed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-read", "serve-write", "fig4-sim")
RUN_LIMIT_S = 175


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha1(os.path.realpath(ROOT).encode()).hexdigest()[:16]
    return os.path.join(base, "perfbench-" + tag)


def configured_source(bdir):
    """The source directory a build directory was configured for, or None."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(bdir, target):
    """Configure on first use, then build `target`; output goes to stderr."""
    source = configured_source(bdir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        sys.exit("perfbench: %s was configured for %s, not %s"
                 % (bdir, source, HERE))
    steps = []
    if source is None or not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc()),
                  "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(bdir, target)


def revision():
    """Git revision when the checkout is a repository, else a digest of the
    library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness tests instead")
    args = parser.parse_args()
    started = time.monotonic()
    bdir = build_dir()
    if args.selftest:
        sys.exit(subprocess.run([build(bdir, "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        sys.exit("perfbench: no BENCHMARK.json at " + ROOT)

    exe = build(bdir, "perfbench")
    workdir = os.path.join(bdir, "run")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, MRWSN_THREADS="1")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(
            timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded its time limit")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        sys.exit("perfbench: no result line (exit code %d)" % proc.returncode)
    names = list(result.get("metrics", {}))
    if names != expected_metrics(args.trace):
        sys.stdout.write(out)
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" % names)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
