#!/usr/bin/env python3
"""Run one workload of the HARMLESS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into the build directory on first use, then runs
one workload. The build directory is $CARGO_TARGET_DIR when set (a
relative path is taken from the checkout root), else .bench_build.

Workloads: harmless_fastpath, acl_churn, nat_conn_churn. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer ones. The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the line
before it is the run record (seed, workload, source id, host, compiler,
build type, fingerprint of every count and sim_* value). Any failed
output check makes the run exit non-zero.

Extra flags are passed to the benchmark binary: --fault-link-down downs
host h1's access link halfway through the measured phase (the self-test
that the checks can fail).
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(out: Path) -> Path:
    """Configure and build the benchmark; returns the binary's path."""
    binary = out / "perfbench" / "harmless_perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        tree = out / "perfbench"
        if not (tree / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                            "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", str(tree), "-j", jobs])
    if not binary.is_file():
        raise RuntimeError("build produced no benchmark binary")
    return binary


def run_build_step(cmd) -> None:
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            timeout=BUILD_TIMEOUT_S, check=False, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-8000:])
        raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def pin_to_one_cpu() -> None:
    """Run the single-threaded benchmark on one fixed CPU (the highest
    one allowed): migrations between CPUs add run-to-run noise."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except (AttributeError, OSError):
        pass


def source_id() -> str:
    """The git commit when the checkout is a repository, else a digest of
    every source file the benchmark builds from."""
    try:
        git = ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"]
        result = subprocess.run(git, capture_output=True, text=True, timeout=10, check=False)
        lines = result.stdout.split()
        if result.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 2

    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--trace-dir", str(traces), *extra]
    pin_to_one_cpu()
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return 4
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
