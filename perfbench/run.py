#!/usr/bin/env python3
"""Build and run the llpmst benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload road-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 7 --seconds 30 --trace 1

Configures perfbench/ (which builds the library from this checkout in
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
builds it, prints provenance (nproc, CPU model, git commit), then runs
the perfbench binary.  Fixtures and the serve socket live in a temporary
directory under the build root that is removed at exit; with --trace 1 the
benchmark's spans are written as Chrome trace-event JSON next to it.

The last stdout line is the benchmark's JSON result.  The exit code is the
binary's: 0 all answers right, 1 a wrong answer, 2 a usage or set-up error,
3 a build unfit to measure.  Without the llpmst sources next to perfbench/
the script exits 2 before building anything.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("road-solve", "rmat-solve", "serve-mixed")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """The git commit when this checkout is a git work tree's root, marked
    "dirty" when the tree differs from it; else "unknown"."""
    def git(*args):
        done = subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.samefile(top, "."):
            head = git("rev-parse", "HEAD")
            status = git("status", "--porcelain")
            if head and status is not None:
                return head + (" (dirty)" if status else "")
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(build_dir, jobs):
    """Configure and build quietly; the log goes to stderr only on failure."""
    steps = [
        ["cmake", "-S", "perfbench", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(jobs)],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy inputs, for the self-test only")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="check against a wrong oracle (self-test)")
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt")
            and os.path.isfile(os.path.join("src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        fail("run from the root of an llpmst checkout: the library sources "
             "(CMakeLists.txt, src/) are not here")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.relpath(os.path.abspath(build_root))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = os.cpu_count() or 1
    build(build_dir, jobs)

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = os.path.join(build_root, f"perfbench-work-{tag}")
    trace_out = os.path.join(build_root, f"perfbench-trace-{tag}.json")
    print(f"host       : nproc {jobs}, {cpu_model()}")
    print(f"commit     : {git_commit()}")
    print(f"env        : LLPMST_FAILPOINTS={os.environ.get('LLPMST_FAILPOINTS', '')!r}")
    sys.stdout.flush()

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
