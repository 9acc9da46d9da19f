#!/usr/bin/env python3
"""Build and run the DSspy end-to-end benchmark (see e2ebench/README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload apps_run --seed 1 --seconds 10 --trace 0

The first run configures and builds the package into .bench_build/e2ebench
(a RelWithDebInfo build of ../src plus the benchmark program); later runs
only check that the build is current.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Extra arguments
(--smoke, --golden FILE) are passed to the benchmark program unchanged.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_step(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("DSspy sources not found next to %s; run from a full checkout"
             % HERE)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # configured for another checkout
            shutil.rmtree(BUILD)
    if not os.path.isfile(cache):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "e2ebench")


def main():
    binary = build()
    os.makedirs(WORK, exist_ok=True)
    # Relative work dir: serve_push binds a unix socket in it, and socket
    # paths are limited to 107 bytes however deep the checkout sits.
    cmd = [binary, "--golden", os.path.join(HERE, "golden.txt"),
           "--work-dir", os.path.basename(WORK)] + sys.argv[1:]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
