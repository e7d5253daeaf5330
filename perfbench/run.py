#!/usr/bin/env python3
"""Build and run one workload of the ecucsp benchmark.

    python3 perfbench/run.py --workload ladder|protocols|fleet|replay \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The first call builds the
program's libraries and the benchmark program from source into .bench_build/
(CMake, Release); later calls only check that the build is up to date. The
benchmark program runs the workload in a process of its own and prints
informational lines starting with '#', then, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails, a verdict is wrong or a
request fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ladder", "protocols", "fleet", "replay")
RUN_TIMEOUT_S = 170  # the workload process is killed after this long


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no program sources under %s/src" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "build.ninja").is_file() and not (BUILD / "Makefile").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = BUILD / "ecucsp_perfbench"
    return exe if exe.is_file() else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 2

    tmp_root = ROOT / ".bench_build" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=tmp_root))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp", str(tmp_dir), "--root", str(ROOT),
           "--records", str(ROOT / ".bench_build" / "records")]
    proc = None
    # A SIGTERM leaves through the finally clause below, like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
