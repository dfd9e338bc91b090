#!/usr/bin/env python3
"""End-to-end benchmark of the GEM geofencing service (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload {hot_fence,fleet_churn,enrol} \\
      --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-fingerprints [--workload W] \\
      --seed N [--seed-to M]

Each invocation builds the program's libraries and the benchmark binary
from source (Release, under .bench_build/perfbench), then runs it. The
last line of a run's output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gem_perfbench"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("hot_fence", "fleet_churn", "enrol")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def load_fingerprints():
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {}


def run_binary(args, timeout):
    """Runs the benchmark binary, echoing its output; returns (code, lines).

    A watchdog kills the binary after `timeout` seconds, output or not.
    """
    lines = []
    with subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                lines.append(line.rstrip("\n"))
                print(lines[-1], flush=True)
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        fail(f"benchmark binary did not finish within {timeout} s", 1)
    return proc.returncode, lines


def record_fingerprints(workloads, first, last):
    recorded = load_fingerprints()
    for workload in workloads:
        done = subprocess.run(
            [str(BINARY), "--print_fingerprints", "--workload", workload,
             "--seeds", f"{first}-{last}"],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            fail(f"fingerprinting {workload} failed: {done.stderr}")
        for line in done.stdout.split("\n"):
            if line.strip():
                name, seed, digest = line.split()
                recorded.setdefault(name, {})[seed] = digest
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")
    print(f"recorded seeds {first}-{last} of {', '.join(workloads)} in "
          f"{FINGERPRINTS.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seed-to", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()

    build()
    if args.record_fingerprints:
        record_fingerprints([args.workload] if args.workload else WORKLOADS,
                            args.seed, args.seed_to or args.seed)
        return 0
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.selftest:
            code, _ = run_binary(["--selftest", "--scratch", str(scratch)],
                                 RUN_TIMEOUT_S)
            return code
        command = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--scratch", str(scratch)]
        digest = load_fingerprints().get(args.workload, {}).get(
            str(args.seed))
        if digest:
            command += ["--fingerprint", digest]
        code, lines = run_binary(command, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        fail(f"benchmark binary exited with code {code}", code)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark binary printed no result", 1)
    return 0 if isinstance(result, dict) else 1


if __name__ == "__main__":
    sys.exit(main())
