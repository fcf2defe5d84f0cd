#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The script builds
perfbench/driver.exe with dune, times the benchmark's set-up in several
fresh driver processes, then runs the measurement itself. It prints the
driver's report, whose last line is one JSON object; with --trace 0 the
set-up time (the median of those processes, in seconds, scaled to the
driver's reference host speed) is added to it as the setup_s metric.

--workload all runs every workload in both modes, printing every
end-to-end and per-layer metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "driver.exe")
WORKLOADS = ("leak-contended", "pairs-uncontended", "server-open")
# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_REPS = 5
# The measured run ends by itself well before this; it only bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: no simulator sources next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/driver.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    rc = build()
    if rc != 0:
        return rc or 1
    if args.workload != "all":
        return measure(args.workload, args.seed, args.seconds, args.trace)
    rcs = [measure(w, args.seed, args.seconds, trace)
           for w in WORKLOADS for trace in (0, 1)]
    return max(rcs)


def measure(workload, seed, seconds, trace):
    print("== %s seed %d trace %d" % (workload, seed, trace), flush=True)
    argv = [DRIVER, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    setup = []
    if trace == 0:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            r = subprocess.run(argv + ["--setup-only"], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - t0
            if r.returncode != 0:
                sys.stdout.write(r.stdout)
                print("run.py: set-up failed", file=sys.stderr)
                return r.returncode
            # The driver's last line is the host-speed factor that scales
            # its wall time to reference speed.
            setup.append(wall * float(r.stdout.split()[-1]))

    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if not lines:
        print("run.py: the driver printed nothing", file=sys.stderr)
        return r.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if setup:
        print("  %-34s %18.6f s (median of %d set-ups: %s)" % (
            "setup_s", statistics.median(setup), len(setup),
            " ".join("%.3f" % s for s in setup)))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
