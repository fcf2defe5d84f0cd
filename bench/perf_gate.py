#!/usr/bin/env python3
"""Fail when HEAD regresses the simulator benchmark against its parent.

    python3 bench/perf_gate.py BASE_TREE HEAD_TREE

BASE_TREE and HEAD_TREE are two source checkouts, for example git
worktrees of HEAD~1 and HEAD. Give them paths of equal length: the
length of the driver's argv shifts its GC phase, and with it the
promoted words and peak heap. For every workload in HEAD_TREE's
BENCHMARK.json the script runs PAIRS pairs of

    python3 TREE/perfbench/run.py --workload W --seconds 1 --trace 0

one run in each tree, flipping which tree runs first from one pair to
the next. At one second every run stops at the driver's floor of timed
simulations, so the simulation counts and GC word counts repeat exactly
from run to run. Each run's JSON line is printed as it finishes, then
every end-to-end metric of every workload: the median on each side,
the HEAD/base ratio of the medians and the pairs HEAD lost.

The script exits 1 when a HEAD run is not correct, when it fails more
simulations than the base run of its pair, when a workload lacks runs
on either side, or when a GATED metric regresses: its median ratio is
worse than the metric's bound in BENCHMARK.json and HEAD is worse in
at least MIN_LOST of the pairs. A count that repeats exactly is worse
in every pair or in none, so the one rule covers timings and counts.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 1
GATED = ("sim_ms_p50", "minor_words_per_sim")
# Of PAIRS pairs, HEAD must lose this many for a gated metric to fail.
MIN_LOST = 4


def run_once(tree, workload):
    """One run.py measurement in TREE: its JSON object, or None."""
    r = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        print("perf_gate: %s in %s exited %d" % (workload, tree, r.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def verdict(workloads, metrics, base, head):
    """Judges HEAD's runs against the base runs.

    workloads: the names to judge. metrics: BENCHMARK.json's end_to_end
    entries. base, head: {workload: [result, ...]}, pair i's run at
    index i, where a result is run.py's JSON object, or None for a run
    that reported none. Returns (lines, failures): the report, and one
    line per reason to fail.
    """
    lines, failures = [], []
    for w in workloads:
        b, h = base.get(w, []), head.get(w, [])
        if not b or len(b) != len(h) or None in b or None in h:
            failures.append("FAIL %s: %d base and %d HEAD runs reported, want one "
                            "of each per pair" % (w, len(b) - b.count(None),
                                                  len(h) - h.count(None)))
            continue
        for i, (rb, rh) in enumerate(zip(b, h), 1):
            if rh["correct"] is not True:
                failures.append("FAIL %s pair %d: the HEAD run is not correct" % (w, i))
            if rh["failed"] > rb["failed"]:
                failures.append("FAIL %s pair %d: HEAD failed %d simulations, base %d"
                                % (w, i, rh["failed"], rb["failed"]))
        lines.append("== %s: %d pairs" % (w, len(b)))
        lines.append("  %-24s %14s %14s %7s %5s" % ("metric", "base", "HEAD", "ratio", "lost"))
        for m in metrics:
            name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
            vb = [r["metrics"].get(name, {}).get("value") for r in b]
            vh = [r["metrics"].get(name, {}).get("value") for r in h]
            if None in vb or None in vh:
                lines.append("  %-24s missing" % name)
                if name in GATED:
                    failures.append("FAIL %s %s: missing from some runs" % (w, name))
                continue
            mb, mh = statistics.median(vb), statistics.median(vh)
            ratio = mh / mb if mb else (1.0 if mh == mb else float("inf"))
            lost = sum((x > y) if lower else (x < y) for x, y in zip(vh, vb))
            lines.append("  %-24s %14.6g %14.6g %7.3f %3d/%d"
                         % (name, mb, mh, ratio, lost, len(b)))
            past = ratio > 1 + bound if lower else ratio < 1 - bound
            if name in GATED and past and lost >= MIN_LOST:
                failures.append("FAIL %s %s: HEAD/base %.3f is past the bound %g, "
                                "and HEAD is worse in %d of %d pairs"
                                % (w, name, ratio, bound, lost, len(b)))
    return lines, failures


def main(argv):
    if len(argv) != 3:
        print("usage: python3 bench/perf_gate.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    trees = {"base": os.path.abspath(argv[1]), "HEAD": os.path.abspath(argv[2])}
    with open(os.path.join(trees["HEAD"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {"base": {}, "HEAD": {}}
    for w in workloads:
        for i in range(PAIRS):
            for side in ("base", "HEAD") if i % 2 == 0 else ("HEAD", "base"):
                r = run_once(trees[side], w)
                runs[side].setdefault(w, []).append(r)
                print(json.dumps({"workload": w, "pair": i + 1, "side": side, "result": r}),
                      flush=True)
    lines, failures = verdict(workloads, bench["end_to_end"], runs["base"], runs["HEAD"])
    for line in lines + failures:
        print(line)
    print("perf gate: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
