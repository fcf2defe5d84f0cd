#!/usr/bin/env python3
"""Profile a command's host CPU time per function and per OCaml module.

    python3 bench/profile.py -- CMD [ARG...]

Builds bench/sampler.c into an LD_PRELOAD library with `cc`, runs CMD
under it and maps every sampled program counter to the symbol that
contains it, with `nm -n` of the executable each process ran. A rebuild
relinks the executable, so the mapping is done at once, after the run.

Prints the 25 top functions by samples, then a rollup by OCaml module:
`camlMb_sim__Engine.run_123` counts for `Mb_sim.Engine`; every other
symbol in the executable, `caml_*` and the GC's static functions, is
the OCaml runtime (allocation, `caml_modify`, effects, `caml_applyN`)
and counts for `runtime`; a PC outside the executable (libc, the vDSO)
counts for `[outside]`. CMD's own output goes to stderr, so stdout
holds only the profile; the exit status is CMD's.

The tree builds in dune's release profile, where ocamlopt inlines
small functions across modules: a PC in inlined code lies in the
caller's symbol, so its samples count for the caller's module
(`Engine.now` read inside `Machine` counts for `Mb_machine.Machine`).
Rollups taken from a `-opaque` (dev profile) build, as before the
release build, therefore differ from today's in attribution as well as
in cost.

The timer counts CPU time, and the kernel's tick gives about 250
samples per CPU-second: a 10-second run yields some 2,500. x86-64 Linux
only. Example:

    python3 bench/profile.py -- _build/default/perfbench/driver.exe \\
        --workload leak-contended --seconds 10 --trace 0
"""

import argparse
import bisect
import collections
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TOP = 25


def build(tmp):
    lib = os.path.join(tmp, "sampler.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                    os.path.join(HERE, "sampler.c"), "-ldl"], check=True)
    return lib


def symbols(exe):
    """Text symbols of exe, sorted by address: (addresses, names). Both
    are empty for an executable nm cannot read (a stripped interpreter,
    say), whose samples then count as outside."""
    out = subprocess.run(["nm", "-n", exe], capture_output=True,
                         text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def module_of(symbol):
    if symbol.startswith("caml") and symbol[4:5].isupper():
        return symbol[4:].split(".", 1)[0].replace("__", ".")
    if symbol == "[outside]":
        return symbol
    return "runtime"


def read_samples(path):
    """One process's samples: its executable, base, text range, dropped
    count and PCs."""
    with open(path) as f:
        exe = f.readline().split(" ", 1)[1].rstrip("\n")
        base = int(f.readline().split()[1], 16)
        lo, hi = (int(x, 16) for x in f.readline().split()[1:3])
        dropped = int(f.readline().split()[1])
        pcs = [int(line, 16) for line in f]
    return exe, base, lo, hi, dropped, pcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="the command to profile, after --")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    with tempfile.TemporaryDirectory() as tmp:
        lib = build(tmp)
        prefix = os.path.join(tmp, "samples")
        env = dict(os.environ, SAMPLER_OUT=prefix,
                   LD_PRELOAD=" ".join(filter(None, [lib, os.environ.get("LD_PRELOAD")])))
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        funcs = collections.Counter()
        procs = dropped = 0
        for path in sorted(glob.glob(prefix + ".*")):
            exe, base, lo, hi, lost, pcs = read_samples(path)
            addrs, names = symbols(exe)
            procs += 1
            dropped += lost
            for pc in pcs:
                i = bisect.bisect_right(addrs, pc - base) - 1
                inside = lo <= pc < hi and i >= 0
                funcs[names[i] if inside else "[outside]"] += 1

    total = sum(funcs.values())
    print(f"profile: {total} samples from {procs} process(es), {dropped} dropped")
    if total == 0:
        return rc or 1
    print(f"\ntop {TOP} functions:")
    for name, n in funcs.most_common(TOP):
        print(f"  {100 * n / total:5.1f}%  {n:7d}  {name}")
    mods = collections.Counter()
    for name, n in funcs.items():
        mods[module_of(name)] += n
    print("\nby module:")
    for name, n in mods.most_common():
        print(f"  {100 * n / total:5.1f}%  {n:7d}  {name}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
