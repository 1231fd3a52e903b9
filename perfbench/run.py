#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload full_table --seed 1 --seconds 10 --trace 0

Workloads: full_table, forward, mesh100. Extra arguments (--feed-seed,
--mix-seed, --topo-seed) pass through to the benchmark binary. The last
line of standard output is the run's result as one JSON object; build
output goes to standard error.
"""

import glob
import os
import shutil
import subprocess
import sys

EXE = "perfbench/perfbench.exe"


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def toolchain_env():
    """The environment for dune: PATH gains an opam switch's bin directory
    when dune is not already on it."""
    env = dict(os.environ)
    if shutil.which("dune") is None:
        for dune in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
            env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
            break
    return env


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d CPUs, %s" % (os.cpu_count() or 0, model)


def commit():
    """The checked-out commit, read from .git in this directory only."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("perfbench/dune")):
        fail("run from the root of a camlXORP checkout "
             "(dune-project, lib/ and perfbench/ must be present)", 2)
    env = toolchain_env()
    if shutil.which("dune", path=env.get("PATH")) is None:
        fail("dune is not installed", 2)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 3)
    print("host: %s; commit: %s" % (host(), commit()), flush=True)
    run = subprocess.run([os.path.join("_build", "default", EXE)] + sys.argv[1:],
                         env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
