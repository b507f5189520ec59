#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

Builds the Go program in perfbench/ against the repository's own source,
keeping the Go build cache, temporary files and the store directories
under .bench_build/, then runs one workload. The program prints the
result as the last line of standard output; this script passes that
through and exits with the program's exit code.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("analytics", "analytics_packed", "durable_kv", "spatial")
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = p.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rundir = os.path.join(build, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    # A SIGTERM unwinds through the finally below, so the program never
    # outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(
        [binary, "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", repr(args.seconds), "-trace", str(args.trace), "-dir", rundir,
         "-spans", os.path.join(build, "spans-%s-%d.tsv" % (args.workload, args.seed))],
        cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
