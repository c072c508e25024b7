#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig9-scaled --seed 2011 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

The benchmark is the Go program in this directory, a module of its own
that imports the repository's packages. It is built from source into the
build directory ($CARGO_TARGET_DIR, default .bench_build) with the Go
build cache, temporary files and span traces kept there too, so a run
reads and writes nothing outside the checkout. With --workload, the last
line of standard output is the program's JSON result; without it, every
workload runs once untraced and once traced and every metric prints by
name with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def build(bdir):
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: the go toolchain is not on PATH")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(bdir, "gocache"),
        GOMODCACHE=os.path.join(bdir, "gomodcache"),
        GOPATH=os.path.join(bdir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(bdir, "config"),
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        GOTELEMETRY="off",
    )
    exe = os.path.join(bdir, "perfbench")
    proc = subprocess.run([go, "build", "-o", exe, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return exe, env


def run(exe, env, bdir, workload, seed, seconds, trace):
    spans = os.path.join(bdir, "spans")
    os.makedirs(spans, exist_ok=True)
    args = [exe, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-tmp", os.path.join(bdir, "tmp"),
            "-spans", os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.exit("run.py: %s failed with exit code %d" % (workload, proc.returncode))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--seconds", type=float,
                    help="time budget of a run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe, env = build(bdir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        sys.stdout.write(run(exe, env, bdir, args.workload, args.seed, args.seconds, args.trace))
        return

    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            start = time.time()
            out = run(exe, env, bdir, w["name"], args.seed, args.seconds, trace)
            res = json.loads(out.strip().splitlines()[-1])
            ok = ok and res["correct"]
            print("== %s (trace %d): correct=%s attempted=%d failed=%d, %.1f s" % (
                w["name"], trace, res["correct"], res["attempted"], res["failed"], time.time() - start))
            for name in sorted(res["metrics"]):
                m = res["metrics"][name]
                print("  %-28s %18.6f %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
