#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/main.exe from the sources of the checkout it is run in
and replaces itself with it; see perfbench/README.md for what is printed.

Every workload, with the fourteen end-to-end figures under their own
names (each workload is run traced, which also measures untraced):

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

exits non-zero when any output check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

WORKLOADS = ["backend-gen", "pass1-eval", "serve-stream", "route-hot"]

# The fourteen end-to-end figures: the first three on every workload,
# the rest on the workload they belong to.
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_share", "share")]
NATIVE = {
    "backend-gen": ["gen_stmts_per_s"],
    "pass1-eval": ["eval_fns_per_s"],
    "serve-stream": [
        "stream_ttff_p50_ms", "stream_ttff_p95_ms", "stream_gap_p50_ms",
        "stream_gap_p95_ms", "stream_done_p95_ms", "stream_max_rps",
    ],
    "route-hot": ["route_rps", "route_p50_us", "route_p99_us"],
}


# serve-stream runs on one CPU. Its Server keeps an idle pool domain
# that joins every minor collection; left free, that domain's thread
# wakes on the other vCPU, which on a shared VM is often halted or
# stolen, and the wait lands in the server's latency.
PINNED = {"serve-stream"}


def pin_one_cpu():
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: no repository sources next to the benchmark")
    # no shared dune cache: the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed")


def run_all(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    seed = opts.get("--seed", "1")
    seconds = opts.get("--seconds", "20")
    ok = True
    for w in WORKLOADS:
        p = subprocess.run([EXE, "--workload", w, "--seed", seed, "--seconds",
                            seconds, "--trace", "1"],
                           cwd=ROOT, capture_output=True, text=True,
                           preexec_fn=pin_one_cpu if w in PINNED else None)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            ok = False
            print(f"{w}: exit {p.returncode}\n{p.stdout}{p.stderr}")
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        layer = result["metrics"]
        e2e = {}
        for line in lines[:-1]:
            parts = line.split()
            if parts[:1] == ["end-to-end"]:
                e2e[parts[1]] = (float(parts[2]), parts[3])
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, unit in COMMON[:2]:
            print(f"  {name} {e2e[name][0]:.6g} {unit}")
        for name in [COMMON[2][0]] + NATIVE[w]:
            m = layer[name]
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["--all"]:
        sys.exit(run_all(argv[1:]))
    if dict(zip(argv[::2], argv[1::2])).get("--workload") in PINNED:
        pin_one_cpu()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    main()
