#!/usr/bin/env python3
"""Benchmark of record for Lightator: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/CMakeLists.txt (the simulator
library from src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the statistics self-test and then the
workload, compares the run's simulated statistics and seeded physical logits
with perfbench/recorded.json, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json when --trace 0 and its
per_layer metrics when --trace 1. The line before it holds the run info
(kernel tier, nproc, thread counts, frozen kernel configs, batch histogram,
named checks) and, under "other_metrics", the metrics the program measured
that the result line does not carry (an untraced run's throughput and
latency). Every failed check, with its detail, and the number of other
failed operations go to stderr. Exits non-zero without a result line when
the sources or the build are missing or the perfbench program fails.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_lenet", "capture_vgg9", "physical_mc_lenet")
# Seeded noisy, faulted physical logits are float32 rows: a model change of
# ~1e-12 relative (the tolerance the physical backend's linear-operator form
# is allowed) can flip the last float bit, so compare to a few float ulps of
# the row's largest magnitude.
LOGIT_RTOL = 1e-6
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "perfbench_selftest", "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env, timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def ok_ratio(attempted, failed):
    """1 - failed / attempted: the share of checked operations that passed."""
    if attempted <= 0 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return 1.0 - failed / attempted


def compare_recorded(got, recorded):
    """One (name, ok, detail) per recorded key the run reported."""
    out = []
    for key, values in sorted(got.items()):
        want = recorded.get(key)
        if want is None:
            out.append((key, False, "no recorded value"))
        elif len(want) != len(values):
            out.append((key, False, f"{len(values)} values, {len(want)} recorded"))
        elif key.startswith("analyze."):
            out.append((key, values == want, f"got {values}, recorded {want}"))
        else:
            rows = [(values[i:i + 10], want[i:i + 10]) for i in range(0, len(want), 10)]
            worst = max(max(abs(g - w) for g, w in zip(gr, wr)) /
                        max(max(abs(w) for w in wr), 1e-30) for gr, wr in rows)
            out.append((key, worst <= LOGIT_RTOL,
                        f"max error {worst:.3g} of the row's largest logit"))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "core", "lightator.hpp"))):
        fail(f"no Lightator sources under {ROOT}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "recorded.json")) as f:
        recorded = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"perfbench exited with {res.returncode}")
    run = json.loads(lines[-1])

    checks = {name: c["ok"] for name, c in run["checks"].items()}
    checks["selftest"] = selftest.returncode == 0
    for name, c in sorted(run["checks"].items()):
        if not c["ok"]:
            print(f"perfbench: check {name} failed: {c['detail']}",
                  file=sys.stderr)
    failed_ops = run["failed"] - sum(not c["ok"] for c in run["checks"].values())
    if failed_ops:
        print(f"perfbench: {failed_ops} of {run['attempted']} operations failed",
              file=sys.stderr)
    attempted, failed = run["attempted"] + 1, run["failed"] + (selftest.returncode != 0)
    for name, ok, detail in compare_recorded(run["recorded"], recorded):
        checks["recorded." + name] = ok
        attempted += 1
        failed += not ok
        if not ok:
            print(f"perfbench: {name} differs from recorded: {detail}",
                  file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = dict(run["metrics"])
    if not args.trace:
        got["ok_ratio"] = {"value": ok_ratio(attempted, failed), "unit": "ratio"}
    metrics = {}
    for m in wanted:
        if m["name"] not in got:
            fail(f"perfbench reported no {m['name']}")
        metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}

    other = {name: m["value"] for name, m in sorted(got.items())
             if name not in metrics}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "info": run["info"],
                      "checks": checks, "other_metrics": other}))
    print(json.dumps({"correct": failed == 0 and all(checks.values()),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
