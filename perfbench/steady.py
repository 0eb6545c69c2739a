#!/usr/bin/env python3
"""Steadiness runner for the benchmark of record.

    python3 perfbench/steady.py [--runs 10] [--traced-runs 2] [--gap 60]
                                [--seed-base 100] [--fresh-seed 7919]
                                [--workloads ...]

Runs every workload in two sets separated in time: set A runs --runs seeds
of each workload untraced and then --traced-runs further seeds traced
(workloads interleaved), then the runner waits --gap seconds, then set B
does the same on further seeds. For every end-to-end metric it prints each
set's median and quartiles, the spread (interquartile range over the
median, as statistics.quantiles(n=4) gives them) and the drift of set B's
median against set A's in the metric's worse direction, each against the
metric's bound in BENCHMARK.json. It prints the same, without a gate, for
the per-layer metrics an untraced run also measures (its throughput and
latency, from the run info's "other_metrics"). Afterwards it re-checks
every workload once untraced and once traced on --fresh-seed, a seed not
used to tune the benchmark. Traced runs must be correct and report every
per-layer metric; the report lists, per set, the range of each coverage
ratio (the traced calls against their replays) they reported. Exits 1 when
a run is incorrect, any end-to-end metric's spread or drift exceeds its
bound, or a re-check fails; the report goes to stdout. It marks a spread
above a third of its bound with "*" and one above a tenth of the median
with "**", prints each set's largest share of CPU time the hypervisor stole
during a run and the longest run's wall time, and writes every run's seed,
metrics, other metrics, coverage ratios, host info and wall time to
out/steady.json in the benchmark's build directory.
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


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        return None
    result = json.loads(lines[-1])
    # The run info line names each check; keep the failed ones for the report.
    info = json.loads(lines[-2])
    result["failed_checks"] = [name for name, ok in info["checks"].items()
                               if not ok]
    result["seed"] = seed
    result["other_metrics"] = info.get("other_metrics", {})
    result["host"] = info["info"].get("host", {})
    result["coverage"] = {k: v["ratio"] for k, v in info["info"].items()
                          if k.endswith(".coverage")}
    result["wall_s"] = time.monotonic() - start
    return result


def traced_ok(r, spec):
    """A traced run is good when correct and it reports every per-layer metric."""
    return (r is not None and r["correct"] and
            set(r["metrics"]) == {m["name"] for m in spec["per_layer"]})


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=2)
    ap.add_argument("--gap", type=float, default=60.0)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--fresh-seed", type=int, default=7919)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args()

    ok = True
    sets, traced_sets = [], []
    per_set = args.runs + args.traced_runs
    for s in range(2):
        if s == 1:
            time.sleep(args.gap)
        results = {w: [] for w in args.workloads}
        traced = {w: [] for w in args.workloads}
        for i in range(per_set):
            trace = int(i >= args.runs)
            for w in args.workloads:
                seed = args.seed_base + s * per_set + i
                r = run(w, seed, args.seconds, trace)
                good = traced_ok(r, spec) if trace else (
                    r is not None and r["correct"])
                if not good:
                    print(f"{w} seed {seed} trace={trace}: run failed or "
                          f"incorrect: {r}")
                    ok = False
                    continue
                (traced if trace else results)[w].append(r)
        sets.append(results)
        traced_sets.append(traced)

    print(f"{'workload':<18} {'metric':<17} {'set':<3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'drift':>7} {'bound':>6}")
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for w in args.workloads:
        others = sorted({k for results in sets for r in results[w]
                         for k in r["other_metrics"] if k in better})
        for m in spec["end_to_end"] + [
                {"name": k, "better": better[k], "bound": None} for k in others]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] if bound is not None
                          else r["other_metrics"][name] for r in results[w]]
                if len(values) < 2:
                    ok = False
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                drift = ""
                if s == 1 and len(meds) == 2:
                    worse = (meds[1] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                    ok = ok and (bound is None or worse <= bound)
                if bound is None:
                    print(f"{w:<18} {name:<17} {'AB'[s]:<3} {q2:>12.6g} "
                          f"{q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {drift:>7} "
                          f"{'-':>6} (not gated)")
                    continue
                ok = ok and spread <= bound
                flag = " **" if spread > 0.1 else " *" if spread > bound / 3 else ""
                print(f"{w:<18} {name:<17} {'AB'[s]:<3} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {drift:>7} {bound:>6}{flag}")

    for w in args.workloads:
        steal = [max((r["host"].get("steal_share", 0.0) for r in results[w]),
                     default=0.0) for results in sets]
        print(f"{w:<18} largest steal share per run: "
              + ", ".join(f"set {'AB'[s]} {v:.3f}" for s, v in enumerate(steal)))
        for s, traced in enumerate(traced_sets):
            ratios = {}
            for r in traced[w]:
                for k, v in r["coverage"].items():
                    ratios.setdefault(k, []).append(v)
            print(f"{w:<18} set {'AB'[s]} traced runs ok: {len(traced[w])} of "
                  f"{args.traced_runs}; coverage "
                  + ", ".join(f"{k} {min(v):.3f}-{max(v):.3f}"
                              for k, v in sorted(ratios.items())))
        walls = [r["wall_s"] for group in sets + traced_sets for r in group[w]]
        print(f"{w:<18} longest run: {max(walls, default=0.0):.1f} s")
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump({"args": vars(args), "sets": sets, "traced": traced_sets},
                  f, indent=1)

    print(f"\nre-check on fresh seed {args.fresh_seed}:")
    for w in args.workloads:
        for trace in (0, 1):
            r = run(w, args.fresh_seed, args.seconds, trace)
            good = traced_ok(r, spec) if trace else (
                r is not None and r["correct"] and
                set(r["metrics"]) == {m["name"] for m in spec["end_to_end"]})
            ok = ok and good
            print(f"  {w:<18} trace={trace}: {'ok' if good else 'FAILED'}")
            if r is not None and not good:
                print(f"    failed {r['failed']} of {r['attempted']}, "
                      f"checks: {r['failed_checks']}")
            if trace and r is not None:
                print("    " + json.dumps({k: round(v["value"], 4)
                                          for k, v in r["metrics"].items()}))
    print("steady: " + ("ok" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
