#!/usr/bin/env python3
"""Record the benchmark's baseline into perfbench/baseline.json.

Run from the root of a git checkout:

    python3 perfbench/record.py

For every workload it makes two sets of untraced runs of run.py, one run
per seed in each, and one traced run with the first seed.  It then writes
the environment (cores, OCaml version, git revision, seeds), each
end-to-end metric's sample count, median, quartiles and spread
(interquartile range / median) in each set, how much worse the second
set's median is than the first's, whether both sets keep within the
metric's bound, the traced per-layer figures, and the split of the
traced fig1 slowdown at -j NPROC into per-layer domain time.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SETS = 2
HELD_OUT_SEED = 9001


def output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"record: {' '.join(cmd)} failed:\n{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    print(workload, seed, f"trace={trace}", json.dumps(result), flush=True)
    if not result["correct"]:
        sys.exit(f"record: {workload} seed {seed} failed its output checks")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2, "values": values}


def agreement(metric, sets):
    """Each set's summary, and whether the sets agree within the bound:
    every spread but setup_s's within it, and the second median no worse
    than the first by more than it."""
    sums = [summary(values) for values in sets]
    first, second = sums[0]["median"], sums[-1]["median"]
    worse = (second - first) / first
    if metric["better"] == "higher":
        worse = -worse
    spreads_ok = metric["name"] == "setup_s" or \
        all(s["spread"] <= metric["bound"] for s in sums)
    return {"sets": sums, "bound": metric["bound"], "median_worse": worse,
            "within_bound": spreads_ok and worse <= metric["bound"]}


# The fig1 domain time at -j 1 and at -j NPROC (jobs x wall) is exactly
# the sum of these per-layer figures; pool.residual is what no layer holds.
SPLIT = ("elaborate.busy", "elaborate.lock_wait", "validate.busy", "simulate.busy",
         "verify.busy", "synthesize.busy", "pool.residual")


def fig1_split(t, nproc):
    """Where the fig1 slowdown at -j NPROC goes, from a traced run."""
    return {
        "pool.speedup": t["pool.speedup"],
        "wall_j1_s": t["pool.wall_j1_s"],
        "wall_jn_s": t["pool.wall_jn_s"],
        "domain_j1_s": t["pool.wall_j1_s"],
        "domain_jn_s": nproc * t["pool.wall_jn_s"],
        "parts_s": {p: {"j1": t[p + "_j1_s"], "jn": t[p + "_s"],
                        "delta": t[p + "_s"] - t[p + "_j1_s"]} for p in SPLIT},
        "gc": {k: {"j1": t[f"gc.{k}_j1"], "jn": t["gc." + k]}
               for k in ("minor_collections", "major_collections", "minor_words")},
    }


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    record = {
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "ocaml": output(["ocamlfind", "ocamlopt", "-version"]),
            "git_revision": output(["git", "rev-parse", "HEAD"]),
            "worktree_dirty": output(["git", "status", "--porcelain"]) != "",
            "seeds": list(SEEDS),
            "sets": SETS,
            "held_out_seed": HELD_OUT_SEED,
            "run_seconds": seconds,
        },
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        sets = [[bench(name, s, seconds, 0) for s in SEEDS] for _ in range(SETS)]
        runs = [r for runs in sets for r in runs]
        traced = {k: v["value"] for k, v in
                  bench(name, SEEDS[0], seconds, 1)["metrics"].items()}
        record["workloads"][name] = {
            "end_to_end": {
                m["name"]: agreement(m, [[r["metrics"][m["name"]]["value"] for r in one]
                                         for one in sets])
                for m in spec["end_to_end"]
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": traced,
        }
        if name == "fig1_cold":
            record["fig1_split"] = fig1_split(traced, record["environment"]["nproc"])
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
