#!/usr/bin/env python3
"""Cold-process benchmark of hlsvhc.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fig1_cold --seed 1 --seconds 50 --trace 0

It builds bin/hlsvhc.exe and perfbench/probe.exe into .bench_build, runs
the workload for --seconds, checks every output and prints, as the last
line of stdout, one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  README.md in this
directory describes the workloads and every metric.
"""

import argparse
import collections
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(HERE, "expected")
BUILD = ".bench_build"
WORK = os.path.join(BUILD, "perfbench")
HLSVHC = os.path.join(BUILD, "default", "bin", "hlsvhc.exe")
PROBE = os.path.join(BUILD, "default", "perfbench", "probe.exe")
# Relative to the checkout root, which keeps the path far below the
# 108-byte limit of a Unix socket address wherever the checkout lives.
SOCKET = os.path.join(WORK, "serve.sock")

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("fig1_cold", "serve_store")
COMPLY_BLOCKS = 500
# cold `hlsvhc table1` runs before each cold fig1 run: set-up is sampled
# across the whole run, as the host's speed drifts within it
SETUP_PER_SAMPLE = 3
MIN_REPEATS = 3
FAULT = "crash@synthesize:Vivado/initial"
# serve_store traffic: the share of each tool's designs with a key
# missing from the store, and each connection's closed loop of batches
UNSTORED_SHARE = 0.15
BATCHES_PER_CONN = 60
BATCH_LINES = 8
PROCESS_TIMEOUT_S = 170
TOOL_KEYS = ("verilog", "chisel", "bsv", "dslx", "maxj", "bambu", "vivado_hls")


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


# ---------------------------------------------------------------- build


def build():
    for f in ("dune-project", "bin/hlsvhc.ml", "lib/core/fig1.ml"):
        if not os.path.isfile(f):
            raise BenchError(f"{f} is missing: run from the root of a checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "./bin/hlsvhc.exe", "./perfbench/probe.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed")


# ------------------------------------------------------ cold processes

Run = collections.namedtuple("Run", "wall cpu rss_mb code out err")


LIVE = set()


def spawn(argv):
    """Start a process with its output in unlinked files under WORK."""
    out = tempfile.TemporaryFile(dir=WORK)
    err = tempfile.TemporaryFile(dir=WORK)
    t0 = time.perf_counter()
    p = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err)
    LIVE.add(p)
    return p, t0, out, err


def stop_all():
    """Kill and reap whatever a failed run left running."""
    for p in LIVE:
        p.kill()
        p.wait()
    LIVE.clear()


def reap(p, t0, out, err):
    """Wait for [p]; wall time from spawn, CPU time and peak RSS from the
    kernel's accounting of the child (ru_maxrss is its VmHWM at exit)."""
    killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    LIVE.discard(p)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    texts = []
    for f in (out, err):
        f.seek(0)
        texts.append(f.read().decode("utf-8", "replace"))
        f.close()
    return Run(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
               p.returncode, texts[0], texts[1])


def run_cold(argv):
    return reap(*spawn(argv))


def probe(*args):
    r = run_cold([PROBE, *map(str, args)])
    if r.code != 0:
        raise BenchError(f"probe {' '.join(map(str, args))} exited {r.code}: "
                         + r.err.strip()[-400:])
    return json.loads(r.out.strip().splitlines()[-1])


def cli_setup_s():
    """Wall time of a cold `hlsvhc table1`: runtime and registries loaded,
    nothing measured."""
    r = run_cold([HLSVHC, "table1"])
    if r.code != 0:
        raise BenchError("hlsvhc table1 failed: " + r.err.strip())
    return r.wall


def timed_loop(seconds, once):
    """Repeat [once] while the next repeat is expected to end within
    [seconds]; at least MIN_REPEATS times, so that a median is robust."""
    t0 = time.perf_counter()
    samples = []
    while True:
        samples.append(once())
        elapsed = time.perf_counter() - t0
        if len(samples) >= MIN_REPEATS and elapsed + elapsed / len(samples) > seconds:
            return samples


# ------------------------------------------------------ output checks

def fig1_rows(text):
    """(tool, row) for every point row of the Fig. 1 data table."""
    rows, tool = [], None
    for line in text.splitlines():
        if line.endswith("configurations):") or line.endswith("configuration):"):
            tool = line[line.index("(") + 1:line.rindex(",")]
        elif line.startswith("  ") and " A=" in line:
            rows.append((tool, line))
    return rows


def fig1_failures(out):
    """Points of the figure the output gets wrong: rows missing or
    different; all 100 when only the rest of the artifact differs."""
    expected = read(os.path.join(EXPECTED, "fig1.txt"))
    if out == expected:
        return 0
    want = fig1_rows(expected)
    missing = collections.Counter(want) - collections.Counter(fig1_rows(out))
    return sum(missing.values()) or len(want)


def fig1_points():
    return len(fig1_rows(read(os.path.join(EXPECTED, "fig1.txt"))))


# Fig. 1 names a tool as its heading does; the serve protocol by its key.
FIG1_TOOL = {"Vivado": "verilog", "Chisel": "chisel", "BSC": "bsc", "XLS": "xls",
             "MaxCompiler": "maxcompiler", "Bambu": "bambu", "Vivado HLS": "vivado-hls"}
# At matrices=4 the stream testbench measures XLS stages=8..18 with a
# periodicity of stages+1 cycles, where Fig. 1, which simulates 3
# matrices, measures 8 or 9, so their throughput is not Fig. 1's.  Their
# area and fmax still are; every other matrices=4 answer is its Fig. 1
# point in all three.
FIG1_THROUGHPUT_DIVERGES = {("xls", f"stages={s}") for s in range(8, 19)}
FIG1_ROW = re.compile(r" A=\s*(\d+)\s+P=\s*([\d.]+) MOPS\s+f=\s*([\d.]+) MHz$")


def fig1_metrics():
    """(serve tool key, label) -> (area, throughput, fmax) as Fig. 1 prints
    them."""
    points = {}
    for tool, row in fig1_rows(read(os.path.join(EXPECTED, "fig1.txt"))):
        m = FIG1_ROW.search(row)
        points[(FIG1_TOOL[tool], row[:m.start()].strip())] = m.groups()
    return points


def comply_expected():
    return read(os.path.join(EXPECTED, "comply.txt")).splitlines()


def comply_failures(out):
    """Designs whose verdict line is not the recorded PASS line."""
    got = out.splitlines()
    return sum(1 for i, line in enumerate(comply_expected())
               if i >= len(got) or got[i] != line)


# --------------------------------------------------- CLI workloads


def cli_sample(command):
    """One cold `hlsvhc fig1` or `hlsvhc comply`; returns (run, attempted,
    failed)."""
    if command == "fig1":
        r = run_cold([HLSVHC, "fig1", "-j", NPROC])
        n, bad = fig1_points(), fig1_failures(r.out)
    else:
        r = run_cold([HLSVHC, "comply", f"--blocks={COMPLY_BLOCKS}", "-j", NPROC])
        n, bad = len(comply_expected()), comply_failures(r.out)
    if r.code != 0:
        log(f"{command}: exit {r.code}: {r.err.strip()[-400:]}")
        bad = n
    return r, n, bad


def fig1_workload(seconds):
    setup = []

    def once():
        setup.extend(cli_setup_s() for _ in range(SETUP_PER_SAMPLE))
        return cli_sample("fig1")

    samples = timed_loop(seconds, once)
    runs = [r for r, _, _ in samples]
    ops = samples[0][1]
    log(f"fig1_cold: {len(runs)} cold runs, walls "
        + " ".join(f"{r.wall:.3f}" for r in runs))
    metrics = {
        "wall_s": median(r.wall for r in runs),
        "setup_s": median(setup),
        "cpu_s": median(r.cpu for r in runs),
        "peak_rss_mb": median(r.rss_mb for r in runs),
        "req_per_s": median(ops / r.wall for r in runs),
    }
    return metrics, sum(n for _, n, _ in samples), sum(b for _, _, b in samples)


# --------------------------------------------------- serve workload


def request(lines, timeout=60.0):
    """One batch over one connection; the answer lines received."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(SOCKET)
        s.sendall(("\n".join(lines) + "\n\n").encode())
        buf = b""
        while buf.count(b"\n") < len(lines):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode("utf-8", "replace").splitlines()


def eval_line(key):
    tool, label, matrices = key
    return f"eval\t{tool}\t{matrices}\t{label}"


class Traffic:
    """The seeded serve_store traffic.

    The key universe is every Fig. 1 design at matrices 2 and 4, with the
    answer the daemon gave for it when the benchmark was recorded.  Per
    tool, an UNSTORED_SHARE of the designs has one key left out of the
    store: the seed picks one design from each area stratum of the tool's
    designs, and which half of them is missing matrices 2 and which 4.
    The store holds every other key.  Stratifying keeps the flow work of
    a run nearly the same from seed to seed.
    Each of NPROC connections sends BATCHES_PER_CONN batches of stored
    keys drawn with Zipf(1) weights over a seeded ranking, so hot keys
    repeat, and each unstored key once, at a seeded place within its own
    stretch of one connection's stream.  A batch holding an unstored key
    is a miss (a flow run and a store write); every other batch is a
    hit."""

    def __init__(self, seed):
        self.answer = {}
        area = {}
        for line in read(os.path.join(EXPECTED, "serve.tsv")).splitlines():
            tool, matrices, label, answer = line.split("\t", 3)
            self.answer[(tool, label, int(matrices))] = answer
            area[(tool, label)] = int(answer.split(" ")[4])
        keys = list(self.answer)
        self.fig1 = fig1_metrics()
        rng = random.Random(seed)
        by_tool = collections.defaultdict(list)
        for d in area:
            by_tool[d[0]].append(d)
        unstored = []
        for designs in by_tool.values():
            designs.sort(key=lambda d: (area[d], d))
            k = round(UNSTORED_SHARE * len(designs))
            unstored += [rng.choice(designs[i * len(designs) // k:
                                            (i + 1) * len(designs) // k])
                         for i in range(k)]
        matrices = [(2, 4)[i % 2] for i in range(len(unstored))]
        rng.shuffle(matrices)
        unstored = [(*d, m) for d, m in zip(unstored, matrices)]
        self.stored = [k for k in keys if k not in unstored]
        ranking = self.stored[:]
        rng.shuffle(ranking)
        weight = [1.0 / (i + 1) for i in range(len(ranking))]
        self.conns = []
        for c in range(NPROC):
            batches = [rng.choices(ranking, weight, k=BATCH_LINES)
                       for _ in range(BATCHES_PER_CONN)]
            # dealt in tool and area order, so every connection gets an
            # even share of the flow work, and spread one per stretch of
            # its stream
            owned = unstored[c::NPROC]
            rng.shuffle(owned)
            # with more connections than unstored keys, some own none
            for i, k in enumerate(owned):
                b = int((i + rng.random()) * BATCHES_PER_CONN / len(owned))
                batches[b][rng.randrange(BATCH_LINES)] = k
            self.conns.append([(b, any(k in owned for k in b)) for b in batches])


def off_fig1(traffic, key, answer):
    """Whether an `ok` answer at matrices=4 differs from the key's Fig. 1
    point in area, throughput or fmax, as Fig. 1 prints them."""
    tool, label, matrices = key
    if matrices != 4 or not answer.startswith("ok\t"):
        return False
    f = answer.split("\t", 1)[1].split(" ")
    got = (f[4], f"{float.fromhex(f[1]):.2f}", f"{float.fromhex(f[0]):.2f}")
    want = traffic.fig1[(tool, label)]
    if (tool, label) in FIG1_THROUGHPUT_DIVERGES:
        got, want = got[::2], want[::2]
    return got != want


def batch_failures(traffic, keys, answers):
    """Lines of one batch answered wrongly, refused or not at all, and
    matrices=4 answers that are not their Fig. 1 point."""
    if len(answers) != len(keys):
        return len(keys)
    return sum(1 for k, a in zip(keys, answers)
               if a != traffic.answer.get(k) or off_fig1(traffic, k, a))


def start_daemon(argv):
    """Spawn a daemon; returns it with the time until `ping` answers."""
    if os.path.exists(SOCKET):
        os.unlink(SOCKET)
    proc = spawn(argv)
    p, t0 = proc[0], proc[1]
    while True:
        try:
            if request(["ping"], timeout=5.0) == ["ok\tpong"]:
                return proc, time.perf_counter() - t0
        except OSError:
            pass
        if p.poll() is not None or time.perf_counter() - t0 > 60:
            p.kill()
            raise BenchError("serve daemon did not answer ping")
        time.sleep(0.001)


def stop_daemon(proc):
    if request(["shutdown"]) != ["ok\tbye"]:
        log("serve: shutdown not acknowledged")
    r = reap(*proc)
    if r.code != 0:
        raise BenchError(f"serve daemon exited {r.code}: {r.err.strip()[-400:]}")
    return r


def serve_argv(store):
    return [HLSVHC, "serve", "--socket", SOCKET, "--store", store,
            "-j", str(NPROC), "--conn-workers", str(NPROC)]


def prefill(traffic):
    """Set-up: a store holding the stored share, written by the daemon."""
    master = os.path.join(WORK, "store-master")
    shutil.rmtree(master, ignore_errors=True)
    proc, _ = start_daemon(serve_argv(master))
    keys = traffic.stored
    for i in range(0, len(keys), 64):
        chunk = keys[i:i + 64]
        if batch_failures(traffic, chunk, request([eval_line(k) for k in chunk])):
            raise BenchError("serve pre-fill answered wrongly")
    stop_daemon(proc)
    return master


def fresh_store(master):
    store = os.path.join(WORK, "store")
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(master, store)
    # Write the copy back now: the daemon's first fsynced store write
    # would otherwise flush it inside the measured load.
    os.sync()
    return store


def drive(traffic):
    """The closed loop: one thread per connection, each sending its next
    batch when the previous one is answered."""
    results = [[] for _ in traffic.conns]

    def conn(c):
        for keys, miss in traffic.conns[c]:
            t0 = time.perf_counter()
            try:
                answers = request([eval_line(k) for k in keys])
            except OSError:
                answers = []
            results[c].append((t0, time.perf_counter(), miss,
                               batch_failures(traffic, keys, answers)))

    threads = [threading.Thread(target=conn, args=(c,)) for c in range(len(traffic.conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    batches = [b for r in results for b in r]
    wall = max(b[1] for b in batches) - min(b[0] for b in batches)
    lines = len(batches) * BATCH_LINES
    return {
        "wall": wall,
        "lines": lines,
        "failed": sum(b[3] for b in batches),
        "hit_ms": [1e3 * (b[1] - b[0]) for b in batches if not b[2]],
        "miss_ms": [1e3 * (b[1] - b[0]) for b in batches if b[2]],
    }


def serve_cycle(traffic, master, argv_of_store):
    proc, setup = start_daemon(argv_of_store(fresh_store(master)))
    load = drive(traffic)
    return load, setup, stop_daemon(proc)


def serve_workload(seed, seconds):
    traffic = Traffic(seed)
    master = prefill(traffic)
    cycles = timed_loop(seconds, lambda: serve_cycle(traffic, master, serve_argv))
    loads = [c[0] for c in cycles]
    hits = [x for l in loads for x in l["hit_ms"]]
    misses = [x for l in loads for x in l["miss_ms"]]
    log(f"serve_store: {len(cycles)} cycles, walls "
        + " ".join(f"{l['wall']:.3f}" for l in loads))
    log(f"serve_store: batch latency hit p50 "
        f"{median(hits):.2f} ms p99 {percentile(hits, 0.99):.2f} ms "
        f"({len(hits)} batches), miss p50 {median(misses):.2f} ms "
        f"({len(misses)} batches)")
    metrics = {
        "wall_s": median(l["wall"] for l in loads),
        "setup_s": median(c[1] for c in cycles),
        "cpu_s": median(c[2].cpu for c in cycles),
        "peak_rss_mb": median(c[2].rss_mb for c in cycles),
        "req_per_s": median(l["lines"] / l["wall"] for l in loads),
    }
    return metrics, sum(l["lines"] for l in loads), sum(l["failed"] for l in loads)


# ------------------------------------------------------ traced run


def fault_check():
    """Failure accounting: one injected synthesis crash under -k costs
    exactly one point of the figure and does not stop the benchmark."""
    r = run_cold([HLSVHC, "fig1", "-k", "--fault", FAULT, "-j", str(NPROC)])
    bad = fig1_failures(r.out)
    log(f"fault check: exit {r.code}, failed_ratio {bad}/{fig1_points()}")
    return r.code == 1 and bad == 1


def unknown_label_check(traffic, master):
    """A batch with one unknown label line counts exactly that line."""
    proc, _ = start_daemon(serve_argv(fresh_store(master)))
    keys = traffic.stored[:BATCH_LINES - 1]
    bogus = ("verilog", "no such design", 4)
    answers = request([eval_line(k) for k in keys] + [eval_line(bogus)])
    stop_daemon(proc)
    ok = len(answers) == BATCH_LINES and answers[-1].startswith("bad\t") and \
        batch_failures(traffic, keys + [bogus], answers) == 1
    log(f"unknown-label check: {'ok' if ok else 'FAILED'}")
    return ok


def hosted_argv(store):
    return [PROBE, "serve", SOCKET, store, NPROC, NPROC]


def traced(workload, seed, seconds):
    """Per-layer figures.  The probe drives every layer from outside, in
    fresh processes: fig1 at -j 1 and -j NPROC, comply, and a third of
    [seconds] of serve_store cycles against a daemon hosted by the probe
    over a timed store.  Cold `hlsvhc` runs check the failure accounting
    and the probe's compliance verdicts.  trace.overhead compares the
    traced load with the same load untraced: the probe's fig1 region with
    `Core.Fig1.points` timed in a fresh probe, or the hosted daemon's
    cycles with cycles of `hlsvhc serve`."""
    checks = []
    attempted = failed = 0
    j1, jn = probe("fig1", 1), probe("fig1", NPROC)
    for d in (j1, jn):
        attempted += int(d["fig1.points"])
        failed += 0 if d["fig1.points_match"] == 1 else int(d["fig1.points"])
    checks.append(fault_check())

    comply = probe("comply", NPROC, COMPLY_BLOCKS)
    verdicts = [comply["verdict." + t] == 1 for t in TOOL_KEYS]
    attempted += len(verdicts)
    failed += verdicts.count(False)
    r, n, bad = cli_sample("comply")
    attempted += n
    failed += bad
    checks.append([l.endswith(" PASS") for l in r.out.splitlines()] == verdicts)

    traffic = Traffic(seed)
    master = prefill(traffic)
    checks.append(unknown_label_check(traffic, master))
    cycles = timed_loop(seconds / 3, lambda: serve_cycle(traffic, master, hosted_argv))
    loads = [c[0] for c in cycles]
    attempted += sum(l["lines"] for l in loads)
    failed += sum(l["failed"] for l in loads)
    layers = collections.Counter()
    for c in cycles:
        layers.update(json.loads(c[2].out.strip().splitlines()[-1]))
    hits = [x for l in loads for x in l["hit_ms"]]
    misses = [x for l in loads for x in l["miss_ms"]]

    if workload == "serve_store":
        base = [serve_cycle(traffic, master, serve_argv)[0] for _ in range(MIN_REPEATS)]
        attempted += sum(l["lines"] for l in base)
        failed += sum(l["failed"] for l in base)
        overhead = median(l["wall"] for l in loads) / median(l["wall"] for l in base)
    else:
        overhead = jn["fig1.wall_s"] / probe("fig1-plain", NPROC)["fig1.wall_s"]

    m = {k: v for k, v in jn.items() if k.split(".")[0] in
         ("elaborate", "validate", "simulate", "verify", "synthesize", "pool", "gc")}
    # the -j 1 side of the fig1 slowdown, component by component
    for k in ("elaborate.busy_s", "elaborate.lock_wait_s", "validate.busy_s",
              "simulate.busy_s", "verify.busy_s", "synthesize.busy_s"):
        m[k[:-2] + "_j1_s"] = j1[k]
    for k in ("minor_collections", "major_collections", "minor_words"):
        m[f"gc.{k}_j1"] = j1["gc." + k]
    m["pool.wall_j1_s"] = j1["fig1.wall_s"]
    m["pool.wall_jn_s"] = jn["fig1.wall_s"]
    m["pool.speedup"] = j1["fig1.wall_s"] / jn["fig1.wall_s"]
    m["pool.residual_s"] = jn["fig1.residual_s"]
    m["pool.residual_j1_s"] = j1["fig1.residual_s"]
    m.update({k: v for k, v in comply.items() if k.startswith("comply.")})
    m.update({k: v for k, v in layers.items() if k.startswith(("store.", "serve."))})
    m["store.hit_ratio"] = layers["store.hits"] / max(1.0, layers["store.finds"])
    m["serve.hit_batches"] = len(hits)
    m["serve.hit_p50_ms"] = median(hits)
    m["serve.hit_p99_ms"] = percentile(hits, 0.99)
    m["serve.miss_batches"] = len(misses)
    m["serve.miss_p50_ms"] = median(misses)
    m["serve.req_per_s"] = sum(l["lines"] for l in loads) / sum(l["wall"] for l in loads)
    m["trace.overhead"] = overhead
    return m, attempted, failed, all(checks)


# ------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        checks_ok = True
        if args.trace:
            metrics, attempted, failed, checks_ok = traced(args.workload, args.seed, args.seconds)
            wanted = spec["per_layer"]
        elif args.workload == "serve_store":
            metrics, attempted, failed = serve_workload(args.seed, args.seconds)
            wanted = spec["end_to_end"]
        else:
            metrics, attempted, failed = fig1_workload(args.seconds)
            wanted = spec["end_to_end"]
        missing = [w["name"] for w in wanted if w["name"] not in metrics]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        result = {
            "correct": checks_ok and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                        for w in wanted},
        }
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1
    finally:
        stop_all()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
