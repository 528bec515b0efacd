#!/usr/bin/env python3
"""The regla host-wall benchmark.

    python3 perfbench/run.py --workload direct_wave --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the regla libraries from src/) into .bench_build/,
runs one workload in the regla_perfbench binary, checks its results against
the cpu reference, and prints every metric by name and unit. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
--out FILE appends that record, with workload, seed and environment, as one
JSON line for compare.py. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "regla_perfbench")

# BENCHMARK.json is the one catalog of workloads and metrics (name, unit,
# better, bound); layers.json adds, per layer metric, where it is measured
# and which end-to-end metric it should move.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = BENCHMARK["end_to_end"]
LAYERS = BENCHMARK["per_layer"]
UNITS = {m["name"]: m["unit"] for m in END_TO_END + LAYERS}
CASES = [m["name"].rsplit(".", 1)[1] for m in LAYERS
         if m["name"].startswith("engine.run_device_us.")]
BUILD_TIMEOUT_S = 840
# Set-up, the measured region and the drain take under 15 s beyond
# --seconds; a hung run is killed so the whole command ends within 180 s.
RUN_GRACE_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; serialised by a lock
    so concurrent runs in one checkout do not race the build."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "regla_perfbench", "-j", jobs])
        with open(logfile, "w") as out:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    log(f"perfbench: build step failed: {e}")
                    return False
                if rc != 0:
                    out.flush()
                    with open(logfile) as f:
                        log("".join(f.readlines()[-40:]))
                    log(f"perfbench: build failed ({' '.join(cmd)})")
                    return False
    return True


def run_binary(workload, seed, seconds, trace):
    spans_path = os.path.join(BUILD_DIR, "spans", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None,
                              timeout=seconds + RUN_GRACE_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {seconds + RUN_GRACE_S} s")
        return None, None
    if proc.returncode != 0:
        log(f"perfbench: {workload} exited with {proc.returncode}")
        return None, None
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = None
    if trace:
        with open(spans_path) as f:
            spans = json.load(f)
    return raw, spans


def throughput(raw):
    """Problems per host-wall second: the median over windows of `window`
    consecutive completions, timed from the previous window's last one."""
    done = sorted(zip(raw["series"]["done_s"], raw["series"]["done_problems"]))
    k = raw["window"]
    rates, t0 = [], 0.0
    for w in range(len(done) // k):
        chunk = done[w * k:(w + 1) * k]
        t1 = chunk[-1][0]
        if t1 > t0:
            rates.append(sum(p for _, p in chunk) / (t1 - t0))
        t0 = t1
    return stats.median(rates) if rates else raw["problems"] / raw["timed_s"]


def end_to_end(raw):
    lat = raw["latency_ms"]
    return {
        "throughput_pps": throughput(raw),
        "latency_p50_ms": stats.quantile(lat, 0.50),
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw, spans):
    """Every per-layer metric; 0 where the workload does not run the layer
    (layers.json lists where each one is measured)."""
    out = {m["name"]: 0.0 for m in LAYERS}

    def durations(name, tag=None, per_item=False):
        xs = []
        for s in spans:
            if s["name"] != name or (tag is not None and s["tag"] != tag):
                continue
            d = (s["end_ns"] - s["start_ns"]) / 1e3  # us
            xs.append(d / s["items"] if per_item and s["items"] else d)
        return xs

    hits = durations("planner.plan", "hit")
    misses = durations("planner.plan", "miss")
    if hits:
        out["planner.plan_hit_us"] = stats.median(hits)
    if misses:
        out["planner.plan_miss_ms"] = stats.median(misses) / 1e3
    for name, value in raw["layers"].items():
        if name in out:
            out[name] = value
    for case in CASES:
        dev = durations("ops.run_device", case, per_item=True)
        cpu = durations("cpu.run_cpu", case, per_item=True)
        if dev:
            out["engine.run_device_us." + case] = stats.median(dev)
        if cpu:
            out["cpu.run_cpu_us." + case] = stats.median(cpu)
        if dev and cpu:
            out["engine.host_native_ratio." + case] = (
                stats.median(dev) / stats.median(cpu))

    series = raw["series"]
    for metric in ("runtime.submit_us", "runtime.queue_ms",
                   "runtime.post_flush_ms"):
        xs = series.get(metric)
        if xs:
            out[metric + "_p50"] = stats.quantile(xs, 0.50)
            out[metric + "_p99"] = stats.quantile(xs, 0.99)
            out["runtime.samples"] = len(xs)
    if series.get("load.late_ms"):
        out["load.late_ms_p99"] = stats.quantile(series["load.late_ms"], 0.99)

    lat, traced = raw["latency_ms"], raw["latency_traced"]
    out["latency.p90_ms"] = stats.quantile(lat, 0.90)
    out["latency.p99_ms"] = stats.quantile(lat, 0.99)
    out["latency.samples"] = len(lat)
    on = [x for x, t in zip(lat, traced) if t]
    off = [x for x, t in zip(lat, traced) if not t]
    if on and off:
        mean_on, mean_off = sum(on) / len(on), sum(off) / len(off)
        out["trace.overhead_pct"] = 100.0 * (mean_on / mean_off - 1.0)
    return out


def report(workload, seed, trace, raw, spans):
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    correct = failed == 0 and attempted >= 1
    metrics = per_layer(raw, spans) if trace else end_to_end(raw)
    env = raw["env"]
    print(f"== {workload} seed={seed} trace={trace}  env: nproc={env['nproc']} "
          f"build={env['build_type']} REGLA_REPLAY={env['regla_replay']} "
          f"REGLA_REPLAY_VERIFY={env['regla_replay_verify']}")
    lat = raw["latency_ms"]
    for name, value in metrics.items():
        quantile = name.startswith(("latency_p", "latency.p"))
        note = f"  (n={len(lat)})" if quantile else ""
        print(f"  {name:40s} {value:>16.6g} {UNITS[name]}{note}")
    if not trace:
        for q in (0.90, 0.99):
            name = f"latency.p{round(100 * q)}_ms (not gated)"
            print(f"  {name:40s} {stats.quantile(lat, q):>16.6g} ms  "
                  f"(n={len(lat)})")
        print(f"  {'error_rate':40s} {failed / max(attempted, 1):>16.6g} ratio"
              f"  ({failed} of {attempted}; {raw['mismatched']} oracle "
              f"mismatches, {raw['hung']} hung)")
        print(f"  {'device_pps':40s} {raw['layers']['device_pps']:>16.6g} 1/s")
    print(f"  oracle: worst relative error {raw['worst_rel_error']:.3g}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--out", help="append result records (JSON lines) here")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        log("perfbench: --seconds must be 1..60 and --seed non-negative")
        return 2
    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        raw, spans = run_binary(w, args.seed, args.seconds, args.trace)
        if raw is None:
            return 1
        results.append((w, report(w, args.seed, args.trace, raw, spans), raw))
    if args.out:
        with open(args.out, "a") as f:
            for w, res, raw in results:
                f.write(json.dumps(dict(res, workload=w, seed=args.seed,
                                        trace=args.trace, env=raw["env"]))
                        + "\n")
    for _, res, _ in results:
        print(json.dumps(res), flush=True)
    return 0 if all(res["correct"] for _, res, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
