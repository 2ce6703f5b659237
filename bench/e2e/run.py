#!/usr/bin/env python3
"""End-to-end benchmark of the sharpening library.

    python3 bench/e2e/run.py --workload gpu_direct --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py --repeat-check [--seed 1]
    python3 bench/e2e/run.py --self-test

Builds bench/e2e (and through it the library) in Release with the simcl
validation hooks compiled out into build-e2e/, runs one workload in its own
process with a clean environment, checks every output against the scalar
CPU oracle, and prints every metric with its unit and clock. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. A run that fails a check exits non-zero
without that line (exit codes in stats.py).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Environment each workload runs with; every other SHARP_*/SIMCL_* variable
# is removed so a developer's shell cannot change the measured program.
# svc_burst sets the batching knobs through the environment, so the same
# traffic keeps measuring the same thing if those knobs are removed.
WORKLOAD_ENV = {
    "gpu_direct": {},
    "cpu_direct": {},
    "svc_open_mixed": {},
    "svc_burst": {"SHARP_BATCH": "8", "SHARP_PIPELINE_DEPTH": "4"},
}
RUN_TIMEOUT_S = 170
REPEAT_RUNS = 10  # runs per workload in each --repeat-check set
HELD_OUT_SEED = 2  # kept for confirming claims; --repeat-check skips it
CPU_STAGES = ("downscale", "upscale", "pError", "sobel", "reduction",
              "strength", "overshoot")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clock_of(name, unit):
    if "modeled" in name:
        return "modeled"
    if unit == "count":
        return "count"
    if unit == "MB":
        return "memory"
    if unit == "ms/Mpx":
        return "cpu time"
    if unit in ("share", "ratio"):
        return "ratio"
    return "wall"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configures once and builds incrementally; returns (binary, seconds,
    whether anything was compiled)."""
    t0 = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "e2e_bench"])
    # The compiler's temporary files stay inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    compiled = False
    for cmd in steps:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if out.returncode != 0:
            log(out.stdout[-4000:] + out.stderr[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
        compiled |= "Building CXX" in out.stdout or "Linking" in out.stdout
    return os.path.join(BUILD, "e2e_bench"), time.monotonic() - t0, compiled


def clean_env(workload):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SHARP_", "SIMCL_"))}
    env.update(WORKLOAD_ENV[workload])
    return env


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{workload}-{seed}.json")]
    # Its own process group: the set-up helper it forks goes down with it.
    proc = subprocess.Popen(cmd, env=clean_env(workload), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # every process of the run has already ended
        proc.wait()
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"e2e_bench exited with {proc.returncode}")
    return json.loads(out)


def or_zero(fn, samples):
    return fn(samples) if samples else 0.0


def end_to_end(raw):
    m = raw["main"]
    return {
        "setup_s": stats.median(m["setup_s"]),
        "throughput_mpx_s": stats.median(m["trial_mpx_s"]),
        "latency_p50_ms": stats.percentile(m["latency_ms"], 50),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def service_layer(raw):
    m = raw["main"]
    svc = m["service"]
    out = {
        "service.submit_us.p50": or_zero(lambda s: stats.percentile(s, 50),
                                         m["submit_us"]),
        "service.submit_us.p95": or_zero(lambda s: stats.percentile(s, 95),
                                         m["submit_us"]),
        "service.errors": float(len(raw["errors"])),
    }
    names = ("queue_wait_ms.p50", "queue_wait_ms.p95", "exec_ms.mean",
             "batch_size.mean", "batches", "queue_depth_hwm", "rejected",
             "expired", "modeled_busy_us", "modeled_latency_us.p50",
             "modeled_latency_us.p95")
    if not svc:  # the direct workloads run no service
        out.update({"service." + n: 0.0 for n in names})
        return out
    fam = stats.parse_histograms(svc["registry"])
    wait = fam["sharp_service_queue_wait_us"]
    e2e = fam["sharp_service_e2e_latency_us"]
    out.update({
        "service.queue_wait_ms.p50": stats.histogram_percentile(wait, 50) / 1e3,
        "service.queue_wait_ms.p95": stats.histogram_percentile(wait, 95) / 1e3,
        "service.exec_ms.mean": (e2e["sum"] - wait["sum"]) / e2e["count"] / 1e3,
        "service.batch_size.mean": svc["avg_batch_size"],
        "service.batches": svc["batches"],
        "service.queue_depth_hwm": svc["queue_depth_hwm"],
        "service.rejected": svc["rejected"],
        "service.expired": svc["expired"],
        "service.modeled_busy_us": svc["busy_us"],
        "service.modeled_latency_us.p50": svc["p50_latency_us"],
        "service.modeled_latency_us.p95": svc["p95_latency_us"],
    })
    return out


def per_layer(raw):
    m = raw["main"]
    lat = m["latency_ms"]
    hi = m["latency_hi_ms"]
    trials = m["trial_mpx_s"]
    out = {
        "bench.calib_ms": stats.median(m["calib_ms"]),
        "bench.trial_spread": max(trials) / min(trials),
        "bench.gen_lag_p95_ms": or_zero(lambda s: stats.percentile(s, 95),
                                        m["gen_lag_ms"]),
        "bench.gen_lag_max_ms": or_zero(max, m["gen_lag_ms"]),
        "bench.samples": float(len(lat)),
        "e2e.modeled_us_per_frame": m["modeled_us_per_frame"],
        "e2e.cpu_ms_per_mpx": stats.median(m["trial_cpu_ms_per_mpx"]),
        "e2e.failed_share": m["failed"] / m["attempted"],
        "e2e.slo_met_share": stats.share_within(lat + hi, m["slo_ms"]),
        "e2e.latency_p95_ms": stats.percentile(lat, 95),
        "e2e.latency_p50_ms.hi": or_zero(lambda s: stats.percentile(s, 50), hi),
        "e2e.latency_p90_ms.hi": or_zero(lambda s: stats.percentile(s, 90), hi),
        "telemetry.expose_us.p50": or_zero(stats.median, m["expose_us"]),
        "telemetry.trace_overhead_share":
            stats.median([stats.as_latency(v)
                          for v in raw["traced"]["latency_ms"]])
            / stats.median([stats.as_latency(v) for v in lat]) - 1.0,
    }
    out.update(service_layer(raw))
    out.update({k: stats.median(v) for k, v in raw["layers"].items()})
    out["cpu.fusion_ratio"] = (
        sum(out["cpu.stage_us." + s] for s in CPU_STAGES) / out["cpu.run_us"])
    return out


def measure(binary, workload, seed, seconds, trace, bench):
    """Runs one workload; returns (exit code, metrics, raw)."""
    try:
        raw = run_binary(binary, workload, seed, seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"run failed: {e}")
        return stats.EXIT_FAILURE, {}, None
    code = stats.verdict(raw)
    if code == stats.EXIT_WRONG_OUTPUT:
        bad = stats.oracle_mismatches(raw["oracle"], raw["outputs"])
        log(f"outputs differ from the oracle for: {', '.join(bad)}")
    elif code == stats.EXIT_FAILURE:
        log("unexpected failures: " + "; ".join(raw["errors"][:5]))
    elif code == stats.EXIT_INVALID:
        log(f"invalid run: generator lag p{stats.GEN_LAG_PERCENTILE} over "
            f"{stats.GEN_LAG_LIMIT_MS} ms")
    if code != stats.EXIT_OK:
        return code, {}, raw
    try:
        metrics = per_layer(raw) if trace else end_to_end(raw)
    except stats.InsufficientSamples as e:
        log(f"invalid run: {e}")
        return stats.EXIT_INVALID, {}, raw
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    nonfinite = [k for k, v in metrics.items() if not math.isfinite(v)]
    if missing or nonfinite:
        log(f"metrics missing {missing} or not finite {nonfinite} "
            "(a +inf latency percentile means too many requests failed)")
        return stats.EXIT_FAILURE, metrics, raw
    return code, {d["name"]: metrics[d["name"]] for d in wanted}, raw


def print_header(workload, seed, seconds, trace, raw, build_info):
    _, build_s, compiled = build_info
    env = WORKLOAD_ENV[workload]
    print(f"# e2e workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace} git={git_sha()} "
          f"simd_native={raw['simd_native'] if raw else '?'} "
          f"nproc={os.cpu_count()} "
          f"build_s={build_s:.1f} ({'compiled' if compiled else 'up to date'})")
    print("# env: " + (" ".join(f"{k}={v}" for k, v in env.items())
                       or "(no SHARP_*/SIMCL_* variables)"))


def print_table(metrics, bench, trace):
    units = {d["name"]: d["unit"]
             for d in bench["per_layer" if trace else "end_to_end"]}
    print(f"{'metric':40s} {'value':>18s}  {'unit':8s} clock")
    for name, value in metrics.items():
        unit = units[name]
        print(f"{name:40s} {value:18.6g}  {unit:8s} {clock_of(name, unit)}")


def result_line(raw, metrics, bench, trace):
    units = {d["name"]: d["unit"]
             for d in bench["per_layer" if trace else "end_to_end"]}
    m = raw["main"]
    return json.dumps({
        "correct": True,
        "attempted": int(m["attempted"]),
        "failed": int(m["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def repeat_check(binary, bench, seed, seconds):
    """Two full sets of the same code back to back, each set REPEAT_RUNS
    runs per workload on the seeds from `seed` up, skipping the held-out
    seed. Per workload and metric it prints each set's median and spread
    (quartile distance over median) and the second median's worsening
    against the first. A metric agrees
    when both spreads (setup_s exempt: set-up is a handful of
    milliseconds) and the worsening stay within its bound; failed requests
    are held to an absolute bound of 0."""
    seeds = [s for s in range(seed, seed + REPEAT_RUNS + 1)
             if s != HELD_OUT_SEED][:REPEAT_RUNS]
    sets = []
    for rep in (1, 2):
        results = {w: {} for w in WORKLOAD_ENV}
        for s in seeds:
            for workload in WORKLOAD_ENV:
                log(f"set {rep}: {workload} seed {s}")
                code, metrics, raw = measure(binary, workload, s, seconds, 0,
                                             bench)
                if code != stats.EXIT_OK:
                    return code
                metrics["failed"] = raw["main"]["failed"]
                for name, value in metrics.items():
                    results[workload].setdefault(name, []).append(value)
        sets.append(results)
    gates = [(d["name"], d["better"], d["bound"], "rel")
             for d in bench["end_to_end"]] + [("failed", "lower", 0, "abs")]
    agree = True
    print(f"{'workload':16s} {'metric':18s} {'median 1':>11s} {'spread':>7s} "
          f"{'median 2':>11s} {'spread':>7s} {'worse':>7s} {'bound':>5s}")
    for workload in WORKLOAD_ENV:
        for name, better, bound, kind in gates:
            a, b = sets[0][workload][name], sets[1][workload][name]
            spreads = [stats.spread(v) if stats.median(v) else 0.0
                       for v in (a, b)]
            change, worse = stats.worsening(better, stats.median(a),
                                            stats.median(b), bound, kind)
            ok = not worse and (name == "setup_s" or max(spreads) <= bound)
            agree &= ok
            print(f"{workload:16s} {name:18s} {stats.median(a):11.5g} "
                  f"{spreads[0]:7.3f} {stats.median(b):11.5g} "
                  f"{spreads[1]:7.3f} {change:+7.3f} {bound:5.2f} "
                  f"{'' if ok else 'EXCEEDS'}")
    return stats.EXIT_OK if agree else 1


def self_test():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_stats.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return stats.EXIT_OK if ok else stats.EXIT_FAILURE


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_ENV))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.repeat_check and args.workload is None:
        ap.error("--workload is required")
    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src", "BENCHMARK.json")):
        log(f"e2e: repository sources not found under {ROOT}")
        return stats.EXIT_USAGE
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    try:
        build_info = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return stats.EXIT_FAILURE
    binary = build_info[0]
    if args.repeat_check:
        return repeat_check(binary, bench, args.seed, args.seconds)
    code, metrics, raw = measure(binary, args.workload, args.seed,
                                 args.seconds, args.trace, bench)
    print_header(args.workload, args.seed, args.seconds, args.trace, raw,
                 build_info)
    if metrics:
        print_table(metrics, bench, args.trace)
    if code != stats.EXIT_OK:
        return code
    print(result_line(raw, metrics, bench, args.trace), flush=True)
    return stats.EXIT_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
