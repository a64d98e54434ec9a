#!/usr/bin/env python3
"""Repository benchmark driver (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the library and the benchmark binary
into .bench_build/, writes the workload's input for the seed, runs it, and
prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list (an untraced and a traced run, each for half
of --seconds, whose difference is reported as trace.overhead_pct).
Exits non-zero without printing a result when the build or a run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
INPUT_DIR = os.path.join(BUILD_ROOT, "inputs")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
JSON_CHECK = os.path.join(BUILD_DIR, "haten2", "tools", "json_check")
WORKLOADS = ("parafac_incore", "tucker_dataflow", "refit_serve")
# The metric a traced run is compared on to report tracing overhead.
OVERHEAD_BASIS = {
    "parafac_incore": "decompose_s",
    "tucker_dataflow": "decompose_s",
    "refit_serve": "staleness_p50_s",
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, timeout):
    """Runs cmd with its output on stderr; True when it exits 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {' '.join(cmd)}: {e}")
        return False


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not sh(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return sh(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "json_check", "-j", jobs], timeout=840)


def input_path(workload, seed, tiny):
    ext = "tns" if workload == "parafac_incore" else "bin"
    size = "tiny" if tiny else "full"
    return os.path.join(INPUT_DIR, f"{workload}-{size}-{seed}.{ext}")


def ensure_input(workload, seed, tiny):
    """Writes the seed's input once; older inputs of the workload go."""
    path = input_path(workload, seed, tiny)
    if os.path.exists(path):
        return path
    os.makedirs(INPUT_DIR, exist_ok=True)
    prefix = f"{workload}-{'tiny' if tiny else 'full'}-"
    for name in os.listdir(INPUT_DIR):
        if name.startswith(prefix):
            os.remove(os.path.join(INPUT_DIR, name))
    tmp = path + ".tmp"
    cmd = [BINARY, "gen", f"--workload={workload}", f"--seed={seed}",
           f"--out={tmp}"] + (["--tiny"] if tiny else [])
    if not sh(cmd, timeout=RUN_TIMEOUT_S):
        return None
    # Flush the new file now so its write-back does not overlap the run.
    with open(tmp, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def pin_key(workload, seed, seconds):
    # refit_serve's final model depends on how many epochs ran, which
    # --seconds sets.
    return f"{seed}@{seconds:g}" if workload == "refit_serve" else str(seed)


def pinned(workload, seed, seconds):
    """Output values an earlier commit produced for this seed, if pinned."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        table = json.load(f).get(workload, {})
    flags = []
    fits = table.get("fit", {})
    # "*" pins a value every seed must reproduce (relabeled inputs).
    fit = fits.get(pin_key(workload, seed, seconds), fits.get("*"))
    if fit is not None:
        flags.append(f"--expect_fit={fit!r}")
    records = table.get("intermediate_records")
    if records is not None:
        flags.append(f"--expect_records={records}")
    return flags


def run_once(workload, seed, seconds, trace, tiny, tag):
    """One workload process; returns its result dict or None."""
    path = ensure_input(workload, seed, tiny)
    if path is None:
        return None
    os.makedirs(OUT_DIR, exist_ok=True)
    result = os.path.join(OUT_DIR, f"{workload}-{tag}.result.json")
    trace_out = os.path.join(OUT_DIR, f"{workload}-{tag}.trace.json")
    for stale in (result, trace_out):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [BINARY, "run", f"--workload={workload}", f"--seed={seed}",
           f"--input={path}", f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--result={result}"]
    if trace:
        cmd.append(f"--trace_out={trace_out}")
    if tiny:
        cmd.append("--tiny")
    else:
        cmd += pinned(workload, seed, seconds)
    if not sh(cmd, timeout=RUN_TIMEOUT_S):
        return None
    with open(result) as f:
        out = json.load(f)
    out["result_path"] = result
    out["trace_path"] = trace_out if trace else None
    return out


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload, seed, seconds, trace, tiny=False):
    """The run's contract result, or None when a run failed outright."""
    if not trace:
        runs = [run_once(workload, seed, seconds, False, tiny, "untraced")]
        if runs[0] is None:
            return None
        values = dict(runs[0]["metrics"])
    else:
        half = max(1.0, seconds / 2.0)
        runs = [run_once(workload, seed, half, False, tiny, "baseline"),
                run_once(workload, seed, half, True, tiny, "traced")]
        if None in runs:
            return None
        values = dict(runs[1]["metrics"])
        basis = OVERHEAD_BASIS[workload]
        base = runs[0]["metrics"][basis]
        values["trace.overhead_pct"] = (
            100.0 * (values[basis] - base) / base if base else 0.0)
    metrics = {}
    for m in metric_specs(trace):
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            log(f"run.py: metric {m['name']} missing or not finite: {v!r}")
            return None
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "files": [p for r in runs for p in (r["result_path"], r["trace_path"])
                  if p],
    }


def selftest():
    """Tiny sizes of every workload, traced and untraced: every metric
    present and finite, every output file valid JSON (json_check) and the
    trace loadable as Chrome trace events."""
    ok = sh([BINARY, "unittest"], timeout=60)
    for workload in WORKLOADS:
        for trace in (False, True):
            res = measure(workload, 1, 2, trace, tiny=True)
            name = f"{workload} trace={int(trace)}"
            if res is None or not res["correct"] or res["failed"]:
                log(f"selftest: {name} failed: {res and res['failed']}")
                ok = False
                continue
            for path in res["files"]:
                ok = sh([JSON_CHECK, path], timeout=60) and ok
                if path.endswith(".trace.json"):
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    ok = ok and any(e.get("ph") == "X" for e in events)
            log(f"selftest: {name}: {len(res['metrics'])} metrics ok")
    log("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not os.path.isdir(BENCH_DIR) or not build():
        log("run.py: build failed")
        return 1
    if args.selftest:
        return selftest()
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if res is None:
        return 1
    del res["files"]
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
