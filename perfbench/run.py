#!/usr/bin/env python3
"""The gpcc benchmark: one command for the compile-cold, explore and
simulate workloads.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Run from the root of a gpcc checkout. It builds perfbench/gpbench.exe with
dune, runs the workload in child processes, each on its own scratch
artifact store under perfbench/_run/ (deleted afterwards), and prints one
JSON object as the last line of standard output. With --trace 0 that object
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced cycle, and Chrome trace-event files go to perfbench/_traces/.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "gpbench.exe")
WORKLOADS = ("compile-cold", "explore", "simulate")
PASSES = ("vectorize-wide", "vectorize", "coalesce", "merge", "licm",
          "partition-camping", "prefetch")

# Busy-second metrics that partition wall_s x jobs.effective.
SELF_TIMES = ("ast.parse_s", "passes.s", "verify.s", "cost_model.s", "explore.s",
              "sim.run_s", "sim.devmem_s", "bench.s", "unattributed_s")
# Counters summed over the processes of a cycle.
SUMMED = (
    ["passes.%s.%s" % (p, f) for p in PASSES for f in ("s", "runs", "fired")]
    + ["passes.rejected", "verify.symbolic_s", "verify.concrete_s",
       "verify.symbolic_proofs", "verify.concrete_fallbacks",
       "analysis_cache.hits", "analysis_cache.misses",
       "cost_model.predict_calls", "cost_model.predict_s",
       "explore.distinct", "explore.pruned", "explore.partial_runs",
       "explore.fully_measured", "explore.measure_partial_s",
       "explore.measure_full_s", "sim.blocks", "sim.memo_hits",
       "sim.memo_misses", "sim.plane_hits", "sim.plane_misses",
       "sim.closed_form_credits", "store.hits", "store.misses",
       "store.lock_contention", "ast.kernels", "wall_s", "busy_budget_s"]
    + list(SELF_TIMES))
# Figures that describe one workload; 0 on the others.
WORKLOAD_FIGURES = ("compile_total_s", "compile_ms_p50", "compile_ms_p95",
                    "explore.candidate_ms_p50", "explore.candidate_ms_p95",
                    "explore_cold_s", "explore_warm_s", "winner_gflops_geomean",
                    "sim_blocks_per_s", "sim_run_ms_p50", "sim_run_ms_p95")
UNITS = {"store.bytes": "bytes", "peak_heap_mb": "MB", "host.probe_ms": "ms",
         "winner_gflops_geomean": "GFLOPS", "sim_blocks_per_s": "blocks/s"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_ms_p50", "_ms_p95")):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("lib", "core", "pipeline.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is not a gpcc checkout (missing %s)" % (ROOT, need))
    # no shared dune cache and no system temp dir: the build writes only
    # inside the checkout
    tmp = os.path.join(HERE, "_run")
    os.makedirs(tmp, exist_ok=True)
    r = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled",
                        "./perfbench/gpbench.exe"],
                       cwd=ROOT, env=dict(os.environ, TMPDIR=tmp),
                       capture_output=True, text=True, timeout=850)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def child_env(store):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPCC_")}
    env["GPCC_CACHE_DIR"] = store
    env["TMPDIR"] = os.path.dirname(store)
    return env


def gpbench(scratch, store, mode, seed, extra=(), trace_to=None):
    """Run one measuring process; return its result document."""
    out = os.path.join(scratch, "%s-%d.json" % (mode, time.monotonic_ns()))
    cmd = [EXE, mode, "--seed", str(seed), "--out", out] + list(extra)
    if trace_to:
        cmd += ["--trace-out", trace_to]
    r = subprocess.run(cmd, cwd=ROOT, env=child_env(store), capture_output=True,
                       text=True, timeout=170)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        return None
    with open(out) as f:
        return json.load(f)


def cycle(workload, scratch, seed, seconds, traced=False):
    """One round of the workload's fixed work on a fresh, empty store.
    Returns the list of process documents (None for a crashed process)."""
    store = tempfile.mkdtemp(prefix="store-", dir=scratch)
    trace = None
    if traced:
        os.makedirs(os.path.join(HERE, "_traces"), exist_ok=True)
        trace = lambda phase: os.path.join(
            HERE, "_traces", "%s-seed%d-%s.json" % (workload, seed, phase))
    try:
        if workload == "compile-cold":
            return [gpbench(scratch, store, "compile", seed,
                            trace_to=trace and trace("compile"))]
        if workload == "explore":
            # the warm phase is a fresh process on the store the cold
            # phase populated, so no in-memory memo carries over
            return [gpbench(scratch, store, "explore", seed, ["--phase", phase],
                            trace_to=trace and trace(phase))
                    for phase in ("cold", "warm")]
        return [gpbench(scratch, store, "simulate", seed,
                        ["--seconds", str(seconds)], trace_to=trace and trace("simulate"))]
    finally:
        shutil.rmtree(store, ignore_errors=True)


def run_cycles(workload, scratch, seed, seconds):
    """Cycles until the next one would overrun --seconds (at least one)."""
    cycles, t0 = [], time.monotonic()
    while True:
        c0 = time.monotonic()
        cycles.append(cycle(workload, scratch, seed, seconds))
        took = time.monotonic() - c0
        if time.monotonic() - t0 + took > seconds:
            return cycles


def quantile(xs, q):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def cycle_work_s(docs, key="work_ref_s"):
    """A cycle's work: per process, the median over its rounds, summed."""
    return sum(statistics.median(d[key]) for d in docs)


def tally(cycles):
    attempted = failed = 0
    for docs in cycles:
        for d in docs:
            if d is None:
                attempted, failed = attempted + 1, failed + 1
            else:
                attempted += d["attempted"]
                failed += d["failed"]
                for msg in d["failures"][:5]:
                    print("failure: " + msg, file=sys.stderr)
    return attempted, failed


def end_to_end(cycles):
    docs = [d for c in cycles for d in c]
    return {
        "setup_s": (statistics.median(d["setup_s"] for d in docs), "s"),
        "work_ref_s": (statistics.median(cycle_work_s(c) for c in cycles), "s"),
        "simulated_gflops_geomean": (docs[0]["gflops_geomean"], "GFLOPS"),
    }


def per_layer(workload, docs, untraced_work_s, attempted, failed):
    """The traced cycle's per-layer metrics, summed over its processes."""
    m = {k: sum(d[k] for d in docs) for k in SUMMED}
    for k in ("store.entries", "store.bytes", "jobs.requested", "jobs.effective"):
        m[k] = docs[-1][k]
    m["peak_heap_mb"] = max(d["peak_heap_mb"] for d in docs)
    ratio = lambda a, b: a / b if b else 0.0
    m["verify.fallback_ratio"] = ratio(
        m["verify.concrete_fallbacks"],
        m["verify.symbolic_proofs"] + m["verify.concrete_fallbacks"])
    m["explore.full_measure_ratio"] = ratio(m["explore.fully_measured"], m["explore.distinct"])
    traced_work = cycle_work_s(docs)
    m["trace.overhead_ratio"] = ratio(traced_work, untraced_work_s) - 1.0
    m["work_wall_s"] = cycle_work_s(docs, "work_s")
    m["host.probe_ms"] = statistics.mean(d["probe_ms"] for d in docs)
    m["failed_ratio"] = ratio(failed, attempted)
    ops = [x for d in docs for x in d["op_ms"]]
    m.update({k: 0.0 for k in WORKLOAD_FIGURES})
    if workload == "compile-cold":
        m.update({"compile_total_s": traced_work, "compile_ms_p50": quantile(ops, 50),
                  "compile_ms_p95": quantile(ops, 95)})
    elif workload == "explore":
        m.update({"explore.candidate_ms_p50": quantile(ops, 50),
                  "explore.candidate_ms_p95": quantile(ops, 95),
                  "explore_cold_s": cycle_work_s(docs[:1]),
                  "explore_warm_s": cycle_work_s(docs[1:]),
                  "winner_gflops_geomean": docs[0]["gflops_geomean"]})
    else:
        m.update({"sim_blocks_per_s": m["sim.blocks"] / sum(docs[0]["work_ref_s"]),
                  "sim_run_ms_p50": quantile(ops, 50), "sim_run_ms_p95": quantile(ops, 95)})
    return {k: (m[k], unit(k)) for k in sorted(m)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_run"))
    try:
        if a.trace:
            # an untraced cycle first, so the traced one can report the
            # tracing overhead against it
            plain = cycle(a.workload, scratch, a.seed, a.seconds)
            traced = cycle(a.workload, scratch, a.seed, a.seconds, traced=True)
            cycles = [plain, traced]
        else:
            cycles = run_cycles(a.workload, scratch, a.seed, a.seconds)
        attempted, failed = tally(cycles)
        if any(d is None for c in cycles for d in c):
            die("a measuring process failed")
        if a.trace:
            metrics = per_layer(a.workload, traced, cycle_work_s(plain), attempted, failed)
        else:
            metrics = end_to_end(cycles)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
