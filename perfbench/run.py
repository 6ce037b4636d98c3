#!/usr/bin/env python3
"""End-to-end benchmark of the SCDA simulator (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and with it the simulator's sources from src/) into
.bench_build/ under the current directory, then runs whole rounds of the
workload, each in its own single-threaded process. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones (medians over the rounds); with
--trace 1 they are the per-layer ones, from one traced round checked
against the same round untraced.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "scda_perfbench")

WORKLOADS = ("packet_pareto", "fluid_fattree_k32", "storage_churn")

# Wall seconds one round takes on the reference host (4 cores, see
# README.md). A run of S seconds makes round(S / this) rounds, so the
# rounds, and with them the operations, depend only on S and the seed.
ROUND_SECONDS = {
    "packet_pareto": 2.1,
    "fluid_fattree_k32": 1.7,
    "storage_churn": 1.7,
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: counters read through the program's public getters,
# then span timings and per-layer self time from the traced round.
COUNTS = (
    ("sim.events", "count"),
    ("sim.events_cancelled", "count"),
    ("sim.callbacks_heap", "count"),
    ("sim.heap_hwm", "count"),
    ("net.tx_packets", "count"),
    ("net.dropped_packets", "count"),
    ("net.link_pool_slots", "count"),
    ("net.queue_hwm", "packets"),
    ("transport.data_packets_sent", "count"),
    ("transport.retransmits", "count"),
    ("transport.fluid_rerates", "count"),
    ("core.alloc.link_updates", "count"),
    ("core.alloc.flow_updates", "count"),
    ("core.cloud.replication_flows", "count"),
    ("core.metadata.failovers", "count"),
    ("core.metadata.mirror_updates", "count"),
)
TIMINGS = (
    ("transport.fluid.rerate_ms_p50", "ms"),
    ("transport.fluid.rerate_ms_p99", "ms"),
    ("transport.fluid.admit_us_p50", "us"),
    ("core.alloc.tick_ms_p50.loaded", "ms"),
    ("core.alloc.tick_ms_p99.loaded", "ms"),
    ("core.alloc.tick_ms_p50.idle", "ms"),
    ("core.control.tick_ms_p50", "ms"),
    ("core.control.tick_ms_p99", "ms"),
    ("core.cloud.write_us_p50", "us"),
    ("core.cloud.read_us_p50", "us"),
    ("workload.gen_ms", "ms"),
)
LAYERS = ("sim", "net", "transport", "core", "workload")
PER_LAYER = (
    COUNTS
    + (("sim.ns_per_event", "ns"),)
    + TIMINGS
    + tuple((layer + ".self_ms", "ms") for layer in LAYERS)
)

# A run must end within 180 s; the first one in a checkout may also build.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 800.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no compiler or simulator process outlives us."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    t0 = time.monotonic()
    for cmd in steps:
        code, out, err = run_cmd(cmd, BUILD_BUDGET_S - (time.monotonic() - t0))
        if code != 0:
            sys.stderr.write(out[-4000:] + err[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_round(workload, seed, index, deadline, trace_path=None):
    cmd = [BINARY, "round", workload, str(seed), str(index)]
    if trace_path:
        cmd.append(trace_path)
    code, out, err = run_cmd(cmd, deadline - time.monotonic())
    if code != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError("round %d of %s exited with %d" % (index, workload, code))
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError("round %d of %s printed no result" % (index, workload))


def describe(r):
    """One human-readable line per round, plus any failed check."""
    head = "%s seed %d round %d%s: setup %.4f s, run %.4f s, rss %.1f MB, " \
        "%d/%d ops ok, digest %s" % (
            r["workload"], r["seed"], r["round"],
            " (traced)" if r["traced"] else "", r["setup_s"], r["run_s"],
            r["peak_rss_mb"], r["attempted"] - r["failed"], r["attempted"],
            r["digest"])
    lines = [head, "  results: " + json.dumps(r["results"], sort_keys=True)]
    for c in r["checks"]:
        if not c["ok"]:
            lines.append("  CHECK FAILED %s: %s" % (c["name"], c["detail"]))
    return "\n".join(lines)


def measure(workload, seed, seconds, deadline):
    rounds = max(1, int(round(seconds / ROUND_SECONDS[workload])))
    results = [run_round(workload, seed, i, deadline) for i in range(rounds)]
    for r in results:
        print(describe(r))
    metrics = {
        name: {"value": statistics.median(r[name] for r in results), "unit": unit}
        for name, unit in END_TO_END
    }
    return results, metrics


def measure_traced(workload, seed, deadline):
    os.makedirs(".bench_build", exist_ok=True)
    trace_path = os.path.join(
        ".bench_build", "trace_%s_%d.json" % (workload, seed))
    plain = run_round(workload, seed, 0, deadline)
    traced = run_round(workload, seed, 0, deadline, trace_path)
    print(describe(plain))
    print(describe(traced))
    same = plain["digest"] == traced["digest"]
    print("completion digest untraced %s, traced %s: %s" % (
        plain["digest"], traced["digest"], "equal" if same else "DIFFERENT"))
    print("tracing overhead: %.4f s (traced run_s %.4f - untraced %.4f)" % (
        traced["run_s"] - plain["run_s"], traced["run_s"], plain["run_s"]))
    print("per-layer self time (ms): " + ", ".join(
        "%s %.1f" % (k, v) for k, v in sorted(traced["self_ms"].items())))
    print("spans written to " + trace_path)

    values = dict(traced["counts"])
    values.update(traced["timings"])
    events = plain["counts"]["sim.events"]
    values["sim.ns_per_event"] = plain["run_s"] / events * 1e9 if events else 0.0
    for layer in LAYERS:
        values[layer + ".self_ms"] = traced["self_ms"].get(layer, 0.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    if not same:
        traced = dict(traced, correct=False)
    return [plain, traced], metrics


def selftest():
    """The binary's check self-test, plus this script's metric names
    against BENCHMARK.json when it is present."""
    code, out, err = run_cmd([BINARY, "selftest"], RUN_BUDGET_S)
    sys.stdout.write(out)
    sys.stderr.write(err)
    ok = code == 0
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        pairs = [
            ("workloads", [w["name"] for w in spec["workloads"]],
             list(WORKLOADS)),
            ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]],
             list(END_TO_END)),
            ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]],
             list(PER_LAYER)),
        ]
        for key, declared, produced in pairs:
            same = declared == produced
            print("%s BENCHMARK.json %s matches run.py" % (
                "ok  " if same else "FAIL", key))
            ok = ok and same
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    try:
        build()
        if args.selftest:
            return selftest()
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            results, metrics = measure_traced(args.workload, args.seed, deadline)
        else:
            results, metrics = measure(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
