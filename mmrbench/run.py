#!/usr/bin/env python3
"""Benchmark of the MMR simulator: host time of three workloads, end to end
and layer by layer, with a correctness gate on the modelled results.

usage: python3 mmrbench/run.py --workload NAME [--seed N] [--seconds S]
                               [--trace 0|1]

Builds the simulator libraries and the harness (mmr_bench.cpp) into
.bench_build/ at the repository root, runs the workload, checks the modelled
results, prints every metric by name with its unit and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics (untraced runs only), --trace 1 the per-layer ones.
README.md in this directory defines the workloads and every metric.
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
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mmr_bench")

WORKLOADS = ("mmr4-cbr", "mmr16-vbr-bb", "torus64")
DEFAULT_SEED = 1
MAX_THREADS = 4
# One invocation must end within 180 s; the harness gets what is left of it.
BUDGET_S = 170.0

# Integer modelled results that must repeat exactly (sim.* counts).
COUNT_KEYS = ("flits_generated", "flits_delivered", "backlog_flits",
              "frames_completed")

SINGLE_ROUTER_ONLY = "single-router workload: the torus runs no MmrSimulation"
NETWORK_ONLY = "network workload only: a single router runs no network engine"
UNPROBED = ("the network engine times only the three router.step phases; "
            "this section has no probe scope (ROADMAP item 3)")
NO_FRAMES = "CBR traffic has no frames"


def build():
    """Configures (once) and builds the harness; exits 1 when it fails."""
    jobs = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mmr_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"error: build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.exit(f"error: build step {cmd[:2]} exited {done.returncode}")


def harness(args, mode, threads, deadline):
    """Runs one harness process; returns (records, error)."""
    cmd = [BINARY, args.workload, str(args.seed), mode, str(args.seconds),
           str(threads)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return [], f"{mode}: no time left"
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return [], f"{mode}: timed out"
    if done.returncode != 0:
        return [], f"{mode}: exited {done.returncode}"
    try:
        return [json.loads(line) for line in done.stdout.splitlines()], None
    except json.JSONDecodeError as e:
        return [], f"{mode}: unreadable output ({e})"


def of_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


def counts(leg):
    return {k: leg[k] for k in COUNT_KEYS}


def leg_name(leg):
    return f"{leg['engine']}{' traced' if leg['traced'] else ''} run"


def gate(args, legs, replays, process_errors):
    """Correctness gate: returns (attempted, failure reasons per run)."""
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    expected = reference.get(args.workload, {}).get(str(args.seed))
    failures = []
    for leg in legs:
        reasons = []
        if expected is not None and counts(leg) != expected:
            reasons.append(f"counts {counts(leg)} differ from the recorded "
                           f"{expected}")
        # Every run of one invocation has the same inputs, so every engine
        # (sharded, serial) and every traced run must match the first.
        if counts(leg) != counts(legs[0]):
            reasons.append(f"counts {counts(leg)} differ from the "
                           f"{leg_name(legs[0])}'s {counts(legs[0])}")
        if leg["engine"] == "single":
            for replay in replays:
                if replay["flits"] != leg["departed_plus_backlog"]:
                    reasons.append(
                        f"replayed traffic.flits {replay['flits']} != "
                        f"flits_departed + backlog "
                        f"{leg['departed_plus_backlog']}")
        if reasons:
            failures.append(f"{leg_name(leg)}: " + "; ".join(reasons))
    failures.extend(process_errors)
    return len(legs) + len(process_errors), failures


def median(values):
    return statistics.median(values) if values else 0.0


def cycles_per_s(leg):
    return leg["measured_cycles"] / leg["measure_s"]


def fastest(legs):
    """cycles_per_s of the fastest run: see end_to_end for why."""
    return max(map(cycles_per_s, legs), default=0.0)


def least_windows(legs):
    """Each window's least CPU nanoseconds over the runs.

    Every run of one invocation steps the same inputs, so window i holds the
    same simulated work in every run.  Other tenants of the measuring host
    slow a window by up to 2x, for milliseconds to minutes, and never speed
    it up; the least of its runs is the steadiest estimate of the program's
    own time for that work.  Unlike the fastest whole run, this also drops a
    disturbance that hits every run somewhere."""
    return [min(times) for times in zip(*(leg["window_cpu_ns"] for leg in legs))]


def end_to_end(records):
    legs = of_kind(records, "leg")
    setups = of_kind(records, "setup") + legs
    rss = of_kind(records, "rss")
    if not legs:
        return {}, {}
    least = least_windows(legs)
    window = legs[0]["window_cycles"]
    step_us = statistics.quantiles([ns / window / 1000.0 for ns in least],
                                   n=100)
    measure_s = sum(least) * 1e-9
    setup_s = min(s["build_s"] + s["construct_s"] for s in setups)
    per_window = (f"over {len(least)} windows of {window} cycles, each the "
                  f"least of {len(legs)} runs")
    notes = {
        "cycles_per_s": per_window,
        "step_us_p50": per_window,
        "setup_s": f"fastest of {len(setups)} set-ups",
        "wall_s": "fastest set-up, warm-up and finalize + summed windows",
    }
    values = {
        "cycles_per_s": (legs[0]["measured_cycles"] / measure_s, "1/s"),
        "step_us_p50": (step_us[49], "us"),
        "setup_s": (setup_s, "s"),
        "wall_s": (setup_s + min(leg["warmup_s"] for leg in legs) + measure_s +
                   min(leg["finalize_s"] for leg in legs), "s"),
        "peak_rss_mb": (rss[0]["peak_kb"] / 1024.0 if rss else 0.0, "MB"),
    }
    # Printed in the table only: the tail follows each seed's traffic bursts
    # as much as the program, so it has no bound in BENCHMARK.json.
    info = {
        "step_us_p75": (step_us[74], "us", per_window + "; not in the JSON"),
    }
    return values, notes, info


def per_layer(args, records):
    legs = of_kind(records, "leg")
    setups = of_kind(records, "setup") + legs
    network = args.workload == "torus64"
    absent = {}
    values = {}

    values["traffic.build_s"] = (median([s["build_s"] for s in setups]), "s")
    replay = of_kind(records, "replay")
    if replay:
        r = replay[0]
        values["traffic.ns_per_flit"] = (r["seconds"] * 1e9 / max(r["flits"], 1),
                                         "ns")
        values["traffic.flits"] = (r["flits"], "count")
    arbiter = of_kind(records, "arbiter")
    if arbiter:
        a = arbiter[0]
        values["arbiter.ns_per_arbitration"] = (
            a["seconds"] * 1e9 / a["arbitrations"], "ns")
        values["arbiter.arbitrations"] = (a["arbitrations"], "count")
    router = of_kind(records, "router")
    if router:
        r = router[0]
        values["router.ns_per_step"] = (r["seconds"] * 1e9 / r["steps"], "ns")
        values["router.departures_per_step"] = (r["departures"] / r["steps"],
                                                "flits")

    construct = median([s["construct_s"] for s in setups])
    values["core.construct_s"] = (0.0 if network else construct, "s")
    values["core.finalize_s"] = (
        0.0 if network else median([leg["finalize_s"] for leg in legs]), "s")
    values["network.construct_s"] = (construct if network else 0.0, "s")
    untraced = [leg for leg in legs if not leg["traced"]]
    serial = [leg for leg in untraced if leg["engine"] == "serial"]
    sharded = [leg for leg in untraced if leg["engine"] == "sharded"]
    values["network.sharded_cycles_per_s"] = (fastest(sharded), "1/s")
    values["network.shard_speedup"] = (
        fastest(sharded) / fastest(serial) if serial and sharded else 0.0,
        "ratio")
    if network:
        for name in ("core.construct_s", "core.finalize_s"):
            absent[name] = SINGLE_ROUTER_ONLY
    else:
        for name in ("network.construct_s", "network.sharded_cycles_per_s",
                     "network.shard_speedup"):
            absent[name] = NETWORK_ONLY

    probe = of_kind(records, "probe")
    shares = probe[0] if probe else {}
    share_names = {
        "traffic.probe_share": "share.traffic",
        "router.link_schedule_share": "share.link_schedule",
        "arbiter.probe_share": "share.arbitration",
        "router.crossbar_share": "share.crossbar",
        "router.credits_share": "share.credits",
        "core.metrics_share": "share.metrics",
    }
    for name, key in share_names.items():
        values[name] = (shares.get(key, 0.0), "fraction")
    values["core.unattributed_share"] = (
        1.0 - sum(v for k, v in shares.items() if k.startswith("share."))
        if shares else 0.0, "fraction")
    values["router.realloc_count"] = (shares.get("reallocs", 0), "count")
    if network:
        for name in ("traffic.probe_share", "router.credits_share",
                     "core.metrics_share"):
            absent[name] = UNPROBED

    first = legs[0] if legs else {}
    for key, unit in (("flits_generated", "flits"),
                      ("flits_delivered", "flits"),
                      ("backlog_flits", "flits"),
                      ("frames_completed", "frames"),
                      ("crossbar_utilization", "fraction"),
                      ("mean_matching_size", "matches"),
                      ("flit_delay_us_mean", "us"),
                      ("frame_delay_us_mean", "us")):
        values["sim." + key] = (first.get(key, 0), unit)
    if args.workload != "mmr16-vbr-bb":
        absent["sim.frame_delay_us_mean"] = NO_FRAMES

    # The probe-armed runs and their untraced twins use the same engine.
    probed = "serial" if network else "single"
    traced_legs = [leg for leg in legs if leg["traced"]]
    twins = [leg for leg in untraced if leg["engine"] == probed]
    values["bench.trace_overhead"] = (
        fastest(twins) / fastest(traced_legs) - 1.0
        if twins and traced_legs else 0.0, "fraction")

    notes = {
        "bench.trace_overhead":
            f"{len(traced_legs)} probe-armed vs {len(twins)} untraced "
            f"{probed} runs",
        "core.unattributed_share": "wall time outside every probe phase",
    }
    if network:
        for name in list(share_names) + ["core.unattributed_share",
                                         "router.realloc_count"]:
            notes[name] = ("serial leg only: sharded workers never arm a "
                           "probe")
    return values, notes, absent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    deadline = time.monotonic() + BUDGET_S
    build()
    deadline = max(deadline, time.monotonic() + BUDGET_S)  # first-run build
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    if args.workload == "torus64":
        threads = max(2, threads)

    # End-to-end numbers come from the "measure" process alone, so its peak
    # RSS and timings never include the correctness legs or a probe.
    modes = ("measure", "check") if args.trace == 0 else ("traced",)
    outputs = {}
    process_errors = []
    for mode in modes:
        outputs[mode], error = harness(args, mode, threads, deadline)
        if error:
            process_errors.append(error)
    records = [r for mode in modes for r in outputs[mode]]

    attempted, failures = gate(args, of_kind(records, "leg"),
                               of_kind(records, "replay"), process_errors)
    absent = {}
    info = {}
    if args.trace == 0:
        values, notes, info = end_to_end(outputs["measure"])
    else:
        values, notes, absent = per_layer(args, records)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced (per-layer)' if args.trace else 'untraced (end-to-end)'}"
          f"  net_threads {threads if args.workload == 'torus64' else 0}"
          f"  nproc {len(os.sched_getaffinity(0))}  build Release")
    for name, (value, unit) in values.items():
        note = ("absent: " + absent[name]) if name in absent else notes.get(name, "")
        shown = "-" if name in absent else f"{value:.6g}"
        print(f"  {name:30s} {shown:>14s} {unit:9s} {note}")
    for name, (value, unit, note) in info.items():
        print(f"  {name:30s} {value:>14.6g} {unit:9s} {note}")
    print(f"  {'error_rate':30s} {len(failures) / attempted if attempted else 1:>14.6g}"
          f" {'fraction':9s} {len(failures)} failed of {attempted} runs")
    for failure in failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
