#!/usr/bin/env python3
"""Build and run the simulator benchmark.

One run:

    python3 simbench/run.py --workload <name> --seed N --seconds S --trace 0|1

builds the `simbench` package from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root), runs
one workload in one process, and prints the host record, the run record
(on-CPU time, host steal-time delta) and, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}. It exits with the
benchmark's code: non-zero when any output check failed.

Repeat mode:

    python3 simbench/run.py --repeat 10 [--seconds S] [--trace 0|1] [--out FILE]

runs every workload N times, alternating the workload order
between rounds and moving the seed each round, and reports each
metric's median and quartiles per workload next to every run's on-CPU
time and steal delta.

Self-check:

    python3 simbench/run.py --selfcheck

runs the package's tests (short windows of every workload through both
engines) and checks a short run of each workload reports exactly the
metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["contended_reservation", "observed_qos", "tree_sparse", "campaign_fork"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"simbench: the simulator sources are missing ({needed} not found at the root)")
            return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"simbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log("simbench: build failed")
        return None
    binary = os.path.join(target_dir(), "release", "simbench")
    return binary if os.path.isfile(binary) else None


def host_record():
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": cmd_out(["rustc", "--version"]),
        "profile": "release (lto=fat, codegen-units=1)",
        "git_commit": cmd_out(["git", "rev-parse", "--short=12", "HEAD"]),
    }


def steal_ticks():
    """Host steal time so far, in clock ticks (the `cpu` line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload process. Returns (exit code, stdout lines, run record)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal0 = steal_ticks()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = 124, ""
        log(f"simbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": round(wall, 4),
        "cpu_s": round((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime), 4),
        "steal_ticks": steal_ticks() - steal0,
        "exit": code,
    }
    return code, out.splitlines(), record


def parse_result(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def single(args):
    binary = build()
    if binary is None:
        return 1
    print("# host " + json.dumps(host_record()), flush=True)
    code, lines, record = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines)
    print("# run " + json.dumps(record), flush=True)
    if result is None:
        log("simbench: the benchmark printed no result")
        return code or 1
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return code


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    binary = build()
    if binary is None:
        return 1
    runs = []
    for r in range(args.repeat):
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            seed = args.seed + r
            code, lines, record = run_once(binary, w, seed, args.seconds, args.trace)
            result = parse_result(lines)
            record["result"] = result
            runs.append(record)
            status = "ok" if code == 0 and result and result.get("correct") else "FAILED"
            log(f"round {r + 1}/{args.repeat} {w} seed {seed}: {status} "
                f"(wall {record['wall_s']} s, cpu {record['cpu_s']} s, steal {record['steal_ticks']})")
    summary = {}
    for w in WORKLOADS:
        mine = [x for x in runs if x["workload"] == w and x["result"]]
        names = mine[0]["result"]["metrics"].keys() if mine else []
        per_metric = {}
        for name in names:
            vals = [x["result"]["metrics"][name]["value"] for x in mine]
            q1, med, q3 = quartiles(vals)
            per_metric[name] = {
                "unit": mine[0]["result"]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "n": len(vals),
            }
        summary[w] = {
            "runs": sum(1 for x in runs if x["workload"] == w),
            "failed_runs": sum(1 for x in runs if x["workload"] == w
                               and (x["exit"] != 0 or not x["result"]
                                    or not x["result"].get("correct"))),
            "metrics": per_metric,
        }
        for name, s in per_metric.items():
            log(f"{w:24s} {name:38s} median {s['median']:.6g} {s['unit']} "
                f"IQR/median {s['spread']:.4f}")
    doc = {"host": host_record(), "seconds": args.seconds, "trace": args.trace,
           "summary": summary, "runs": runs}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0 if all(s["failed_runs"] == 0 for s in summary.values()) else 1


# Which end-to-end metric each per-layer metric should move, and on which
# workloads the layer does most and least work (README.md, "Traced run").
LAYER_MAP = [
    {"layer": ["hyperconnect.tick_ns", "hyperconnect.root.tick_ns", "hyperconnect.cluster.tick_ns"],
     "moves": ["sim_cycles_per_s"],
     "most": ["contended_reservation"], "least": ["tree_sparse"]},
    {"layer": ["mem.tick_ns"], "moves": ["sim_cycles_per_s"],
     "most": ["contended_reservation", "observed_qos"], "least": ["tree_sparse"]},
    {"layer": ["ha.tick_ns", "ha.dma.tick_ns", "ha.chaidnn.tick_ns", "ha.traffic.tick_ns",
               "ha.fault.tick_ns"],
     "moves": ["sim_cycles_per_s"], "most": WORKLOADS, "least": []},
    {"layer": ["axi.bridge.transfer_ns"], "moves": ["sim_cycles_per_s"],
     "most": ["tree_sparse"], "least": ["contended_reservation", "observed_qos", "campaign_fork"]},
    {"layer": ["sim.sched.horizon_ns", "sim.sched.horizon_probes", "sim.sched.skip_frac"],
     "moves": ["sim_cycles_per_s"], "most": ["tree_sparse"], "least": ["contended_reservation"]},
    {"layer": ["observe.overhead_x", "observe.export_ms"],
     "moves": ["sim_cycles_per_s@observed_qos"],
     "most": ["observed_qos"], "least": ["contended_reservation", "tree_sparse", "campaign_fork"]},
    {"layer": ["sim.persist.save_ms", "sim.persist.restore_ms", "sim.persist.image_bytes"],
     "moves": ["campaign.bisect_s", "campaign.forks_per_s", "sim_cycles_per_s@campaign_fork"],
     "most": ["campaign_fork"], "least": []},
    {"layer": ["campaign.warm_ms", "campaign.fork_ms_p50", "campaign.fork_ms_p90",
               "campaign.forks_per_s", "campaign.bisect_s"],
     "moves": ["setup_s@campaign_fork", "sim_cycles_per_s@campaign_fork"],
     "most": ["campaign_fork"], "least": []},
    {"layer": ["hyperconnect.ts.subs_issued", "hyperconnect.ts.budget_stall_cycles",
               "hyperconnect.central.periods", "regulate.throttle_events", "mem.beats_served",
               "mem.row_hits", "mem.row_misses", "mem.busy_cycles", "ha.jobs", "axi.bridge.beats",
               "sim.sched.ticked_cycles", "trace.sim_cycles"],
     "moves": [], "most": WORKLOADS, "least": [],
     "note": "exact counts: identical across simulator-speed changes"},
    {"layer": ["trace.overhead_x", "trace.unattributed_frac", "trace.wall_ms"],
     "moves": [], "most": WORKLOADS, "least": [], "note": "validity of the traced run"},
]


def make_baseline(args):
    """Writes the baseline: end-to-end medians, the traced per-layer table
    and the layer mapping, from an untraced and a traced repeat report."""
    reports = []
    for path in args.sources:
        with open(path) as f:
            reports.append(json.load(f))
    e2e = next(r for r in reports if r["trace"] == 0)
    layers = next(r for r in reports if r["trace"] == 1)
    workloads = {}
    for w in WORKLOADS:
        workloads[w] = {
            "end_to_end": e2e["summary"][w]["metrics"],
            "per_layer": {k: {"median": v["median"], "unit": v["unit"], "n": v["n"]}
                          for k, v in layers["summary"][w]["metrics"].items()},
        }
    doc = {
        "schema": "simbench/baseline/v1",
        "host": e2e["host"],
        "seconds": e2e["seconds"],
        "runs": {"end_to_end": sum(s["runs"] for s in e2e["summary"].values()),
                 "per_layer": sum(s["runs"] for s in layers["summary"].values())},
        "workloads": workloads,
        "layer_map": LAYER_MAP,
    }
    with open(args.baseline, "w") as f:
        f.write(json.dumps(doc, indent=1) + "\n")
    return 0


def selfcheck(args):
    binary = build()
    if binary is None:
        return 1
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    tests = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                            "--manifest-path", MANIFEST], cwd=ROOT, env=env)
    ok = tests.returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[table]}
        for w in WORKLOADS:
            code, lines, _ = run_once(binary, w, args.seed, 1, trace)
            result = parse_result(lines)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] >= 1 and got == want)
            if trace == 0 and good:
                good = all(v["value"] > 0 for v in result["metrics"].values())
            log(f"selfcheck {w} trace {trace}: {'ok' if good else 'FAILED'}")
            if not good and result is not None:
                log(f"  declared-only {sorted(set(want) - set(got))}, "
                    f"undeclared {sorted(set(got) - set(want))}")
            ok &= good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--out", help="write the --repeat report here")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--baseline", help="write a baseline assembled from the --from reports")
    p.add_argument("--from", dest="sources", nargs=2, metavar="REPORT",
                   help="an untraced and a traced --repeat report")
    args = p.parse_args()
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    if args.baseline:
        if not args.sources:
            p.error("--baseline needs --from <untraced report> <traced report>")
        return make_baseline(args)
    if args.selfcheck:
        return selfcheck(args)
    if args.repeat:
        return repeat(args)
    if not args.workload:
        p.error("--workload is required (or --repeat / --selfcheck)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
