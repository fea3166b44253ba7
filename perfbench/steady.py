#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]
                                [--seconds S] [--seed0 N] [--json FILE]

Run from the repository root. For each workload it runs
`perfbench/run.py --trace 0` --runs times per set, each run with its own
seed (seed0, seed0+1, ..., continuing across sets), and reports each
end-to-end metric's median, quartiles and spread (interquartile range over
median, quartiles as statistics.quantiles(values, n=4) gives them). It then
applies the acceptance rule from BENCHMARK.json:

  * every spread, except setup_s's, is within the metric's bound;
  * in every later set, each metric's median is not worse than the first
    set's by more than the bound (direction from "better").

It also records host facts next to the numbers: nproc, whether a hardware
instruction counter opens (perf_event_open), and the share of CPU time
stolen by the hypervisor while the runs went. Exits 1 if a check fails.
"""
import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pmu_status():
    """Tries perf_event_open(PERF_COUNT_HW_INSTRUCTIONS) on this process."""
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return "unknown (not x86_64 Linux)"
    libc = ctypes.CDLL(None, use_errno=True)
    attr = bytearray(128)
    attr[0:4] = (0).to_bytes(4, "little")      # PERF_TYPE_HARDWARE
    attr[4:8] = (128).to_bytes(4, "little")    # sizeof(perf_event_attr)
    attr[8:16] = (1).to_bytes(8, "little")     # PERF_COUNT_HW_INSTRUCTIONS
    flags = (1 << 0) | (1 << 5) | (1 << 6)     # disabled, no kernel, no hv
    attr[40:48] = flags.to_bytes(8, "little")
    buf = (ctypes.c_char * len(attr)).from_buffer(attr)
    fd = libc.syscall(298, buf, 0, -1, -1, 0)  # __NR_perf_event_open
    if fd >= 0:
        os.close(fd)
        return "available"
    return "unavailable (%s)" % os.strerror(ctypes.get_errno())


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields), steal


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def worse_by(first, later, better):
    """Share by which `later` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    delta = (first - later) if better == "higher" else (later - first)
    return delta / abs(first)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--json", help="write the full report here")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    total0, steal0 = cpu_times()
    t0 = time.time()
    report = {"host": {"nproc": os.cpu_count(), "pmu": pmu_status(),
                       "machine": platform.machine()},
              "seconds": args.seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                got = run_once(workload, seed, args.seconds)
                for name, v in got.items():
                    values.setdefault(name, []).append(v)
            sets.append({name: summarize(v) for name, v in values.items()})
        report["workloads"][workload] = sets
        print("== %s (%d runs x %d sets, %.0f s each)" %
              (workload, args.runs, args.sets, args.seconds))
        for name, m in metrics.items():
            row = []
            for s, summary in enumerate(sets):
                st = summary[name]
                row.append("set%d med %.6g [%.6g, %.6g] spread %.3f" %
                           (s, st["median"], st["q1"], st["q3"],
                            st["spread"]))
                if name != "setup_s" and st["spread"] > m["bound"]:
                    row.append("SPREAD>%.2f" % m["bound"])
                    ok = False
                if s > 0:
                    worse = worse_by(sets[0][name]["median"], st["median"],
                                     m["better"])
                    row.append("vs set0 %+.3f" % -worse)
                    if worse > m["bound"]:
                        row.append("WORSE>%.2f" % m["bound"])
                        ok = False
            print("  %-22s %s" % (name, "  ".join(row)))
    total1, steal1 = cpu_times()
    report["host"]["steal_frac"] = ((steal1 - steal0) / (total1 - total0)
                                    if total1 > total0 else 0.0)
    report["elapsed_s"] = time.time() - t0
    print("host: nproc %s, PMU %s, steal %.2f%% of CPU time, %.0f s" %
          (report["host"]["nproc"], report["host"]["pmu"],
           100 * report["host"]["steal_frac"], report["elapsed_s"]))
    print("steady" if ok else "NOT steady")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
