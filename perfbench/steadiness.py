#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark (see README.md).

Runs one commit N times, alternating workloads (round i runs every workload
with seed base+i; odd rounds go in reverse order), and prints for every
end-to-end metric its median and IQR (as a share of the median) both
calibrated and raw, plus the change between the medians of the first and
second half of the runs.

    python3 perfbench/steadiness.py --runs 10 --out steady.json
    python3 perfbench/steadiness.py --compare parent.json change.json

--compare reads two --out files (e.g. the parent and a change) and flags
every workload whose median calibration-loop time moved by more than its
own spread: the loop does not use the library, so such a move means the
machine changed between the two sets, not the code.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module: build + result checks)

WORKLOADS = ("fit-graph", "fit-taxonomy", "rank-serve")
# Unbounded values kept per run next to the metrics: the calibration-loop
# median and recall@20.
EXTRA = ("calib_ms", "recall_at_20")


def spread(values):
    """(median, IQR / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def half_shift(values):
    """Relative change of the second half's median over the first half's."""
    h = len(values) // 2
    if h == 0:
        return 0.0
    a, b = statistics.median(values[:h]), statistics.median(values[h:])
    return (b - a) / abs(a) if a else 0.0


def run_once(bdir, workload, seed, seconds):
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" %
                           (workload, seed, proc.stderr))
    result = run.check_result(proc.stdout.strip().splitlines()[-1], False)
    detail = None
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
    return result, detail


def collect(args):
    bdir = run.build()
    runs = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for w in order:
            result, detail = run_once(bdir, w, args.seed + i, args.seconds)
            rec = {"seed": args.seed + i, "cal": {}, "raw": {}}
            for extra in EXTRA:
                rec[extra] = detail[extra]
            for name, m in result["metrics"].items():
                rec["cal"][name] = m["value"]
                rec["raw"][name] = (detail[name][1] if name in detail
                                    else m["value"])
            runs[w].append(rec)
            print("round %d %-12s seed %d done" % (i, w, args.seed + i),
                  file=sys.stderr)
    return {"runs": args.runs, "seconds": args.seconds, "workloads": runs}


def report(data, bounds):
    print("%-12s %-22s %12s %7s %12s %7s %7s %s" %
          ("workload", "metric", "cal median", "IQR%", "raw median", "IQR%",
           "half%", "flag"))
    worst = {}
    for w, recs in data["workloads"].items():
        if not recs:
            continue
        names = list(recs[0]["cal"]) + list(EXTRA)
        for name in names:
            cal = [r[name] if name in EXTRA else r["cal"][name] for r in recs]
            raw = [r[name] if name in EXTRA else r["raw"][name] for r in recs]
            cm, ci = spread(cal)
            rm, ri = spread(raw)
            hs = half_shift(cal)
            flag = ""
            if name in bounds:
                worst[name] = max(worst.get(name, 0.0), ci)
                if ci > bounds[name] / 3:
                    flag = "IQR>bound/3"
            print("%-12s %-22s %12.6g %6.2f%% %12.6g %6.2f%% %+6.2f%% %s" %
                  (w, name, cm, 100 * ci, rm, 100 * ri, 100 * hs, flag))
    return worst


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    flagged = 0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        ma, sa = spread([r["calib_ms"] for r in a["workloads"][w]])
        mb, sb = spread([r["calib_ms"] for r in b["workloads"][w]])
        flag = abs(mb - ma) / ma > max(sa, sb)
        flagged += flag
        print("%-12s calib_ms %.4f -> %.4f (%+.2f%%, spread %.2f%%/%.2f%%)%s"
              % (w, ma, mb, 100 * (mb - ma) / ma, 100 * sa, 100 * sb,
                 "  FLAG: machine speed moved" if flag else ""))
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", help="write every run's values here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    data = collect(args)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    worst = report(data, bounds)
    print("worst calibrated IQR share per metric (bound/3 in brackets):")
    for name, v in worst.items():
        print("  %-22s %6.2f%% (%.2f%%)" % (name, 100 * v,
                                             100 * bounds[name] / 3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
