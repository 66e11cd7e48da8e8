"""Run every workload, untraced and traced, and print all metrics.

Run from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 45 [--out BENCH_label.json]

Each (workload, trace) pair runs ``perfbench/run.py`` in its own process.
The table lists every end-to-end and per-layer metric by name and unit, per
workload; ``--out`` also writes the raw results, with the machine block,
checks, self-checks and snapshot digests of every run, as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["disc_narrow", "gradient_wall", "weighted_wide", "residual_disc"]


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit("%s (trace %d) failed:\n%s" % (workload, trace, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2][len("details: "):])
    return {"result": json.loads(lines[-1]), "details": details}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = {w: {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)}
            for w in WORKLOADS}
    print("machine: %s" % json.dumps(runs[WORKLOADS[0]][0]["details"]["machine"]))
    names, units = [], {}
    for w in WORKLOADS:
        for t in (0, 1):
            for name, metric in runs[w][t]["result"]["metrics"].items():
                if name not in units:
                    names.append(name)
                    units[name] = metric["unit"]
    print("%-32s %-13s" % ("metric", "unit") + "".join("%15s" % w for w in WORKLOADS))
    for name in names:
        row = "%-32s %-13s" % (name, units[name])
        for w in WORKLOADS:
            found = [runs[w][t]["result"]["metrics"].get(name) for t in (0, 1)]
            found = [m["value"] for m in found if m is not None]
            row += "%15.6g" % found[0] if found else "%15s" % "-"
        print(row)
    for label, key in (("correct", "correct"), ("ops", "attempted"), ("ops_failed", "failed")):
        print("%-46s" % label + "".join(
            "%15s" % "/".join(str(runs[w][t]["result"][key]) for t in (0, 1))
            for w in WORKLOADS))
    for w in WORKLOADS:
        det = runs[w][0]["details"]
        for name, stat, thr, verdict in det["self_checks"]:
            print("%s self-check %s: %.4g vs %.4g %s" % (w, name, stat, thr, verdict))
        for array, digest in (det["digests"] or {}).items():
            print("%s sha256 %s %s" % (w, array, digest))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "runs": runs}, fh, indent=1)
    ok = all(runs[w][t]["result"]["correct"] for w in WORKLOADS for t in (0, 1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
