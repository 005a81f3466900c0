"""Run every workload, print every metric, optionally save or compare.

    python3 perfbench/suite.py                       # end-to-end metrics
    python3 perfbench/suite.py --trace               # plus per-layer metrics
    python3 perfbench/suite.py --trace --out BENCH.json
    python3 perfbench/suite.py --compare perfbench/baseline.json

Each workload runs in its own fresh process (``run.py``) for the
``run_seconds`` of ``BENCHMARK.json``.  With
``--trace`` a second, traced run of each workload gives the per-layer
metrics, and the difference between its median operation latency and the
untraced run's is printed as the tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        for key in ("machine", "detail"):
            if line.startswith(f"# {key} "):
                out[key] = json.loads(line[len(key) + 3 :])
    return out


def print_metrics(title: str, metrics: dict, samples: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} n={samples.get(name, '')}")


def compare(new: dict, old: dict) -> None:
    print(f"\nratios new/old against commit {old['machine']['commit']}")
    for workload, entry in new["workloads"].items():
        base = old["workloads"].get(workload)
        if base is None:
            continue
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                ref = base.get(section, {}).get(name)
                if ref and ref["value"]:
                    print(f"  {workload:<7} {name:<48} {m['value'] / ref['value']:8.3f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", help="write the results as JSON to this file")
    p.add_argument("--compare", help="print ratios against an earlier --out file")
    args = p.parse_args(argv)

    seconds = run_seconds()
    bench = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_one(workload, args.seed, seconds, 0)
        bench["machine"] = plain["machine"]
        detail = plain["detail"]
        entry = {"end_to_end": plain["result"]["metrics"], "detail": detail}
        print(f"\n== {workload}: {detail['ops']} ops, unit of throughput: "
              f"{detail['op_unit']}/ref, tail = p{detail['tail_pct']:g} "
              f"({detail['beyond_tail']} beyond), error_rate = {detail['error_rate']:.3g} "
              f"({detail['failed']}/{detail['attempted']})")
        print_metrics("end to end", entry["end_to_end"], detail["samples"])
        if args.trace:
            traced = run_one(workload, args.seed, seconds, 1)
            entry["per_layer"] = traced["result"]["metrics"]
            overhead_ms = traced["detail"]["op_ms.p50"] - detail["op_ms.p50"]
            entry["trace_overhead"] = {
                "op_ms.p50_traced": traced["detail"]["op_ms.p50"],
                "op_ms.p50_untraced": detail["op_ms.p50"],
                "difference_ms": overhead_ms,
                "difference_pct": 100.0 * overhead_ms / detail["op_ms.p50"],
                "error_rate_traced": traced["detail"]["error_rate"],
            }
            print_metrics("per layer (traced run)", entry["per_layer"], traced["detail"]["samples"])
            print(f"  tracing overhead on op_ms.p50: {overhead_ms:+.4g} ms "
                  f"({entry['trace_overhead']['difference_pct']:+.2f}%)")
        bench["workloads"][workload] = entry
    print("\nmachine: " + json.dumps(bench["machine"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
    if args.compare:
        with open(args.compare) as fh:
            compare(bench, json.load(fh))
    failed = sum(e["detail"]["failed"] for e in bench["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
