"""Run BENCHMARK.json's command on several seeds and report each metric's
median, quartiles and spread (interquartile distance / median), next to
the metric's bound.

    python3 stpmbench/spread.py --workload estpm-re --seeds 1-10
    python3 stpmbench/spread.py --workload spark-re --seeds 7 --trace 1

Every run's result line is appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = ROOT / ".bench_build" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    values, bad = {}, 0
    for seed in seed_list(a.seeds):
        cmd = spec["command"] + ["--workload", a.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(a.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", flush=True)
            bad += 1
            continue
        res = json.loads(lines[-1])
        with log.open("a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": seed, "trace": a.trace,
                                "wall_s": wall, **res}) + "\n")
        bad += 0 if res["correct"] and res["failed"] == 0 else 1
        shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={wall:.1f}s {shown}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(k)
        flag = "" if b is None else ("ok" if spread < b / 3 else "WIDE")
        print(f"{k:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} "
              f"{'' if b is None else b:>6} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
