"""STPM benchmark: one command for every workload, untraced or traced.

    python3 stpmbench/run.py <settings> --workload estpm-re --seed 42 --seconds 20 --trace 0

where <settings> are the steadiness settings that BENCHMARK.json's command
pins (stpmbench/spread.py runs that command). Builds the program and the
benchmark from source (stpmbench/build.py), runs the workload in its own
JVM on input dataset `seed mod INPUT_SEEDS`, checks every op's output
against the digest recorded for that dataset and the run's deterministic
counters against earlier runs of the same build, and prints one JSON line
last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 they are its per-layer metrics, and the spans are written to
.bench_build/trace/. See stpmbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
BENCH = build.BENCH
WORK = build.OUT
WORKLOADS = ("estpm-re", "astpm-inf48", "spark-re")
SPARK_WORKLOADS = ("spark-re",)
# The JVM starts no op after TIME_LIMIT_S - 60 s and is stopped at TIME_LIMIT_S.
TIME_LIMIT_S = 160
# Each workload has this many input datasets, generator seeds 0 to INPUT_SEEDS - 1,
# each with its output digest in reference.json; --seed n selects n mod INPUT_SEEDS.
INPUT_SEEDS = 64
# Allocated MB of the op and of each traced layer may differ by this share
# (plus 1 MB) from an earlier run of the same build on the same dataset.
ALLOC_RUN_TOL = 0.03

# Keeps the JVM from writing its performance-data file to the system temp dir.
NO_FILES_OUTSIDE = ["-XX:-UsePerfData"]

# Spark's launcher opens these JDK modules; a plain `java` launch must too.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def add_settings(p):
    """Steadiness settings; BENCHMARK.json's command pins each of them."""
    p.add_argument("--heap", required=True, help="-Xms and -Xmx of the run's JVM")
    p.add_argument("--gc", required=True, help="collector, as in -XX:+Use<gc>")
    p.add_argument("--gc-threads", type=int, required=True, help="-XX:ParallelGCThreads")
    p.add_argument("--local-jvm-opt", action="append", default=[],
                   help="extra JVM option for the workloads without Spark")
    p.add_argument("--spark-master", required=True)
    p.add_argument("--shuffle-partitions", type=int, required=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    add_settings(p)
    a = p.parse_args(argv)
    if a.workload not in WORKLOADS:
        p.error(f"unknown workload {a.workload}; known: {', '.join(WORKLOADS)}")
    return a


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def pinned_settings():
    """The steadiness settings in BENCHMARK.json's command."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    p = argparse.ArgumentParser()
    add_settings(p)
    return p.parse_args(command[2:])


def java_cmd(s, spark, classes):
    """`java` with the pinned settings `s`, up to the main class."""
    return ["java", f"-Xms{s.heap}", f"-Xmx{s.heap}", f"-XX:+Use{s.gc}",
            f"-XX:ParallelGCThreads={s.gc_threads}", "-XX:+AlwaysPreTouch", *NO_FILES_OUTSIDE,
            *([] if spark else s.local_jvm_opt),
            f"-Djava.io.tmpdir={WORK / 'tmp'}",
            f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
            *ADD_OPENS, "-cp", build.classpath(classes)]


def launch(a, classes):
    """Run the workload's JVM; return its result record."""
    run_dir = WORK / "run"
    for d in (run_dir, WORK / "tmp", WORK / "trace"):
        d.mkdir(parents=True, exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    out = run_dir / f"{tag}.json"
    spans = WORK / "trace" / f"{tag}.spans.json"
    out.unlink(missing_ok=True)
    cmd = [*java_cmd(a, a.workload in SPARK_WORKLOADS, classes), "stpmbench.Bench",
           "--workload", a.workload, "--seed", str(a.seed % INPUT_SEEDS),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", str(out), "--spans", str(spans),
           "--launch-ms", str(int(time.time() * 1000)),
           "--hard-limit-s", str(TIME_LIMIT_S - 60),
           "--spark-master", a.spark_master,
           "--shuffle-partitions", str(a.shuffle_partitions),
           "--work-dir", str(WORK)]
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both inside.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(WORK / "spark-local"))
    log = open(run_dir / f"{tag}.log", "w")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"JVM exceeded {TIME_LIMIT_S} s; log in {log.name}")
    finally:
        log.close()
    if code != 0 or not out.is_file():
        tail = Path(log.name).read_text()[-3000:]
        raise RuntimeError(f"JVM exited with {code}:\n{tail}")
    rec = json.loads(out.read_text())
    rec["spans_file"] = str(spans.relative_to(ROOT)) if a.trace else None
    return rec


def check(a, rec, stamp):
    """Apply the output and self checks; return (correct, failed, notes).

    Digests are checked against reference.json only. Counters and
    allocation are checked against earlier runs of the same build
    (`stamp`) on the same dataset, kept in .bench_build/records/<stamp>/.
    """
    notes = []
    ops = rec["ops"]
    timed = [o for o in ops if o["index"] in set(rec["timed_indices"])]

    dataset = a.seed % INPUT_SEEDS
    reference = json.loads((BENCH / "reference.json").read_text())
    want = reference.get(a.workload, {}).get(str(dataset))
    if want is None:
        return False, 0, [f"no digest recorded for {a.workload} dataset {dataset}"]
    record_file = WORK / "records" / stamp[:16] / f"{a.workload}-seed{dataset}.json"
    record = json.loads(record_file.read_text()) if record_file.is_file() else None

    failed = 0
    for o in ops:
        if not o["error"] and o["digest"] != want:
            o["error"] = f"digest {o['digest']} != reference {want}"
        if o["error"]:
            failed += 1
            notes.append(f"op {o['index']} ({o['kind']}) failed: {o['error']}")

    correct = failed == 0
    good = [o for o in ops if not o["error"]]
    counters = [o["counters"] for o in good]
    if not counters:
        return False, failed, notes + ["no measured op succeeded"]
    if any(c != counters[0] for c in counters):
        correct = False
        notes.append("deterministic counters differ between ops of this run")
    if counters[0].get("stpm.frequent", 0) <= 0:
        correct = False
        notes.append("empty pattern set: the output check would be vacuous")
    if not rec["steady"]:
        correct = False
        notes.append(f"allocation per op did not repeat within {rec['alloc_tol']:.2%}")
    alloc = statistics.median(o["alloc_mb"] for o in timed)
    layer_alloc = {k: v for k, v in rec["layers"].items() if k.endswith(".alloc_mb")}
    # Traced counts (per-level checks, HLH1 sizes, Spark tasks) repeat exactly.
    counts = dict(counters[0], **{k: v for k, v in rec["layers"].items()
                                  if not k.endswith((".s", "_s", "_mb", "share"))})
    if record is None:
        record = {"counters": counts, "alloc_mb": alloc}
    else:
        diff = {k: (record["counters"][k], v) for k, v in counts.items()
                if k in record["counters"] and record["counters"][k] != v}
        if diff:
            correct = False
            notes.append(f"deterministic counters differ from an earlier run of this build: {diff}")
        record["counters"].update(counts)
        earlier = {"op": record["alloc_mb"], **record.get("layer_alloc_mb", {})}
        for k, v in {"op": alloc, **layer_alloc}.items():
            if k in earlier and abs(v - earlier[k]) > ALLOC_RUN_TOL * abs(earlier[k]) + 1.0:
                correct = False
                notes.append(f"{k} allocated {v:.1f} MB; an earlier run of this build allocated "
                             f"{earlier[k]:.1f} MB (tolerance {ALLOC_RUN_TOL:.0%} + 1 MB)")
    if correct and layer_alloc and "layer_alloc_mb" not in record:
        record["layer_alloc_mb"] = layer_alloc
    if correct:
        record_file.parent.mkdir(parents=True, exist_ok=True)
        record_file.write_text(json.dumps(record, indent=1))
    return correct, failed, notes


def end_to_end(rec):
    timed = [o for o in rec["ops"] if o["index"] in set(rec["timed_indices"])]
    return {
        "run_s": statistics.median(o["wall_s"] for o in timed),
        "setup_s": (rec["first_timed_ms"] - rec["launch_ms"]) / 1000.0,
        "peak_live_mb": statistics.median(o["peak_live_mb"] for o in timed),
    }


def per_layer(rec):
    """Traced sample medians, the op's deterministic counters and the
    tracing overhead. Layers a workload does not run read 0.
    """
    timed = [o for o in rec["ops"] if o["index"] in set(rec["timed_indices"])]
    # Each traced op directly follows the timed op it is paired with.
    traced = [o for o in rec["ops"] if o["kind"] == "traced" and not o["error"]
              and o["index"] - 1 in set(rec["timed_indices"])]
    values = dict(rec["layers"])
    values.update({k: float(v) for k, v in timed[0]["counters"].items()})
    untraced_s = statistics.median(o["wall_s"] for o in timed)
    traced_s = statistics.median(o["wall_s"] for o in traced) if traced else 0.0
    values["trace.op_untraced_s"] = untraced_s
    values["trace.op_traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["op.alloc_mb"] = statistics.median(o["alloc_mb"] for o in timed)
    return values


def main(argv):
    a = parse_args(argv)
    e2e_specs, layer_specs = metric_specs()
    try:
        classes = build.build()
    except build.BuildError as e:
        print(f"stpmbench: {e}", file=sys.stderr)
        return 2
    try:
        rec = launch(a, classes)
    except RuntimeError as e:
        print(f"stpmbench: {e}", file=sys.stderr)
        return 3
    correct, failed, notes = check(a, rec, build.STAMP_FILE.read_text())
    specs = layer_specs if a.trace else e2e_specs
    values = per_layer(rec) if a.trace else end_to_end(rec)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in specs}
    for n in notes:
        print(f"stpmbench: {n}", file=sys.stderr)
    print(json.dumps({"workload": a.workload, "seed": a.seed,
                      "dataset": a.seed % INPUT_SEEDS, "trace": a.trace,
                      "timed_ops": len(rec["timed_indices"]), "spans": rec["spans_file"],
                      "notes": notes}))
    print(json.dumps({"correct": correct, "attempted": len(rec["ops"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
