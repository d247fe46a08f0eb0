"""Record output digests into stpmbench/reference.json.

    python3 stpmbench/record.py --workload estpm-re --seeds 0-63

Run it on the commit whose outputs are the contract; the benchmark then
fails any op whose digest differs from the recorded one for its dataset.
run.py selects dataset `seed mod run.INPUT_SEEDS`, so every dataset below
that must be recorded. The JVM uses the steadiness settings pinned in
BENCHMARK.json's command.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import run  # noqa: E402


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-40")
    a = p.parse_args(argv)
    lo, _, hi = a.seeds.partition("-")
    classes = build.build()
    (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    out = subprocess.run(
        [*run.java_cmd(run.pinned_settings(), False, classes), "stpmbench.Record",
         a.workload, lo, hi or lo],
        cwd=build.ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    recorded = json.loads(out.strip().splitlines()[-1])
    ref_file = build.BENCH / "reference.json"
    ref = json.loads(ref_file.read_text())
    for wl, digests in recorded.items():
        merged = {**ref.get(wl, {}), **digests}
        ref[wl] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
    ref_file.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"recorded {sum(len(d) for d in recorded.values())} digests for {a.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
