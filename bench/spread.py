"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 bench/spread.py --workload ref_gps_delay --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and (Q3 - Q1) / median over the runs
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        flag = "  WIDE" if spread > m["bound"] / 3 else ""
        print(f"{m['name']:22s} median {med:10.4g} {m['unit']:8s} "
              f"spread {spread:.3f} bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
