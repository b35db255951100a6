"""navfuse benchmark: fixed simulator workloads through FusionPipeline.ingest.

    python3 bench/run.py --workload ref_gps_delay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, one at a time

Run from the repository root; navfuse is imported from ``src/``.  The
workload's stream is generated from ``--seed``, written as stream text and
parsed back, so the program receives only the event stream.  ``--trace 0``
prints the end-to-end metrics of untraced passes; ``--trace 1`` prints the
per-layer metrics of one traced pass (plus untraced passes to compare with)
and writes its spans to ``.bench-spans.jsonl`` at the repository root.
Every run checks accuracy against the simulator's truth.  The last line of
standard output is the result as one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where a ``--trace 1`` run writes every span, one JSON line each
SPANS_FILE = ".bench-spans.jsonl"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring budget; whole pairs of passes, at "
                        "least one pair")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario length factor (the smoke test uses 0.1)")
    return p.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "navfuse" / "__init__.py").is_file():
        print(f"error: no navfuse sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # one consumer thread: pin BLAS pools before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    stream = measure.make_stream(workload, args.seed, args.scale)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, traced, setup = measure.measure(workload, stream, budget,
                                            bool(args.trace))
    if args.trace:
        metrics, samples = measure.per_layer(stream, passes, traced, setup)
        units = measure.units("per_layer")
        every = passes + [traced]
        traced.tracer.write(ROOT / SPANS_FILE)
    else:
        metrics, samples = measure.end_to_end(stream, passes, setup)
        units = measure.units("end_to_end")
        every = passes
    if set(metrics) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    failed = sum(p.raised + p.dropped for p in every)
    ate = measure.accuracy(stream, passes[0])
    checks = {
        "final_state_valid": all(p.final_valid for p in every),
        "no_failed_events": failed == 0,
        "ate_below_ceiling": ate < workload.ate_ceiling_m,
    }
    checks["repeat_bit_identical"] = len({p.digest for p in passes}) == 1
    if args.trace:
        checks["traced_bit_identical"] = traced.digest == passes[0].digest

    print(f"workload {workload.name} seed {args.seed} scale {args.scale} "
          f"trace {args.trace} passes {len(every)} events "
          f"{len(stream.events)}")
    print("env " + json.dumps({**measure.environment(), "seed": args.seed}))
    print(f"trajectory_sha256 {passes[0].digest}")
    print(f"ate_m {ate:.4f} m (ceiling {workload.ate_ceiling_m} m)")
    for name, ok in checks.items():
        print(f"check {name} {'ok' if ok else 'FAIL'}")
    print("samples " + json.dumps(samples))
    print("host_kernel_ms " + " ".join(
        f"{np.median(p.kernel_s) * 1e3:.4f}" for p in passes))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": sum(len(stream.events) for _ in every),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
