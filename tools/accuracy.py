"""Accuracy and consistency of the benchmark workloads over many seeds.

    PYTHONPATH=src python3 tools/accuracy.py                  # seeds 1-10
    PYTHONPATH=src python3 tools/accuracy.py --workload dense_two_delayed \\
        --seeds 1 2 3 --scale 0.5
    PYTHONPATH=src python3 tools/accuracy.py --stamp-order   # the oracle
    PYTHONPATH=src python3 tools/accuracy.py --base /path/to/other/tree
    PYTHONPATH=src python3 tools/accuracy.py --workload loop_blackout \
        --sensor encoder.bias_wz=0.01 --set features.b_ewz=false

Runs each workload of ``bench/workloads.py`` (read, never changed) on each
seed as the benchmark does: the simulated stream is written as stream text
and parsed back, and every event goes through one ``FusionPipeline.ingest``.
For each workload it prints the mean ATE over the seeds (aligned, as the
benchmark's accuracy check computes it) with each seed's ATE, and for every
update path, pooled over the seeds, its gate (the smallest
``UpdateRecord.threshold``, the gate unrelaxed), the share of updates
accepted and the mean NIS per degree of freedom (d2 / dim) of the accepted
ones.  The last
line of standard output is the same result as one JSON object, which also
holds the pipelines' diagnostic counters summed over the seeds.

``--stamp-order`` feeds each stream sorted by stamp, ties in arrival order,
so nothing is late and nothing replays: the output a stamp-ordered fusion
buffer must give (ROADMAP item 1's oracle).

``--base`` compares two source trees: the base tree's ``navfuse`` is loaded
as a second package, as ``tools/paired.py`` loads it, and each stream text
is fed to both, each parsing it with its own reader.  Per workload it
prints both mean ATEs and their ratio (change / base), and per path the
base's and the change's gate and the change's acceptance and NIS per dof
less the base's; the JSON holds each
tree's summary under ``base`` and ``change``, with ``ate_ratio`` and the
per-path differences under ``delta``.

``--sensor SECTION.KEY=VALUE`` sets a key of the workload's scenario, in a
sensor section or in ``trajectory``, and ``--set KEY=VALUE`` a key of its
pipeline configuration; both repeat, and both apply to every run, on both
trees under ``--base``.  A value is read as JSON (numbers, ``true``,
``false``, lists) when it parses, else taken as a string; the simulator and
the configuration check the keys and values.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (plain data: it imports no navfuse)

sys.path.insert(0, str(ROOT / "tools"))
import paired  # noqa: E402  (its ``load_tree``)

import navfuse  # noqa: E402
from navfuse.evaluation import TrajectoryEstimate, ate_rmse  # noqa: E402
from navfuse.events import write_stream  # noqa: E402
from navfuse.simulator import SimScenario, generate  # noqa: E402


def key_value(text: str) -> tuple[str, object]:
    """``KEY=VALUE`` as (key, value), the value parsed as JSON when it
    can be, else the string."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def overridden(workload: workloads.Workload, sensor=(),
               config=()) -> workloads.Workload:
    """``workload`` with each (``SECTION.KEY``, value) of ``sensor`` set in
    its scenario, ``trajectory`` or a sensor section, and each (key, value)
    of ``config`` in its configuration."""
    trajectory = dict(workload.trajectory)
    sensors = {name: dict(spec) for name, spec in workload.sensors.items()}
    for key, value in sensor:
        section, dot, name = key.partition(".")
        if not dot or not section or not name:
            raise ValueError(f"expected SECTION.KEY, got {key!r}")
        target = (trajectory if section == "trajectory"
                  else sensors.setdefault(section, {}))
        target[name] = value
    return dataclasses.replace(workload, trajectory=trajectory,
                               sensors=sensors,
                               config={**workload.config, **dict(config)})


def stream(workload: workloads.Workload, seed: int, scale: float,
           stamp_order: bool = False):
    """The truth and the stream text of one seed, in arrival order or,
    with ``stamp_order``, sorted by stamp (a stable sort, so ties keep
    arrival order)."""
    truth, events = generate(SimScenario.from_dict(
        workload.scenario(seed, scale)))
    if stamp_order:
        events = sorted(events, key=lambda event: event.stamp)
    sink = io.StringIO()
    write_stream(events, sink)
    return truth, sink.getvalue()


def run_seed(workload: workloads.Workload, seed: int, scale: float,
             stamp_order: bool = False) -> dict:
    """``run_text`` on the seed's ``stream``."""
    return run_text(workload, *stream(workload, seed, scale, stamp_order))


def run_text(workload: workloads.Workload, truth, text: str,
             package=navfuse) -> dict:
    """One run of ``package``'s pipeline on stream ``text``, parsed by its
    own reader: its ATE against ``truth``, per path the updates tried, the
    updates accepted, the sum of their d2 / dim and the smallest
    threshold, and the pipeline's diagnostics."""
    events = importlib.import_module(f"{package.__name__}.events")
    pipe = package.FusionPipeline(package.PipelineConfig(workload.config))
    rows = []
    tried, accepted, nis, gate = Counter(), Counter(), Counter(), {}
    for event in events.read_stream(io.StringIO(text)):
        report = pipe.ingest(event)
        if report.kind == "imu" and report.dropped is None:
            s = report.state
            rows.append([report.stamp, *s.position, *s.quaternion])
        for rec in report.updates:
            tried[rec.path] += 1
            gate[rec.path] = min(gate.get(rec.path, math.inf), rec.threshold)
            if rec.accepted:
                accepted[rec.path] += 1
                nis[rec.path] += rec.d2 / rec.dim
    traj = np.array(rows).reshape(-1, 8)
    ate = ate_rmse(TrajectoryEstimate(traj[:, 0], traj[:, 1:4], traj[:, 4:]),
                   TrajectoryEstimate(truth.stamps, truth.position,
                                      truth.quaternion), max_dt=0.02)
    return {"ate_m": ate, "tried": tried, "accepted": accepted, "nis": nis,
            "gate": gate, "diagnostics": pipe.diagnostics}


def summarize(runs: list[dict]) -> dict:
    """Mean ATE and each seed's, the pipelines' diagnostics summed over the
    runs, and per path, pooled over the runs, the gate (the smallest
    threshold), the acceptance and the mean NIS per dof of the accepted
    updates (None when none was accepted)."""
    tried, accepted, nis = Counter(), Counter(), Counter()
    diagnostics, gate = Counter(), {}
    for run in runs:
        tried.update(run["tried"])
        accepted.update(run["accepted"])
        nis.update(run["nis"])
        diagnostics.update(run["diagnostics"])
        for path, threshold in run["gate"].items():
            gate[path] = min(gate.get(path, math.inf), threshold)
    return {
        "ate_mean_m": float(np.mean([run["ate_m"] for run in runs])),
        "ate_m": [run["ate_m"] for run in runs],
        "diagnostics": dict(sorted(diagnostics.items())),
        "paths": {path: {"updates": tried[path], "gate": gate[path],
                         "accept_rate": accepted[path] / tried[path],
                         "nis_per_dof": (nis[path] / accepted[path]
                                         if accepted[path] else None)}
                  for path in sorted(tried)},
    }


def compare(base: dict, change: dict) -> dict:
    """The change's summary against the base's: the ratio of the mean
    ATEs, and per path of either the difference in acceptance and in NIS
    per dof (None where a side has no value)."""
    delta = {}
    for path in sorted(set(base["paths"]) | set(change["paths"])):
        before = base["paths"].get(path, {})
        after = change["paths"].get(path, {})
        delta[path] = {key: (None if before.get(key) is None
                             or after.get(key) is None
                             else after[key] - before[key])
                       for key in ("accept_rate", "nis_per_dof")}
    return {"base": base, "change": change,
            "ate_ratio": change["ate_mean_m"] / base["ate_mean_m"],
            "delta": delta}


def print_comparison(name: str, result: dict) -> None:
    base, change = result["base"], result["change"]
    print(f"{name}: mean ATE base {base['ate_mean_m']:.4f} m, change "
          f"{change['ate_mean_m']:.4f} m, ratio {result['ate_ratio']:.4f}")
    for path, delta in result["delta"].items():
        gates = [f"{side['paths'][path]['gate']:.2f}"
                 if path in side["paths"] else "-" for side in (base, change)]
        cells = [f"{delta[key]:+.4f}" if delta[key] is not None else "-"
                 for key in ("accept_rate", "nis_per_dof")]
        print(f"  {path:<16} gate {gates[0]:>6} -> {gates[1]:>6}  accept "
              f"{cells[0]:>8}  NIS/dof {cells[1]:>8}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                   default="all")
    p.add_argument("--seeds", type=int, nargs="+", default=range(1, 11))
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario length factor, as the benchmark's")
    p.add_argument("--stamp-order", action="store_true",
                   help="feed each stream sorted by stamp, ties in arrival "
                        "order: the oracle of a stamp-ordered buffer")
    p.add_argument("--base", type=Path,
                   help="root of a tree to compare with (holds src/)")
    p.add_argument("--sensor", type=key_value, action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="set a scenario key (repeatable)")
    p.add_argument("--set", type=key_value, action="append", default=[],
                   metavar="KEY=VALUE", dest="config",
                   help="set a configuration key (repeatable)")
    args = p.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    base = paired.load_tree(args.base.resolve()) if args.base else None
    result = {}
    for name in names:
        workload = overridden(workloads.WORKLOADS[name], args.sensor,
                              args.config)
        runs, base_runs = [], []
        for seed in args.seeds:
            text = stream(workload, seed, args.scale, args.stamp_order)
            runs.append(run_text(workload, *text))
            if base:
                base_runs.append(run_text(workload, *text, package=base))
        summary = summarize(runs)
        if base:
            result[name] = compare(summarize(base_runs), summary)
            print_comparison(name, result[name])
            continue
        result[name] = summary
        order = "stamp" if args.stamp_order else "arrival"
        print(f"{name}: mean ATE {summary['ate_mean_m']:.4f} m over seeds "
              f"{' '.join(map(str, args.seeds))} (scale {args.scale}, "
              f"{order} order); "
              "per seed " + " ".join(f"{a:.4f}" for a in summary["ate_m"]))
        for path, entry in summary["paths"].items():
            nis = entry["nis_per_dof"]
            print(f"  {path:<16} updates {entry['updates']:>7}  gate "
                  f"{entry['gate']:6.2f}  accept "
                  f"{entry['accept_rate']:.4f}  NIS/dof "
                  + ("-" if nis is None else f"{nis:.4f}"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
