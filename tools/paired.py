"""Paired timing of two source trees in one interpreter, event by event.

    PYTHONPATH=src python3 tools/paired.py --base /path/to/other/tree
    PYTHONPATH=src python3 tools/paired.py --base ../parent \\
        --workload ref_gps_delay --seed 61 --rounds 7 --scale 0.5

Loads the ``navfuse`` on the path (the change) and the ``navfuse`` of the
base tree's ``src`` under the package name ``navfuse_base``.  One workload
of ``bench/workloads.py`` (read, never changed) is simulated and written as
stream text, as the benchmark does.  Each round, each package parses that
text with its own reader, timed whole (who goes first alternates), and
the two packages' events must write back the same lines.  Then the round
builds a fresh pipeline from each package and feeds both the same stream,
alternating their ``ingest`` calls event by event (who goes first
alternates too), so the two sides share the host's state at every moment
and host drift cancels out.  Per event kind, and for the ``parse`` of the
whole stream, it prints both sides' median time (the median over rounds
of each round's median) and the quartiles of those per-round medians, the
relative change (the median over rounds of the ratio of the two medians
in the round) and the share of rounds the change was faster in, then the
largest |dx| and |dP| between the two pipelines after the last round.
``gain`` is the verdict of the rule for claiming a speed-up: at least ten
rounds, the change faster in at least nine tenths of them (ties count for
neither), and the base's median above the change's by more than the
base's interquartile range.
The last line of standard output is the same result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (plain data: it imports no navfuse)

import navfuse  # noqa: E402

ALIAS = "navfuse_base"


def load_tree(root: Path, alias: str = ALIAS):
    """The ``navfuse`` package under ``root/src`` imported as ``alias``;
    its modules import each other relatively, so they load under it.  A
    package loaded under ``alias`` before is replaced."""
    for name in [n for n in sys.modules if n.split(".")[0] == alias]:
        del sys.modules[name]
    package = root / "src" / "navfuse"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def stream_text(workload, seed: int, scale: float) -> str:
    from navfuse.events import write_stream
    from navfuse.simulator import SimScenario, generate
    _, events = generate(SimScenario.from_dict(workload.scenario(seed,
                                                                 scale)))
    sink = io.StringIO()
    write_stream(events, sink)
    return sink.getvalue()


def paired_rounds(text: str, config: dict, base, change, rounds: int):
    """Per round, each side's times in seconds: per event kind, of each
    event, and under ``parse``, of parsing ``text`` once; and the two
    pipelines of the last round."""
    packages = (base, change)
    events = [importlib.import_module(f"{p.__name__}.events")
              for p in packages]
    clock = time.perf_counter_ns
    times = []
    for r in range(rounds):
        spent = [defaultdict(list), defaultdict(list)]
        streams = [None, None]
        for s in ((0, 1) if r % 2 == 0 else (1, 0)):
            gc.collect()
            t0 = clock()
            streams[s] = list(events[s].read_stream(io.StringIO(text)))
            spent[s]["parse"].append((clock() - t0) * 1e-9)
        if r == 0:
            lines = [list(map(e.event_to_line, stream))
                     for e, stream in zip(events, streams)]
            if lines[0] != lines[1]:
                raise ValueError("the two trees' events write back "
                                 "different lines")
            kinds = [events[1].event_kind(event) for event in streams[1]]
        pipes = [p.FusionPipeline(p.PipelineConfig(dict(config)))
                 for p in packages]
        gc.collect()
        gc.disable()
        try:
            for i, kind in enumerate(kinds):
                for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                    event = streams[s][i]
                    t0 = clock()
                    pipes[s].ingest(event)
                    spent[s][kind].append((clock() - t0) * 1e-9)
        finally:
            gc.enable()
        times.append(spent)
    return times, pipes


#: the fewest rounds, and the share of them the change must win, for a gain
MIN_ROUNDS, MIN_WON = 10, 0.9


def gain(base: list, change: list) -> bool:
    """Whether per-round medians ``change`` show a gain over ``base``."""
    won = sum(y < x for x, y in zip(base, change))
    q1, q3 = np.percentile(base, [25, 75])
    return bool(len(base) >= MIN_ROUNDS and won >= MIN_WON * len(base)
                and np.median(base) - np.median(change) > q3 - q1)


def summarize(times: list, pipes: list) -> dict:
    kinds = {}
    n_events = sum(len(t) for kind, t in times[0][1].items()
                   if kind != "parse")
    for kind in sorted(times[0][1]):
        base = [float(np.median(t[0][kind])) for t in times]
        change = [float(np.median(t[1][kind])) for t in times]
        ratio = np.median(np.divide(change, base))
        (base_q1, base_q3), (change_q1, change_q3) = (
            np.percentile(side, [25, 75]) * 1e3 for side in (base, change))
        kinds[kind] = {"events": n_events if kind == "parse"
                       else len(times[0][1][kind]),
                       "base_ms": float(np.median(base)) * 1e3,
                       "base_q1_ms": float(base_q1),
                       "base_q3_ms": float(base_q3),
                       "change_ms": float(np.median(change)) * 1e3,
                       "change_q1_ms": float(change_q1),
                       "change_q3_ms": float(change_q3),
                       "change": float(ratio) - 1.0,
                       "won": sum(y < x for x, y in zip(base, change))
                       / len(times),
                       "gain": gain(base, change)}
    base_pipe, change_pipe = pipes
    return {"kinds": kinds,
            "max_dx": float(np.max(np.abs(change_pipe.x - base_pipe.x))),
            "max_dp": float(np.max(np.abs(change_pipe.cov - base_pipe.cov)))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True,
                   help="root of the tree to compare with (holds src/)")
    p.add_argument("--workload", choices=list(workloads.WORKLOADS),
                   default="loop_blackout")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario length factor, as the benchmark's")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    base = load_tree(args.base.resolve())
    text = stream_text(workload, args.seed, args.scale)
    times, pipes = paired_rounds(text, workload.config, base, navfuse,
                                 args.rounds)
    result = {"workload": args.workload, "seed": args.seed,
              "rounds": args.rounds, "scale": args.scale,
              **summarize(times, pipes)}
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, scale "
          f"{args.scale}: base {args.base}")
    print(f"  {'kind':<8} {'events':>7} {'base ms (q1-q3)':>26} "
          f"{'change ms (q1-q3)':>26} {'change':>8} {'won':>5} {'gain':>5}")
    for kind, row in result["kinds"].items():
        sides = [f"{row[f'{side}_ms']:.4f} ({row[f'{side}_q1_ms']:.4f}-"
                 f"{row[f'{side}_q3_ms']:.4f})" for side in ("base", "change")]
        print(f"  {kind:<8} {row['events']:>7} {sides[0]:>26} "
              f"{sides[1]:>26} {row['change']:>+8.1%} {row['won']:>5.0%} "
              f"{str(row['gain']).lower():>5}")
    print(f"  final max |dx| {result['max_dx']:.3g}, "
          f"max |dP| {result['max_dp']:.3g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
