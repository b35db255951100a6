"""One fresh interpreter: set up the pipeline, then optionally one pass.

    python3 bench/worker.py WORKLOAD STREAM_FILE [--pass OUT] [--trace]

Times ``import navfuse``, configuration plus pipeline construction, and
``events.read_stream`` over the stream file, then prints one JSON line and
flushes it: the moment that line appears is the moment the first event
could be ingested, which the parent takes as the end of set-up.

With ``--pass OUT`` the worker then feeds the parsed events to a fresh
``FusionPipeline.ingest``, one event at a time, timing every call and,
before every ``CHUNK`` events and after the last, the host-speed kernel
(``calibrate.py``).
It folds each report into counts and trajectory rows, drops it, and
pickles the resulting ``Pass`` to OUT.  The ``Pass`` records this
process's peak resident memory, which so covers the program and its
parsed input, not the benchmark's own bookkeeping.  ``--trace`` wraps the layer entry
points for the pass and keeps the tracer in the ``Pass``.  The parent
runs one worker at a time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (plain data, no navfuse import)

#: events between two timings of the host-speed kernel
CHUNK = 20


@dataclass
class Pass:
    service_s: Any           # np.ndarray, seconds per ingest call
    kernel_s: Any            # np.ndarray, host-speed kernel between CHUNKs
    trajectory: Any          # np.ndarray (N, 8): stamp, position, wxyz
    attempts: Counter
    accepts: Counter
    dropped: int
    raised: int
    final_valid: bool
    digest: str
    peak_rss_mb: float
    tracer: Any = None       # tracing.Tracer of a traced pass


def run_pass(events: list, config, tracer=None) -> Pass:
    import hashlib
    import resource
    import traceback

    import numpy as np

    from calibrate import kernel_s
    from navfuse.core import NumericalError
    from navfuse.pipeline import FusionPipeline

    pipe = FusionPipeline(config)
    ingest = pipe.ingest
    if tracer is not None:
        ingest = tracer.wrap("pipeline.ingest", ingest)
    service = np.empty(len(events))
    kernel = np.empty((len(events) + CHUNK - 1) // CHUNK + 1)
    rows, attempts, accepts, dropped, raised = [], Counter(), Counter(), 0, 0
    clock = time.perf_counter
    for i, event in enumerate(events):
        if i % CHUNK == 0:
            kernel[i // CHUNK] = kernel_s()
        t0 = clock()
        try:
            report = ingest(event)
        except Exception:  # a failed event is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            raised += 1
            report = None
        service[i] = clock() - t0
        if report is None:
            continue
        if report.dropped is not None:
            dropped += 1
        elif report.kind == "imu":
            s = report.state
            rows.append([report.stamp, *s.position, *s.quaternion])
        for rec in report.updates:
            attempts[rec.path] += 1
            accepts[rec.path] += rec.accepted
    kernel[-1] = kernel_s()

    trajectory = np.array(rows, dtype=float).reshape(-1, 8)
    try:
        pipe.state.validate()
        final_valid = bool(np.all(np.isfinite(pipe.cov)))
    except NumericalError:
        final_valid = False
    digest = hashlib.sha256(trajectory.tobytes()
                            + np.ascontiguousarray(pipe.cov).tobytes())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Pass(service, kernel, trajectory, attempts, accepts, dropped,
                raised, final_valid, digest.hexdigest(), peak_rss_mb, tracer)


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]
    out = sys.argv[sys.argv.index("--pass") + 1] \
        if "--pass" in sys.argv else None
    t_import = time.perf_counter()
    import navfuse  # noqa: F401
    from navfuse.config import PipelineConfig
    from navfuse.events import read_stream
    from navfuse.pipeline import FusionPipeline

    t_construct = time.perf_counter()
    config = PipelineConfig(workload.config)
    FusionPipeline(config)  # built only to be timed; the pass builds its own
    t_parse = time.perf_counter()
    with open(sys.argv[2], "r", encoding="utf-8") as fh:
        events = list(read_stream(fh))
    t_ready = time.perf_counter()
    print(json.dumps({
        "import_s": t_construct - t_import,
        "construct_s": t_parse - t_construct,
        "parse_s": t_ready - t_parse,
        "events": len(events),
    }), flush=True)
    if out is None:
        return

    import pickle

    import calibrate  # noqa: F401  (binds cholesky before a tracer wraps it)

    if "--trace" in sys.argv:
        from tracing import Tracer
        tracer = Tracer()
        with tracer.installed():
            result = run_pass(events, config, tracer)
    else:
        result = run_pass(events, config)
    with open(out, "wb") as fh:
        # fields only: this module runs as __main__, which the parent lacks
        pickle.dump(vars(result), fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
