"""Measurement passes, correctness checks and metric derivation.

One *pass* feeds a workload's parsed event list to a fresh
``FusionPipeline.ingest``, one event at a time, from one thread (a closed
loop: the next event is sent when the previous call returns), and times
every call.  Each pass runs in a fresh worker interpreter (``worker.py``),
one worker at a time, and each worker's start also times set-up.  Call
times are scaled to reference time by the host-speed kernel timed around
them (``calibrate.py``).  Untraced passes give the end-to-end metrics; one
traced pass gives the per-layer ones, beside figures of the untraced
passes that no bound gates.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from navfuse.evaluation import TrajectoryEstimate, ate_rmse
from navfuse.events import (
    EncoderSample,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    VslamPoseSample,
    read_stream,
    write_stream,
)
from navfuse.simulator import SimScenario, generate

from calibrate import REFERENCE_S
from tracing import Tracer
from worker import CHUNK, Pass
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: fresh interpreters that only set up, before each pass worker and after
#: the last (pass workers set up too); set-up metrics are the minimum over
#: all of them, spread so over the whole run
SETUP_PROBES = 2

STEADINESS_NOTE = ("on a shared 2-core x86-64 VM, raw wall time varied "
                   "10-17% between identical runs, and up to 2x between "
                   "quiet and busy periods; timings are scaled by a "
                   "host-speed kernel (calibrate.py): show steadiness by "
                   "repeating runs, do not assume it")

#: every path an UpdateRecord can carry on the three workloads
UPDATE_PATHS = ("imu_raw", "imu_orientation", "encoder", "encoder_vz",
                "encoder_az", "zupt", "gps_pos", "gps_heading", "radar_vel",
                "vslam")


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


_KINDS = {EncoderSample: "encoder", GpsFixSample: "gps",
          GpsVelocitySample: "gps_vel", RadarVelocitySample: "radar",
          VslamPoseSample: "vslam"}


def event_kind(event) -> str:
    if isinstance(event, ImuSample):
        return "imu" if event.source == 1 else "imu2"
    return _KINDS[type(event)]


@dataclass
class Stream:
    """A generated workload: the stream text the program receives, the
    parsed events, and what the benchmark keeps for checking."""

    text: str
    events: list
    kinds: np.ndarray
    due_s: np.ndarray      # arrival instant of each event at 1x rate
    sim_s: float
    truth: TrajectoryEstimate
    generate_s: float


def make_stream(workload: Workload, seed: int, scale: float) -> Stream:
    t0 = time.perf_counter()
    truth, generated = generate(
        SimScenario.from_dict(workload.scenario(seed, scale)))
    generate_s = time.perf_counter() - t0
    sink = io.StringIO()
    write_stream(generated, sink)
    text = sink.getvalue()
    events = list(read_stream(io.StringIO(text)))
    kinds = np.array([event_kind(e) for e in events])
    due = np.array([e.stamp + workload.delays.get(k, 0.0)
                    for e, k in zip(events, kinds)])
    return Stream(text, events, kinds, due,
                  float(truth.stamps[-1] - truth.stamps[0]),
                  TrajectoryEstimate(truth.stamps, truth.position,
                                     truth.quaternion),
                  generate_s)


# ----------------------------------------------------------------------
# workers

def launch(workload: Workload, path: Path, n_events: int,
           out: Path | None = None, trace: bool = False
           ) -> tuple[dict, Pass | None]:
    """Run one worker; return its set-up sample and, with ``out``, its
    pass.  ``setup_s`` runs from spawning the interpreter until it reports
    the stream parsed and the pipeline built."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload.name, str(path)]
    if out is not None:
        cmd += ["--pass", str(out)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"worker failed: {proc.returncode}")
    sample = json.loads(line)
    if sample["events"] != n_events:
        raise RuntimeError("worker parsed a different stream")
    sample["setup_s"] = ready - t0
    if out is None:
        return sample, None
    with open(out, "rb") as fh:
        return sample, Pass(**pickle.load(fh))


def measure(workload: Workload, stream: Stream, budget_s: float,
            trace: bool) -> tuple[list[Pass], Pass | None, dict]:
    """Untraced passes in pairs (one pair, then more while another pair
    fits in ``budget_s``), each pass worker preceded by ``SETUP_PROBES``
    set-up-only workers and the last followed by as many; then with
    ``trace`` one traced pass.  Returns the passes, the traced pass and the
    set-up figures: the minimum of each over every untraced worker, since
    other tenants' stalls only ever add time."""
    n_events = len(stream.events)
    samples, passes = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        path = Path(tmp) / "stream.txt"
        path.write_text(stream.text, encoding="utf-8")
        out = Path(tmp) / "pass.pickle"

        def probe():
            for _ in range(SETUP_PROBES):
                samples.append(launch(workload, path, n_events)[0])

        start = time.perf_counter()
        while True:
            for _ in range(2):
                probe()
                sample, done = launch(workload, path, n_events, out)
                samples.append(sample)
                passes.append(done)
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 2 / len(passes)) > budget_s:
                break
        probe()
        traced = launch(workload, path, n_events, out, True)[1] \
            if trace else None
    setup = {key: min(s[key] for s in samples)
             for key in ("setup_s", "import_s", "construct_s", "parse_s")}
    setup["samples"] = len(samples)
    return passes, traced, setup


# ----------------------------------------------------------------------
# metrics

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def event_scale(p: Pass) -> np.ndarray:
    """Per call, the factor that turns its time into reference time:
    ``REFERENCE_S`` over the mean of the host-speed kernel's times just
    before and just after its chunk of ``CHUNK`` calls (see calibrate.py)."""
    around = 0.5 * (p.kernel_s[:-1] + p.kernel_s[1:])
    return REFERENCE_S / np.repeat(around, CHUNK)[:len(p.service_s)]


def scaled_s(p: Pass) -> np.ndarray:
    """Service times in reference seconds."""
    return p.service_s * event_scale(p)


def best_of_pairs(passes: list[Pass]) -> list[np.ndarray]:
    """Per event, the faster of its two scaled timings in each pair of
    passes.

    Both passes did identical work (their trajectories are bit-identical),
    so the slower timing carries the stalls other tenants of the machine
    imposed.  p99 and the live lag use these; other percentiles pool every
    timing."""
    return [np.minimum(scaled_s(a), scaled_s(b))
            for a, b in zip(passes[::2], passes[1::2])]


def latencies_ms(stream: Stream, service: list[np.ndarray],
                 kind: str) -> np.ndarray:
    mask = stream.kinds == kind
    return np.concatenate([s[mask] for s in service]) * 1e3


def live_lag_ms(stream: Stream, service_s: np.ndarray) -> np.ndarray:
    """Single-consumer FIFO at 1x sensor rate: an event starts when it is
    due or when the previous one finishes, whichever is later."""
    finish = -np.inf
    lag = np.empty(len(service_s))
    for i, (due, service) in enumerate(zip(stream.due_s.tolist(),
                                           service_s.tolist())):
        finish = max(due, finish) + service
        lag[i] = finish - due
    return lag[stream.kinds == "imu"] * 1e3


def accuracy(stream: Stream, first: Pass) -> float:
    est = TrajectoryEstimate(first.trajectory[:, 0], first.trajectory[:, 1:4],
                             first.trajectory[:, 4:8])
    return ate_rmse(est, stream.truth, max_dt=0.02)


def end_to_end(stream: Stream, passes: list[Pass], setup: dict
               ) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each percentile."""
    every = [scaled_s(p) for p in passes]
    lat = {k: latencies_ms(stream, every, k) for k in ("imu", "encoder",
                                                       "gps")}
    lag = np.concatenate([live_lag_ms(stream, s)
                          for s in best_of_pairs(passes)])
    first = passes[0]
    metrics = {
        "setup_s": setup["setup_s"],
        "rtf": stream.sim_s / statistics.median(s.sum() for s in every),
        "imu_ms_p50": _pct(lat["imu"], 50),
        "encoder_ms_p50": _pct(lat["encoder"], 50),
        "gps_ms_p50": _pct(lat["gps"], 50),
        "live_imu_lag_ms_p99": _pct(lag, 99),
        "accept_rate": (sum(first.accepts.values())
                        / max(1, sum(first.attempts.values()))),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    samples = {
        "setup_s": setup["samples"],
        "rtf": len(passes),
        **{f"{k}_ms_p50": len(lat[k]) for k in lat},
        "live_imu_lag_ms_p99": len(lag),
    }
    return metrics, samples


def per_layer(stream: Stream, passes: list[Pass], traced: Pass,
              setup: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass (counts, busy and self time)
    and from the untraced passes (cheap-event latency, acceptance)."""
    tracer: Tracer = traced.tracer
    spans = tracer.spans(event_scale(traced))
    counts = tracer.counts
    n_events = len(stream.events)
    n_imu = max(1, int(np.sum(stream.kinds == "imu")))

    def dur(name):
        return spans[name]["dur"] if name in spans else np.empty(0)

    def self_ms(name):
        return float(np.sum(spans[name]["self"])) * 1e3 if name in spans \
            else 0.0

    def us_p50(name):
        return _pct(dur(name), 50) * 1e6

    update_paths = np.array([tracer.tags[i] for i in
                             spans.get("ukf.update", {}).get("idx", [])])
    update_dur = dur("ukf.update")
    replays = counts["retro.replays"]
    first = passes[0]
    every = [scaled_s(p) for p in passes]
    best = best_of_pairs(passes)
    lat = {k: latencies_ms(stream, every, k)
           for k in ("imu", "encoder", "gps", "imu2", "radar", "vslam")}
    tail = {k: latencies_ms(stream, best, k)
            for k in ("imu", "encoder", "imu2")}
    metrics = {
        "retro.replays": replays,
        "retro.dropped_old": counts["retro.dropped_old"],
        "retro.steps_per_replay": counts["retro.steps"] / max(1, replays),
        "retro.replay_ms_p50": _pct(dur("retro.replay"), 50) * 1e3,
        "retro.replay_ms_p90": _pct(dur("retro.replay"), 90) * 1e3,
        "retro.self_ms": self_ms("retro.replay"),
        "retro.share": float(np.sum(dur("retro.replay"))
                             / np.sum(dur("pipeline.ingest"))),
        "retro.record_us_p50": us_p50("retro.record"),
        "ukf.predict.us_p50": us_p50("ukf.predict"),
        "ukf.predict.self_ms": self_ms("ukf.predict"),
        "ukf.predict.per_imu": len(dur("ukf.predict")) / n_imu,
        "ukf.update.us_p50": us_p50("ukf.update"),
        "ukf.update.self_ms": self_ms("ukf.update"),
        **{f"ukf.update.{p}.us_p50":
           _pct(update_dur[update_paths == p], 50) * 1e6
           for p in UPDATE_PATHS},
        "ukf.sigma.us_p50": us_p50("ukf.sigma"),
        "ukf.sigma.per_imu": len(dur("ukf.sigma")) / n_imu,
        "ukf.sigma.self_ms": self_ms("ukf.sigma"),
        "ukf.repair_pd.calls": counts["ukf.repair_pd.calls"],
        "ukf.repair_pd.fired": counts["ukf.repair_pd.fired"],
        "ukf.cap_omega.fired": counts["ukf.cap_omega.fired"],
        "linalg.cholesky.per_imu": counts["linalg.cholesky"] / n_imu,
        "process.propagate.us_p50": us_p50("process.propagate"),
        "process.propagate.self_ms": self_ms("process.propagate"),
        "process.noise.us_p50": us_p50("process.noise"),
        "adaptive.observe.calls": len(dur("adaptive.observe")),
        "adaptive.observe.us_p50": us_p50("adaptive.observe"),
        "measurements.gps_fix.us_p50": us_p50("measurements.gps_fix"),
        "pipeline.events_per_s": n_events / statistics.median(
            s.sum() for s in every),
        "pipeline.self_us_per_event": self_ms("pipeline.ingest") * 1e3
        / n_events,
        **{f"pipeline.{k}_ms_p50": _pct(lat[k], 50)
           for k in ("imu2", "radar", "vslam")},
        **{f"pipeline.{k}_ms_p90": _pct(lat[k], 90)
           for k in ("imu", "encoder", "gps", "radar", "vslam")},
        **{f"pipeline.{k}_ms_p99": _pct(tail[k], 99) for k in tail},
        "pipeline.dropped": first.dropped,
        **{f"pipeline.accept.{p}": first.accepts[p] / first.attempts[p]
           if first.attempts[p] else 0.0 for p in UPDATE_PATHS},
        "core.state_conversions.per_imu": (counts["core.as_vector"]
                                           + counts["core.from_vector"])
        / n_imu,
        "evaluation.ate_m": accuracy(stream, first),
        "setup.import_s": setup["import_s"],
        "setup.construct_s": setup["construct_s"],
        "setup.parse_s": setup["parse_s"],
        "events.parse_us_per_event": setup["parse_s"] / n_events * 1e6,
        "simulator.generate_s": stream.generate_s,
        "trace.overhead": scaled_s(traced).sum() / statistics.median(
            s.sum() for s in every),
    }
    samples = {
        "retro.replay_ms_p90": len(dur("retro.replay")),
        **{f"pipeline.{k}_ms_p90": len(lat[k]) for k in lat},
        **{f"pipeline.{k}_ms_p99": len(tail[k]) for k in tail},
        "setup": setup["samples"],
    }
    return metrics, samples


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "steadiness": STEADINESS_NOTE,
    }
