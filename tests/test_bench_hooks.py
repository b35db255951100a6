"""The benchmark's tracer wraps navfuse entry points by name
(``bench/tracing.py``).  Renaming one breaks the traced benchmark run, so
this fast check installs every wrapper and requires each original back
afterwards, and a short traced run with late GPS fixes requires the spans
the per-layer metrics read: ``ukf.update`` tagged by the model's name, its
fourth argument (a stacked model's is its first block's, so the IMU
orientation rows ride in the ``imu_raw`` call and show in the reports), and
the replays ``StateSnapshotRing.apply_delayed`` reports, and a span or a
count for every engine name the per-layer metrics time: a refactor that
stops calling one (``process_noise_matrix``, say, or ``repair_pd``'s check
through ``np.linalg.cholesky``) fails here, not only in the benchmark's
smoke test.  The benchmark worker times its set-up imports (``setup_s``),
so a last check keeps scipy, PyYAML, ``hashlib`` (which only checkpoints
use, to hash the configuration), the simulator and the evaluator out of
them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from navfuse.pipeline import FusionPipeline
from navfuse.simulator import SimScenario, generate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_entry_point():
    tracer = load_tracing().Tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracer._patches()]
    with tracer.installed():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_traced_run_tags_update_paths_and_counts_replays():
    scenario = SimScenario(seed=3, duration_s=3.0,
                           trajectory={"type": "circle", "radius": 15.0,
                                       "speed": 2.0, "accel": 0.5},
                           gps={"rate_hz": 5.0, "delay_s": 0.2})
    _, events = generate(scenario)
    pipe = FusionPipeline()
    with load_tracing().Tracer().installed() as tracer:
        reports = [pipe.ingest(event) for event in events]
    assert {"imu_raw", "encoder", "gps_pos"} <= set(tracer.tags.values())
    assert "imu_orientation" in {rec.path for report in reports
                                 for rec in report.updates}
    assert tracer.counts["retro.replays"] > 0
    assert {"ukf.predict", "ukf.sigma", "ukf.repair_pd", "process.propagate",
            "process.noise"} <= set(tracer.names)
    # one factorization per ``repair_pd`` call: its check is the one
    # ``np.linalg.cholesky`` call left, as everything else factors through
    # the LAPACK seam
    assert tracer.counts["linalg.cholesky"] == tracer.names.count(
        "ukf.repair_pd") > 0


def test_worker_setup_imports_load_no_scipy():
    """``import scipy.linalg`` alone takes longer than the whole set-up,
    and PyYAML, ``hashlib`` (3-7 ms), the simulator and the evaluator are
    not needed to ingest."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, navfuse, navfuse.config, navfuse.events, "
            "navfuse.pipeline\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'yaml') or m in ('hashlib', 'navfuse.simulator', "
            "'navfuse.evaluation')))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, check=True).stdout
    assert out.strip() == "[]"
