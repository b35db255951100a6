"""Golden-trajectory guard: three short simulator scenarios, each run
through the pipeline and compared with the output checked in under
``tests/golden/``.

The scenarios mirror the benchmark workloads at a tenth of their length: a
circle with every GPS fix 0.2 s late, a waypoint loop whose GPS blackout is
long enough to enter coast mode, and a figure-eight with a second IMU,
radar, and late GPS and VSLAM.  A refactor that claims to keep behaviour
must keep every stored value within 1e-9.  After an intended behaviour
change, regenerate the files and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py --regenerate

which prints, per scenario, the largest deviation from the file it replaces
in each state block and in the covariance diagonal, and the counters that
changed.  ``--report`` in place of ``--regenerate`` prints the same
deviations from the checked-in files and rewrites nothing.

One more short scenario, with every sensor section on and every scenario
key set, fault keys included, guards the simulator itself: its stream text
is checked in, and a regenerated stream must have the same event kinds in
the same order and every number within 1e-9.  It is compared, not hashed,
because libm results can differ in the last bit across hosts.  The two
commands above regenerate and report it too: the largest deviation of its
numbers, or the first event whose kind or column count changed.

The same scenarios check that a run resumed from a checkpoint, taken after a
quarter or a half of the events or just after the first replay, is
bit-identical to the uninterrupted run, and that the paper's two
ablations (no bias states, no encoder yaw-rate bias) hold their states at
zero.
"""

import io
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from navfuse.config import DEFAULTS, PipelineConfig
from navfuse.events import write_stream
from navfuse.pipeline import FusionPipeline
from navfuse.process import STATE_BLOCKS
from navfuse.simulator import SECTIONS, SimScenario, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
ATOL = 1e-9
#: keep every n-th primary-IMU report of the trajectory
STRIDE = 10

SCENARIOS = {
    "circle_gps_late": (
        {"seed": 3, "duration_s": 8.0,
         "trajectory": {"type": "circle", "radius": 20.0, "speed": 2.0},
         "encoder": {"rate_hz": 50.0},
         "gps": {"rate_hz": 5.0, "delay_s": 0.2}},
        {},
    ),
    "loop_blackout": (
        {"seed": 4, "duration_s": 10.0,
         "trajectory": {"type": "waypoints", "loop": True,
                        "points": [[0.0, 0.0], [8.0, 0.0], [8.0, 6.0],
                                   [0.0, 6.0]]},
         "encoder": {"rate_hz": 50.0},
         "gps": {"rate_hz": 5.0, "dropouts": [{"start": 2.0, "end": 8.5}]}},
        {},
    ),
    "figure_eight_dense": (
        {"seed": 5, "duration_s": 6.0,
         "trajectory": {"type": "figure_eight", "radius": 15.0, "speed": 2.0},
         "imu2": {"enabled": True, "rate_hz": 50.0},
         "encoder": {"rate_hz": 50.0},
         "radar": {"enabled": True, "rate_hz": 20.0},
         "gps": {"rate_hz": 5.0, "delay_s": 0.2},
         "vslam": {"enabled": True, "rate_hz": 10.0, "delay_s": 0.15}},
        {"imu2.enabled": True, "radar.enabled": True, "vslam.enabled": True},
    ),
}


#: every key of every section (``simulator.SECTIONS``) and of the origin
#: set, each window covering some samples
STREAM_SCENARIO = {
    "seed": 11, "duration_s": 3.0,
    "origin": {"lat_deg": 42.2936, "lon_deg": -83.7100, "alt_m": 270.0},
    "trajectory": {"type": "circle", "radius": 10.0, "speed": 2.0,
                   "accel": 1.0},
    "imu": {"rate_hz": 50.0, "sigma_gyro": 0.003, "sigma_accel": 0.04,
            "sigma_orient": 0.02, "orientation": True,
            "bias_gyro": [0.001, -0.002, 0.0005],
            "bias_accel": [0.02, -0.01, 0.03], "gyro_bias_walk": 1e-4,
            "accel_bias_walk": 1e-3,
            "az_bursts": [{"start": 0.5, "end": 0.8, "amplitude": 3.0}]},
    "imu2": {"enabled": True, "rate_hz": 25.0, "sigma_gyro": 0.004,
             "sigma_accel": 0.05},
    "encoder": {"enabled": True, "rate_hz": 25.0, "sigma_v": 0.03,
                "sigma_wz": 0.02, "bias_wz": 0.01,
                "slip": [{"start": 1.0, "end": 1.5, "factor": 1.3}]},
    "gps": {"enabled": True, "rate_hz": 10.0, "delay_s": 0.2,
            "sigma_xy": 0.8, "sigma_z": 1.5, "hdop": 1.2, "vdop": 1.6,
            "fix_type": 4, "satellites": 12,
            "dropouts": [{"start": 0.4, "end": 0.7}],
            "hdop_windows": [{"start": 1.0, "end": 1.5, "value": 3.0}],
            "spikes": [{"t": 2.0, "offset_m": 50.0, "direction_deg": 30.0}],
            "clusters": [{"start": 2.3, "count": 3, "rate_hz": 10.0,
                          "direction_deg": 120.0, "offset_m_min": 100.0,
                          "offset_m_max": 150.0}]},
    "gps_velocity": {"enabled": True, "rate_hz": 5.0, "sigma": 0.3,
                     "delay_s": 0.1},
    "radar": {"enabled": True, "rate_hz": 10.0, "sigma": 0.2},
    "vslam": {"enabled": True, "rate_hz": 10.0, "delay_s": 0.15,
              "sigma_pos": 0.04, "sigma_orient": 0.006,
              "reinits": [{"t": 1.8, "offset": [2.0, -1.0, 0.0]}]},
}
STREAM_GOLDEN = GOLDEN_DIR / "all_faults_stream.txt"


def stream_text() -> str:
    _, events = generate(SimScenario.from_dict(STREAM_SCENARIO))
    sink = io.StringIO()
    write_stream(events, sink)
    return sink.getvalue()


def stream_deviations(old: str, new: str) -> dict:
    """``numbers``: the largest absolute difference of ``new``'s numbers
    from ``old``'s, when both streams have the same kinds in the same order
    with the same column counts; else ``changed``: the first line (from 1)
    where they differ, with its kind and column count in each."""
    old_rows, new_rows = ([line.split() for line in text.splitlines()]
                          for text in (old, new))
    for lineno, (a, b) in enumerate(zip(old_rows + [[]], new_rows + [[]]),
                                    start=1):
        if (a[1:2], len(a)) != (b[1:2], len(b)):
            return {"changed": (lineno, a[1:2], len(a), b[1:2], len(b))}
    numbers = [np.array([float(v) for row in rows for v in [row[0], *row[2:]]])
               for rows in (old_rows, new_rows)]
    return {"numbers": float(np.abs(numbers[1] - numbers[0]).max())}


def test_stream_matches_golden():
    deviation = stream_deviations(STREAM_GOLDEN.read_text(), stream_text())
    assert "changed" not in deviation, deviation
    assert deviation["numbers"] <= ATOL


def test_stream_scenario_sets_every_key():
    """A key added to ``SECTIONS`` must be set here, so that the golden
    stream covers it."""
    for name, section in SECTIONS.items():
        assert sorted(section.defaults) == sorted(STREAM_SCENARIO[name])
    assert sorted(STREAM_SCENARIO["origin"]) == ["alt_m", "lat_deg",
                                                  "lon_deg"]


def run_scenario(name: str, overrides: Optional[dict] = None) -> dict:
    scenario, config = SCENARIOS[name]
    _, events = generate(SimScenario.from_dict(scenario))
    pipe = FusionPipeline(PipelineConfig({**config, **(overrides or {})}))
    rows = []
    for event in events:
        report = pipe.ingest(event)
        if report.kind == "imu" and report.dropped is None:
            rows.append([report.stamp, *report.state.as_vector()])
    return {"trajectory": rows[::STRIDE],
            "cov_diag": np.diag(pipe.cov).tolist(),
            "diagnostics": dict(sorted(pipe.diagnostics.items()))}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    out = run_scenario(name)
    assert out["diagnostics"] == golden["diagnostics"]
    assert np.shape(out["trajectory"]) == np.shape(golden["trajectory"])
    np.testing.assert_allclose(out["trajectory"], golden["trajectory"],
                               rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(out["cov_diag"], golden["cov_diag"],
                               rtol=0.0, atol=ATOL)


#: where a resume test cuts a scenario, given the pipeline and the count of
#: events it has taken: after a quarter or a half of them, or just after the
#: first event that replays, so that the saved ring holds replayed states
CUTS = {
    "quarter": lambda pipe, k, n: k == n // 4,
    "half": lambda pipe, k, n: k == n // 2,
    "after_replay": lambda pipe, k, n: "retro_replays" in pipe.diagnostics,
}


@pytest.mark.parametrize("name, cut", [
    pytest.param(name, cut, id=name if cut == "half" else f"{name}-{cut}")
    for name in sorted(SCENARIOS) for cut in CUTS
    # no event of loop_blackout is late, so it never replays
    if (name, cut) != ("loop_blackout", "after_replay")])
def test_resume_from_checkpoint_is_bit_identical(name, cut, tmp_path):
    """Checkpoint at the cut, load into a fresh pipeline, which saves the
    same bytes again, and feed both the rest: every later report and the
    final covariance and counters must match exactly."""
    scenario, config = SCENARIOS[name]
    _, events = generate(SimScenario.from_dict(scenario))
    path = str(tmp_path / "checkpoint.json")
    whole = FusionPipeline(PipelineConfig(config))
    taken = 0
    while not CUTS[cut](whole, taken, len(events)):
        whole.ingest(events[taken])
        taken += 1
    assert 0 < taken < len(events)
    whole.save_checkpoint(path)
    resumed = FusionPipeline(PipelineConfig(config))
    resumed.load_checkpoint(path)
    again = str(tmp_path / "resaved.json")
    resumed.save_checkpoint(again)  # what a load reads, a save writes back
    assert Path(again).read_bytes() == Path(path).read_bytes()
    for event in events[taken:]:
        a, b = whole.ingest(event), resumed.ingest(event)
        assert a.dropped == b.dropped
        assert np.array_equal(a.state.as_vector(), b.state.as_vector())
        assert np.array_equal(a.cov_diag, b.cov_diag)
    assert np.array_equal(whole.cov, resumed.cov)
    assert whole.diagnostics == resumed.diagnostics


@pytest.mark.parametrize("switch, frozen", [
    ("features.bias_states", slice(16, 23)),  # gyro, accel and b_ewz biases
    ("features.b_ewz", slice(22, 23)),
])
def test_ablation_keeps_its_states_at_zero(switch, frozen):
    """The paper's two ablations: with a bias group switched off, its
    states never leave zero.  With the full filter b_ewz does (golden)."""
    out = run_scenario("circle_gps_late", {switch: False})
    states = np.asarray(out["trajectory"])[:, 1:]
    assert np.abs(states[:, frozen]).max() <= 1e-12
    golden = json.loads((GOLDEN_DIR / "circle_gps_late.json").read_text())
    assert np.abs(np.asarray(golden["trajectory"])[:, 1 + 22]).max() > 1e-3


def test_scenarios_exercise_their_paths():
    """Each scenario must reach the mode it stands for, or the guard
    covers less than its name says."""
    diag = {name: json.loads((GOLDEN_DIR / f"{name}.json").read_text())
            ["diagnostics"] for name in SCENARIOS}
    assert diag["circle_gps_late"]["retro_replays"] > 0
    assert diag["loop_blackout"]["coast_entries"] >= 1
    assert "retro_replays" not in diag["loop_blackout"]
    assert diag["figure_eight_dense"]["retro_replays"] > 0


def test_every_config_key_is_read(monkeypatch):
    """The scenarios with every sensor on, GPS velocity and the IMU
    magnetometer too, read every ``DEFAULTS`` key: a key that nothing
    reads sets nothing."""
    read = set()
    lookup = PipelineConfig.__getitem__

    def recording(self, key):
        read.add(key)
        return lookup(self, key)

    monkeypatch.setattr(PipelineConfig, "__getitem__", recording)
    every_sensor = {"imu2.enabled": True, "gnss.velocity_enabled": True,
                    "radar.enabled": True, "vslam.enabled": True,
                    "imu.has_magnetometer": True}
    for scenario, config in SCENARIOS.values():
        _, events = generate(SimScenario.from_dict(
            {**scenario, "gps_velocity": {"enabled": True}}))
        pipe = FusionPipeline(PipelineConfig({**config, **every_sensor}))
        for event in events:
            pipe.ingest(event)
    assert sorted(DEFAULTS.keys() - read) == []


def deviations(old: dict, new: dict) -> dict:
    """The largest absolute difference of ``new`` from ``old`` per state
    block of the trajectory (named after its initial-variance key) and in
    the covariance diagonal, and every counter whose value changed."""
    old_x = np.asarray(old["trajectory"])[:, 1:]
    new_x = np.asarray(new["trajectory"])[:, 1:]
    if old_x.shape != new_x.shape:
        return {"trajectory_shape": (old_x.shape, new_x.shape)}
    out = {var_key.split(".")[1].removesuffix("_var"):
           float(np.abs(new_x[:, block] - old_x[:, block]).max())
           for block, _, var_key in STATE_BLOCKS}
    out["cov_diag"] = float(np.abs(np.subtract(new["cov_diag"],
                                               old["cov_diag"])).max())
    counters = old["diagnostics"].keys() | new["diagnostics"].keys()
    out.update({key: (old["diagnostics"].get(key),
                      new["diagnostics"].get(key))
                for key in sorted(counters)
                if old["diagnostics"].get(key) != new["diagnostics"].get(key)})
    return out


if __name__ == "__main__" and {"--regenerate", "--report"} & set(sys.argv):
    regenerate = "--regenerate" in sys.argv
    GOLDEN_DIR.mkdir(exist_ok=True)
    for key in sorted(SCENARIOS):
        path = GOLDEN_DIR / f"{key}.json"
        new = run_scenario(key)
        if path.exists():
            for name, value in deviations(json.loads(path.read_text()),
                                          new).items():
                print(f"{key} {name} {value:.2g}"
                      if isinstance(value, float) else f"{key} {name} {value}")
        if regenerate:
            path.write_text(json.dumps(new, indent=0) + "\n")
            print(f"wrote {path}")
    stream = stream_text()
    if STREAM_GOLDEN.exists():
        for name, value in stream_deviations(STREAM_GOLDEN.read_text(),
                                             stream).items():
            print(f"{STREAM_GOLDEN.stem} {name} {value}")
    if regenerate:
        STREAM_GOLDEN.write_text(stream)
        print(f"wrote {STREAM_GOLDEN}")
