"""The benchmark's three fixed simulator workloads.

Plain data only: this module must not import navfuse, because the set-up
probe imports it before it starts timing ``import navfuse``.

Each workload is a simulator scenario (seeded by the benchmark's
``--seed``), the pipeline configuration overrides it runs under, the
arrival delay of each delayed sensor (for the live-rate lag model) and the
ATE ceiling the run must stay under.  ``scale`` shortens a scenario, and
every time in it, for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GPS_DELAY_S = 0.2
VSLAM_DELAY_S = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float
    trajectory: dict
    sensors: dict
    #: the run fails its accuracy check at or above this ATE, metres
    ate_ceiling_m: float
    config: dict = field(default_factory=dict)
    #: stream kind -> arrival delay behind the stamp, seconds
    delays: dict = field(default_factory=dict)

    def scenario(self, seed: int, scale: float = 1.0) -> dict:
        """Scenario document for ``SimScenario.from_dict``."""
        sensors = {}
        for key, spec in self.sensors.items():
            spec = dict(spec)
            if "dropouts" in spec:
                spec["dropouts"] = [{"start": w["start"] * scale,
                                     "end": w["end"] * scale}
                                    for w in spec["dropouts"]]
            sensors[key] = spec
        return {"seed": int(seed), "duration_s": self.duration_s * scale,
                "trajectory": dict(self.trajectory), **sensors}


WORKLOADS = {w.name: w for w in (
    # reference scenario: every GPS fix arrives 0.2 s late, so replay does
    # about 40% of the work
    Workload(
        name="ref_gps_delay",
        duration_s=30.0,
        trajectory={"type": "circle", "radius": 20.0, "speed": 2.0},
        sensors={"encoder": {"rate_hz": 50.0},
                 "gps": {"rate_hz": 5.0, "delay_s": GPS_DELAY_S}},
        delays={"gps": GPS_DELAY_S},
        # 0.58-0.82 m over seeds 1-10; replay loses in-window encoder updates
        ate_ceiling_m=1.5,
    ),
    # nothing arrives late, so replay is bypassed; a 20 s GPS dropout
    # drives coast mode and the relaxed gate
    Workload(
        name="loop_blackout",
        duration_s=60.0,
        trajectory={"type": "waypoints", "loop": True,
                    "points": [[0.0, 0.0], [40.0, 0.0], [40.0, 30.0],
                               [0.0, 30.0]]},
        sensors={"encoder": {"rate_hz": 50.0},
                 "gps": {"rate_hz": 5.0,
                         "dropouts": [{"start": 20.0, "end": 40.0}]}},
        # 0.32-1.03 m over seeds 1-9: blackout drift varies with the seed
        ate_ceiling_m=3.0,
    ),
    # two interleaved late sources (GPS, VSLAM) rewind about 15 times a
    # second among cheap IMU2 and radar events
    Workload(
        name="dense_two_delayed",
        duration_s=30.0,
        trajectory={"type": "figure_eight", "radius": 15.0, "speed": 2.0},
        sensors={"imu2": {"enabled": True, "rate_hz": 50.0},
                 "encoder": {"rate_hz": 50.0},
                 "radar": {"enabled": True, "rate_hz": 20.0},
                 "gps": {"rate_hz": 5.0, "delay_s": GPS_DELAY_S},
                 "vslam": {"enabled": True, "rate_hz": 10.0,
                           "delay_s": VSLAM_DELAY_S}},
        config={"imu2.enabled": True, "radar.enabled": True,
                "vslam.enabled": True},
        delays={"gps": GPS_DELAY_S, "vslam": VSLAM_DELAY_S},
        # 0.064-0.070 m over seeds 1-9
        ate_ceiling_m=0.25,
    ),
)}
