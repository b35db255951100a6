"""Command-line entry points: simulate, run, evaluate, sweep.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  A run directory is fully determined by its inputs; repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np
import yaml

from .config import ABLATION_OVERRIDES, ConfigError, PipelineConfig
from .core import NumericalError
from .evaluation import (
    TrajectoryEstimate,
    ate_rmse,
    blackout_segments,
    drift_rate,
    nis_series,
    pose_line,
    read_trajectory,
    write_trajectory,
)
from .events import (StreamFormatError, format_row, read_stream,
                     write_stream)
from .pipeline import FusionPipeline
from .simulator import SimScenario, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_truth(truth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(truth.stamps)):
            fh.write(format_row([
                truth.stamps[i], *truth.position[i], *truth.quaternion[i],
                *truth.velocity_body[i], *truth.omega[i],
                *truth.gyro_bias[i], *truth.accel_bias[i],
                truth.encoder_yaw_bias]) + "\n")


def cmd_simulate(args) -> int:
    if not os.path.exists(args.scenario):
        raise CliError(f"scenario file not found: {args.scenario}",
                       EXIT_CONFIG)
    try:
        scenario = SimScenario.from_yaml(args.scenario)
        truth, events = generate(scenario)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a ``GenerationError``, or a section, key or value missing or of
        # the wrong type
        raise CliError(f"scenario error: {type(exc).__name__}: {exc}",
                       EXIT_CONFIG)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "stream.txt"), "w",
              encoding="utf-8") as fh:
        write_stream(events, fh)
    _write_truth(truth, os.path.join(args.out, "truth.txt"))
    traj = TrajectoryEstimate(truth.stamps, truth.position, truth.quaternion)
    with open(os.path.join(args.out, "truth_trajectory.txt"), "w",
              encoding="utf-8") as fh:
        write_trajectory(traj, fh)
    print(f"simulate: {len(events)} events over "
          f"{truth.stamps[-1]:.1f} s -> {args.out}")
    return EXIT_OK


def _load_config(path: Optional[str], disable: list[str]) -> PipelineConfig:
    try:
        config = (PipelineConfig.from_yaml(path) if path
                  else PipelineConfig())
        for name in disable:
            if name not in ABLATION_OVERRIDES:
                raise ConfigError(
                    f"unknown ablation {name!r}; "
                    f"choose from {sorted(ABLATION_OVERRIDES)}")
            config = config.with_overrides(ABLATION_OVERRIDES[name])
        return config
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG)


def cmd_run(args) -> int:
    if not os.path.exists(args.stream):
        raise CliError(f"stream file not found: {args.stream}", EXIT_DATA)
    pipeline = FusionPipeline(_load_config(args.config, args.disable or []))
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectory.txt")
    steps_path = os.path.join(args.out, "steps.txt")
    bias_path = os.path.join(args.out, "bias_series.txt")
    sigma_path = os.path.join(args.out, "adaptive_sigma.txt")
    try:
        with open(args.stream, "r", encoding="utf-8") as stream, \
                open(traj_path, "w", encoding="utf-8") as traj_fh, \
                open(steps_path, "w", encoding="utf-8") as steps_fh, \
                open(bias_path, "w", encoding="utf-8") as bias_fh, \
                open(sigma_path, "w", encoding="utf-8") as sigma_fh:
            for event in read_stream(stream):
                report = pipeline.ingest(event)
                for rec in report.updates:
                    steps_fh.write(
                        f"{report.stamp!r} {rec.path} "
                        f"{int(rec.accepted)} {rec.d2!r} {rec.dim} "
                        f"{rec.threshold!r} {rec.reason}\n")
                if report.kind == "imu" and report.dropped is None:
                    s = report.state
                    traj_fh.write(pose_line(report.stamp, s.position,
                                            s.quaternion))
                    bias_fh.write(format_row([
                        report.stamp, *s.gyro_bias, *s.accel_bias,
                        s.encoder_yaw_bias]) + "\n")
                if report.kind == "gps" and report.dropped is None:
                    r = pipeline.adaptive["gps_pos"].r
                    sigma_fh.write(format_row(
                        [report.stamp, *np.sqrt(np.diag(r))]) + "\n")
    except StreamFormatError as exc:
        raise CliError(str(exc), EXIT_DATA)
    except NumericalError as exc:
        raise CliError(f"numerical failure: {exc}", EXIT_NUMERIC)
    with open(os.path.join(args.out, "diagnostics.txt"), "w",
              encoding="utf-8") as fh:
        for key in sorted(pipeline.diagnostics):
            fh.write(f"{key} {pipeline.diagnostics[key]}\n")
    print(f"run: wrote {args.out}")
    return EXIT_OK


def _read_steps(path: str) -> list[tuple[float, object]]:
    from .pipeline import UpdateRecord

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            # a path name becomes part of an output file name
            if len(parts) != 7 or not parts[1].isidentifier():
                continue
            rows.append((float(parts[0]), UpdateRecord(
                parts[1], bool(int(parts[2])), float(parts[3]),
                int(parts[4]), float(parts[5]), parts[6])))
    return rows


def cmd_evaluate(args) -> int:
    for path in (args.est, args.ref):
        if not os.path.exists(path):
            raise CliError(f"trajectory file not found: {path}", EXIT_DATA)
    try:
        with open(args.est, "r", encoding="utf-8") as fh:
            est = read_trajectory(fh)
        with open(args.ref, "r", encoding="utf-8") as fh:
            ref = read_trajectory(fh)
        ate = ate_rmse(est, ref, max_dt=args.max_dt)  # needs pose pairs
        records = (_read_steps(args.steps)
                   if args.steps and os.path.exists(args.steps) else None)
    except ValueError as exc:
        raise CliError(f"bad trajectory or steps file: {exc}", EXIT_DATA)
    os.makedirs(args.out, exist_ok=True)
    metrics = {
        "ate_rmse_m": ate,
        "ate_rmse_unaligned_m": ate_rmse(est, ref, max_dt=args.max_dt,
                                         align=False),
        "est_poses": len(est),
        "ref_poses": len(ref),
    }
    if records is not None:
        gps_stamps = [t for t, rec in records
                      if rec.path == "gps_pos" and rec.accepted]
        segments = blackout_segments(gps_stamps, args.blackout_s)
        metrics["blackout_count"] = len(segments)
        if segments:
            metrics["longest_blackout_s"] = max(b - a for a, b in segments)
            metrics["drift_rate_m_per_km"] = drift_rate(est, ref, segments,
                                                        args.max_dt)
        for path_name in sorted({rec.path for _, rec in records}):
            decided = [r.accepted for _, r in records if r.path == path_name]
            metrics[f"accept_rate_{path_name}"] = sum(decided) / len(decided)
            stamps, values, summary = nis_series(records, path_name)
            if summary is None:
                continue
            metrics[f"nis_mean_{path_name}"] = summary.mean
            metrics[f"nis_fraction_in_band_{path_name}"] = \
                summary.fraction_in_band
            with open(os.path.join(args.out, f"d2_{path_name}.txt"), "w",
                      encoding="utf-8") as fh:
                for t, v in zip(stamps.tolist(), values.tolist()):
                    fh.write(f"{t!r} {v!r}\n")
    with open(os.path.join(args.out, "metrics.txt"), "w",
              encoding="utf-8") as fh:
        for key in sorted(metrics):
            fh.write(f"{key} {metrics[key]!r}\n")
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not os.path.exists(args.manifest):
        raise CliError(f"manifest not found: {args.manifest}", EXIT_CONFIG)
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise CliError(f"bad manifest: {exc}", EXIT_CONFIG)
    if not isinstance(manifest, dict):
        raise CliError("manifest must be a mapping", EXIT_CONFIG)
    runs = manifest.get("runs")
    if not runs or not isinstance(runs, list):
        raise CliError("manifest needs a list of runs", EXIT_CONFIG)
    base_out = manifest.get("out", "sweep_out")
    if not (isinstance(base_out, str) and base_out):
        raise CliError("manifest out must be a non-empty path", EXIT_CONFIG)
    for entry in runs:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) and entry[key]
                        for key in ("name", "scenario"))):
            raise CliError("every manifest run needs a name and a scenario",
                           EXIT_CONFIG)
        config, disable = entry.get("config"), entry.get("disable", [])
        if not ((config is None or isinstance(config, str) and config)
                and isinstance(disable, list)
                and all(isinstance(name, str) for name in disable)):
            raise CliError(f"manifest run {entry['name']}: config must be a "
                           "path and disable a list of names", EXIT_CONFIG)
    for entry in runs:
        out = os.path.join(base_out, entry["name"])
        sim_out = os.path.join(out, "sim")
        run_out = os.path.join(out, "run")
        eval_out = os.path.join(out, "eval")
        ns = argparse.Namespace(scenario=entry["scenario"], out=sim_out)
        cmd_simulate(ns)
        ns = argparse.Namespace(
            stream=os.path.join(sim_out, "stream.txt"),
            config=entry.get("config"),
            out=run_out,
            disable=entry.get("disable", []),
        )
        cmd_run(ns)
        ns = argparse.Namespace(
            est=os.path.join(run_out, "trajectory.txt"),
            ref=os.path.join(sim_out, "truth_trajectory.txt"),
            out=eval_out,
            steps=os.path.join(run_out, "steps.txt"),
            max_dt=0.02,
            blackout_s=5.0,
        )
        cmd_evaluate(ns)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navfuse",
        description="sensor-fusion simulator, filter runner, and evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a sensor stream and truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="replay a stream through the filter")
    p.add_argument("--stream", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--disable", action="append", default=[],
                   metavar="FEATURE",
                   help=f"ablations: {sorted(ABLATION_OVERRIDES)}")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score a trajectory against truth")
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", default=None,
                   help="per-update log from `run` for consistency metrics")
    p.add_argument("--max-dt", type=float, default=0.02, dest="max_dt")
    p.add_argument("--blackout-s", type=float, default=5.0,
                   dest="blackout_s")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="simulate+run+evaluate a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
