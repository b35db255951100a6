"""navfuse: 23-state quaternion UKF fusion of IMU, wheel encoders, GPS,
and VSLAM, with a deterministic simulator and trajectory evaluation.

The simulator's and the evaluator's names are imported on first access
(PEP 562), so importing the package for the pipeline loads neither them
nor PyYAML."""

from importlib import import_module

from .config import PipelineConfig
from .core import FilterState
from .pipeline import FusionPipeline, StepReport
from .ukf import UkfParams

#: name -> the submodule that defines it, imported on first access
_LAZY = {
    "SimScenario": "simulator",
    "generate": "simulator",
    "TrajectoryEstimate": "evaluation",
    "ate_rmse": "evaluation",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "FilterState",
    "FusionPipeline",
    "PipelineConfig",
    "SimScenario",
    "StepReport",
    "TrajectoryEstimate",
    "UkfParams",
    "ate_rmse",
    "generate",
]

__version__ = "0.1.0"
