"""navfuse: 23-state quaternion UKF fusion of IMU, wheel encoders, GPS,
and VSLAM, with a deterministic simulator and trajectory evaluation."""

from .config import PipelineConfig
from .core import FilterState
from .evaluation import TrajectoryEstimate, ate_rmse
from .pipeline import FusionPipeline, StepReport
from .simulator import SimScenario, generate
from .ukf import UkfParams

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
