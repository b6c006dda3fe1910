"""Trajectory-based MM-SQC dynamics of site-exciton models plus an LSTM surrogate
that replays full trajectories from initial conditions.

Units: energies in eV, time in fs, hbar = 0.6582119569 eV fs. Electronic mapping
variables and nuclear oscillator coordinates are dimensionless.
"""

from mmsqc.models import build_model
from mmsqc.sqc import IntegratorConfig, run_ensemble, populations
from mmsqc.dataset import build_dataset
from mmsqc.surrogate import TrainConfig, train
from mmsqc.analysis import RolloutConfig, rollout_ensemble

# exactly the names of README's library example; import the rest from
# their modules (mmsqc.sqc, mmsqc.surrogate, ...)
__all__ = [
    "build_model",
    "IntegratorConfig",
    "run_ensemble",
    "populations",
    "build_dataset",
    "TrainConfig",
    "train",
    "RolloutConfig",
    "rollout_ensemble",
]
