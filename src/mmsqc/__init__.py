"""Trajectory-based MM-SQC dynamics of site-exciton models plus an LSTM surrogate
that replays full trajectories from initial conditions.

Units: energies in eV, time in fs, hbar = 0.6582119569 eV fs. Electronic mapping
variables and nuclear oscillator coordinates are dimensionless.

`import mmsqc` loads no stage module: each exported name imports its module on
first access (PEP 562), so a caller that only builds a model never pays for
the integrator, the surrogate or the analysis code.
"""

import importlib

# exactly the names of README's library example, each with the module that
# defines it; import the rest from their modules (mmsqc.sqc, mmsqc.surrogate, ...)
_OWNER = {
    "build_model": "models",
    "IntegratorConfig": "sqc",
    "run_ensemble": "sqc",
    "populations": "sqc",
    "build_dataset": "dataset",
    "TrainConfig": "surrogate",
    "train": "surrogate",
    "RolloutConfig": "analysis",
    "rollout_ensemble": "analysis",
}
__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the module that owns an exported name, and cache the name here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
