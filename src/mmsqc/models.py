"""Site-exciton electron-phonon models.

Six built-in models (labels "I".."VI"): two- and three-site systems where each
local excited state couples bilinearly to its own set of harmonic phonon modes,

    H = H_e + H_ph + H_eph,
    H_ph  = sum_kj (omega_kj / 2) (Q_kj^2 + P_kj^2),
    H_eph = sum_kj kappa_kj Q_kj  on the diagonal of state k.

Models I-IV carry 8 explicit modes per state; V and VI discretize a Debye
spectral density J(w) = 2*reorg*w*w_c / (w^2 + w_c^2) into 70 modes per state.
All energies are in eV; coordinates are dimensionless oscillator variables.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from mmsqc.arrayio import write_atomic

# cm^-1 -> eV; hbar in eV*fs
CM1_TO_EV = 1.239841984e-4
HBAR_EV_FS = 0.6582119569


@dataclass(frozen=True)
class Mode:
    """One harmonic phonon mode: frequency and linear coupling, both in eV."""

    omega: float
    kappa: float

    def __post_init__(self):
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise ValueError(f"mode frequency must be positive, got {self.omega}")
        if not np.isfinite(self.kappa):
            raise ValueError("mode coupling must be finite")


@dataclass(frozen=True)
class DebyeBathSpec:
    """Debye bath discretized on the grid omega_i = i * delta_omega, i = 1..n_modes."""

    reorg: float        # reorganization energy (eV)
    omega_c: float      # characteristic frequency (eV)
    n_modes: int
    delta_omega: float  # grid spacing (eV)

    def __post_init__(self):
        if self.reorg < 0.0:
            raise ValueError("reorganization energy must be non-negative")
        if self.omega_c <= 0.0 or self.delta_omega <= 0.0 or self.n_modes <= 0:
            raise ValueError("omega_c, delta_omega and n_modes must be positive")


def debye_spectral_density(omega, reorg: float, omega_c: float):
    """J(w) = 2*reorg*w*w_c / (w^2 + w_c^2)."""
    omega = np.asarray(omega, dtype=float)
    return 2.0 * reorg * omega * omega_c / (omega**2 + omega_c**2)


def discretize_debye(spec: DebyeBathSpec) -> list[Mode]:
    """Discretize the Debye density: kappa_i = sqrt((2/pi) J(omega_i) delta_omega)."""
    omegas = spec.delta_omega * np.arange(1, spec.n_modes + 1)
    j_vals = debye_spectral_density(omegas, spec.reorg, spec.omega_c)
    kappas = np.sqrt((2.0 / np.pi) * j_vals * spec.delta_omega)
    return [Mode(float(w), float(k)) for w, k in zip(omegas, kappas)]


class SiteExcitonModel:
    """Diabatic matrix `v` plus an independent phonon mode list per state.

    Mode ordering is part of the file-format contract: nuclear arrays are
    state-major, modes within a state in list order.
    """

    def __init__(self, label: str, v, modes_per_state):
        v = np.array(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"v must be a square matrix, got shape {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("v must be symmetric")
        if len(modes_per_state) != v.shape[0]:
            raise ValueError(
                f"need one mode list per state: {len(modes_per_state)} lists "
                f"for {v.shape[0]} states"
            )
        self.label = label
        self.n_states = v.shape[0]
        self.v = v
        self.modes_per_state = tuple(tuple(m) for m in modes_per_state)

        # flattened state-major mode data, used by the dynamics kernels
        self.omega = np.array(
            [m.omega for modes in self.modes_per_state for m in modes], dtype=float
        )
        self.kappa = np.array(
            [m.kappa for modes in self.modes_per_state for m in modes], dtype=float
        )
        counts = np.array([len(m) for m in self.modes_per_state], dtype=int)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self.state_slices = tuple(
            slice(int(bounds[k]), int(bounds[k + 1])) for k in range(self.n_states)
        )
        self.n_modes = int(bounds[-1])
        for arr in (self.v, self.omega, self.kappa):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        """Phase-space dimension 2*N_e + 2*N_v of one state vector."""
        return 2 * self.n_states + 2 * self.n_modes

    def __repr__(self):
        return (
            f"SiteExcitonModel({self.label!r}, n_states={self.n_states}, "
            f"n_modes={self.n_modes})"
        )

    def to_config(self) -> dict:
        return {
            "label": self.label,
            "n_states": self.n_states,
            "v": [[float(x) for x in row] for row in self.v],
            "modes_per_state": [
                [{"omega": m.omega, "kappa": m.kappa} for m in modes]
                for modes in self.modes_per_state
            ],
        }

    @classmethod
    def from_config(cls, config: dict) -> "SiteExcitonModel":
        try:
            v = config["v"]
            modes = [
                [Mode(m["omega"], m["kappa"]) for m in state_modes]
                for state_modes in config["modes_per_state"]
            ]
            label = config.get("label", "custom")
            n_states = config["n_states"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid model config: {exc}") from None
        model = cls(label, v, modes)
        if model.n_states != n_states:
            raise ValueError(
                f"config claims {n_states} states but v is {model.n_states}x{model.n_states}"
            )
        return model


# Table of the 8 local modes attached to every state of Models I-IV (eV).
_LOCAL_MODES = [
    Mode(0.0680, -0.0266),
    Mode(0.0811, -0.0194),
    Mode(0.1649, -0.1120),
    Mode(0.1727, -0.0720),
    Mode(0.1748, 0.0378),
    Mode(0.1823, 0.0383),
    Mode(0.1991, 0.1101),
    Mode(0.2020, 0.0642),
]

# Debye bath of Models V-VI: reorg 62.5 cm^-1, cutoff 500 cm^-1, 70 modes on a
# 12 cm^-1 grid (top frequency 840 cm^-1).
DEBYE_SPEC = DebyeBathSpec(
    reorg=62.5 * CM1_TO_EV,
    omega_c=500.0 * CM1_TO_EV,
    n_modes=70,
    delta_omega=12.0 * CM1_TO_EV,
)

_SITE_MATRICES = {
    "I": [[0.0, 0.2], [0.2, 0.0]],
    "II": [[0.2, 0.2], [0.2, 0.0]],
    "III": [[0.0, 0.2, 0.0], [0.2, 0.0, 0.2], [0.0, 0.2, 0.0]],
    "IV": [[0.2, 0.2, 0.0], [0.2, 0.1, 0.2], [0.0, 0.2, 0.0]],
    "V": [[0.0, 0.03], [0.03, 0.0]],
    "VI": [[0.03, 0.03], [0.03, 0.0]],
}

MODEL_LABELS = tuple(_SITE_MATRICES)


def build_model(label: str) -> SiteExcitonModel:
    """Build one of the six predefined models ("I".."VI")."""
    if label not in _SITE_MATRICES:
        raise ValueError(f"unknown model {label!r}; choose one of {', '.join(MODEL_LABELS)}")
    v = _SITE_MATRICES[label]
    if label in ("V", "VI"):
        per_state = discretize_debye(DEBYE_SPEC)
    else:
        per_state = _LOCAL_MODES
    modes = [list(per_state) for _ in range(len(v))]
    return SiteExcitonModel(label, v, modes)


def save_model(model: SiteExcitonModel, path: str) -> None:
    text = json.dumps(model.to_config(), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


def load_model(path: str) -> SiteExcitonModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a model config: {exc}") from None
    return SiteExcitonModel.from_config(config)


def resolve_model(spec: str) -> SiteExcitonModel:
    """Accept a built-in label ("I".."VI") or a path to a model config file."""
    if spec in _SITE_MATRICES:
        return build_model(spec)
    if os.path.exists(spec):
        return load_model(spec)
    raise ValueError(
        f"unknown model {spec!r}: not one of {', '.join(MODEL_LABELS)} "
        f"and no such config file"
    )
