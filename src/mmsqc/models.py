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

import numpy as np

# cm^-1 -> eV; hbar in eV*fs
CM1_TO_EV = 1.239841984e-4
HBAR_EV_FS = 0.6582119569


def debye_spectral_density(omega, reorg: float, omega_c: float):
    """J(w) = 2*reorg*w*w_c / (w^2 + w_c^2)."""
    omega = np.asarray(omega, dtype=float)
    return 2.0 * reorg * omega * omega_c / (omega**2 + omega_c**2)


def discretize_debye(reorg: float, omega_c: float, n_modes: int,
                     delta_omega: float) -> np.ndarray:
    """The (n_modes, 2) table of (omega_i, kappa_i) on the grid omega_i = i * delta_omega,
    i = 1..n_modes, with kappa_i = sqrt((2/pi) J(omega_i) delta_omega)."""
    if reorg < 0.0:
        raise ValueError("reorganization energy must be non-negative")
    if omega_c <= 0.0 or delta_omega <= 0.0 or n_modes <= 0:
        raise ValueError("omega_c, delta_omega and n_modes must be positive")
    omegas = delta_omega * np.arange(1, n_modes + 1)
    kappas = np.sqrt((2.0 / np.pi) * debye_spectral_density(omegas, reorg, omega_c)
                     * delta_omega)
    return np.stack([omegas, kappas], axis=1)


def _json_number(x, key: str, kind=(int, float)):
    """`x` if it is a JSON number (an integer if `kind` is int); else a ValueError naming `key`."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"invalid model config: {key} must be a JSON "
                         f"{'integer' if kind is int else 'number'}, got {json.dumps(x)}")
    return x


def _known_keys(obj: dict, keys: tuple) -> dict:
    """`obj` if it has no key outside `keys`; else a ValueError naming one."""
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise ValueError(f"invalid model config: unknown key {unknown[0]!r}")
    return obj


class SiteExcitonModel:
    """Diabatic matrix `v` plus the phonon modes of every state.

    `modes_per_state[k]` holds state k's (omega, kappa) pairs in eV: any
    (n_k, 2) array-like, possibly empty. The model keeps them only as the flat
    state-major `omega` and `kappa` arrays, state k's modes at
    `state_slices[k]` in the given order; that order is part of the
    file-format contract.
    """

    def __init__(self, label: str, v, modes_per_state):
        v = np.array(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
            raise ValueError(f"v must be a square matrix, got shape {v.shape}")
        if not np.isfinite(v).all() or not np.array_equal(v, v.T):
            raise ValueError("v must be finite and symmetric")
        if len(modes_per_state) != v.shape[0]:
            raise ValueError(f"need one mode list per state: {len(modes_per_state)} lists "
                             f"for {v.shape[0]} states")
        tables = [np.array(pairs, dtype=float) for pairs in modes_per_state]
        for k, t in enumerate(tables):
            if t.size and (t.ndim != 2 or t.shape[1] != 2):
                raise ValueError(f"state {k} needs (omega, kappa) pairs, got shape {t.shape}")
        bounds = np.cumsum([0] + [t.size // 2 for t in tables])
        omega, kappa = np.concatenate([t.reshape(-1, 2) for t in tables]).T.copy()
        ok = (omega > 0.0) & np.isfinite(omega) & np.isfinite(kappa)
        if not ok.all():
            i = int(np.argmin(ok))
            k = int(np.searchsorted(bounds, i, side="right")) - 1
            raise ValueError(f"state {k} mode {i - bounds[k]}: need a finite positive "
                             f"frequency and a finite coupling, got {omega[i]}, {kappa[i]}")
        self.label = label
        self.n_states = v.shape[0]
        self.n_modes = int(bounds[-1])
        self.v, self.omega, self.kappa = v, omega, kappa
        self.state_slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:]))
        for arr in (self.v, self.omega, self.kappa):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        """Phase-space dimension 2*N_e + 2*N_v of one state vector."""
        return 2 * self.n_states + 2 * self.n_modes

    def __repr__(self):
        return (f"SiteExcitonModel({self.label!r}, n_states={self.n_states}, "
                f"n_modes={self.n_modes})")

    def to_config(self) -> dict:
        table = np.stack([self.omega, self.kappa], axis=1).tolist()
        modes = [[{"omega": w, "kappa": k} for w, k in table[sl]] for sl in self.state_slices]
        return {"label": self.label, "n_states": self.n_states, "v": self.v.tolist(),
                "modes_per_state": modes}

    @classmethod
    def from_config(cls, config: dict) -> "SiteExcitonModel":
        """The model of a parsed JSON config. Every `v`, `omega` and `kappa` entry must be
        a JSON number, `n_states` a JSON integer and `label` a string; a key that no
        field reads is refused."""
        try:
            _known_keys(config, ("label", "n_states", "v", "modes_per_state"))
            label = config.get("label", "custom")
            n_states = _json_number(config["n_states"], "n_states", int)
            v = [[_json_number(x, "v") for x in row] for row in config["v"]]
            modes = [[_known_keys(m, ("omega", "kappa")) for m in state_modes]
                     for state_modes in config["modes_per_state"]]
            pairs = [[(_json_number(m["omega"], "omega"), _json_number(m["kappa"], "kappa"))
                      for m in state_modes] for state_modes in modes]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"invalid model config: {exc}") from None
        if not isinstance(label, str):
            raise ValueError(f"invalid model config: label must be a string, "
                             f"got {json.dumps(label)}")
        model = cls(label, v, pairs)
        if model.n_states != n_states:
            raise ValueError(f"config claims {n_states} states but v is "
                             f"{model.n_states}x{model.n_states}")
        return model


# The 8 local (omega, kappa) modes attached to every state of Models I-IV (eV).
_LOCAL_MODES = np.array([
    [0.0680, -0.0266],
    [0.0811, -0.0194],
    [0.1649, -0.1120],
    [0.1727, -0.0720],
    [0.1748, 0.0378],
    [0.1823, 0.0383],
    [0.1991, 0.1101],
    [0.2020, 0.0642],
])

# Debye bath of Models V-VI, the keywords of `discretize_debye`: reorg 62.5 cm^-1,
# cutoff 500 cm^-1, 70 modes on a 12 cm^-1 grid (top frequency 840 cm^-1).
DEBYE_SPEC = {"reorg": 62.5 * CM1_TO_EV, "omega_c": 500.0 * CM1_TO_EV, "n_modes": 70,
              "delta_omega": 12.0 * CM1_TO_EV}

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
    table = discretize_debye(**DEBYE_SPEC) if label in ("V", "VI") else _LOCAL_MODES
    return SiteExcitonModel(label, v, [table] * len(v))


def unique_keys(pairs) -> dict:
    """A `json` object_pairs_hook: the object as a dict, refusing a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def save_model(model: SiteExcitonModel, path: str) -> None:
    from mmsqc.arrayio import write_atomic   # here: build_model never writes a file

    text = json.dumps(model.to_config(), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


def load_model(path: str) -> SiteExcitonModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh, object_pairs_hook=unique_keys)
        except ValueError as exc:   # JSONDecodeError or a repeated key
            raise ValueError(f"{path}: not a model config: {exc}") from None
    return SiteExcitonModel.from_config(config)


def resolve_model(spec: str) -> SiteExcitonModel:
    """Accept a built-in label ("I".."VI") or a path to a model config file."""
    if spec in _SITE_MATRICES:
        return build_model(spec)
    if os.path.exists(spec):
        return load_model(spec)
    raise ValueError(f"unknown model {spec!r}: not one of {', '.join(MODEL_LABELS)} "
                     f"and no such config file")
