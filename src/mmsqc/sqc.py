"""Symmetrical quasi-classical dynamics with the Meyer-Miller mapping Hamiltonian.

Each electronic state k is represented by harmonic mapping variables (x_k, p_k):

    H = H_ph(Q, P) + sum_k [ (x_k^2 + p_k^2)/2 - gamma ] * (V_kk + sum_j kappa_kj Q_kj)
        + (1/2) sum_{k != l} (x_k x_l + p_k p_l) V_kl

with the state-independent phonon term entering once, unweighted. Initial
sampling and final state assignment both use the triangle window with
gamma = 1/3; populations come from counting binned assignments over an
ensemble of trajectories.

The flat state-vector layout is x_e | p_e | Q | P (nuclear blocks state-major);
time is in fs, energies in eV, hbar in eV*fs.

The integrator uses only elementwise operations and fixed-tree reductions, so
propagating an ensemble in chunks of any size is bitwise identical to
propagating it whole; worker count never changes results.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from mmsqc import arrayio
from mmsqc.models import HBAR_EV_FS, SiteExcitonModel
from mmsqc.streams import substream

STATE_ORDERING = "x_e|p_e|Q|P"
ENERGY_CHUNK = 2048   # recorded states per energy evaluation in ensemble_energies


@dataclass(frozen=True)
class WindowConfig:
    """Zero-point parameter of the mapping; 1/3 for triangle windows."""

    gamma: float = 1.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")


@dataclass(frozen=True)
class IntegratorConfig:
    dt_internal: float = 0.01  # fs

    def __post_init__(self):
        if self.dt_internal <= 0.0:
            raise ValueError("dt_internal must be positive")


@dataclass
class PhaseSpaceState:
    """Full phase-space point: mapping variables plus nuclear oscillators."""

    x_e: np.ndarray
    p_e: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x_e = np.asarray(self.x_e, dtype=float)
        self.p_e = np.asarray(self.p_e, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.x_e.shape != self.p_e.shape or self.Q.shape != self.P.shape:
            raise ValueError("x_e/p_e and Q/P must come in equal-length pairs")

    @property
    def n_states(self) -> int:
        return self.x_e.shape[0]


def pack_state(state: PhaseSpaceState) -> np.ndarray:
    """Flatten to the canonical x_e|p_e|Q|P vector."""
    return np.concatenate([state.x_e, state.p_e, state.Q, state.P])


def unpack_state(vec, n_states: int, t: float = 0.0) -> PhaseSpaceState:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size < 2 * n_states or (vec.size - 2 * n_states) % 2:
        raise ValueError(f"cannot unpack length-{vec.size} vector for {n_states} states")
    ne = n_states
    nv = (vec.size - 2 * ne) // 2
    return PhaseSpaceState(
        vec[:ne].copy(), vec[ne:2 * ne].copy(),
        vec[2 * ne:2 * ne + nv].copy(), vec[2 * ne + nv:].copy(), t=t,
    )


class IntegrationError(RuntimeError):
    """Non-finite value hit during propagation."""

    def __init__(self, t: float, variable: str, trajectory: int | None = None):
        self.t = t
        self.variable = variable
        self.trajectory = trajectory
        where = f" in trajectory {trajectory}" if trajectory is not None else ""
        super().__init__(f"non-finite {variable} at t = {t:g} fs{where}")

    def __reduce__(self):
        return (IntegrationError, (self.t, self.variable, self.trajectory))


def _variable_name(model: SiteExcitonModel, flat_index: int) -> str:
    ne, nv = model.n_states, model.n_modes
    if flat_index < ne:
        return f"x_e[{flat_index}]"
    if flat_index < 2 * ne:
        return f"p_e[{flat_index - ne}]"
    nuclear = flat_index - 2 * ne
    block, mode = ("Q", nuclear) if nuclear < nv else ("P", nuclear - nv)
    for k, sl in enumerate(model.state_slices):
        if sl.start <= mode < sl.stop:
            return f"{block}[state {k}, mode {mode - sl.start}]"
    return f"{block}[{mode}]"


# ---------------------------------------------------------------------------
# energy and equations of motion


def _split(Y: np.ndarray, ne: int, nv: int):
    """The x_e, p_e, Q, P blocks along axis 0."""
    return Y[:ne], Y[ne:2 * ne], Y[2 * ne:2 * ne + nv], Y[2 * ne + nv:]


def _tree_sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum an (m, ...) array over axis 0 with a fixed binary tree of
    elementwise adds. Unlike np.sum, whose internal strategy varies with the
    array shape, the floating-point result per column is independent of the
    trailing shape."""
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:])
    while a.shape[0] > 1:
        half = a.shape[0] // 2
        s = a[0:2 * half:2] + a[1:2 * half:2]
        if a.shape[0] % 2:
            s = np.concatenate([s, a[-1:]], axis=0)
        a = s
    return a[0]


class _Hamiltonian:
    """The mapping Hamiltonian of one model on variables-major (dim, n)
    batches: Hamilton's equations in 1/fs and the energy in eV.

    The transposed layout keeps every block operation contiguous. Column
    independence matters: only elementwise ops, row gathers, loops over
    states and fixed-tree reductions, so each trajectory's result never
    depends on the batch shape. Constants are pre-divided by hbar.
    """

    def __init__(self, model: SiteExcitonModel, gamma: float):
        ne, nv = model.n_states, model.n_modes
        self.ne, self.nv, self.gamma = ne, nv, gamma
        v_h = model.v / HBAR_EV_FS
        self.v_diag_h = np.diag(v_h)[:, None]
        off_h = v_h - np.diag(np.diag(v_h))
        # (l, column l of V/hbar with a zeroed diagonal) for every coupled l
        self.columns = [(l, off_h[:, l:l + 1]) for l in range(ne) if off_h[:, l].any()]
        self.pairs = [(k, l, off_h[k, l]) for k in range(ne)
                      for l in range(k + 1, ne) if off_h[k, l] != 0.0]
        kappa_h = (model.kappa / HBAR_EV_FS)[:, None]
        self.omega_h = (model.omega / HBAR_EV_FS)[:, None]
        self.neg_omega_h = -self.omega_h
        self.neg_kappa_h = -kappa_h
        counts = [sl.stop - sl.start for sl in model.state_slices]
        self.mode_state = np.repeat(np.arange(ne), counts)
        # diag_rows[j, k]: the row in Y of state k's j-th mode Q, and
        # diag_kappa_h its kappa/hbar. States with fewer modes are padded with
        # row 0 and a zero kappa. A zero term leaves every level of the tree
        # sum as it was (x + 0 = x; at most an exact zero changes sign), so
        # each state's diagonal keeps its bits.
        self.diag_rows = np.zeros((max(counts), ne), dtype=np.intp)
        self.diag_kappa_h = np.zeros((max(counts), ne, 1))
        for k, sl in enumerate(model.state_slices):
            self.diag_rows[:counts[k], k] = np.arange(2 * ne + sl.start, 2 * ne + sl.stop)
            self.diag_kappa_h[:counts[k], k] = kappa_h[sl]

    def _weight(self, xe: np.ndarray, pe: np.ndarray) -> np.ndarray:
        weight = 0.5 * (xe * xe + pe * pe)
        weight -= self.gamma
        return weight

    def _diagonal(self, Y: np.ndarray) -> np.ndarray:
        """(V_kk + kappa_k.Q_k)/hbar for every state, (n_states, n)."""
        terms = Y[self.diag_rows]
        terms *= self.diag_kappa_h
        diag = _tree_sum_rows(terms)
        diag += self.v_diag_h
        return diag

    def _deriv(self, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
        xe, pe, Q, P = _split(Y, self.ne, self.nv)
        dxe, dpe, dQ, dP = _split(out, self.ne, self.nv)
        weight = self._weight(xe, pe)
        # nuclear: dQ = (w/hbar) P, dP = -(w/hbar) Q - (kappa/hbar) weight_state
        np.multiply(P, self.omega_h, out=dQ)
        np.multiply(Q, self.neg_omega_h, out=dP)
        gathered = weight[self.mode_state]
        gathered *= self.neg_kappa_h
        dP += gathered
        # electronic: diagonal, then the couplings in column order
        diag = self._diagonal(Y)
        np.multiply(pe, diag, out=dxe)
        cp = xe * diag
        for l, col in self.columns:
            dxe += col * pe[l]
            cp += col * xe[l]
        np.negative(cp, out=dpe)
        return out

    def _energy(self, Y: np.ndarray) -> np.ndarray:
        """Energy of every column, (n,), in eV."""
        xe, pe, Q, P = _split(Y, self.ne, self.nv)
        energy = _tree_sum_rows(self._weight(xe, pe) * self._diagonal(Y))
        bath = Q * Q
        bath += P * P
        bath *= 0.5 * self.omega_h
        energy += _tree_sum_rows(bath)
        for k, l, v_kl in self.pairs:
            energy += v_kl * (xe[k] * xe[l] + pe[k] * pe[l])
        return energy * HBAR_EV_FS


def mm_energy(model: SiteExcitonModel, state: PhaseSpaceState,
              cfg: WindowConfig = WindowConfig()) -> float:
    """Mapping-Hamiltonian energy of a single phase-space point (eV)."""
    _check_dims(model, state)
    return float(_Hamiltonian(model, cfg.gamma)._energy(pack_state(state)[:, None])[0])


def eom(model: SiteExcitonModel, state: PhaseSpaceState,
        cfg: WindowConfig = WindowConfig()):
    """Time derivatives (dx_e, dp_e, dQ, dP) of one state, in 1/fs."""
    _check_dims(model, state)
    Y = pack_state(state)[:, None]
    dY = _Hamiltonian(model, cfg.gamma)._deriv(Y, np.empty_like(Y))
    return _split(dY[:, 0], model.n_states, model.n_modes)


def _check_dims(model: SiteExcitonModel, state: PhaseSpaceState) -> None:
    if state.x_e.shape[-1] != model.n_states:
        raise ValueError(
            f"state has {state.x_e.shape[-1]} mapping pairs, "
            f"model {model.label} has {model.n_states} states"
        )
    if state.Q.shape[-1] != model.n_modes:
        raise ValueError(
            f"state has {state.Q.shape[-1]} nuclear modes, "
            f"model {model.label} has {model.n_modes}"
        )


# ---------------------------------------------------------------------------
# actions and triangle windows


def action(x, p, cfg: WindowConfig = WindowConfig()):
    """Action variable n = (x^2 + p^2)/2 - gamma; elementwise."""
    return 0.5 * (np.asarray(x, dtype=float)**2 + np.asarray(p, dtype=float)**2) - cfg.gamma


def assign_from_actions(n, cfg: WindowConfig = WindowConfig()) -> np.ndarray:
    """Triangle-window state assignment from action vectors.

    `n` has shape (..., n_states); returns int indices with -1 where no window
    is satisfied. State k is assigned when n_k + gamma >= 1 and, for every
    other state j, n_j + gamma >= 0 and n_k + n_j <= 2 - 2*gamma (pairwise
    generalization beyond two states).
    """
    n = np.asarray(n, dtype=float)
    gamma = cfg.gamma
    ne = n.shape[-1]
    if ne < 2:
        raise ValueError("window assignment needs at least 2 states")
    assigned = np.full(n.shape[:-1], -1, dtype=np.int64)
    pair_cap = 2.0 - 2.0 * gamma
    for k in range(ne):
        mask = n[..., k] + gamma >= 1.0
        for j in range(ne):
            if j == k:
                continue
            mask = mask & (n[..., j] + gamma >= 0.0) & (n[..., k] + n[..., j] <= pair_cap)
        assigned = np.where(mask & (assigned < 0), k, assigned)
    return assigned


def window_assign(x_e, p_e, cfg: WindowConfig = WindowConfig()):
    """Assign a single mapping-variable vector to a state, or None."""
    idx = int(assign_from_actions(action(x_e, p_e, cfg), cfg))
    return idx if idx >= 0 else None


# ---------------------------------------------------------------------------
# initial sampling


def sample_initial(model: SiteExcitonModel, init_state: int,
                   cfg: WindowConfig, rng: np.random.Generator) -> PhaseSpaceState:
    """Draw one initial condition: triangle-window electronic sampling plus
    ground-level action-angle nuclear sampling.

    Electronic radii e_k = n_k + gamma are uniform over the window support of
    the initial state (e_init in [1, 2], others in [0, 1], pairwise
    e_init + e_j <= 2); angles are uniform. Every nuclear mode starts on its
    zero-point ring Q = cos(phi), P = -sin(phi).
    """
    ne = model.n_states
    if not 0 <= init_state < ne:
        raise ValueError(f"init_state {init_state} out of range for {ne} states")
    others = [k for k in range(ne) if k != init_state]
    e = np.empty(ne)
    while True:
        e[init_state] = rng.uniform(1.0, 2.0)
        e[others] = rng.uniform(0.0, 1.0, size=ne - 1)
        if np.all(e[init_state] + e[others] <= 2.0):
            break
    theta = rng.uniform(0.0, 2.0 * np.pi, size=ne)
    radius = np.sqrt(2.0 * e)
    x_e = radius * np.cos(theta)
    p_e = -radius * np.sin(theta)

    phi = rng.uniform(0.0, 2.0 * np.pi, size=model.n_modes)
    return PhaseSpaceState(x_e, p_e, np.cos(phi), -np.sin(phi), t=0.0)


# ---------------------------------------------------------------------------
# trajectories and ensembles


@dataclass
class Trajectory:
    """Recorded states on a uniform grid starting at t = 0.

    `data` is (n_records, dim) in the canonical x_e|p_e|Q|P ordering.
    """

    record_dt: float
    data: np.ndarray
    n_states: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("trajectory data must be (n_records, dim)")

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_records) * self.record_dt

    def state(self, i: int) -> PhaseSpaceState:
        return unpack_state(self.data[i], self.n_states, t=float(i * self.record_dt))


@dataclass
class TrajectoryEnsemble:
    """Stack of same-grid trajectories, (n_traj, n_records, dim)."""

    record_dt: float
    data: np.ndarray
    n_states: int
    model_label: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError("ensemble data must be (n_traj, n_records, dim)")

    @property
    def n_traj(self) -> int:
        return self.data.shape[0]

    @property
    def n_records(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_records) * self.record_dt

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(self.record_dt, self.data[i], self.n_states)

    def header(self) -> dict:
        return {
            "model": self.model_label,
            "n_traj": self.n_traj,
            "n_steps": self.n_records,
            "record_dt": self.record_dt,
            "dim": self.dim,
            "n_states": self.n_states,
            "ordering": STATE_ORDERING,
            "seed": self.seed,
        }

    def save(self, path: str, extra_header: dict | None = None) -> None:
        arrayio.write_array_file(path, arrayio.ENSEMBLE,
                                 {**self.header(), **(extra_header or {})}, self.data)

    @classmethod
    def load(cls, path: str) -> "TrajectoryEnsemble":
        header, (data,) = arrayio.read_array_file(
            path, arrayio.ENSEMBLE, lambda h: [(h["n_traj"], h["n_steps"], h["dim"])],
            n_traj=int, n_steps=int, dim=int, n_states=int, record_dt=float)
        if header.get("ordering") != STATE_ORDERING:
            raise arrayio.HeaderError(f"{path}: unknown variable ordering {header.get('ordering')}")
        return cls(header["record_dt"], data, header["n_states"],
                   header.get("model", "custom"), header.get("seed"))

    def content_hash(self) -> str:
        """SHA-256 of the file `save` writes without an extra header."""
        return arrayio.file_sha256(arrayio.ENSEMBLE, self.header(), self.data)


# ---------------------------------------------------------------------------
# propagation


def _grid_steps(total: float, step: float, what: str) -> int:
    n = round(total / step)
    if n < 1 or abs(n * step - total) > 1e-9 * max(1.0, abs(total)):
        raise ValueError(f"{what}: {total} is not a positive multiple of {step}")
    return n


def _propagate_batch(model: SiteExcitonModel, Y0: np.ndarray, icfg: IntegratorConfig,
                     t_end: float, record_dt: float, gamma: float) -> np.ndarray:
    """Fixed-step RK4 on a (n, dim) batch; returns (n, n_records, dim)."""
    n_rec = _grid_steps(t_end, record_dt, "t_end") + 1
    n_sub = _grid_steps(record_dt, icfg.dt_internal, "record_dt")
    h = record_dt / n_sub
    deriv = _Hamiltonian(model, gamma)._deriv

    out = np.empty((Y0.shape[0], n_rec, Y0.shape[1]))
    out[:, 0] = Y0
    Y = np.ascontiguousarray(Y0.T)   # variables-major for contiguous kernel ops
    k1, k2, k3, k4, stage = (np.empty_like(Y) for _ in range(5))
    # a diverging trajectory overflows to inf; the finite check below reports
    # it, so the overflow warning itself would be redundant noise
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in range(1, n_rec):
            for _ in range(n_sub):
                deriv(Y, k1)
                np.multiply(k1, 0.5 * h, out=stage)
                stage += Y
                deriv(stage, k2)
                np.multiply(k2, 0.5 * h, out=stage)
                stage += Y
                deriv(stage, k3)
                np.multiply(k3, h, out=stage)
                stage += Y
                deriv(stage, k4)
                # Y += h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in k2
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= h / 6.0
                Y += k2
            if not np.all(np.isfinite(Y)):
                # lowest trajectory first, then its lowest variable
                row, var = np.argwhere(~np.isfinite(Y.T))[0]
                raise IntegrationError(rec * record_dt,
                                       _variable_name(model, int(var)),
                                       trajectory=int(row))
            out[:, rec] = Y.T
    return out


def propagate(model: SiteExcitonModel, state: PhaseSpaceState,
              icfg: IntegratorConfig, t_end: float, record_dt: float,
              window: WindowConfig = WindowConfig()) -> Trajectory:
    """Integrate one trajectory, recording every record_dt (t = 0 included)."""
    _check_dims(model, state)
    batch = _propagate_batch(model, pack_state(state)[None, :], icfg,
                             t_end, record_dt, window.gamma)
    return Trajectory(record_dt, batch[0], model.n_states)


def _sample_starts(model: SiteExcitonModel, n_traj: int, init_state: int,
                   seed: int, window: WindowConfig) -> np.ndarray:
    """Packed initial conditions, (n_traj, dim); trajectory i draws from the
    (seed, "sampling", i) stream."""
    starts = np.empty((n_traj, model.dim))
    for i in range(n_traj):
        rng = substream(seed, "sampling", i)
        starts[i] = pack_state(sample_initial(model, init_state, window, rng))
    return starts


def _map_chunks(work, starts: np.ndarray, workers: int, *args,
                grain: int = 1) -> np.ndarray:
    """Stack work(starts[a:b], a, *args) over contiguous trajectory chunks,
    one per worker process; a single chunk runs in this process. `a` is the
    chunk's first absolute trajectory index, for error messages. Chunks hold
    whole grains of `grain` trajectories, so every `a` is a multiple of it
    and no chunk is empty. `work` must be a module-level function so it can
    be sent to the workers.

    Every chunk runs to the end. If any failed, the failure with the
    earliest time `t` is raised (a failure without one counts as t = 0),
    ties going to chunk order, so the error does not depend on the chunk
    count."""
    n = starts.shape[0]
    grains = -(-n // grain)
    workers = max(1, min(workers, grains))
    if workers == 1:
        return work(starts, 0, *args)
    bounds = np.minimum(np.linspace(0, grains, workers + 1).astype(int) * grain, n)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, starts[a:b], int(a), *args)
                   for a, b in zip(bounds[:-1], bounds[1:])]
    failures = [exc for exc in (fut.exception() for fut in futures) if exc is not None]
    if failures:
        raise min(failures, key=lambda exc: getattr(exc, "t", 0.0))
    return np.concatenate([fut.result() for fut in futures])


def _propagate_chunk(Y0: np.ndarray, offset: int, model: SiteExcitonModel,
                     icfg: IntegratorConfig, t_end: float, record_dt: float,
                     gamma: float) -> np.ndarray:
    try:
        return _propagate_batch(model, Y0, icfg, t_end, record_dt, gamma)
    except IntegrationError as exc:
        raise IntegrationError(exc.t, exc.variable,
                               trajectory=offset + (exc.trajectory or 0)) from None


def run_ensemble(model: SiteExcitonModel, n_traj: int, init_state: int, seed: int,
                 icfg: IntegratorConfig, t_end: float, record_dt: float,
                 window: WindowConfig = WindowConfig(),
                 workers: int = 1) -> TrajectoryEnsemble:
    """Sample and propagate n_traj independent trajectories.

    Trajectory i draws its initial condition from the (seed, "sampling", i)
    stream, and chunked propagation is bitwise chunk-size-invariant, so
    results are reproducible and independent of `workers` (process-based).
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    _grid_steps(t_end, record_dt, "t_end")   # fail before starting workers
    Y0 = _sample_starts(model, n_traj, init_state, seed, window)
    data = _map_chunks(_propagate_chunk, Y0, workers,
                       model, icfg, t_end, record_dt, window.gamma)
    return TrajectoryEnsemble(record_dt, data, model.n_states,
                              model_label=model.label, seed=seed)


def ensemble_energies(model: SiteExcitonModel, ensemble: TrajectoryEnsemble,
                      cfg: WindowConfig = WindowConfig()) -> np.ndarray:
    """Mapping-Hamiltonian energy of every recorded state, (n_traj, n_records).

    States are evaluated ENERGY_CHUNK at a time, so the temporaries stay a
    few MB for any ensemble size."""
    flat = ensemble.data.reshape(-1, ensemble.dim)
    ham = _Hamiltonian(model, cfg.gamma)
    energies = np.empty(len(flat))
    for a in range(0, len(flat), ENERGY_CHUNK):
        energies[a:a + ENERGY_CHUNK] = ham._energy(flat[a:a + ENERGY_CHUNK].T)
    return energies.reshape(ensemble.data.shape[:2])


# ---------------------------------------------------------------------------
# populations


@dataclass
class PopulationSeries:
    """Window-binned electronic populations on the ensemble time grid.

    values[t, k] = N_k(t) / sum_l N_l(t) over assigned trajectories; NaN where
    no trajectory falls in any window (flagged in `defined`).
    """

    times: np.ndarray
    values: np.ndarray
    unassigned: np.ndarray
    n_traj: int
    defined: np.ndarray = field(init=False)

    def __post_init__(self):
        self.defined = ~np.any(np.isnan(self.values), axis=-1)

    @property
    def n_states(self) -> int:
        return self.values.shape[1]


def populations(ensemble: TrajectoryEnsemble,
                cfg: WindowConfig = WindowConfig()) -> PopulationSeries:
    """Bin every recorded state with the triangle windows and renormalize
    over assigned trajectories."""
    ne = ensemble.n_states
    xe = ensemble.data[:, :, :ne]
    pe = ensemble.data[:, :, ne:2 * ne]
    assigned = assign_from_actions(action(xe, pe, cfg), cfg)  # (n_traj, n_rec)
    counts = np.stack([np.sum(assigned == k, axis=0) for k in range(ne)], axis=1)
    total = counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(total[:, None] > 0, counts / total[:, None], np.nan)
    unassigned = 1.0 - total / ensemble.n_traj
    return PopulationSeries(ensemble.times, values, unassigned, ensemble.n_traj)
