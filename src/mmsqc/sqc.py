"""Symmetrical quasi-classical dynamics with the Meyer-Miller mapping Hamiltonian.

Each electronic state k is represented by harmonic mapping variables (x_k, p_k):

    H = H_ph(Q, P) + sum_k [ (x_k^2 + p_k^2)/2 - gamma ] * (V_kk + sum_j kappa_kj Q_kj)
        + (1/2) sum_{k != l} (x_k x_l + p_k p_l) V_kl

with the state-independent phonon term entering once, unweighted. Initial
sampling and final state assignment both use the triangle window with
gamma = 1/3; populations come from counting binned assignments over an
ensemble of trajectories.

A phase-space point is always the flat vector x_e | p_e | Q | P (nuclear
blocks state-major), of length `model.dim`: it is what `sample_initial`
returns, what `propagate` and `mm_energy` take, what the integrator advances,
what trajectory files hold and what the surrogate reads and writes. There is
no second representation. Time is in fs, energies in eV, hbar in eV*fs.

The integrator is fixed-step RK4 with the harmonic bath in closed form
(`_BathRK4`). It uses only elementwise operations and fixed-tree reductions,
so propagating an ensemble in chunks of any size is bitwise identical to
propagating it whole; worker count never changes results.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from mmsqc import arrayio
from mmsqc.models import HBAR_EV_FS, SiteExcitonModel
from mmsqc.streams import substream

STATE_ORDERING = "x_e|p_e|Q|P"
ENERGY_CHUNK = 2048   # state vectors per energy evaluation in mm_energy
GAMMA = 1.0 / 3.0     # zero-point parameter of the mapping, fixed by the triangle windows


@dataclass(frozen=True)
class IntegratorConfig:
    dt_internal: float = 0.01  # fs

    def __post_init__(self):
        if not 0.0 < self.dt_internal < np.inf:   # also refuses nan
            raise ValueError(f"dt_internal must be finite and positive, got {self.dt_internal}")


class IntegrationError(RuntimeError):
    """Non-finite value hit during propagation."""

    def __init__(self, t: float, variable: str, trajectory: int):
        self.t = t
        self.variable = variable
        self.trajectory = trajectory
        super().__init__(f"non-finite {variable} at t = {t:g} fs in trajectory {trajectory}")

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
    batches: the mapping weights, diagonals and electronic derivatives (in
    1/fs) that `_BathRK4` steps with, and the energy in eV.

    The transposed layout keeps every block operation contiguous. Column
    independence matters: only elementwise ops, row gathers, loops over
    states and fixed-tree reductions, so each trajectory's result never
    depends on the batch shape. Constants are pre-divided by hbar.
    """

    def __init__(self, model: SiteExcitonModel):
        ne, nv = model.n_states, model.n_modes
        self.ne, self.nv = ne, nv
        v_h = model.v / HBAR_EV_FS
        self.v_diag_h = np.diag(v_h)[:, None]
        off_h = v_h - np.diag(np.diag(v_h))
        # (l, column l of V/hbar, zero diagonal, signed (+, -) for (dx, dp)) if coupled
        self.columns = [(l, np.multiply.outer([1.0, -1.0], off_h[:, l:l + 1]))
                        for l in range(ne) if off_h[:, l].any()]
        self.pairs = [(k, l, off_h[k, l]) for k in range(ne)
                      for l in range(k + 1, ne) if off_h[k, l] != 0.0]
        self.kappa_h = (model.kappa / HBAR_EV_FS)[:, None]
        self.omega_h = (model.omega / HBAR_EV_FS)[:, None]
        counts = [sl.stop - sl.start for sl in model.state_slices]
        # slots[i]: mode i's place in the flattened padded layout (m, n_states), where [j, k]
        # is state k's j-th mode and empty slots hold zeros, which are exact in tree sums
        self.m = max(counts)
        self.slots = np.concatenate([np.arange(c) * ne + k for k, c in enumerate(counts)])
        self.kappa_pad = self._padded(self.kappa_h)
        self.omega_pad = self._padded(self.omega_h)

    def _padded(self, rows: np.ndarray) -> np.ndarray:
        """Per-mode rows (n_modes, n) in the padded layout (m, n_states, n)."""
        out = np.zeros((self.m, self.ne, rows.shape[1]))
        out.reshape(-1, rows.shape[1])[self.slots] = rows
        return out

    def _weight(self, E: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x^2 + p^2)/2 - gamma of every state, (n_states, n)."""
        squares = E * E
        weight = np.add(squares[0], squares[1], out=out)
        weight *= 0.5
        weight -= GAMMA
        return weight

    def _diagonal(self, Y: np.ndarray) -> np.ndarray:
        """(V_kk + kappa_k.Q_k)/hbar for every state, (n_states, n)."""
        terms = self._padded(Y[2 * self.ne:2 * self.ne + self.nv])
        terms *= self.kappa_pad
        diag = _tree_sum_rows(terms)
        diag += self.v_diag_h
        return diag

    def _electronic(self, E: np.ndarray, diag: np.ndarray, out=None) -> np.ndarray:
        """d(x_e, p_e)/dt, (2, n_states, n), for the state diagonal `diag`:
        dx = diag p + V' p, dp = -(diag x + V' x), couplings V' in column order."""
        swapped = E[::-1]
        out = np.multiply(swapped, diag, out=out)
        np.negative(out[1], out=out[1])
        for l, col in self.columns:
            out += col * swapped[:, l:l + 1]
        return out

    def _energy(self, Y: np.ndarray) -> np.ndarray:
        """Energy of every column, (n,), in eV."""
        xe, pe, Q, P = _split(Y, self.ne, self.nv)
        weight = self._weight(Y[:2 * self.ne].reshape(2, self.ne, -1))
        energy = _tree_sum_rows(weight * self._diagonal(Y))
        bath = Q * Q
        bath += P * P
        bath *= 0.5 * self.omega_h
        energy += _tree_sum_rows(bath)
        for k, l, v_kl in self.pairs:
            energy += v_kl * (xe[k] * xe[l] + pe[k] * pe[l])
        return energy * HBAR_EV_FS


def mm_energy(model: SiteExcitonModel, states) -> np.ndarray:
    """Mapping-Hamiltonian energy (eV) of every x_e|p_e|Q|P vector in a
    (..., dim) stack; returns shape states.shape[:-1].

    Vectors are evaluated ENERGY_CHUNK at a time, so the temporaries stay a
    few MB for any stack, and each energy is the one its vector gives alone."""
    states = np.asarray(states, dtype=float)
    if states.shape[-1:] != (model.dim,):
        raise ValueError(f"model {model.label} needs (..., {model.dim}) state vectors, "
                         f"got shape {states.shape}")
    flat = states.reshape(-1, model.dim)
    ham = _Hamiltonian(model)
    energies = np.empty(len(flat))
    for a in range(0, len(flat), ENERGY_CHUNK):
        energies[a:a + ENERGY_CHUNK] = ham._energy(flat[a:a + ENERGY_CHUNK].T)
    return energies.reshape(states.shape[:-1])


# ---------------------------------------------------------------------------
# actions and triangle windows


def action(x, p):
    """Action variable n = (x^2 + p^2)/2 - gamma; elementwise."""
    return 0.5 * (np.asarray(x, dtype=float)**2 + np.asarray(p, dtype=float)**2) - GAMMA


def assign_from_actions(n) -> np.ndarray:
    """Triangle-window state assignment from action vectors.

    `n` has shape (..., n_states); returns int indices with -1 where no window
    is satisfied. State k is assigned when n_k + gamma >= 1 and, for every
    other state j, n_j + gamma >= 0 and n_k + n_j <= 2 - 2*gamma (pairwise
    generalization beyond two states).
    """
    n = np.asarray(n, dtype=float)
    ne = n.shape[-1]
    if ne < 2:
        raise ValueError("window assignment needs at least 2 states")
    assigned = np.full(n.shape[:-1], -1, dtype=np.int64)
    pair_cap = 2.0 - 2.0 * GAMMA
    for k in range(ne):
        mask = n[..., k] + GAMMA >= 1.0
        for j in range(ne):
            if j == k:
                continue
            mask = mask & (n[..., j] + GAMMA >= 0.0) & (n[..., k] + n[..., j] <= pair_cap)
        assigned = np.where(mask & (assigned < 0), k, assigned)
    return assigned


# ---------------------------------------------------------------------------
# initial sampling


def _check_init_state(model: SiteExcitonModel, init_state: int) -> None:
    if not 0 <= init_state < model.n_states:
        raise ValueError(f"init_state {init_state} out of range for {model.n_states} states")


def sample_initial(model: SiteExcitonModel, init_state: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw one initial condition, a (dim,) x_e|p_e|Q|P vector: triangle-window
    electronic sampling plus ground-level action-angle nuclear sampling.

    Electronic radii e_k = n_k + gamma are uniform over the window support of
    the initial state (e_init in [1, 2], others in [0, 1], pairwise
    e_init + e_j <= 2); angles are uniform. Every nuclear mode starts on its
    zero-point ring Q = cos(phi), P = -sin(phi).
    """
    _check_init_state(model, init_state)
    ne = model.n_states
    others = [k for k in range(ne) if k != init_state]
    e = np.empty(ne)
    while True:
        e[init_state] = rng.uniform(1.0, 2.0)
        e[others] = rng.uniform(0.0, 1.0, size=ne - 1)
        if np.all(e[init_state] + e[others] <= 2.0):
            break
    theta = rng.uniform(0.0, 2.0 * np.pi, size=ne)
    radius = np.sqrt(2.0 * e)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=model.n_modes)
    return np.concatenate([radius * np.cos(theta), -radius * np.sin(theta),
                           np.cos(phi), -np.sin(phi)])


def _sample_starts(model: SiteExcitonModel, init_state: int, seed: int,
                   a: int, b: int) -> np.ndarray:
    """Initial conditions of trajectories a..b-1, (b - a, dim); trajectory i
    draws from the (seed, "sampling", i) stream. One row at a time: batching
    the draws over the rows was faster but raised `replay-V`'s peak RSS."""
    starts = np.empty((b - a, model.dim))
    for row, i in zip(starts, range(a, b)):
        row[:] = sample_initial(model, init_state, substream(seed, "sampling", i))
    return starts


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
        if not 0.0 < self.record_dt < np.inf:   # also refuses nan
            raise ValueError(f"record_dt must be finite and positive, got {self.record_dt}")

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_records) * self.record_dt


def _ensemble_header(model_label: str, n_states: int, shape: tuple, record_dt: float,
                     seed: int | None) -> dict:
    n_traj, n_records, dim = shape
    return {"model": model_label, "n_traj": n_traj, "n_steps": n_records,
            "record_dt": record_dt, "dim": dim, "n_states": n_states,
            "ordering": STATE_ORDERING, "seed": seed}


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
        if not 0.0 < self.record_dt < np.inf:   # also refuses nan
            raise ValueError(f"record_dt must be finite and positive, got {self.record_dt}")
        nuclear = self.dim - 2 * self.n_states
        if self.n_states < 1 or nuclear < 0 or nuclear % 2:
            raise ValueError(f"n_states {self.n_states} does not fit state vectors of size "
                             f"{self.dim} (2 n_states + 2 n_modes, n_states >= 1)")

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

    def header(self) -> dict:
        return _ensemble_header(self.model_label, self.n_states, self.data.shape,
                                self.record_dt, self.seed)

    def save(self, path: str, extra_header: dict | None = None) -> None:
        arrayio.write_array_file(path, arrayio.ENSEMBLE,
                                 {**self.header(), **(extra_header or {})}, self.data)

    @classmethod
    def load(cls, path: str) -> "TrajectoryEnsemble":
        header, (data,) = arrayio.read_array_file(
            path, arrayio.ENSEMBLE, lambda h: [(h["n_traj"], h["n_steps"], h["dim"])],
            layout={"ordering": STATE_ORDERING},
            n_traj=int, n_steps=int, dim=int, n_states=int, record_dt=float)
        try:
            return cls(header["record_dt"], data, header["n_states"],
                       header.get("model", "custom"), header.get("seed"))
        except ValueError as exc:
            raise arrayio.HeaderError(f"{path}: {exc}") from None

    def content_hash(self) -> str:
        """SHA-256 of the file `save` writes without an extra header."""
        return arrayio.file_sha256(arrayio.ENSEMBLE, self.header(), self.data)


def ensemble_file(path: str, model: SiteExcitonModel, shape: tuple, record_dt: float,
                  seed: int | None, extra_header: dict | None = None):
    """Context manager that writes the file `TrajectoryEnsemble.save` would
    write for a `shape` (n_traj, n_records, dim) ensemble of `model`, and
    yields the writer of its rows (`arrayio.payload_file`)."""
    header = _ensemble_header(model.label, model.n_states, shape, record_dt, seed)
    return arrayio.payload_file(path, arrayio.ENSEMBLE, {**header, **(extra_header or {})},
                                shape)


# ---------------------------------------------------------------------------
# propagation


def _grid_steps(total: float, step: float, what: str) -> int:
    ratio = total / step if 0.0 < step < np.inf else np.nan   # also refuses a nan step
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * step - total) > 1e-9 * max(1.0, abs(total)):
        raise ValueError(f"{what}: {total} is not a positive multiple of {step}")
    return n


class _BathRK4:
    """RK4 from the start rows Y0 (n, dim) with the bath, linear in (Q, P), in closed form:
    the mapping pairs run the four stages on diagonals from four bath moments,
    and (Q, P) advance once per substep by the increment those stages give
    (h the substep, u1..u4 the stage weights, theta = h omega, all over hbar):

        D1 = V + S0,  D2 = D1 + (h/2) S1,  D3 = D2 - (h^2/4)(S2 + c u1),
        D4 = D1 + h S1 - (h^2/2)(S2 + c u2) - (h^3/4) S3,
        dQ = (a-1) Q + b P + kappa [(h theta^3/24) u1 - (h theta/6)(u1+u2+u3)],
        dP = (a-1) P - b Q + kappa [(h theta^2/12)(u1+u2) - (h/6)(u1+2u2+2u3+u4)],

    where S0..S3 sum kappa Q, kappa omega P, kappa omega^2 Q and kappa omega^3 P
    over each state's modes, c = sum kappa^2 omega, a = 1 - theta^2/2 +
    theta^4/24 and b = theta - theta^3/6. E (2, n_states, n) holds a copy of
    x_e, p_e and B (m, 2, n_states, n) Q, P padded; `store` writes (n, dim) rows.
    """

    def __init__(self, ham: _Hamiltonian, h: float, Y0: np.ndarray):
        self.ham, self.h = ham, h
        ne, m, n = ham.ne, ham.m, Y0.shape[0]
        kappa, theta = ham.kappa_pad, h * ham.omega_pad      # (m, n_states, 1)
        decay, turn = theta**4 / 24 - theta**2 / 2, theta - theta**3 / 6   # a - 1, b

        def wide(q, p):   # coefficients of Q and P as wide as the batch: faster than a broadcast
            return np.ascontiguousarray(np.broadcast_to(np.stack([q, p], axis=1), (m, 2, ne, n)))

        # S0, (h/2) S1, (h^2/4) S2, (h/2) S1 - (h^3/4) S3; S0 + V is `_diagonal` bit for bit
        self.moments = np.stack([wide(kappa, kappa * theta / 2), wide(
            kappa * theta**2 / 4, kappa * (theta / 2 - theta**3 / 4))], axis=1)
        self.c = h / 4 * np.sum(kappa**2 * theta, axis=0)   # (h^2/4) c
        self.decay, self.turn = wide(decay, decay), wide(turn, -turn)
        self.kick_sum = wide(-h * kappa * theta / 6, -h * kappa / 6)
        self.kick_early = wide(h * kappa * theta**3 / 24, h * kappa * theta**2 / 12)
        q = ham.slots + ham.slots // ne * ne   # canonical rows' places in B, flattened
        self.rows = np.concatenate([q, q + ne])
        self.E = Y0[:, :2 * ne].T.reshape(2, ne, n).copy()   # a view of Y0 without the copy
        self.B = np.zeros((m, 2, ne, n))
        self.B.reshape(-1, n)[self.rows] = Y0[:, 2 * ne:].T
        self.terms = np.empty((m, 2, 2, ne, n))
        self.inc, self.tmp = np.empty((2, m, 2, ne, n))
        self.k, self.diag, self.u = np.empty((4, 2, ne, n)), *np.empty((2, 4, ne, n))
        self.u_early, self.u_sum = np.empty((2, 2, ne, n))

    def store(self, rows: np.ndarray) -> None:
        rows[:, :2 * self.ham.ne] = self.E.reshape(2 * self.ham.ne, -1).T
        np.take(self.B.reshape(-1, len(rows)), self.rows, axis=0, out=rows[:, 2 * self.ham.ne:].T)

    def step(self) -> None:
        ham, h, E, B, k, D, u = self.ham, self.h, self.E, self.B, self.k, self.diag, self.u
        S = _tree_sum_rows(np.multiply(B[:, None], self.moments, out=self.terms))
        np.add(S[0, 0], ham.v_diag_h, out=D[0])                           # D1
        np.add(D[0], S[0, 1], out=D[1])                                   # D2
        ham._weight(E, out=u[0])
        ham._electronic(E, D[0], out=k[0])
        stage = E + 0.5 * h * k[0]
        ham._weight(stage, out=u[1])
        ham._electronic(stage, D[1], out=k[1])
        np.subtract(D[1], S[1, 0] + self.c * u[0], out=D[2])              # D3
        np.add(E, 0.5 * h * k[1], out=stage)
        ham._weight(stage, out=u[2])
        ham._electronic(stage, D[2], out=k[2])
        np.subtract(D[1] + S[1, 1], 2.0 * (S[1, 0] + self.c * u[1]), out=D[3])   # D4
        np.add(E, h * k[2], out=stage)
        ham._weight(stage, out=u[3])
        ham._electronic(stage, D[3], out=k[3])
        # the bath from its start value: u_early = (u1, u1+u2), u_sum = (u1+u2+u3, u1+2u2+2u3+u4)
        u_early, u_sum, inc, tmp = self.u_early, self.u_sum, self.inc, self.tmp
        np.copyto(u_early[0], u[0])
        np.add(u[0], u[1], out=u_early[1])
        np.add(u_early[1], u[2], out=u_sum[0])
        np.add(u_sum[0], u[1] + u[2] + u[3], out=u_sum[1])
        np.multiply(B, self.decay, out=inc)
        inc += np.multiply(B[:, ::-1], self.turn, out=tmp)
        inc += np.multiply(u_sum, self.kick_sum, out=tmp)
        inc += np.multiply(u_early, self.kick_early, out=tmp)
        B += inc
        k[1] += k[2]   # E += h/6 (k1 + 2 (k2 + k3) + k4), accumulated in k2
        k[1] *= 2.0
        k[1] += k[0]
        k[1] += k[3]
        k[1] *= h / 6.0
        E += k[1]


def _propagate_batch(Y0: np.ndarray, offset: int, out: np.ndarray, model: SiteExcitonModel,
                     icfg: IntegratorConfig, record_dt: float) -> tuple[float, float]:
    """Fixed-step RK4 on a (n, dim) batch, written into `out` (n, n_records,
    dim). Row r is absolute trajectory `offset` + r in error messages.
    Returns the batch's largest energy drift |E(t) - E(0)| in eV, through
    `mm_energy` (so bit for bit `ensemble_energies`'), and largest
    mapping-norm drift |N(t) - N(0)|, N = sum_k (x_k^2 + p_k^2)/2, both read
    back from `out` after the loop. (Scoring every record inside the loop
    instead raised `replay-V`'s peak RSS.)"""
    n_rec = out.shape[1]
    n_sub = _grid_steps(record_dt, icfg.dt_internal, "record_dt")
    out[:, 0] = Y0
    rk4 = _BathRK4(_Hamiltonian(model), record_dt / n_sub, Y0)
    # a diverging trajectory overflows to inf; the finite check below reports
    # it, so the overflow warning itself would be redundant noise
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in range(1, n_rec):
            for _ in range(n_sub):
                rk4.step()
            rows = out[:, rec]
            rk4.store(rows)
            if not np.all(np.isfinite(rows)):
                # lowest trajectory first, then its lowest variable
                row, var = np.argwhere(~np.isfinite(rows))[0]
                raise IntegrationError(rec * record_dt,
                                       _variable_name(model, int(var)),
                                       offset + int(row))
    energy = mm_energy(model, out)
    electronic = out[:, :, :2 * model.n_states]
    norm = 0.5 * np.sum(electronic * electronic, axis=2)
    return (float(np.max(np.abs(energy - energy[:, :1]))),
            float(np.max(np.abs(norm - norm[:, :1]))))


def record_count(t_end: float, record_dt: float) -> int:
    """Records of a run to t_end on the record_dt grid, t = 0 included."""
    return _grid_steps(t_end, record_dt, "t_end") + 1


def propagate(model: SiteExcitonModel, y0, icfg: IntegratorConfig, t_end: float,
              record_dt: float) -> Trajectory:
    """Integrate one trajectory from the (dim,) vector y0, recording every
    record_dt (t = 0 included)."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise ValueError(f"model {model.label} needs a ({model.dim},) initial state, "
                         f"got shape {y0.shape}")
    out = np.empty((1, record_count(t_end, record_dt), model.dim))
    _propagate_batch(y0[None, :], 0, out, model, icfg, record_dt)
    return Trajectory(record_dt, out[0], model.n_states)


_CHUNK_JOB = None   # (work, starts, out, args); set only in fan-out worker processes


def _set_chunk_job(*job) -> None:
    global _CHUNK_JOB
    _CHUNK_JOB = job


def _run_chunk(a: int, b: int, job: tuple | None = None):
    """Run chunk [a, b) of `job` (the fan-out worker's if None); see `_map_chunks`."""
    work, starts, out, args = job or _CHUNK_JOB
    rows = np.empty((b - a, *out.shape[1:]))
    result = work(starts(a, b), a, rows, *args)
    out(a, rows)
    return result


def _map_chunks(work, n: int, starts, row_shape: tuple, workers: int, *args,
                grain: int = 1, out=None) -> tuple[np.ndarray | None, list]:
    """Run work(starts(a, b), a, rows, *args) over contiguous chunks [a, b)
    of n trajectories, one per worker process, and return the (n,
    *row_shape) float64 result (None with `out`) and the list of what each
    chunk's `work` returned, in chunk order. `starts(a, b)` gives the
    chunk's start vectors and runs where the chunk runs; `work` fills `rows`
    in place; `a`, the chunk's first trajectory, is for error messages.
    Chunks hold whole grains of `grain` trajectories, so none is empty.

    A chunk runs in this process at one worker, else in a forked worker,
    into a private array, and writes it once with `out(a, rows)`: `out` is
    a row writer of shape (n, *row_shape) such as `ensemble_file` yields.
    Without `out`, the rows wait in an unnamed temp file (in TMPDIR), read
    back as the result once every chunk is done. No chunk is sent back.

    Every chunk runs to the end. If any failed, the failure with the
    earliest time `t` is raised (a failure without one counts as t = 0),
    ties going to chunk order, so the error does not depend on the chunk
    count."""
    shape = (n, *row_shape)
    if out is None:
        import tempfile

        with tempfile.TemporaryFile() as fh:
            _, results = _map_chunks(work, n, starts, row_shape, workers, *args, grain=grain,
                                     out=arrayio.PayloadWriter(fh.fileno(), 0, shape))
            return np.fromfile(fh).reshape(shape), results
    if not callable(out) or getattr(out, "shape", None) != shape:
        raise ValueError(f"out must be a row writer of shape {shape}, got a "
                         f"{type(out).__name__} of shape {getattr(out, 'shape', None)}")
    grains = -(-n // grain)
    workers = max(1, min(workers, grains))
    if workers == 1:
        return None, [_run_chunk(0, n, (work, starts, out, args))]
    # imported for the fan-out only: at the top they would slow every import and add to RSS
    import concurrent.futures
    import multiprocessing

    bounds = np.minimum(np.linspace(0, grains, workers + 1).astype(int) * grain, n)
    # fork, so the workers inherit `out`'s descriptor, not a pickled copy
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_chunk_job, initargs=(work, starts, out, args)) as pool:
        futures = [pool.submit(_run_chunk, int(a), int(b))
                   for a, b in zip(bounds[:-1], bounds[1:])]
    failures = [exc for exc in (fut.exception() for fut in futures) if exc is not None]
    if failures:
        raise min(failures, key=lambda exc: getattr(exc, "t", 0.0))
    return None, [fut.result() for fut in futures]


def run_ensemble(model: SiteExcitonModel, n_traj: int, init_state: int, seed: int,
                 icfg: IntegratorConfig, t_end: float, record_dt: float,
                 workers: int = 1, out: arrayio.PayloadWriter | None = None):
    """Sample and propagate n_traj independent trajectories.

    Trajectory i draws its initial condition from the (seed, "sampling", i)
    stream, and chunked propagation is bitwise chunk-size-invariant, so
    results are reproducible and independent of `workers` (process-based).
    Each worker samples its own trajectories.

    With `out`, a (n_traj, n_records, dim) row writer such as
    `ensemble_file` yields (see `_map_chunks`), the trajectories are written
    there, and the result is not an ensemble but its largest energy drift
    |E(t) - E(0)| in eV and largest mapping-norm drift |N(t) - N(0)|, each
    worker scoring its own trajectories. Two or more workers write `out`
    themselves, so this process holds none of the ensemble.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    _check_init_state(model, init_state)   # fail before sampling or starting workers
    n_rec = record_count(t_end, record_dt)
    _grid_steps(record_dt, icfg.dt_internal, "record_dt")
    data, drifts = _map_chunks(_propagate_batch, n_traj,
                               functools.partial(_sample_starts, model, init_state, seed),
                               (n_rec, model.dim), workers, model, icfg, record_dt, out=out)
    if out is not None:
        return tuple(np.max(drifts, axis=0).tolist())
    return TrajectoryEnsemble(record_dt, data, model.n_states,
                              model_label=model.label, seed=seed)


def ensemble_energies(model: SiteExcitonModel, ensemble: TrajectoryEnsemble) -> np.ndarray:
    """Mapping-Hamiltonian energy of every recorded state, (n_traj, n_records).
    Refuses an ensemble whose state count or vector size is not the model's."""
    if (ensemble.n_states, ensemble.dim) != (model.n_states, model.dim):
        raise ValueError(f"ensemble of model {ensemble.model_label} has {ensemble.n_states} "
                         f"states and dim {ensemble.dim}; model {model.label} has "
                         f"{model.n_states} states and dim {model.dim}")
    return mm_energy(model, ensemble.data)


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


def populations(ensemble: TrajectoryEnsemble) -> PopulationSeries:
    """Bin every recorded state with the triangle windows and renormalize
    over assigned trajectories."""
    ne = ensemble.n_states
    xe = ensemble.data[:, :, :ne]
    pe = ensemble.data[:, :, ne:2 * ne]
    assigned = assign_from_actions(action(xe, pe))  # (n_traj, n_rec)
    counts = np.stack([np.sum(assigned == k, axis=0) for k in range(ne)], axis=1)
    total = counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(total[:, None] > 0, counts / total[:, None], np.nan)
    unassigned = 1.0 - total / ensemble.n_traj
    return PopulationSeries(ensemble.times, values, unassigned, ensemble.n_traj)
