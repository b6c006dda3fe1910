"""Autoregressive replay of trained networks and ensemble comparison analytics:
window-binned population deviations, per-DOF mean absolute errors at selected
times, and time-resolved coordinate distributions.
"""

import functools
from dataclasses import dataclass

import numpy as np

from mmsqc.arrayio import PayloadWriter, write_atomic
from mmsqc.models import SiteExcitonModel
from mmsqc.sqc import (
    PopulationSeries,
    Trajectory,
    TrajectoryEnsemble,
    _check_init_state,
    _map_chunks,
    _sample_starts,
    populations,
)
from mmsqc.surrogate import LstmParams, _fold_readout, _unroll


class RolloutError(RuntimeError):
    """Non-finite prediction during autoregressive replay."""

    def __init__(self, step: int, trajectory: int):
        self.step = step
        self.trajectory = trajectory
        super().__init__(f"non-finite prediction at step {step} in trajectory {trajectory}")

    def __reduce__(self):
        return (RolloutError, (self.step, self.trajectory))


@dataclass(frozen=True)
class RolloutConfig:
    n_traj: int
    total_steps: int
    seq_len: int           # chunk length, must match the checkpoint
    seed: int = 0
    init_state: int = 0
    record_dt: float = 1.0
    workers: int = 1

    def __post_init__(self):
        if min(self.n_traj, self.total_steps) < 1 or self.seq_len < 2:
            raise ValueError("n_traj, total_steps must be >= 1 and seq_len >= 2")
        if not 0.0 < self.record_dt < np.inf:   # also refuses nan
            raise ValueError(f"record_dt must be finite and positive, got {self.record_dt}")


BLOCK = 64   # trajectories replayed together; every GEMM has this many rows


def rollout_trajectory(x0, params: LstmParams, total_steps: int, seq_len: int,
                       n_states: int, record_dt: float = 1.0) -> Trajectory:
    """Replay one trajectory from a single state vector. It runs as row 0 of
    a padded block through the same folded weights, so it pays for a whole
    block and equals, bit for bit, any ensemble row that sits at position 0
    of its block."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (params.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, network expects ({params.dim},)")
    if total_steps < 0 or seq_len < 2:
        raise ValueError(f"total_steps must be >= 0 and seq_len >= 2, "
                         f"got {total_steps} and {seq_len}")
    data = np.empty((1, total_steps + 1, params.dim))
    _rollout_chunk(x0[None], 0, data, params, _fold_readout(params), seq_len)
    return Trajectory(record_dt, data[0], n_states)


def _rollout_chunk(starts: np.ndarray, offset: int, out: np.ndarray, params: LstmParams,
                   fold, seq_len: int) -> None:
    """Chunked autoregression of the start vectors (n, D) into `out` (n,
    steps + 1, D), x0 at step 0, as zero-padded batches of BLOCK rows; the
    step count is read from `out`. Each chunk of seq_len - 1 steps (the last
    one cut at `out`'s end) starts from the zero state on x0 or the last
    forecast; its later steps run through `fold` = `_fold_readout(params)`.
    A non-finite step raises RolloutError naming the trajectory (`offset` +
    row) that fails first, blocks in order, lowest row on a tie."""
    out[:, 0] = starts
    # a diverging prediction overflows to inf; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, starts.shape[0], BLOCK):
            rows = out[a:a + BLOCK]
            x = np.zeros((BLOCK, starts.shape[1]))
            x[:len(rows)] = starts[a:a + BLOCK]
            for done in range(0, out.shape[1] - 1, seq_len - 1):
                chunk = rows[:, done + 1:done + seq_len]
                x = _unroll(params, x, chunk, fold=fold)   # the last forecast seeds the next chunk
                bad = ~np.all(np.isfinite(chunk), axis=2)            # (n, steps)
                if bad.any():
                    step = int(np.flatnonzero(bad.any(axis=0))[0])
                    raise RolloutError(done + step + 1,
                                       offset + a + int(np.flatnonzero(bad[:, step])[0]))


def rollout_ensemble(model: SiteExcitonModel, params: LstmParams, cfg: RolloutConfig,
                     out: PayloadWriter | None = None) -> TrajectoryEnsemble | None:
    """Sample cfg.n_traj fresh initial conditions and replay each with the
    network. Initial draws use the same (seed, "sampling", i) streams as
    direct dynamics, so a reference ensemble with the same seed starts from
    identical conditions; each worker samples its own trajectories.

    With `out`, a (n_traj, total_steps + 1, dim) row writer such as
    `ensemble_file` yields (see `sqc._map_chunks`), the replay is written
    there and nothing is returned. Two or more workers write `out`
    themselves, so this process holds none of it.
    """
    if params.dim != model.dim:
        raise ValueError(
            f"checkpoint dimension {params.dim} does not match model "
            f"{model.label} dimension {model.dim}"
        )
    _check_init_state(model, cfg.init_state)   # fail before starting workers
    data, _ = _map_chunks(_rollout_chunk, cfg.n_traj,
                          functools.partial(_sample_starts, model, cfg.init_state, cfg.seed),
                          (cfg.total_steps + 1, model.dim), cfg.workers, params,
                          _fold_readout(params), cfg.seq_len,
                          grain=BLOCK, out=out)
    if out is None:
        return TrajectoryEnsemble(cfg.record_dt, data, model.n_states,
                                  model_label=model.label, seed=cfg.seed)


# ---------------------------------------------------------------------------
# comparisons


@dataclass
class PopulationDeviation:
    """Per-state absolute deviation between two binned population series."""

    mean_abs: np.ndarray   # (n_states,)
    max_abs: np.ndarray    # (n_states,)
    n_times: int           # time points compared (defined in both series)
    n_undefined: int       # time points skipped


def _check_same_grid(a: TrajectoryEnsemble, b: TrajectoryEnsemble) -> None:
    if a.n_records != b.n_records or a.record_dt != b.record_dt:
        raise ValueError(
            f"time grids differ: {a.n_records} x {a.record_dt} fs vs "
            f"{b.n_records} x {b.record_dt} fs"
        )
    labels = {a.model_label, b.model_label} - {"custom"}   # "custom": model not recorded
    if len(labels) > 1 or a.n_states != b.n_states or a.dim != b.dim:
        raise ValueError(f"ensembles come from different models: "
                         f"{a.model_label} vs {b.model_label}")


def compare_populations(pred: TrajectoryEnsemble, ref: TrajectoryEnsemble) -> PopulationDeviation:
    """Window-bin both ensembles and report per-state |P_pred - P_ref| stats."""
    _check_same_grid(pred, ref)
    pop_pred = populations(pred)
    pop_ref = populations(ref)
    both = pop_pred.defined & pop_ref.defined
    if not np.any(both):
        raise ValueError("populations undefined at every time point")
    diff = np.abs(pop_pred.values[both] - pop_ref.values[both])
    return PopulationDeviation(diff.mean(axis=0), diff.max(axis=0),
                               int(both.sum()), int((~both).sum()))


@dataclass
class DofErrorTable:
    """Mean absolute error of each nuclear variable at selected times."""

    slice_times: np.ndarray   # (n_slices,) fs
    labels: list[str]         # 2*N_v labels, Q block then P block
    mae: np.ndarray           # (n_slices, 2*N_v)


def _time_indices(ensemble: TrajectoryEnsemble, slice_times) -> np.ndarray:
    idx = []
    for t in np.atleast_1d(np.asarray(slice_times, dtype=float)):
        i = round(t / ensemble.record_dt)
        if not (0 <= i < ensemble.n_records) or abs(i * ensemble.record_dt - t) > 1e-9:
            raise ValueError(f"slice time {t} fs is not on the ensemble grid")
        idx.append(i)
    return np.array(idx, dtype=int)


def dof_mae(pred: TrajectoryEnsemble, ref: TrajectoryEnsemble,
            slice_times) -> DofErrorTable:
    """Per-DOF MAE over index-aligned trajectories (trajectory i of both
    ensembles starts from the same initial condition)."""
    _check_same_grid(pred, ref)
    if pred.n_traj != ref.n_traj:
        raise ValueError(f"trajectory counts differ: {pred.n_traj} vs {ref.n_traj}")
    idx = _time_indices(pred, slice_times)
    ne = pred.n_states
    n_v = (pred.dim - 2 * ne) // 2
    nuclear_pred = pred.data[:, idx, 2 * ne:]
    nuclear_ref = ref.data[:, idx, 2 * ne:]
    mae = np.mean(np.abs(nuclear_pred - nuclear_ref), axis=0)
    labels = [f"Q{j}" for j in range(n_v)] + [f"P{j}" for j in range(n_v)]
    times = idx * pred.record_dt
    return DofErrorTable(times, labels, mae)


@dataclass
class CoordinateHistogram:
    """Time-resolved distribution of one state-vector variable; each time
    column is mass-normalized."""

    times: np.ndarray          # (n_times,)
    bin_centers: np.ndarray    # (bins,)
    density: np.ndarray        # (n_times, bins)
    variable: int


def coordinate_histogram(ensemble: TrajectoryEnsemble, variable: int,
                         bins: int = 50,
                         value_range: tuple[float, float] = (-3.0, 3.0)) -> CoordinateHistogram:
    """Histogram one variable over trajectories at every recorded time."""
    if not 0 <= variable < ensemble.dim:
        raise ValueError(f"variable index {variable} out of range for dim {ensemble.dim}")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"empty histogram range [{lo}, {hi})")
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(lo, hi, bins + 1)
    density = np.empty((ensemble.n_records, bins))
    for i in range(ensemble.n_records):
        counts, _ = np.histogram(ensemble.data[:, i, variable], bins=edges)
        total = counts.sum()
        density[i] = counts / total if total > 0 else 0.0
    return CoordinateHistogram(ensemble.times,
                               0.5 * (edges[:-1] + edges[1:]), density, variable)


# ---------------------------------------------------------------------------
# CSV output (fixed headers)


def _fmt(x) -> str:
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else repr(float(x))


def write_csv(path: str, columns: list[str], rows) -> None:
    """Atomically write a CSV: text and int cells as is, every other cell as
    repr(float), so values round-trip exactly."""
    lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_populations_csv(path: str, series: PopulationSeries) -> None:
    cols = ["time"] + [f"P{k + 1}" for k in range(series.n_states)] + ["unassigned"]
    write_csv(path, cols, ([t, *series.values[i], series.unassigned[i]]
                           for i, t in enumerate(series.times)))


def write_compare_csv(path: str, dev: PopulationDeviation) -> None:
    write_csv(path, ["state", "mean_abs_dev", "max_abs_dev"],
              ([f"P{k + 1}", dev.mean_abs[k], dev.max_abs[k]] for k in range(len(dev.mean_abs))))


def write_mae_csv(path: str, table: DofErrorTable) -> None:
    write_csv(path, ["dof_label"] + [f"t{t:g}" for t in table.slice_times],
              ([label, *table.mae[:, j]] for j, label in enumerate(table.labels)))


def write_histogram_csv(path: str, hist: CoordinateHistogram) -> None:
    write_csv(path, ["time", "bin_center", "density"],
              ([t, c, d] for i, t in enumerate(hist.times)
               for c, d in zip(hist.bin_centers, hist.density[i])))
