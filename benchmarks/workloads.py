"""Benchmark workloads: the `mmsqc` command sequence each one runs, and the
checks its outputs must pass.

A workload is a fixed chain of CLI commands. The run seed only picks the
inputs: simulate uses `seed`, the dataset split `seed + 1`, training
`seed + 2`, and a rollout of fresh initial conditions `seed + 3`. The
program sees nothing but these arguments and the files earlier commands
wrote.

The checks use the acceptance tolerances, never hashes of output bytes:
energy drift below the criterion-3 bound, populations inside [0, 1] (and
defined wherever a simulated ensemble is binned), rollouts finite with an
amplitude ratio below 10 against the simulated ensemble (criterion 8), and
every written file loading back with the header the command asked for.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from mmsqc import dataset as ds, models, sqc, surrogate

# criterion-3 drift bounds (eV): 1e-5 for the 8-mode models (I-IV), 5e-5 for
# the 70-mode Debye models (V, VI)
DRIFT_BOUND_EV = {"I": 1e-5, "II": 1e-5, "III": 1e-5, "IV": 1e-5,
                  "V": 5e-5, "VI": 5e-5}
AMPLITUDE_RATIO_MAX = 10.0   # criterion 8
# shared by every workload: the CLI's default RK4 step, a 1 fs record grid,
# and a short training run at the desk-scale learning rate and batch size
DT = 0.01                    # fs
RECORD_DT = 1.0              # fs
EPOCHS = 2
LR = 1e-3
BATCH = 50
HIST_BINS = 60
HIST_RANGE = (-2.5, 2.5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    sim_traj: int
    sim_fs: float
    workers: int
    seq_len: int = 0            # 0: no surrogate stages
    hidden: int = 0
    rollout_traj: int = 0       # 0: replay the simulated initial conditions
    rollout_steps: int = 0
    analyses: tuple = ()        # ("populations" | "hist" | "compare" | "mae", ...)


WORKLOADS = {w.name: w for w in (
    Workload(
        "reference-III",
        why="Model III reference ensemble: a batch large enough that RK4 integration "
            "(~98% of the time) is bound by array traffic; no surrogate code runs.",
        model="III", sim_traj=2048, sim_fs=16.0, workers=2,
        analyses=("populations", "hist"),
    ),
    Workload(
        "surrogate-I",
        why="Model I full pipeline: LSTM training at H=512 dominates (forward, BPTT, "
            "Adam); simulate runs a small batch, so it reads per-call kernel overhead.",
        model="I", sim_traj=24, sim_fs=40.0, workers=1,
        seq_len=5, hidden=512,
        analyses=("compare", "mae"),
    ),
    Workload(
        "replay-V",
        why="Model V (dim 284): a long rollout of 64 fresh initial conditions "
            "dominates, with L=20 chunks and a 29 MB predicted file written and read.",
        model="V", sim_traj=16, sim_fs=30.0, workers=1,
        seq_len=20, hidden=256,
        rollout_traj=64, rollout_steps=200,
        analyses=("populations", "hist"),
    ),
)}


def tiny(w: Workload) -> Workload:
    """The same command chain at a size that finishes in about a second."""
    return replace(w, sim_traj=min(w.sim_traj, 32), sim_fs=min(w.sim_fs, 24.0),
                   hidden=min(w.hidden, 16),
                   rollout_traj=min(w.rollout_traj, 4),
                   rollout_steps=min(w.rollout_steps, 30))


class CheckError(Exception):
    """An output failed its check."""


@dataclass(frozen=True)
class Step:
    stage: str      # simulate | dataset | train | rollout | analyze
    argv: tuple
    check: object   # callable(Pipeline) that raises CheckError


class Pipeline:
    """The commands of one workload at one seed, with files under `work_dir`,
    and the checks of their outputs.

    Checks also record quality figures (energy drift, best validation loss,
    population deviation, rollout amplitude ratio) in `quality`, and the
    outputs the traced run replays.
    """

    def __init__(self, w: Workload, seed: int, work_dir: str):
        self.w = w
        self.seed = seed
        self.model = models.build_model(w.model)
        self.path = {name: os.path.join(work_dir, name) for name in (
            "sim.traj", "train.seq", "model.ckpt", "loss.csv", "pred.traj",
            "populations.csv", "hist.csv", "compare.csv", "mae.csv", "alt.traj")}
        self.n_records = round(w.sim_fs / RECORD_DT) + 1
        self.fresh_rollout = w.rollout_traj > 0
        self.rollout_traj = w.rollout_traj or w.sim_traj
        self.rollout_steps = w.rollout_steps or self.n_records - 1
        # records of the ensemble the analyses read
        self.analysed_records = self.rollout_steps + 1 if w.seq_len else self.n_records
        self.quality = {}
        self.steps = self._steps()

    # -- commands ------------------------------------------------------------

    def simulate_argv(self, workers: int, out: str) -> tuple:
        w = self.w
        return ("simulate", "--model", w.model, "--ntraj", str(w.sim_traj),
                "--t-end", repr(w.sim_fs), "--dt", repr(DT),
                "--record-dt", repr(RECORD_DT), "--seed", str(self.seed),
                "--workers", str(workers), "--out", out)

    def _steps(self) -> list:
        w, p = self.w, self.path
        steps = [Step("simulate", self.simulate_argv(w.workers, p["sim.traj"]),
                      Pipeline.check_simulate)]
        if w.seq_len:
            steps += [
                Step("dataset", ("dataset", "--ensemble", p["sim.traj"],
                                 "--seq-len", str(w.seq_len), "--seed", str(self.seed + 1),
                                 "--out", p["train.seq"]), Pipeline.check_dataset),
                Step("train", ("train", "--dataset", p["train.seq"], "--hidden", str(w.hidden),
                               "--lr", repr(LR), "--batch", str(BATCH),
                               "--epochs", str(EPOCHS), "--seed", str(self.seed + 2),
                               "--out", p["model.ckpt"], "--loss-csv", p["loss.csv"]),
                     Pipeline.check_train),
                Step("rollout", ("rollout", "--model", w.model, "--checkpoint", p["model.ckpt"],
                                 "--ntraj", str(self.rollout_traj),
                                 "--steps", str(self.rollout_steps),
                                 "--record-dt", repr(RECORD_DT),
                                 "--seed", str(self.rollout_seed), "--workers", "1",
                                 "--out", p["pred.traj"]), Pipeline.check_rollout),
            ]
        # analyses read the predicted ensemble when there is one
        ensemble = p["pred.traj"] if w.seq_len else p["sim.traj"]
        hist_var = 2 * self.model.n_states   # the first nuclear coordinate Q
        slices = ",".join(f"{t:g}" for t in self.mae_times)
        argv = {
            "populations": ("--ensemble", ensemble, "--out", p["populations.csv"]),
            "hist": ("--ensemble", ensemble, "--var", str(hist_var), "--bins", str(HIST_BINS),
                     "--min", repr(HIST_RANGE[0]), "--max", repr(HIST_RANGE[1]),
                     "--out", p["hist.csv"]),
            "compare": ("--pred", p["pred.traj"], "--ref", p["sim.traj"],
                        "--out", p["compare.csv"]),
            "mae": ("--pred", p["pred.traj"], "--ref", p["sim.traj"], "--slices", slices,
                    "--out", p["mae.csv"]),
        }
        check = {"populations": Pipeline.check_populations, "hist": Pipeline.check_hist,
                 "compare": Pipeline.check_compare, "mae": Pipeline.check_mae}
        steps += [Step("analyze", ("analyze", what) + argv[what], check[what])
                  for what in w.analyses]
        return steps

    @property
    def mae_times(self) -> list:
        """Quarter points of the rollout, on the record grid."""
        return [self.rollout_steps * k // 4 * RECORD_DT for k in (1, 2, 3, 4)]

    @property
    def rollout_seed(self) -> int:
        return self.seed + 3 if self.fresh_rollout else self.seed

    # -- checks ----------------------------------------------------------------

    def _load_ensemble(self, path: str, n_traj: int, n_records: int,
                       seed: int) -> sqc.TrajectoryEnsemble:
        ens = sqc.TrajectoryEnsemble.load(path)
        got = (ens.model_label, ens.n_traj, ens.n_records, ens.dim, ens.n_states,
               ens.record_dt, ens.seed)
        want = (self.model.label, n_traj, n_records, self.model.dim, self.model.n_states,
                RECORD_DT, seed)
        _expect(got == want, f"{path}: header {got} != {want}")
        _expect(np.all(np.isfinite(ens.data)), f"{path}: non-finite values")
        return ens

    def check_simulate(self):
        ens = self._load_ensemble(self.path["sim.traj"], self.w.sim_traj,
                                  self.n_records, self.seed)
        energies = sqc.ensemble_energies(self.model, ens)
        drift = float(np.max(np.abs(energies - energies[:, :1])))
        bound = DRIFT_BOUND_EV[self.model.label]
        _expect(drift <= bound, f"energy drift {drift:.3e} eV above {bound:g} eV")
        self.quality["energy_drift_eV"] = drift
        self.sim_range = np.abs(ens.data).max(axis=(0, 1))
        self.sim_starts = ens.data[:, 0].copy()

    def check_dataset(self):
        data = ds.SequenceDataset.load(self.path["train.seq"])
        per_traj = self.n_records - self.w.seq_len + 1
        got = (data.seq_len, data.dim, data.split_seed, data.n_train, data.n_validation)
        n_val = self.w.sim_traj * (per_traj // 4)
        want = (self.w.seq_len, self.model.dim, self.seed + 1,
                self.w.sim_traj * per_traj - n_val, n_val)
        _expect(got == want, f"dataset header {got} != {want}")
        _expect(np.all(np.isfinite(data.train)) and np.all(np.isfinite(data.validation)),
                "dataset has non-finite values")
        self.n_train = data.n_train

    def check_train(self):
        _, header = surrogate.load_checkpoint(self.path["model.ckpt"])
        w = self.w
        got = tuple(header.get(k) for k in ("dim", "hidden", "seq_len", "epochs", "seed"))
        want = (self.model.dim, w.hidden, w.seq_len, EPOCHS, self.seed + 2)
        _expect(got == want, f"checkpoint header {got} != {want}")
        val = np.array(header["val_loss"], dtype=float)
        _expect(len(header["train_loss"]) == EPOCHS and len(val) == EPOCHS,
                "checkpoint loss history has the wrong length")
        _expect(np.all(np.isfinite(val)) and np.all(np.isfinite(header["train_loss"])),
                "non-finite loss")
        _expect(header["best_epoch"] == int(np.argmin(val)), "best epoch is not the best")
        rows = _read_csv(self.path["loss.csv"], ["epoch", "train_loss", "val_loss"])
        _expect(len(rows) == EPOCHS and np.array_equal(rows[:, 2], val),
                "loss CSV disagrees with the checkpoint")
        self.quality["val_loss_best"] = float(val.min())
        self.train_header = header

    def check_rollout(self):
        pred = self._load_ensemble(self.path["pred.traj"], self.rollout_traj,
                                   self.rollout_steps + 1, self.rollout_seed)
        ratio = float(np.max(np.abs(pred.data).max(axis=(0, 1)) / self.sim_range))
        _expect(ratio < AMPLITUDE_RATIO_MAX,
                f"rollout amplitude ratio {ratio:.2f} not below {AMPLITUDE_RATIO_MAX:g}")
        if not self.fresh_rollout:
            # same seed, same sampling streams: identical initial conditions
            _expect(np.array_equal(pred.data[:, 0], self.sim_starts),
                    "rollout initial conditions differ from the simulated ones")
        self.quality["amplitude_ratio"] = ratio
        self.pred_data = pred.data

    def check_populations(self):
        ne = self.model.n_states
        header = ["time"] + [f"P{k + 1}" for k in range(ne)] + ["unassigned"]
        rows = _read_csv(self.path["populations.csv"], header)
        n_rec = self.analysed_records
        _expect(len(rows) == n_rec, f"populations CSV has {len(rows)} rows, want {n_rec}")
        _expect(np.array_equal(rows[:, 0], np.arange(n_rec) * RECORD_DT), "bad time column")
        values, unassigned = rows[:, 1:-1], rows[:, -1]
        defined = ~np.any(np.isnan(values), axis=1)
        _expect(np.all((unassigned >= 0) & (unassigned <= 1)), "unassigned share outside [0, 1]")
        _expect(np.all(np.isnan(values[~defined])) and np.all(unassigned[~defined] == 1.0),
                "partly defined population row")
        v = values[defined]
        _expect(np.all((v >= 0) & (v <= 1)), "population outside [0, 1]")
        _expect(np.allclose(v.sum(axis=1), 1.0, rtol=0, atol=1e-12), "populations do not sum to 1")
        if not self.w.seq_len:
            # a simulated ensemble starts inside the windows and must stay binned
            _expect(np.all(defined), "populations undefined at some times")

    def check_hist(self):
        rows = _read_csv(self.path["hist.csv"], ["time", "bin_center", "density"])
        n_rec = self.analysed_records
        _expect(len(rows) == n_rec * HIST_BINS,
                f"histogram CSV has {len(rows)} rows, want {n_rec * HIST_BINS}")
        density = rows[:, 2].reshape(n_rec, HIST_BINS)
        _expect(np.all((density >= 0) & (density <= 1)), "density outside [0, 1]")
        mass = density.sum(axis=1)
        _expect(np.all(np.isclose(mass, 1.0, rtol=0, atol=1e-12) | (mass == 0)),
                "histogram column not mass-normalized")

    def check_compare(self):
        rows = _read_csv(self.path["compare.csv"], ["state", "mean_abs_dev", "max_abs_dev"],
                         label_column=True)
        _expect(len(rows) == self.model.n_states, "compare CSV row count")
        mean_abs, max_abs = rows[:, 0], rows[:, 1]
        _expect(np.all((mean_abs >= 0) & (mean_abs <= max_abs) & (max_abs <= 1)),
                "population deviation outside [0, 1]")
        self.quality["pop_dev_max"] = float(mean_abs.max())

    def check_mae(self):
        times = [f"t{t:g}" for t in self.mae_times]
        rows = _read_csv(self.path["mae.csv"], ["dof_label"] + times, label_column=True)
        _expect(len(rows) == 2 * self.model.n_modes, "MAE CSV row count")
        _expect(np.all(np.isfinite(rows)) and np.all(rows >= 0), "bad MAE values")


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_csv(path: str, header: list, label_column: bool = False) -> np.ndarray:
    """Numeric body of a CSV whose first line must equal `header`; drops a
    leading label column if asked."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _expect(lines and lines[0].split(",") == header,
            f"{path}: header {lines[:1]} != {','.join(header)}")
    first = 1 if label_column else 0
    try:
        body = [[float(x) for x in line.split(",")[first:]] for line in lines[1:]]
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from None
    return np.array(body, dtype=float).reshape(len(body), len(header) - first)
