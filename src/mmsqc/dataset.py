"""Sliding-window sequence datasets built from trajectory ensembles.

A trajectory with n records yields n - L + 1 overlapping length-L sequences
(stride 1, chronological). Each trajectory's sequences are split 3:1 into
train/validation (validation count = floor(n/4)); the merged sets are then
globally shuffled, keeping the internal time order of every sequence intact.
"""

from dataclasses import dataclass

import numpy as np

from mmsqc import arrayio
from mmsqc.sqc import STATE_ORDERING, Trajectory, TrajectoryEnsemble
from mmsqc.streams import substream


def split_sequences(traj: Trajectory | TrajectoryEnsemble, seq_len: int) -> np.ndarray:
    """All sliding windows of length seq_len as a read-only view of the
    records: (n - L + 1, L, dim) for a trajectory, and
    (n_traj, n - L + 1, L, dim) for an ensemble."""
    if seq_len < 2:
        raise ValueError("sequence length must be at least 2")
    n = traj.n_records
    if n < seq_len:
        raise ValueError(f"trajectory has {n} records, need at least {seq_len}")
    return np.swapaxes(np.lib.stride_tricks.sliding_window_view(traj.data, seq_len, axis=-2),
                       -1, -2)


def partition(windows, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random per-trajectory 3:1 split, merged and globally shuffled.

    `windows` is (n_traj, count, L, dim). Validation takes floor(count/4)
    sequences of each trajectory. The split and the shuffle permute
    (trajectory, start) ids, and each set is then gathered once.
    """
    windows = np.asarray(windows)
    n_traj, n = windows.shape[:2]
    if n < 4:
        raise ValueError(f"trajectory 0 contributes only {n} sequences; need >= 4 for a 3:1 split")
    n_val = n // 4
    starts = np.stack([substream(split_seed, "split", i).permutation(n) for i in range(n_traj)])
    trajs = np.repeat(np.arange(n_traj)[:, None], n, axis=1)

    def gather(cols: slice, stream: int) -> np.ndarray:
        t, s = trajs[:, cols].ravel(), starts[:, cols].ravel()
        order = substream(split_seed, "shuffle", stream).permutation(len(t))
        return windows[t[order], s[order]]

    return gather(slice(n_val, None), 0), gather(slice(None, n_val), 1)


@dataclass
class SequenceDataset:
    """Train/validation sets of length-L sequences, (count, L, dim) each."""

    seq_len: int
    dim: int
    train: np.ndarray
    validation: np.ndarray
    source_hash: str = ""
    split_seed: int | None = None

    def __post_init__(self):
        for name in ("train", "validation"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                arr = arr.reshape(0, self.seq_len, self.dim)
            if arr.ndim != 3 or arr.shape[1] != self.seq_len or arr.shape[2] != self.dim:
                raise ValueError(f"{name} set must have shape (count, {self.seq_len}, {self.dim})")
            setattr(self, name, arr)

    @property
    def n_train(self) -> int:
        return self.train.shape[0]

    @property
    def n_validation(self) -> int:
        return self.validation.shape[0]

    def save(self, path: str, extra_header: dict | None = None) -> None:
        header = {
            "seq_len": self.seq_len,
            "dim": self.dim,
            "n_train": self.n_train,
            "n_validation": self.n_validation,
            "ordering": STATE_ORDERING,
            "source_hash": self.source_hash,
            "split_seed": self.split_seed,
            **(extra_header or {}),
        }
        arrayio.write_array_file(path, arrayio.DATASET, header, self.train, self.validation)

    @classmethod
    def load(cls, path: str) -> "SequenceDataset":
        header, (train, validation) = arrayio.read_array_file(
            path, arrayio.DATASET,
            lambda h: [(h[n], h["seq_len"], h["dim"]) for n in ("n_train", "n_validation")],
            layout={"ordering": STATE_ORDERING},
            seq_len=int, dim=int, n_train=int, n_validation=int)
        return cls(header["seq_len"], header["dim"], train, validation,
                   source_hash=header.get("source_hash", ""),
                   split_seed=header.get("split_seed"))


def build_dataset(ensemble: TrajectoryEnsemble, seq_len: int,
                  split_seed: int) -> SequenceDataset:
    """Slice every trajectory into length-L windows and split 3:1."""
    train, validation = partition(split_sequences(ensemble, seq_len), split_seed)
    return SequenceDataset(seq_len, ensemble.dim, train, validation,
                           source_hash=ensemble.content_hash(),
                           split_seed=split_seed)

