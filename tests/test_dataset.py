import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmsqc import arrayio
from mmsqc.dataset import (
    SequenceDataset,
    build_dataset,
    partition,
    split_sequences,
)
from mmsqc.models import build_model
from mmsqc.sqc import (
    IntegratorConfig,
    Trajectory,
    TrajectoryEnsemble,
    run_ensemble,
    sample_initial,
)
from mmsqc.streams import substream


def synthetic_trajectory(n_records, dim=6, n_states=1, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(1.0, rng.normal(size=(n_records, dim)), n_states)


def test_vectorize_dimensions_and_ordering():
    s1 = sample_initial(build_model("I"), 0, np.random.default_rng(0))
    assert s1.shape == (36,)
    s3 = sample_initial(build_model("III"), 0, np.random.default_rng(0))
    assert s3.shape == (54,)


def test_split_sequence_counts():
    assert len(split_sequences(synthetic_trajectory(101), 5)) == 97
    assert len(split_sequences(synthetic_trajectory(201), 20)) == 182
    assert len(split_sequences(synthetic_trajectory(7), 7)) == 1


def test_split_sequence_count_formula_property():
    for n_records in (2, 3, 5, 11, 24):
        traj = synthetic_trajectory(n_records, seed=n_records)
        for seq_len in range(2, n_records + 1):
            assert len(split_sequences(traj, seq_len)) == n_records - seq_len + 1


def test_split_sequences_are_chronological_windows():
    traj = synthetic_trajectory(12, seed=4)
    seqs = split_sequences(traj, 4)
    for i, seq in enumerate(seqs):
        assert np.array_equal(seq, traj.data[i:i + 4])


def test_split_sequences_errors():
    with pytest.raises(ValueError, match="at least"):
        split_sequences(synthetic_trajectory(10), 1)
    with pytest.raises(ValueError, match="records"):
        split_sequences(synthetic_trajectory(4), 5)


def test_partition_counts_and_cover():
    per_traj = [split_sequences(synthetic_trajectory(101, seed=s), 5) for s in range(3)]
    train, val = partition(per_traj, split_seed=7)
    assert len(val) == 3 * 24    # floor(97/4) per trajectory
    assert len(train) == 3 * 73
    # disjoint cover of the input multiset
    everything = np.concatenate(per_traj).reshape(3 * 97, -1)
    output = np.concatenate([train, val]).reshape(3 * 97, -1)
    order_in = np.lexsort(everything.T)
    order_out = np.lexsort(output.T)
    assert np.array_equal(everything[order_in], output[order_out])


def test_partition_deterministic():
    per_traj = [split_sequences(synthetic_trajectory(30, seed=s), 5) for s in range(2)]
    a = partition(per_traj, split_seed=3)
    b = partition(per_traj, split_seed=3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = partition(per_traj, split_seed=4)
    assert not np.array_equal(a[0], c[0])


def test_partition_requires_enough_sequences():
    with pytest.raises(ValueError, match="3:1"):
        partition([split_sequences(synthetic_trajectory(5), 3)], 0)


def test_shuffle_keeps_sequences_intact():
    """Every sequence in the shuffled sets is a contiguous window of one of
    the source trajectories."""
    ensemble = run_ensemble(build_model("I"), 3, 0, 17, IntegratorConfig(0.05),
                            10.0, 1.0)
    ds = build_dataset(ensemble, 4, split_seed=5)
    windows = {
        (i, j): ensemble.data[i, j:j + 4]
        for i in range(3) for j in range(ensemble.n_records - 3)
    }
    for seq in np.concatenate([ds.train, ds.validation]):
        assert any(np.array_equal(seq, w) for w in windows.values())


def test_build_dataset_provenance_and_determinism():
    ensemble = run_ensemble(build_model("I"), 2, 0, 23, IntegratorConfig(0.05),
                            8.0, 1.0)
    a = build_dataset(ensemble, 5, split_seed=11)
    b = build_dataset(ensemble, 5, split_seed=11)
    assert a.source_hash == ensemble.content_hash() != ""
    assert a.split_seed == 11
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)


def stacked_split(ensemble, seq_len, split_seed):
    """Oracle: stack each trajectory's windows, split each stack 3:1, then
    concatenate and shuffle the copies."""
    train_parts, val_parts = [], []
    for i in range(ensemble.n_traj):
        data = ensemble.data[i]
        seqs = np.stack([data[j:j + seq_len] for j in range(len(data) - seq_len + 1)])
        perm = substream(split_seed, "split", i).permutation(len(seqs))
        n_val = len(seqs) // 4
        val_parts.append(seqs[perm[:n_val]])
        train_parts.append(seqs[perm[n_val:]])
    train = np.concatenate(train_parts)
    validation = np.concatenate(val_parts)
    train = train[substream(split_seed, "shuffle", 0).permutation(len(train))]
    validation = validation[substream(split_seed, "shuffle", 1).permutation(len(validation))]
    return train, validation


@settings(max_examples=40, deadline=None)
@given(n_traj=st.integers(1, 5), seq_len=st.integers(2, 8), extra=st.integers(3, 30),
       dim=st.sampled_from([2, 4, 6]), seed=st.integers(0, 2**32 - 1),
       split_seed=st.integers(0, 2**32 - 1))
@example(n_traj=5, seq_len=2, extra=3, dim=4, seed=0, split_seed=0)
def test_build_dataset_matches_stacked_split(n_traj, seq_len, extra, dim, seed, split_seed):
    """Gathering each set once through (trajectory, start) ids gives the
    stacked split bit for bit; `extra` = 3 leaves exactly 4 windows."""
    data = np.random.default_rng(seed).normal(size=(n_traj, seq_len + extra, dim))
    ensemble = TrajectoryEnsemble(1.0, data, 1)
    train, validation = stacked_split(ensemble, seq_len, split_seed)
    ds = build_dataset(ensemble, seq_len, split_seed)
    direct = partition(split_sequences(ensemble, seq_len), split_seed)
    for got_train, got_val in ((ds.train, ds.validation), direct):
        assert got_train.shape == train.shape and got_val.shape == validation.shape
        assert got_train.tobytes() == train.tobytes()
        assert got_val.tobytes() == validation.tobytes()


def test_split_sequences_is_a_read_only_view():
    traj = synthetic_trajectory(12, seed=4)
    ensemble = TrajectoryEnsemble(1.0, np.stack([traj.data, traj.data + 1.0]), 1)
    seqs = split_sequences(traj, 4)
    windows = split_sequences(ensemble, 4)
    assert seqs.shape == (9, 4, 6) and windows.shape == (2, 9, 4, 6)
    for view, records in ((seqs, traj.data), (windows, ensemble.data)):
        assert np.shares_memory(view, records)
        assert not view.flags.writeable
    assert np.array_equal(windows[1], seqs + 1.0)


def test_build_dataset_gathers_each_set_once():
    """Peak traced memory stays near the size of the two sets it returns."""
    ensemble = TrajectoryEnsemble(1.0, np.random.default_rng(3).normal(size=(20, 60, 36)), 2)
    tracemalloc.start()
    try:
        ds = build_dataset(ensemble, 5, split_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = ds.train.nbytes + ds.validation.nbytes
    assert payload == 20 * 56 * 5 * 36 * 8
    assert peak <= 1.25 * payload


def test_dataset_file_round_trip(tmp_path):
    ensemble = run_ensemble(build_model("I"), 2, 0, 29, IntegratorConfig(0.05),
                            8.0, 1.0)
    ds = build_dataset(ensemble, 3, split_seed=2)
    path = str(tmp_path / "d.seq")
    ds.save(path)
    loaded = SequenceDataset.load(path)
    assert loaded.seq_len == 3 and loaded.dim == 36
    assert np.array_equal(loaded.train, ds.train)
    assert np.array_equal(loaded.validation, ds.validation)
    assert loaded.source_hash == ds.source_hash
    assert loaded.split_seed == 2
    ds.save(str(tmp_path / "d2.seq"))
    assert (tmp_path / "d.seq").read_bytes() == (tmp_path / "d2.seq").read_bytes()


def test_empty_dataset_round_trip(tmp_path):
    empty = SequenceDataset(5, 4, np.empty((0, 5, 4)), np.empty((0, 5, 4)))
    path = str(tmp_path / "empty.seq")
    empty.save(path)
    loaded = SequenceDataset.load(path)
    assert loaded.n_train == 0 and loaded.n_validation == 0
    assert loaded.train.shape == (0, 5, 4)


def test_dataset_file_errors(tmp_path):
    ds = SequenceDataset(3, 2, np.zeros((2, 3, 2)), np.zeros((1, 3, 2)))
    path = tmp_path / "d.seq"
    ds.save(str(path))
    raw = path.read_bytes()

    (tmp_path / "corrupt.seq").write_bytes(b"\xff\xfe" + raw)
    with pytest.raises(arrayio.HeaderError):
        SequenceDataset.load(str(tmp_path / "corrupt.seq"))

    (tmp_path / "short.seq").write_bytes(raw[:-8])
    with pytest.raises(arrayio.PayloadSizeError):
        SequenceDataset.load(str(tmp_path / "short.seq"))

    header_end = raw.index(b"\n")
    bumped = raw[:header_end].replace(b'"n_train":2', b'"n_train":3') + raw[header_end:]
    (tmp_path / "mismatch.seq").write_bytes(bumped)
    with pytest.raises(arrayio.PayloadSizeError):
        SequenceDataset.load(str(tmp_path / "mismatch.seq"))

    versioned = raw[:header_end].replace(b'"version":1', b'"version":2') + raw[header_end:]
    (tmp_path / "versioned.seq").write_bytes(versioned)
    with pytest.raises(arrayio.VersionError):
        SequenceDataset.load(str(tmp_path / "versioned.seq"))

    with pytest.raises(arrayio.HeaderError, match="not a sequence dataset"):
        ens = TrajectoryEnsemble(1.0, np.zeros((1, 2, 6)), 1)
        ens.save(str(tmp_path / "e.traj"))
        SequenceDataset.load(str(tmp_path / "e.traj"))
