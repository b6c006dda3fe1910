import csv
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmsqc
from mmsqc.analysis import (
    BLOCK,
    RolloutConfig,
    RolloutError,
    _rollout_chunk,
    compare_populations,
    coordinate_histogram,
    dof_mae,
    rollout_ensemble,
    rollout_trajectory,
    write_compare_csv,
    write_csv,
    write_histogram_csv,
    write_mae_csv,
    write_populations_csv,
)
from mmsqc.models import SiteExcitonModel, build_model
from mmsqc.sqc import (
    IntegratorConfig,
    TrajectoryEnsemble,
    populations,
    run_ensemble,
    sample_initial,
    _map_chunks,
    _sample_starts,
)
from mmsqc.streams import substream
from mmsqc.surrogate import LstmParams, _fold_readout, init_params, one_to_many_forward


def small_model():
    return SiteExcitonModel("two-mode", [[0.0, 0.05], [0.05, 0.0]],
                            [[(0.1, 0.01)], [(0.12, -0.02)]])


def rows_of(starts):
    """`_map_chunks`' start vectors of trajectories a..b-1 from a fixed (n, dim) array."""
    return lambda a, b: starts[a:b]


def sampled_ensemble(model, n_traj, seed, n_records=1):
    """Ensemble of initial samples copied over a trivial time grid."""
    data = np.empty((n_traj, n_records, model.dim))
    for i in range(n_traj):
        data[i, :] = sample_initial(model, 0, substream(seed, "sampling", i))
    return TrajectoryEnsemble(1.0, data, model.n_states, model.label, seed)


# ---------------------------------------------------------------------------
# rollout


def manual_rollout(x0, params, total_steps, seq_len):
    """Independent re-implementation of the chunked autoregression."""
    vectors = [x0]
    x = x0
    while len(vectors) - 1 < total_steps:
        ys, _ = one_to_many_forward(x[None], seq_len, params)
        for y in ys[0]:
            if len(vectors) - 1 < total_steps:
                vectors.append(y)
        x = ys[0, -1]
    return np.array(vectors)


@pytest.mark.parametrize("seq_len,total_steps", [(5, 100), (20, 200), (5, 4), (3, 7)])
def test_rollout_counts_and_values(seq_len, total_steps):
    params = init_params(6, 10, np.random.default_rng(1))
    x0 = np.random.default_rng(2).normal(size=6)
    traj = rollout_trajectory(x0, params, total_steps, seq_len, n_states=1)
    assert traj.n_records == total_steps + 1
    assert np.array_equal(traj.data[0], x0)
    assert np.allclose(traj.data, manual_rollout(x0, params, total_steps, seq_len), atol=0)


def folded_chunk(x0, params, steps):
    """One replay chunk written out step by step: the first step reads x0
    from the zero state, later steps run z = h U4'^T + b4' with
    U4' = U4 + W4 W_d and b4' = b4 + W4 b_d. Returns the read-outs."""
    H = params.hidden
    U4f, b4f = params.U4 + params.W4 @ params.W_d, params.b4 + params.W4 @ params.b_d
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h = c = np.zeros((x0.shape[0], H))
    ys = []
    for t in range(steps):
        if t == 0:
            z = x0 @ params.W4.T
            z += params.b4
        else:
            z = h @ U4f.T
            z += b4f
        i, f, o = sig(z[:, :H]), sig(z[:, H:2 * H]), sig(z[:, 2 * H:3 * H])
        c = f * c + i * np.tanh(z[:, 3 * H:])
        h = o * np.tanh(c)
        ys.append(h @ params.W_d.T + params.b_d)
    return np.stack(ys, axis=1)


def test_rollout_single_chunk_is_one_forward_pass():
    """A lone trajectory replays as row 0 of a zero-padded BLOCK-row batch.
    Its first step is the training forward's, bit for bit; the later steps
    run through the folded read-out, bit for bit as written out above."""
    params = init_params(4, 8, np.random.default_rng(3))
    x0 = np.random.default_rng(4).normal(size=4)
    traj = rollout_trajectory(x0, params, 4, 5, n_states=1)
    padded = np.zeros((BLOCK, 4))
    padded[0] = x0
    ys, _ = one_to_many_forward(padded, 5, params)
    assert np.array_equal(traj.data[1], ys[0, 0])
    assert traj.data[1:].tobytes() == folded_chunk(padded, params, 4)[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 8), hidden=st.integers(1, 12), seq_len=st.integers(2, 12),
       total_steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_folded_replay_matches_unfolded_forward(dim, hidden, seq_len, total_steps, seed):
    """Folding the read-out into the recurrence changes roundoff only."""
    rng = np.random.default_rng(seed)
    params = init_params(dim, hidden, rng)
    params.b4[:] = rng.normal(size=params.b4.shape)
    params.b_d[:] = rng.normal(size=params.b_d.shape)
    x0 = rng.normal(size=dim)
    folded = rollout_trajectory(x0, params, total_steps, seq_len, n_states=1).data
    unfolded = manual_rollout(x0, params, total_steps, seq_len)
    assert np.max(np.abs(folded - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))


def test_rollout_dimension_check():
    params = init_params(6, 10, np.random.default_rng(5))
    with pytest.raises(ValueError):
        rollout_trajectory(np.zeros(5), params, 10, 5, n_states=1)


BAD_LENGTHS_PROBE = """
import numpy as np
from mmsqc.analysis import rollout_trajectory
from mmsqc.surrogate import init_params

params = init_params(3, 4, np.random.default_rng(0))
for total_steps, seq_len in [(2, 1), (2, 0), (2, -1), (-1, 3)]:
    try:
        rollout_trajectory(np.zeros(3), params, total_steps, seq_len, n_states=1)
    except ValueError as exc:
        print(exc)
"""


def test_rollout_trajectory_refuses_short_chunks_and_negative_steps():
    """seq_len < 2 and total_steps < 0 are refused with both values named.
    The probe runs in a subprocess under a timeout, so a replay that never
    ends fails the test instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(mmsqc.__file__))
    probe = subprocess.run([sys.executable, "-c", BAD_LENGTHS_PROBE],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr[-2000:]
    assert probe.stdout.splitlines() == [
        f"total_steps must be >= 0 and seq_len >= 2, got {total_steps} and {seq_len}"
        for total_steps, seq_len in [(2, 1), (2, 0), (2, -1), (-1, 3)]]


@pytest.mark.parametrize("record_dt", [0.0, -1.0, float("nan"), float("inf")])
def test_rollout_config_refuses_bad_record_dt(record_dt):
    with pytest.raises(ValueError, match="record_dt must be finite and positive"):
        RolloutConfig(n_traj=5, total_steps=12, seq_len=4, record_dt=record_dt)


def test_rollout_ensemble_shapes_and_determinism():
    model = small_model()
    params = init_params(model.dim, 12, np.random.default_rng(6))
    cfg = RolloutConfig(n_traj=5, total_steps=12, seq_len=4, seed=3)
    ens = rollout_ensemble(model, params, cfg)
    assert ens.data.shape == (5, 13, 8)
    again = rollout_ensemble(model, params, cfg)
    assert np.array_equal(ens.data, again.data)


def test_rollout_ensemble_worker_invariance():
    model = small_model()
    params = init_params(model.dim, 12, np.random.default_rng(7))
    base = rollout_ensemble(model, params, RolloutConfig(5, 10, 4, seed=8, workers=1))
    for workers in (2, 3):
        other = rollout_ensemble(model, params,
                                 RolloutConfig(5, 10, 4, seed=8, workers=workers))
        assert np.array_equal(base.data, other.data)


def test_rollout_ensemble_shares_sampling_streams_with_dynamics():
    """Same seed: the replayed ensemble starts from the same initial
    conditions as directly propagated dynamics."""
    model = small_model()
    params = init_params(model.dim, 6, np.random.default_rng(9))
    pred = rollout_ensemble(model, params, RolloutConfig(4, 3, 3, seed=21))
    ref = run_ensemble(model, 4, 0, 21, IntegratorConfig(0.05), 3.0, 1.0)
    assert np.array_equal(pred.data[:, 0, :], ref.data[:, 0, :])


def test_rollout_dimension_mismatch_fails_before_sampling():
    model = build_model("I")
    params = init_params(10, 4, np.random.default_rng(10))
    with pytest.raises(ValueError, match="dimension"):
        rollout_ensemble(model, params, RolloutConfig(3, 5, 3, seed=0))


@pytest.mark.parametrize("workers", [1, 2])
def test_fan_out_error_names_absolute_trajectory(workers):
    model = small_model()
    params = init_params(model.dim, 6, np.random.default_rng(4))
    starts = _sample_starts(model, 0, 2, 0, 6)
    starts[4, 0] = np.nan
    with pytest.raises(RolloutError) as err:
        _map_chunks(_rollout_chunk, len(starts), rows_of(starts), (7, model.dim), workers,
                    params, _fold_readout(params), 3)
    assert err.value.trajectory == 4
    assert err.value.step == 1


@settings(max_examples=10, deadline=None)
@given(n_traj=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 2]),
       seed=st.integers(0, 2**32 - 1))
def test_rollout_block_edges(n_traj, seed):
    """Blocks sit at absolute trajectory indices: the bytes do not depend on
    the worker count, a block's row 0 replays alone bit for bit, and a
    failure names its absolute trajectory. Other rows are not compared with
    lone replays: BLAS may round a row differently at another block position
    (model V's 284-wide read-out shows this, so a misplaced block edge changes
    the bytes)."""
    model = build_model("V")
    params = init_params(model.dim, 8, substream(seed, "init"))
    cfg = RolloutConfig(n_traj, 7, 4, seed=seed)
    base = rollout_ensemble(model, params, cfg)
    for workers in (2, 3):
        other = rollout_ensemble(model, params, replace(cfg, workers=workers))
        assert other.data.tobytes() == base.data.tobytes()
    for i in range(0, n_traj, BLOCK):
        alone = rollout_trajectory(base.data[i, 0], params, 7, 4, model.n_states)
        assert np.array_equal(alone.data, base.data[i])

    starts = _sample_starts(model, 0, seed, 0, n_traj)
    bad = min(70, n_traj - 1)
    starts[bad, 0] = np.nan
    for workers in (1, 2):
        with pytest.raises(RolloutError) as err:
            _map_chunks(_rollout_chunk, len(starts), rows_of(starts), (8, model.dim), workers,
                        params, _fold_readout(params), 4, grain=BLOCK)
        assert (err.value.step, err.value.trajectory) == (1, bad)


@settings(max_examples=10, deadline=None)
@given(n_traj=st.sampled_from([1, BLOCK + 1]), seed=st.integers(0, 2**32 - 1))
def test_replay_leaves_its_starts_alone(n_traj, seed):
    """`_rollout_chunk` and `rollout_trajectory` only read their start
    vectors: the caller's array keeps its bytes."""
    model = small_model()
    params = init_params(model.dim, 6, substream(seed, "init"))
    starts = _sample_starts(model, 0, seed, 0, n_traj)
    before = starts.tobytes()
    _rollout_chunk(starts, 0, np.empty((n_traj, 6, model.dim)), params,
                   _fold_readout(params), 3)
    assert starts.tobytes() == before
    rollout_trajectory(starts[n_traj - 1], params, 5, 3, model.n_states)
    assert starts.tobytes() == before


def overflow_params():
    """D=2, H=1 network whose cell state starts at tanh(10 x0[0] + 0.1) and
    then grows by tanh(0.1) per step (all other gates saturate at 1, and
    read-out 0 is zero). Read-out 1 = 1e308 (h + 1) overflows once h > 0.798,
    so x0[0] = -1 never fails within 20 steps, 0 fails at step 11 and 1 at
    step 2."""
    params = LstmParams.zeros(2, 1)
    params.b_i[:] = params.b_f[:] = params.b_o[:] = 50.0
    params.b_g[:] = 0.1
    params.W_g[0, 0] = 10.0
    params.W_d[1, 0] = params.b_d[1] = 1e308
    return params


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_rollout_error_names_first_failure_in_block(workers):
    params = overflow_params()
    starts = np.zeros((2 * BLOCK + 2, 2))
    starts[:, 0] = -1.0
    late, early, tie = BLOCK + 2, BLOCK + 36, BLOCK + 56
    starts[late, 0] = 0.0
    starts[early, 0] = starts[tie, 0] = 1.0
    steps = []
    for i in (late, early, tie):
        with pytest.raises(RolloutError) as err:
            rollout_trajectory(starts[i], params, 20, 30, n_states=1)
        steps.append(err.value.step)
    assert steps == [11, 2, 2]
    with pytest.raises(RolloutError) as err:
        _map_chunks(_rollout_chunk, len(starts), rows_of(starts), (21, 2), workers, params,
                    _fold_readout(params), 30, grain=BLOCK)
    assert (err.value.step, err.value.trajectory) == (2, early)


def test_rollout_nonfinite_reports_step():
    params = LstmParams.zeros(4, 6)
    params.b_g[:] = 5.0
    params.b_o[:] = 5.0
    params.W_d[:] = 1e308
    with pytest.raises(RolloutError) as err:
        rollout_trajectory(np.zeros(4), params, 10, 4, n_states=1)
    assert err.value.step == 1


# ---------------------------------------------------------------------------
# population comparison


def test_compare_populations_self_is_zero():
    model = build_model("I")
    ens = run_ensemble(model, 30, 0, 41, IntegratorConfig(0.05), 10.0, 1.0)
    dev = compare_populations(ens, ens)
    assert np.array_equal(dev.mean_abs, np.zeros(2))
    assert np.array_equal(dev.max_abs, np.zeros(2))
    assert dev.n_times == 11


def test_compare_populations_independent_ensembles_noise_level():
    model = small_model()
    a = run_ensemble(model, 400, 0, 1, IntegratorConfig(0.05), 20.0, 1.0)
    b = run_ensemble(model, 400, 0, 2, IntegratorConfig(0.05), 20.0, 1.0)
    dev = compare_populations(a, b)
    # statistical noise scale: sigma_diff <= sqrt(2 * 0.25 / 400) ~ 0.035
    assert 0.0 < dev.mean_abs.max() < 0.1
    assert dev.max_abs.max() < 0.25


def test_compare_populations_grid_mismatch():
    model = small_model()
    a = run_ensemble(model, 3, 0, 1, IntegratorConfig(0.05), 4.0, 1.0)
    b = run_ensemble(model, 3, 0, 1, IntegratorConfig(0.05), 5.0, 1.0)
    with pytest.raises(ValueError, match="grids differ"):
        compare_populations(a, b)


def test_compare_populations_all_undefined():
    blank = TrajectoryEnsemble(1.0, np.zeros((4, 3, 8)), 2)
    with pytest.raises(ValueError, match="undefined"):
        compare_populations(blank, blank)


def test_comparisons_refuse_other_models():
    icfg = IntegratorConfig(0.05)
    one = run_ensemble(build_model("I"), 3, 0, 1, icfg, 2.0, 1.0)
    two = run_ensemble(build_model("II"), 3, 0, 1, icfg, 2.0, 1.0)
    assert one.dim == two.dim and one.n_states == two.n_states
    with pytest.raises(ValueError, match="different models: I vs II"):
        compare_populations(one, two)
    with pytest.raises(ValueError, match="different models: II vs I"):
        dof_mae(two, one, [1])
    # an ensemble without a recorded model compares with any labelled one
    unlabelled = TrajectoryEnsemble(two.record_dt, two.data, two.n_states)
    assert dof_mae(unlabelled, two, [1]).mae.max() == 0.0


# ---------------------------------------------------------------------------
# per-DOF errors


def test_dof_mae_zero_and_bias():
    model = small_model()
    ref = run_ensemble(model, 5, 0, 3, IntegratorConfig(0.05), 100.0, 20.0)
    table = dof_mae(ref, ref, [20, 40, 60, 80, 100])
    assert np.array_equal(table.mae, np.zeros((5, 4)))
    assert np.array_equal(table.slice_times, [20, 40, 60, 80, 100])
    assert table.labels == ["Q0", "Q1", "P0", "P1"]

    biased = TrajectoryEnsemble(ref.record_dt, ref.data.copy(), ref.n_states)
    biased.data[:, :, 4] += 0.25   # first nuclear coordinate
    table = dof_mae(biased, ref, [40])
    assert table.mae[0, 0] == pytest.approx(0.25)
    assert np.array_equal(table.mae[0, 1:], np.zeros(3))


def test_dof_mae_alignment_checks():
    model = small_model()
    a = run_ensemble(model, 4, 0, 3, IntegratorConfig(0.05), 4.0, 1.0)
    b = run_ensemble(model, 5, 0, 3, IntegratorConfig(0.05), 4.0, 1.0)
    with pytest.raises(ValueError, match="counts differ"):
        dof_mae(a, b, [2])
    with pytest.raises(ValueError, match="not on the ensemble grid"):
        dof_mae(a, a, [2.5])
    with pytest.raises(ValueError, match="not on the ensemble grid"):
        dof_mae(a, a, [99.0])


# ---------------------------------------------------------------------------
# histograms


def test_histogram_single_trajectory_unit_mass():
    data = np.zeros((1, 4, 6))
    data[0, :, 2] = [0.1, 0.1, -0.2, 0.3]
    ens = TrajectoryEnsemble(1.0, data, 1)
    hist = coordinate_histogram(ens, 2, bins=10, value_range=(-0.5, 0.5))
    assert hist.density.shape == (4, 10)
    assert np.allclose(hist.density.sum(axis=1), 1.0)
    assert np.all(np.max(hist.density, axis=1) == 1.0)


def test_histogram_initial_symmetry():
    model = build_model("I")
    ens = sampled_ensemble(model, 4000, seed=17)
    hist = coordinate_histogram(ens, 0, bins=20, value_range=(-2.5, 2.5))
    left = hist.density[0, :10]
    right = hist.density[0, 10:][::-1]
    assert np.abs(left - right).max() < 0.03


def test_histogram_mass_normalization_and_errors():
    model = small_model()
    ens = run_ensemble(model, 10, 0, 3, IntegratorConfig(0.05), 5.0, 1.0)
    hist = coordinate_histogram(ens, 1, bins=8, value_range=(-3, 3))
    assert np.allclose(hist.density.sum(axis=1), 1.0)
    with pytest.raises(ValueError, match="empty"):
        coordinate_histogram(ens, 1, bins=8, value_range=(1.0, 1.0))
    with pytest.raises(ValueError, match="variable index"):
        coordinate_histogram(ens, 99, bins=8, value_range=(-1, 1))


# ---------------------------------------------------------------------------
# CSV output


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c"], [(0, "P1", 0.1), (2, "x", np.float64(1e-300))])
    assert path.read_bytes() == b"a,b,c\n0,P1,0.1\n2,x,1e-300\n"


def test_populations_csv(tmp_path):
    model = small_model()
    ens = run_ensemble(model, 10, 0, 3, IntegratorConfig(0.05), 3.0, 1.0)
    path = str(tmp_path / "pops.csv")
    write_populations_csv(path, populations(ens))
    rows = read_csv(path)
    assert rows[0] == ["time", "P1", "P2", "unassigned"]
    assert len(rows) == 5
    assert float(rows[1][1]) == 1.0


def test_compare_csv(tmp_path):
    model = small_model()
    ens = run_ensemble(model, 10, 0, 3, IntegratorConfig(0.05), 3.0, 1.0)
    path = str(tmp_path / "cmp.csv")
    write_compare_csv(path, compare_populations(ens, ens))
    rows = read_csv(path)
    assert rows[0] == ["state", "mean_abs_dev", "max_abs_dev"]
    assert rows[1] == ["P1", "0.0", "0.0"]


def test_mae_csv(tmp_path):
    model = small_model()
    ens = run_ensemble(model, 4, 0, 3, IntegratorConfig(0.05), 100.0, 20.0)
    path = str(tmp_path / "mae.csv")
    write_mae_csv(path, dof_mae(ens, ens, [20, 40, 60, 80, 100]))
    rows = read_csv(path)
    assert rows[0] == ["dof_label", "t20", "t40", "t60", "t80", "t100"]
    assert rows[1][0] == "Q0"
    assert len(rows) == 5


def test_histogram_csv(tmp_path):
    data = np.zeros((2, 2, 4))
    ens = TrajectoryEnsemble(1.0, data, 1)
    path = str(tmp_path / "hist.csv")
    write_histogram_csv(path, coordinate_histogram(ens, 0, bins=4, value_range=(-1, 1)))
    rows = read_csv(path)
    assert rows[0] == ["time", "bin_center", "density"]
    assert len(rows) == 1 + 2 * 4
