import inspect
import math
import pickle
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmsqc import arrayio, surrogate
from mmsqc.dataset import SequenceDataset
from mmsqc.streams import substream
from mmsqc.surrogate import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    TENSOR_FIELDS,
    AdamState,
    ForwardRecord,
    LstmParams,
    TrainConfig,
    TrainDivergedError,
    _cell,
    _unroll,
    adam_step,
    backward,
    evaluate_loss,
    init_params,
    load_checkpoint,
    one_to_many_forward,
    save_checkpoint,
    sequence_loss,
    train,
)


def params_equal(a: LstmParams, b: LstmParams) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in TENSOR_FIELDS)


def cell_row(x, h, c, params: LstmParams):
    """One cell step on single vectors, run as a (1, .) batch."""
    h_new, c_new, _ = _cell(params, np.asarray(x)[None], np.asarray(h)[None],
                            np.asarray(c)[None])
    return h_new[0], c_new[0]


def random_params(dim, hidden, seed):
    return init_params(dim, hidden, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# cell


def test_cell_zero_everything():
    params = LstmParams.zeros(3, 4)
    h, c = cell_row(np.zeros(3), np.zeros(4), np.zeros(4), params)
    assert np.array_equal(h, np.zeros(4))
    assert np.array_equal(c, np.zeros(4))


def test_cell_gate_saturation_keeps_cell_state():
    """Saturated forget gate (open) and input gate (closed): c' = c."""
    params = LstmParams.zeros(3, 4)
    params.b_f[:] = 60.0
    params.b_i[:] = -60.0
    c0 = np.array([0.3, -1.2, 0.0, 2.5])
    _, c1 = cell_row(np.zeros(3), np.zeros(4), c0, params)
    assert np.max(np.abs(c1 - c0)) < 1e-12


def test_cell_matches_scalar_reimplementation():
    params = random_params(3, 4, 2)
    rng = np.random.default_rng(5)
    x, h, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)

    def gate(W, U, b, squash):
        return np.array([
            squash(sum(W[r][k] * x[k] for k in range(3))
                   + sum(U[r][k] * h[k] for k in range(4)) + b[r])
            for r in range(4)
        ])

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    i = gate(params.W_i, params.U_i, params.b_i, sig)
    f = gate(params.W_f, params.U_f, params.b_f, sig)
    o = gate(params.W_o, params.U_o, params.b_o, sig)
    g = gate(params.W_g, params.U_g, params.b_g, math.tanh)
    c_ref = f * c + i * g
    h_ref = o * np.tanh(c_ref)

    h_new, c_new = cell_row(x, h, c, params)
    assert np.max(np.abs(h_new - h_ref)) < 1e-12
    assert np.max(np.abs(c_new - c_ref)) < 1e-12


def test_cell_shape_mismatch():
    params = LstmParams.zeros(3, 4)
    with pytest.raises(ValueError):
        cell_row(np.zeros(2), np.zeros(4), np.zeros(4), params)


def test_cell_zero_state_matches_explicit_zeros():
    """The zero state (h = None, the first step) skips the U4 h matmul; the
    step is the one that the full matmul on zero arrays gives, byte for
    byte."""
    params = random_params(3, 4, 2)
    x = np.random.default_rng(6).normal(size=(5, 3))
    zeros = np.zeros((5, 4))
    h1, c1, gates1 = _cell(params, x, zeros, zeros)
    h0, c0, gates0 = _cell(params, x, None, zeros)
    assert h0.tobytes() == h1.tobytes()
    assert c0.tobytes() == c1.tobytes()
    assert gates0.tobytes() == gates1.tobytes()


# ---------------------------------------------------------------------------
# unrolled forward


@pytest.mark.parametrize("seq_len", [2, 5, 20])
def test_forward_output_count(seq_len):
    params = random_params(4, 6, 1)
    ys, caches = one_to_many_forward(np.zeros((1, 4)), seq_len, params)
    assert ys[0].shape == (seq_len - 1, 4)
    assert len(caches.gates) == seq_len - 1


def test_forward_zero_weights_is_constant_bias():
    params = LstmParams.zeros(3, 5)
    params.b_d[:] = [1.5, -0.5, 2.0]
    ys, _ = one_to_many_forward(np.array([[7.0, -3.0, 0.1]]), 6, params)
    assert np.allclose(ys, params.b_d[None, :], atol=0)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 6), hidden=st.integers(1, 8), seq_len=st.integers(2, 6),
       batch=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_forward_batch_matches_single(dim, hidden, seq_len, batch, seed):
    """A batch of one sequence gives the outputs of its row in a larger batch."""
    rng = np.random.default_rng(seed)
    params = init_params(dim, hidden, rng)
    x = rng.normal(size=(batch, dim))
    i = rng.integers(batch)
    ys_batch, _ = one_to_many_forward(x, seq_len, params)
    ys_one, _ = one_to_many_forward(x[i][None], seq_len, params)
    assert np.allclose(ys_one[0], ys_batch[i], atol=1e-14)


def test_forward_determinism():
    params = random_params(4, 6, 9)
    x = np.random.default_rng(1).normal(size=4)
    a, _ = one_to_many_forward(x[None], 5, params)
    b, _ = one_to_many_forward(x[None], 5, params)
    assert np.array_equal(a, b)


def test_forward_rejects_bad_lengths():
    params = LstmParams.zeros(3, 4)
    with pytest.raises(ValueError):
        one_to_many_forward(np.zeros((1, 3)), 1, params)
    for shape in [(1, 2), (3,), (1, 1, 3)]:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            one_to_many_forward(np.zeros(shape), 3, params)


# ---------------------------------------------------------------------------
# loss


def test_sequence_loss_basics():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(4, 3))
    assert sequence_loss(target, target) == 0.0
    assert sequence_loss(target + 0.5, target) == pytest.approx(0.25)

    pred = rng.normal(size=(4, 3))
    manual = sum((pred[i, j] - target[i, j])**2 for i in range(4) for j in range(3)) / 12
    assert sequence_loss(pred, target) == pytest.approx(manual, abs=1e-12)

    with pytest.raises(ValueError):
        sequence_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_loss_gradient():
    params = random_params(4, 6, 11)
    ys, caches = one_to_many_forward(np.ones((1, 4)), 5, params)
    grads = backward(caches, np.zeros_like(ys), params)
    for name in TENSOR_FIELDS:
        arr = getattr(grads, name)
        assert np.array_equal(arr, np.zeros_like(arr)), name


def test_backward_finite_differences():
    dim, hidden, seq_len = 6, 8, 5
    params = random_params(dim, hidden, 21)
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(1, dim))
    target = rng.normal(size=(1, seq_len - 1, dim))

    ys, caches = one_to_many_forward(x0, seq_len, params)
    grads = backward(caches, (2.0 / ys.size) * (ys - target), params)

    step = 1e-5
    for name in TENSOR_FIELDS:
        arr = getattr(params, name)
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up, _ = one_to_many_forward(x0, seq_len, params)
            arr[idx] = orig - step
            dn, _ = one_to_many_forward(x0, seq_len, params)
            arr[idx] = orig
            numeric[idx] = (sequence_loss(up, target) - sequence_loss(dn, target)) / (2 * step)
        analytic = getattr(grads, name)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5, name


def test_backward_bias_gradient_closed_form():
    """With zero input weights the feedback path is dead, so the read-out
    bias gradient is just the loss gradient summed over steps."""
    params = random_params(4, 6, 31)
    for gate in "ifog":
        getattr(params, f"W_{gate}")[:] = 0.0
    ys, caches = one_to_many_forward(np.zeros((1, 4)), 5, params)
    dY = np.random.default_rng(3).normal(size=ys.shape)
    grads = backward(caches, dY, params)
    assert np.allclose(grads.b_d, dY[0].sum(axis=0), atol=1e-12)


def test_backward_requires_matching_caches():
    params = random_params(4, 6, 41)
    ys, caches = one_to_many_forward(np.zeros((1, 4)), 5, params)
    with pytest.raises(ValueError):
        backward(None, ys, params)
    with pytest.raises(ValueError):   # one sequence's (L-1, D) gradient is not a batch
        backward(caches, np.zeros_like(ys[0]), params)
    shorter = ForwardRecord(caches.x[:-1], caches.gates[:-1], caches.h[:-1], caches.c[:-1])
    with pytest.raises(ValueError):
        backward(shorter, np.zeros_like(ys), params)
    with pytest.raises(ValueError):
        backward(caches, np.zeros_like(ys), params, out=LstmParams.zeros(4, 7))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 5), hidden=st.integers(1, 6), seq_len=st.integers(2, 6),
       batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(dim=3, hidden=4, seq_len=2, batch=2, seed=0)
def test_backward_out_is_the_same_gradient(dim, hidden, seq_len, batch, seed):
    """A pre-filled `out` is zeroed, filled and returned, byte for byte the
    gradient a fresh call returns."""
    rng = np.random.default_rng(seed)
    params = random_params(dim, hidden, seed)
    ys, caches = one_to_many_forward(rng.normal(size=(batch, dim)), seq_len, params)
    dY = rng.normal(size=ys.shape)
    buf = LstmParams(rng.normal(size=params.flat.size), dim, hidden)
    assert backward(caches, dY, params, out=buf) is buf
    assert buf.flat.tobytes() == backward(caches, dY, params).flat.tobytes()
    if seq_len == 2:   # the one step starts from h = 0, so U4 gets no term
        assert buf.U4.tobytes() == bytes(buf.U4.nbytes)


def reference_forward(x0, seq_len, params):
    """The per-step forward of earlier versions: fresh arrays for every gate
    and state, one dict of them per step."""
    H = params.hidden
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    x, h, c = x0, np.zeros((x0.shape[0], H)), np.zeros((x0.shape[0], H))
    ys, caches = [], []
    for t in range(seq_len - 1):
        z = x @ params.W4.T
        if t:
            z += h @ params.U4.T
        z += params.b4
        i, f, o = sig(z[:, :H]), sig(z[:, H:2 * H]), sig(z[:, 2 * H:3 * H])
        g = np.tanh(z[:, 3 * H:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append({"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "o": o, "g": g,
                       "tanh_c": tanh_c, "h": h_new})
        h, c = h_new, c_new
        x = h @ params.W_d.T + params.b_d
        ys.append(x)
    return np.stack(ys, axis=1), caches


def reference_backward(caches, dY, params):
    """The per-step BPTT of earlier versions: every weight gradient is
    accumulated one step at a time from per-step caches."""
    B, steps, _ = dY.shape
    H = params.hidden
    grads = LstmParams.zeros(params.dim, H)
    dx_next = None
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(steps - 1, -1, -1):
        cache = caches[t]
        i, f, o, g = cache["i"], cache["f"], cache["o"], cache["g"]
        tanh_c = cache["tanh_c"]
        dy = dY[:, t, :]
        if dx_next is not None:
            dy = dy + dx_next
        grads.W_d += dy.T @ cache["h"]
        grads.b_d += dy.sum(axis=0)
        dh = dy @ params.W_d + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz = np.empty((B, 4 * H))
        dz[:, :H] = (dc * g) * i * (1.0 - i)
        dz[:, H:2 * H] = (dc * cache["c_prev"]) * f * (1.0 - f)
        dz[:, 2 * H:3 * H] = do * o * (1.0 - o)
        dz[:, 3 * H:] = (dc * i) * (1.0 - g**2)
        grads.W4 += dz.T @ cache["x"]
        grads.b4 += dz.sum(axis=0)
        if t == 0:
            break
        grads.U4 += dz.T @ cache["h_prev"]
        dc_next = dc * f
        dx_next = dz @ params.W4
        dh_next = dz @ params.U4
    return grads


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 6), hidden=st.integers(1, 8), seq_len=st.integers(2, 7),
       batch=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(dim=1, hidden=1, seq_len=2, batch=1, seed=0)
def test_record_and_batched_bptt_match_per_step_reference(dim, hidden, seq_len, batch, seed):
    """The time-major record holds the per-step forward bit for bit, the
    outputs are unchanged, and the time-batched gradients agree with the
    per-step accumulation to roundoff. `backward` leaves the record as it
    found it, so a second call gives the same bytes."""
    rng = np.random.default_rng(seed)
    params = random_params(dim, hidden, seed)
    params.b4[:] = rng.normal(size=params.b4.shape)
    params.b_d[:] = rng.normal(size=params.b_d.shape)
    x0 = rng.normal(size=(batch, dim))
    ys, record = one_to_many_forward(x0, seq_len, params)
    ref_ys, caches = reference_forward(x0, seq_len, params)
    assert ys.tobytes() == ref_ys.tobytes()
    H = hidden
    for t, cache in enumerate(caches):
        gates = np.concatenate([cache[k] for k in "ifog"], axis=1)
        assert record.gates[t].tobytes() == gates.tobytes()
        assert record.x[t].tobytes() == np.ascontiguousarray(cache["x"]).tobytes()
        assert record.h[t + 1].tobytes() == cache["h"].tobytes()
        assert record.c[t].tobytes() == cache["c_prev"].tobytes()
        assert np.tanh(record.c[t + 1]).tobytes() == cache["tanh_c"].tobytes()
    assert not record.h[0].any()
    assert record.gates.shape == (seq_len - 1, batch, 4 * H)

    dY = rng.normal(size=ys.shape)
    before = [a.tobytes() for a in (record.x, record.gates, record.h, record.c)]
    grads = backward(record, dY, params)
    assert [a.tobytes() for a in (record.x, record.gates, record.h, record.c)] == before
    assert backward(record, dY, params).flat.tobytes() == grads.flat.tobytes()
    ref = reference_backward(caches, dY, params)
    for name in TENSOR_FIELDS:
        a, b = getattr(grads, name), getattr(ref, name)
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(np.max(np.abs(b), initial=0.0),
                                                                 1e-300), name


def test_record_prefix_is_a_shorter_forward():
    """The first n steps of a forward record are what a forward pass of n
    steps records, so `backward` on that prefix gives that pass's gradient."""
    params = random_params(4, 5, 43)
    rng = np.random.default_rng(44)
    x0 = rng.normal(size=(3, 4))
    ys, record = one_to_many_forward(x0, 6, params)
    short_ys, short = one_to_many_forward(x0, 4, params)
    prefix = ForwardRecord(record.x[:4], record.gates[:3], record.h[:4], record.c[:4])
    assert len(prefix.gates) == 3
    assert ys[:, :3].tobytes() == short_ys.tobytes()
    for name in ("x", "gates", "h", "c"):
        assert getattr(prefix, name).tobytes() == getattr(short, name).tobytes(), name
    dY = rng.normal(size=short_ys.shape)
    assert (backward(prefix, dY, params).flat.tobytes()
            == backward(short, dY, params).flat.tobytes())


# memory: one parameter vector at D = 36, H = 256 is 2.47 MB


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_no_vector():
    params = random_params(36, 256, 1)
    grads = random_params(36, 256, 2)
    state = AdamState.zeros(36, 256)
    peak = traced_peak(lambda: adam_step(params, grads, state, lr=1e-3))
    assert peak <= 0.3 * params.flat.nbytes


def test_backward_into_out_allocates_no_gradient():
    params = random_params(36, 256, 3)
    rng = np.random.default_rng(4)
    ys, caches = one_to_many_forward(rng.normal(size=(50, 36)), 5, params)
    dY = rng.normal(size=ys.shape)
    out = LstmParams.zeros(36, 256)
    peak = traced_peak(lambda: backward(caches, dY, params, out=out))
    assert peak <= 1.5 * params.flat.nbytes


def test_evaluate_loss_holds_one_output_block():
    """The squared error is formed in the read-out block itself, so no
    second block-sized array is allocated, and the loss keeps its bits."""
    params = random_params(284, 32, 5)
    sequences = np.random.default_rng(6).normal(size=(100, 20, 284))
    ys = np.empty((100, 19, 284))   # one output block: 4.3 MB
    _unroll(params, sequences[:, 0], ys)
    expected = float(np.sum((ys - sequences[:, 1:]) ** 2) / ys.size)
    peak = traced_peak(lambda: evaluate_loss(sequences, params))
    assert peak <= 1.5 * ys.nbytes
    assert evaluate_loss(sequences, params) == expected


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradients_fresh_state():
    params = random_params(3, 4, 51)
    before = LstmParams(params.flat.copy(), params.dim, params.hidden)
    new, state = adam_step(params, LstmParams.zeros(3, 4), AdamState.zeros(3, 4), lr=1e-3)
    assert params_equal(new, before)
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    params = LstmParams.zeros(3, 4)
    grads = LstmParams.zeros(3, 4)
    rng = np.random.default_rng(6)
    for name in TENSOR_FIELDS:
        arr = getattr(grads, name)
        arr[...] = rng.normal(size=arr.shape)
    new, _ = adam_step(params, grads, AdamState.zeros(3, 4), lr=1e-3)
    for name in TENSOR_FIELDS:
        g = getattr(grads, name)
        assert np.allclose(getattr(new, name), -1e-3 * np.sign(g), atol=1e-6)


def test_adam_determinism():
    params = random_params(3, 4, 61)
    grads = random_params(3, 4, 62)
    a, _ = adam_step(LstmParams(params.flat.copy(), params.dim, params.hidden), grads,
                     AdamState.zeros(3, 4), lr=1e-4)
    b, _ = adam_step(LstmParams(params.flat.copy(), params.dim, params.hidden), grads,
                     AdamState.zeros(3, 4), lr=1e-4)
    assert params_equal(a, b)


# ---------------------------------------------------------------------------
# flat parameter vector


def reference_adam(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam on dicts of arrays, the formula applied tensor by tensor."""
    t = step + 1
    scale_m = lr / (1.0 - beta1**t)
    scale_v = 1.0 / np.sqrt(1.0 - beta2**t)
    for name, g in grads.items():
        m[name] = m[name] * beta1 + (1.0 - beta1) * g
        v[name] = v[name] * beta2 + (1.0 - beta2) * (g * g)
        update = (m[name] * scale_m) / (np.sqrt(v[name]) * scale_v + eps)
        params[name] = params[name] - update


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 5), hidden=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), lr=st.floats(1e-6, 1e-1))
def test_flat_vector_views_checkpoint_and_adam(tmp_path_factory, dim, hidden, seed, lr):
    rng = np.random.default_rng(seed)
    params = LstmParams.zeros(dim, hidden)
    params.flat[:] = rng.normal(size=params.flat.size)
    H = hidden

    # every name is a view into `flat`, which is laid out in checkpoint order
    for name in TENSOR_FIELDS:
        assert np.shares_memory(getattr(params, name), params.flat), name
    assert np.array_equal(np.concatenate([getattr(params, n).ravel() for n in TENSOR_FIELDS]),
                          params.flat)
    values = rng.normal(size=(H, dim))
    params.W_f[...] = values
    assert np.array_equal(params.W4[H:2 * H], values)
    # pickling, as for worker processes, keeps one vector behind the names
    clone = pickle.loads(pickle.dumps(params))
    assert np.array_equal(clone.flat, params.flat)
    assert all(np.shares_memory(getattr(clone, n), clone.flat) for n in TENSOR_FIELDS)

    path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
    save_checkpoint(str(path), params, TrainConfig(seq_len=3, hidden=hidden, epochs=1))
    raw = path.read_bytes()
    assert raw[raw.index(b"\n") + 1:] == params.flat.tobytes()
    loaded, _ = load_checkpoint(str(path))
    assert loaded.flat.tobytes() == params.flat.tobytes()

    ref = {name: getattr(params, name).copy() for name in TENSOR_FIELDS}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    state = AdamState.zeros(dim, hidden)
    grads = LstmParams.zeros(dim, hidden)
    for step in range(3):
        grads.flat[:] = rng.normal(size=grads.flat.size)
        reference_adam(ref, {n: getattr(grads, n).copy() for n in TENSOR_FIELDS}, m, v, step, lr)
        params, state = adam_step(params, grads, state, lr)
    assert state.step == 3
    for name in TENSOR_FIELDS:
        assert getattr(params, name).tobytes() == ref[name].tobytes(), name


def test_adam_blocks_match_whole_tensor_update():
    """Block edges do not change a bit: 89124 elements are two full blocks
    and a partial one."""
    dim, hidden = 36, 128
    rng = np.random.default_rng(5)
    params = random_params(dim, hidden, 6)
    assert params.flat.size > 2 * ADAM_BLOCK
    ref = {name: getattr(params, name).copy() for name in TENSOR_FIELDS}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    state = AdamState.zeros(dim, hidden)
    grads = LstmParams.zeros(dim, hidden)
    for step in range(3):
        grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0**rng.integers(-6, 3)
        reference_adam(ref, {n: getattr(grads, n).copy() for n in TENSOR_FIELDS}, m, v, step, 1e-3)
        params, state = adam_step(params, grads, state, 1e-3)
    for name in TENSOR_FIELDS:
        assert getattr(params, name).tobytes() == ref[name].tobytes(), name
        assert getattr(state.m, name).tobytes() == m[name].tobytes(), name
        assert getattr(state.v, name).tobytes() == v[name].tobytes(), name


# ---------------------------------------------------------------------------
# initialization


def test_init_params_bounds_and_forget_bias():
    params = init_params(10, 20, np.random.default_rng(0))
    assert np.array_equal(params.b_f, np.ones(20))
    assert np.array_equal(params.b_i, np.zeros(20))
    limit_w = np.sqrt(6.0 / 30.0)
    assert np.max(np.abs(params.W_i)) <= limit_w
    limit_u = np.sqrt(6.0 / 40.0)
    assert np.max(np.abs(params.U_g)) <= limit_u
    again = init_params(10, 20, np.random.default_rng(0))
    assert params_equal(params, again)


# ---------------------------------------------------------------------------
# training


def tiny_dataset(seed=0, n=8, seq_len=5, dim=4):
    rng = np.random.default_rng(seed)
    seq = rng.normal(size=(seq_len, dim))
    train_set = np.repeat(seq[None], n, axis=0)
    return SequenceDataset(seq_len, dim, train_set, train_set[:2].copy())


def test_train_lr_zero_returns_initialization():
    ds = tiny_dataset()
    cfg = TrainConfig(seq_len=5, hidden=12, learning_rate=0.0, batch_size=4,
                      epochs=2, seed=7)
    params, report = train(ds, cfg)
    assert params_equal(params, init_params(4, 12, substream(7, "init")))
    assert report.best_epoch == 0
    assert len(report.train_loss) == 2


def test_train_overfits_single_repeated_sequence():
    ds = tiny_dataset(seed=3)
    cfg = TrainConfig(seq_len=5, hidden=24, learning_rate=3e-3, batch_size=8,
                      epochs=50, seed=1)
    _, report = train(ds, cfg)
    assert np.all(np.diff(report.train_loss) < 0)
    assert report.train_loss[-1] < 0.2 * report.train_loss[0]


def test_train_deterministic():
    ds = tiny_dataset(seed=5)
    cfg = TrainConfig(seq_len=5, hidden=10, learning_rate=1e-3, batch_size=4,
                      epochs=4, seed=9)
    p1, r1 = train(ds, cfg)
    p2, r2 = train(ds, cfg)
    assert params_equal(p1, p2)
    assert np.array_equal(r1.train_loss, r2.train_loss)
    assert np.array_equal(r1.val_loss, r2.val_loss)
    assert r1.best_epoch == r2.best_epoch


def test_train_batches_are_the_public_steps():
    """`train` runs each batch as one_to_many_forward, backward of the mean
    squared error and adam_step, byte for byte: two epochs of two batches
    replayed by hand give the same weights and losses."""
    ds = tiny_dataset(seed=4)
    ds.train[:] += np.random.default_rng(5).normal(scale=0.1, size=ds.train.shape)
    cfg = TrainConfig(seq_len=5, hidden=6, learning_rate=1e-2, batch_size=5,
                      epochs=2, seed=8)
    trained, report = train(ds, cfg)
    params = init_params(4, 6, substream(8, "init"))
    state = AdamState.zeros(4, 6)
    for epoch in range(2):
        order = substream(8, "batch", epoch).permutation(ds.n_train)
        sq = 0.0
        for start in range(0, ds.n_train, 5):
            seqs = ds.train[order[start:start + 5]]
            ys, record = one_to_many_forward(seqs[:, 0, :], 5, params)
            sq += sequence_loss(ys, seqs[:, 1:, :]) * len(seqs)
            grads = backward(record, (2.0 / ys.size) * (ys - seqs[:, 1:, :]), params)
            params, state = adam_step(params, grads, state, 1e-2)
        assert sq / ds.n_train == report.train_loss[epoch]
    assert report.best_epoch == 1
    assert trained.flat.tobytes() == params.flat.tobytes()


def test_train_aborts_on_nan_with_context():
    ds = tiny_dataset(seed=6)
    ds.train[1, 2, 0] = np.nan
    cfg = TrainConfig(seq_len=5, hidden=8, learning_rate=1e-3, batch_size=8,
                      epochs=3, seed=2)
    with pytest.raises(TrainDivergedError) as err:
        train(ds, cfg)
    assert err.value.epoch == 0
    assert err.value.batch == 0


def test_train_aborts_on_non_finite_validation_loss():
    """A NaN validation window stops training like a NaN batch does, rather
    than returning the initial weights as the best of no finite epoch."""
    ds = tiny_dataset(seed=6)
    ds.validation[0, 2, 1] = np.nan
    cfg = TrainConfig(seq_len=5, hidden=8, learning_rate=1e-3, batch_size=8,
                      epochs=3, seed=2)
    with pytest.raises(TrainDivergedError, match="epoch 0, validation") as err:
        train(ds, cfg)
    assert (err.value.epoch, err.value.batch) == (0, None)
    assert pickle.loads(pickle.dumps(err.value)).batch is None


def noisy_dataset(seed):
    rng = np.random.default_rng(seed)
    return SequenceDataset(4, 3, rng.normal(size=(10, 4, 3)), rng.normal(size=(3, 4, 3)))


def check_best_is_the_shorter_run(seed, lr, epochs) -> int:
    """`train` returns the weights of its best epoch: the bytes of the same run
    stopped after that epoch, whose loss history is a prefix of its own."""
    cfg = TrainConfig(seq_len=4, hidden=5, learning_rate=lr, batch_size=4,
                      epochs=epochs, seed=seed)
    params, report = train(noisy_dataset(seed), cfg)
    best = report.best_epoch
    short_params, short = train(noisy_dataset(seed), replace(cfg, epochs=best + 1))
    assert short.best_epoch == best
    assert params.flat.tobytes() == short_params.flat.tobytes()
    assert report.train_loss[:best + 1].tobytes() == short.train_loss.tobytes()
    assert report.val_loss[:best + 1].tobytes() == short.val_loss.tobytes()
    return best


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 50), lr=st.sampled_from([3e-3, 3e-2, 3e-1]),
       epochs=st.integers(1, 6))
@example(seed=0, lr=3e-1, epochs=6)    # best epoch 1: read back from the file
@example(seed=2, lr=3e-3, epochs=6)    # best epoch 5, the last
def test_train_returns_its_best_epoch(seed, lr, epochs):
    check_best_is_the_shorter_run(seed, lr, epochs)


def test_train_reads_back_an_earlier_best_epoch():
    assert check_best_is_the_shorter_run(0, 3e-1, 6) == 1


def test_train_refuses_best_weights_that_do_not_come_back(monkeypatch):
    """A best-weights file shorter than the vector is an OSError, not weights
    that mix two epochs. Here no write reaches the file."""
    monkeypatch.setattr(arrayio.PayloadWriter, "__call__", lambda self, first, rows: None)
    cfg = TrainConfig(seq_len=4, hidden=5, learning_rate=3e-1, batch_size=4, epochs=6, seed=0)
    with pytest.raises(OSError, match="best-weights file ended early"):
        train(noisy_dataset(0), cfg)   # best epoch 1 of 6


def test_train_holds_four_parameter_vectors():
    """Weights, two Adam moments and the gradient, which is dropped before
    the validation pass; the best weights wait in a file. (Five vectors and
    a validation pass beside all of them read 6.5 vectors.)"""
    rng = np.random.default_rng(0)
    ds = SequenceDataset(5, 36, rng.normal(size=(100, 5, 36)), rng.normal(size=(200, 5, 36)))
    cfg = TrainConfig(seq_len=5, hidden=512, learning_rate=1e-3, batch_size=50,
                      epochs=2, seed=1)
    peak = traced_peak(lambda: train(ds, cfg))
    assert peak < 5.5 * LstmParams.zeros(36, 512).flat.nbytes


@pytest.mark.parametrize("field, value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
    ("beta2", 1.0), ("beta2", -0.1), ("beta2", math.nan),
    ("eps", 0.0), ("eps", -1e-8), ("eps", math.inf), ("eps", math.nan),
    ("learning_rate", -1e-3), ("learning_rate", math.inf), ("learning_rate", math.nan),
])
def test_train_config_rejects_bad_optimizer_settings(field, value):
    """A learning rate that cannot train (negative, infinite or NaN) is a
    ValueError. Adam's beta1, beta2 and eps are constants, so passing any
    value for them is a TypeError that names the keyword."""
    error = ValueError if field == "learning_rate" else TypeError
    with pytest.raises(error, match=field.split("_")[0]):
        TrainConfig(seq_len=3, **{field: value})


def test_train_config_accepts_edge_optimizer_settings():
    cfg = TrainConfig(seq_len=3, learning_rate=0.0)
    assert cfg.learning_rate == 0.0


def test_adam_settings_are_constants_not_config_fields():
    """beta1, beta2 and eps are the module constants that `adam_step`
    defaults to; a config reads them but cannot set them."""
    assert [f.name for f in fields(TrainConfig)] == [
        "seq_len", "hidden", "learning_rate", "batch_size", "epochs", "seed"]
    cfg = TrainConfig(seq_len=3)
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    defaults = inspect.signature(adam_step).parameters
    assert [defaults[k].default for k in ("beta1", "beta2", "eps")] == [
        ADAM_BETA1, ADAM_BETA2, ADAM_EPS]


def test_train_validates_config_against_dataset():
    ds = tiny_dataset()
    with pytest.raises(ValueError, match="L="):
        train(ds, TrainConfig(seq_len=4, hidden=8, epochs=1))


@settings(max_examples=30, deadline=None)
@given(seq_len=st.integers(2, 6), chunk=st.integers(1, 4), chunks=st.integers(1, 2),
       edge=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**32 - 1))
def test_evaluate_loss_matches_sequence_loss(seq_len, chunk, chunks, edge, seed):
    """At any L, and for sequence counts on both sides of a chunk edge,
    `evaluate_loss` reads L from its sequences and gives the loss of one
    forward pass over all of them."""
    count = max(1, chunks * chunk + edge)
    sequences = np.random.default_rng(seed).normal(size=(count, seq_len, 4))
    params = random_params(4, 6, 71)
    ys, _ = one_to_many_forward(sequences[:, 0, :], seq_len, params)
    expected = sequence_loss(ys, sequences[:, 1:, :])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surrogate, "EVAL_CHUNK", chunk)
        assert evaluate_loss(sequences, params) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    params = random_params(5, 7, 81)
    cfg = TrainConfig(seq_len=4, hidden=7, learning_rate=1e-4, batch_size=2,
                      epochs=3, seed=13)
    report_losses = np.array([3.0, 2.0, 1.5])
    from mmsqc.surrogate import TrainReport
    report = TrainReport(report_losses, report_losses / 2, best_epoch=2)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, cfg, report)
    loaded, header = load_checkpoint(path)
    assert params_equal(loaded, params)
    assert header["seq_len"] == 4
    assert header["best_epoch"] == 2
    assert header["val_loss"] == [1.5, 1.0, 0.75]
    save_checkpoint(str(tmp_path / "m2.ckpt"), params, cfg, report)
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_checkpoint_records_every_training_setting(tmp_path):
    """Every TrainConfig field is a header key holding the run's value, so
    no training setting goes unrecorded."""
    cfg = TrainConfig(seq_len=4, hidden=7, learning_rate=1e-4, batch_size=2,
                      epochs=3, seed=13)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, random_params(5, 7, 82), cfg)
    _, header = load_checkpoint(path)
    assert {f.name: header.get(f.name) for f in fields(TrainConfig)} == vars(cfg)


def test_checkpoint_errors(tmp_path):
    params = random_params(5, 7, 91)
    cfg = TrainConfig(seq_len=4, hidden=7, epochs=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    header_end = raw.index(b"\n")

    (tmp_path / "short.ckpt").write_bytes(raw[:-8])
    with pytest.raises(arrayio.PayloadSizeError):
        load_checkpoint(str(tmp_path / "short.ckpt"))

    wrong_dim = raw[:header_end].replace(b'"dim":5', b'"dim":6') + raw[header_end:]
    (tmp_path / "dim.ckpt").write_bytes(wrong_dim)
    with pytest.raises(arrayio.PayloadSizeError):
        load_checkpoint(str(tmp_path / "dim.ckpt"))

    versioned = raw[:header_end].replace(b'"version":1', b'"version":3') + raw[header_end:]
    (tmp_path / "ver.ckpt").write_bytes(versioned)
    with pytest.raises(arrayio.VersionError):
        load_checkpoint(str(tmp_path / "ver.ckpt"))

    (tmp_path / "junk.ckpt").write_bytes(b"junk\n" + raw[header_end + 1:])
    with pytest.raises(arrayio.HeaderError):
        load_checkpoint(str(tmp_path / "junk.ckpt"))
