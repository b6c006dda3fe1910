"""One-to-many LSTM surrogate: numpy forward pass, exact BPTT, Adam, training.

The network consumes a single state vector and emits the next L-1 vectors:
the first cell step reads x0, every later step reads the previous dense
read-out y_{t-1} (D-dimensional feedback). One LSTM layer, linear read-out:

    i = sigmoid(W_i x + U_i h + b_i)    f, o analogous
    g = tanh(W_g x + U_g h + b_g)
    c' = f*c + i*g,  h' = o*tanh(c'),  y = W_d h' + b_d

Backpropagation through time follows the same unrolling, including the
gradient path through fed-back outputs. All weights live in one flat vector,
in which the four gates form stacked (4H, .) row blocks, so a training cell
step is one matmul per input (x and h); replay folds the read-out into the
recurrence, one matmul per step after the first. BPTT forms each weight
gradient with one matmul over all steps of a time-major forward record.
"""

import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from mmsqc import arrayio
from mmsqc.dataset import SequenceDataset
from mmsqc.streams import substream

# payload tensor order of the checkpoint format
TENSOR_FIELDS = ("W_i", "W_f", "W_o", "W_g", "U_i", "U_f", "U_o", "U_g",
                 "b_i", "b_f", "b_o", "b_g", "W_d", "b_d")

EVAL_CHUNK = 512   # sequences per forward pass when evaluating a loss
ADAM_BLOCK = 32768  # elements per Adam block; its temporaries are two blocks
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's standard setting; no other is used


def _flat_size(dim: int, hidden: int) -> int:
    return 4 * hidden * (dim + hidden + 1) + dim * (hidden + 1)


class LstmParams:
    """All weights in one contiguous float64 vector `flat`, in the checkpoint
    payload order (TENSOR_FIELDS).

    The gate-stacked W4 (4H x D), U4 (4H x H), b4 (4H) in i|f|o|g order and
    the dense read-out W_d (D x H), b_d (D) are views of `flat`, and the
    per-gate names W_i .. b_g (H x D, H x H, H) are row blocks of W4, U4, b4.
    Writing through any name changes the one vector the model runs on.
    """

    def __init__(self, flat: np.ndarray, dim: int, hidden: int):
        if flat.shape != (_flat_size(dim, hidden),):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit "
                             f"D={dim}, H={hidden}")
        self.flat = flat
        self.dim = dim
        self.hidden = hidden
        H4 = 4 * hidden
        ends = np.cumsum([H4 * dim, H4 * hidden, H4, dim * hidden])
        self.W4 = flat[:ends[0]].reshape(H4, dim)
        self.U4 = flat[ends[0]:ends[1]].reshape(H4, hidden)
        self.b4 = flat[ends[1]:ends[2]]
        self.W_d = flat[ends[2]:ends[3]].reshape(dim, hidden)
        self.b_d = flat[ends[3]:]
        for k, gate in enumerate("ifog"):
            rows = slice(k * hidden, (k + 1) * hidden)
            setattr(self, f"W_{gate}", self.W4[rows])
            setattr(self, f"U_{gate}", self.U4[rows])
            setattr(self, f"b_{gate}", self.b4[rows])

    def __reduce__(self):
        # pickle the vector once; the views are rebuilt on the other side
        return (LstmParams, (self.flat, self.dim, self.hidden))

    @classmethod
    def zeros(cls, dim: int, hidden: int) -> "LstmParams":
        return cls(np.zeros(_flat_size(dim, hidden)), dim, hidden)


def init_params(dim: int, hidden: int, rng: np.random.Generator) -> LstmParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) per weight tensor, drawn in the order
    W_i, U_i, W_f, U_f, W_o, U_o, W_g, U_g, W_d; biases start at zero except
    the forget bias, which starts at 1."""
    params = LstmParams.zeros(dim, hidden)
    for name in [f"{w}_{gate}" for gate in "ifog" for w in "WU"] + ["W_d"]:
        arr = getattr(params, name)
        fan_out, fan_in = arr.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        arr[...] = rng.uniform(-limit, limit, size=arr.shape)
    params.b_f[:] = 1.0
    return params


def _sigmoid(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)), in place."""
    # exp may overflow for strongly negative z; the result saturates to 0 exactly
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _cell(params: LstmParams, x, h, c, out=None, fold=None):
    """One cell step on (B, .) arrays; returns (h', c', gates), gates being
    the activations i|f|o|g (B, 4H), written into the buffers `out` if given.
    h is None at the zero state (the first step): no U4 h matmul. With fold =
    `_fold_readout(params)` the input is the previous read-out, z = h U4'^T +
    b4', and x is not read."""
    H = params.hidden
    z, h_new, c_new = out if out is not None else (
        np.empty((c.shape[0], 4 * H)), np.empty_like(c), np.empty_like(c))
    if fold is not None:
        np.matmul(h, fold[0].T, out=z)
        z += fold[1]
    else:
        np.matmul(x, params.W4.T, out=z)
        if h is not None:
            z += h @ params.U4.T
        z += params.b4
    # elementwise passes run fastest over whole contiguous rows: the sigmoid
    # covers all of z, and the g block is then overwritten with tanh
    g = np.tanh(z[:, 3 * H:])
    _sigmoid(z)
    z[:, 3 * H:] = g
    i, f, o = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H]
    np.multiply(f, c, out=c_new)
    c_new += i * g
    np.multiply(o, np.tanh(c_new), out=h_new)
    return h_new, c_new, z


def _fold_readout(params: LstmParams) -> tuple[np.ndarray, np.ndarray]:
    """(U4 + W4 W_d, b4 + W4 b_d): for an input y = W_d h + b_d, the previous
    read-out, W4 y + U4 h + b4 = h U4'^T + b4', one matmul in place of two.
    Replay folds once per call; training needs the inputs for BPTT anyway."""
    return params.U4 + params.W4 @ params.W_d, params.b4 + params.W4 @ params.b_d


@dataclass(frozen=True)
class ForwardRecord:
    """One batched forward pass, time-major, for `backward`. Step t reads x[t]
    (x0, then the previous read-out), h[t] and c[t] (row 0 is zero), and
    writes gates[t] (i|f|o|g), h[t+1], c[t+1] and its read-out x[t+1]."""

    x: np.ndarray       # (L, B, D)
    gates: np.ndarray   # (L-1, B, 4H)
    h: np.ndarray       # (L, B, H)
    c: np.ndarray       # (L, B, H)


def _unroll(params: LstmParams, x0: np.ndarray, out: np.ndarray,
            record: ForwardRecord | None = None, fold=None) -> np.ndarray:
    """Unroll out.shape[1] cell steps from x0 (B, D) with h = c = 0 and write
    read-out t to out[:, t]. `out` may hold fewer rows than x0: the extra
    (padding) rows are computed but not stored. With a `record`, each step
    writes its gates and states into it; `fold` (replay only) runs steps
    1.. through the folded read-out. Returns the last read-out (B, D)."""
    c = np.zeros((x0.shape[0], params.hidden)) if record is None else record.c[0]
    h, x = None, x0
    for t in range(out.shape[1]):
        buffers = None if record is None else (record.gates[t], record.h[t + 1], record.c[t + 1])
        h, c, _ = _cell(params, x, h, c, buffers, fold if t else None)
        x = h @ params.W_d.T + params.b_d
        out[:, t] = x[:out.shape[0]]
    return x


# ---------------------------------------------------------------------------
# public operations


def one_to_many_forward(x0, seq_len: int, params: LstmParams):
    """Unroll the network from one input per sequence: y_1 .. y_{L-1}.

    x0 is (B, D); outputs are (B, L-1, D), plus the `ForwardRecord` that
    `backward` needs. Step 1 consumes x0, later steps consume the previous
    read-out; h and c start at zero. The outputs are a view of the record's
    time-major x[1:].
    """
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError(f"input of shape {x.shape} is not (B, D) with D={params.dim}")
    B, H = x.shape[0], params.hidden
    record = ForwardRecord(np.empty((seq_len, B, params.dim)),
                           np.empty((seq_len - 1, B, 4 * H)),
                           np.empty((seq_len, B, H)), np.empty((seq_len, B, H)))
    record.x[0] = x
    record.h[0] = record.c[0] = 0.0
    ys = record.x[1:].swapaxes(0, 1)
    _unroll(params, x, ys, record)
    return ys, record


def sequence_loss(pred, target) -> float:
    """Mean squared error over every predicted component."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def backward(record: ForwardRecord, loss_grads, params: LstmParams,
             out: LstmParams | None = None) -> LstmParams:
    """Exact gradients of the unrolled network w.r.t. every parameter.

    `record` comes from `one_to_many_forward` and is left unchanged.
    `loss_grads` is dLoss/dy per step, (B, L-1, D) as the forward outputs.
    Gradients flowing through fed-back outputs are included. They
    accumulate (sum) over the batch: each weight gradient is one matmul over
    all steps and sequences. If `out` is given, it is filled and returned,
    so a training loop can reuse one gradient vector.
    """
    dY = np.asarray(loss_grads, dtype=float)
    if record is None:
        raise ValueError("no forward record supplied")
    steps, B = record.gates.shape[:2]
    D, H = params.dim, params.hidden
    if dY.shape != (B, steps, D) or record.h.shape[2] != H:
        raise ValueError(f"loss_grads {dY.shape} and D={D}, H={H} do not match a record "
                         f"of {steps} steps, {B} sequences and H={record.h.shape[2]}")
    if out is None:
        grads = LstmParams.zeros(D, H)
    elif (out.dim, out.hidden) != (D, H):
        raise ValueError(f"out has D={out.dim}, H={out.hidden}; "
                         f"params have D={D}, H={H}")
    else:
        grads = out
    gates, c = record.gates, record.c
    dz = np.empty_like(gates)           # (steps, B, 4H), i|f|o|g as the gates
    dy = np.empty((steps, B, D))        # dLoss/dy_t, fed-back path included
    dx_next = dh_next = dc_next = 0.0   # the last step feeds nothing

    for t in range(steps - 1, -1, -1):
        i, f, o, g = (gates[t, :, k * H:(k + 1) * H] for k in range(4))
        tanh_c = np.tanh(c[t + 1])
        # feedback: this output fed the next step's input
        np.add(dY[:, t], dx_next, out=dy[t])
        dh = dy[t] @ params.W_d + dh_next

        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        # gate derivatives a(1 - a) over whole rows, then 1 - g^2 for the g block
        d = dz[t]
        np.subtract(1.0, gates[t], out=d)
        d *= gates[t]
        np.subtract(1.0, g * g, out=d[:, 3 * H:])
        d[:, :H] *= dc * g
        d[:, H:2 * H] *= dc * c[t]
        d[:, 2 * H:3 * H] *= dh * tanh_c
        d[:, 3 * H:] *= dc * i
        if t == 0:
            break   # step 0 starts from h = c = 0: nothing earlier
        dc_next = dc * f
        dx_next = d @ params.W4
        dh_next = d @ params.U4

    # one matmul per weight over every (step, sequence) row
    rows = steps * B
    dz, dy = dz.reshape(rows, 4 * H), dy.reshape(rows, D)
    np.matmul(dz.T, record.x[:steps].reshape(rows, D), out=grads.W4)
    # step 0 starts from h = 0 and adds no U4 term (U4 is zero when L = 2)
    np.matmul(dz[B:].T, record.h[1:steps].reshape(rows - B, H), out=grads.U4)
    np.sum(dz, axis=0, out=grads.b4)
    np.matmul(dy.T, record.h[1:steps + 1].reshape(rows, H), out=grads.W_d)
    np.sum(dy, axis=0, out=grads.b_d)
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: LstmParams
    v: LstmParams
    step: int = 0

    @classmethod
    def zeros(cls, dim: int, hidden: int) -> "AdamState":
        return cls(LstmParams.zeros(dim, hidden), LstmParams.zeros(dim, hidden))


def adam_step(params: LstmParams, grads: LstmParams, state: AdamState,
              lr: float, beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2,
              eps: float = ADAM_EPS) -> tuple[LstmParams, AdamState]:
    """Standard bias-corrected Adam update on the flat vectors. `params` and
    the moments are updated in place, ADAM_BLOCK elements at a time through
    two block-sized scratch arrays, with the same elementwise operations in
    the same order as a whole-vector update. Returns `params` and the
    advanced state (the input state is consumed)."""
    t = state.step + 1
    scale_m = lr / (1.0 - beta1**t)
    scale_v = 1.0 / np.sqrt(1.0 - beta2**t)
    tmp, update = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for start in range(0, params.flat.size, ADAM_BLOCK):
        blk = slice(start, start + ADAM_BLOCK)
        g, m, v, p = grads.flat[blk], state.m.flat[blk], state.v.flat[blk], params.flat[blk]
        a, u = tmp[:g.size], update[:g.size]
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        denom = np.sqrt(v, out=a)
        denom *= scale_v
        denom += eps
        np.multiply(m, scale_m, out=u)
        u /= denom
        p -= u
    return params, replace(state, step=t)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    seq_len: int
    hidden: int = 2000
    learning_rate: float = 1e-5
    batch_size: int = 50
    epochs: int = 2000
    seed: int = 0
    # Adam's constants, readable from a config; class attributes, not fields, so fixed
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    def __post_init__(self):
        if self.seq_len < 2:
            raise ValueError("seq_len must be at least 2")
        if min(self.hidden, self.batch_size, self.epochs) < 1:
            raise ValueError("hidden, batch_size and epochs must be positive")
        # written so that NaN fails every check
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be finite and non-negative, "
                             f"got {self.learning_rate}")


@dataclass
class TrainReport:
    train_loss: np.ndarray   # per epoch
    val_loss: np.ndarray     # per epoch
    best_epoch: int
    wall_time_s: float = 0.0


class TrainDivergedError(RuntimeError):
    """A non-finite loss in training batch `batch` of `epoch`, or in the
    validation pass after that epoch's batches when `batch` is None."""

    def __init__(self, epoch: int, batch: int | None):
        self.epoch = epoch
        self.batch = batch
        where = "validation" if batch is None else f"batch {batch}"
        super().__init__(f"non-finite loss in epoch {epoch}, {where}")

    def __reduce__(self):
        return (TrainDivergedError, (self.epoch, self.batch))


def evaluate_loss(sequences: np.ndarray, params: LstmParams, seq_len: int) -> float:
    """Mean sequence loss over a (count, L, D) array, forward only."""
    if len(sequences) == 0:
        return float("nan")
    total = 0.0
    for start in range(0, len(sequences), EVAL_CHUNK):
        block = sequences[start:start + EVAL_CHUNK]
        ys = np.empty((block.shape[0], seq_len - 1, params.dim))
        _unroll(params, block[:, 0, :], ys)
        np.subtract(ys, block[:, 1:, :], out=ys)   # in place: no second block
        total += np.sum(np.square(ys, out=ys))
    return float(total / (sequences.shape[0] * (seq_len - 1) * sequences.shape[2]))


def train(dataset: SequenceDataset, cfg: TrainConfig,
          progress=None) -> tuple[LstmParams, TrainReport]:
    """Mini-batch Adam training; returns the parameters with the lowest
    validation loss. Fully deterministic for a given config. Holds four
    parameter-size vectors: the weights, the two Adam moments and, while an
    epoch's batches run, one gradient. The best weights so far wait in an
    unnamed temp file (in TMPDIR), which nothing outlives."""
    if dataset.seq_len != cfg.seq_len:
        raise ValueError(f"dataset L={dataset.seq_len} but config L={cfg.seq_len}")
    if dataset.n_train == 0 or dataset.n_validation == 0:
        raise ValueError("dataset must contain training and validation sequences")

    t_start = time.perf_counter()
    params = init_params(dataset.dim, cfg.hidden, substream(cfg.seed, "init"))
    adam = AdamState.zeros(dataset.dim, cfg.hidden)
    best_val = np.inf
    best_epoch = 0
    train_losses, val_losses = [], []

    with tempfile.TemporaryFile() as best:
        keep = arrayio.PayloadWriter(best.fileno(), 0, params.flat.shape)
        for epoch in range(cfg.epochs):
            order = substream(cfg.seed, "batch", epoch).permutation(dataset.n_train)
            epoch_sq = 0.0
            grads = LstmParams.zeros(dataset.dim, cfg.hidden)   # reused by every batch
            for batch_no, start in enumerate(range(0, dataset.n_train, cfg.batch_size)):
                seqs = dataset.train[order[start:start + cfg.batch_size]]
                ys, record = one_to_many_forward(seqs[:, 0, :], cfg.seq_len, params)
                targets = seqs[:, 1:, :]
                loss = sequence_loss(ys, targets)
                if not np.isfinite(loss):
                    raise TrainDivergedError(epoch, batch_no)
                epoch_sq += loss * seqs.shape[0]
                dY = np.subtract(ys, targets, out=targets)   # seqs is this batch's own copy
                dY *= 2.0 / ys.size
                backward(record, dY, params, out=grads)
                del ys, record, dY, seqs, targets   # free the batch before the next forward
                params, adam = adam_step(params, grads, adam, cfg.learning_rate)
            del grads   # the validation pass runs beside three vectors
            train_losses.append(epoch_sq / dataset.n_train)
            val = evaluate_loss(dataset.validation, params, cfg.seq_len)
            if not np.isfinite(val):
                raise TrainDivergedError(epoch, None)
            val_losses.append(val)
            if val < best_val:
                best_val = val
                best_epoch = epoch
                keep(0, params.flat)
            if progress is not None:
                progress(epoch, train_losses[-1], val)

        # buffered, so one readinto fills the whole vector or meets the end of the file
        if best_epoch != cfg.epochs - 1 and best.readinto(params.flat) != params.flat.nbytes:
            raise OSError("best-weights file ended early")

    report = TrainReport(np.array(train_losses), np.array(val_losses),
                         best_epoch, time.perf_counter() - t_start)
    return params, report


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, params: LstmParams, cfg: TrainConfig,
                    report: TrainReport | None = None,
                    extra_header: dict | None = None) -> None:
    header = {
        "dim": params.dim,
        "hidden": params.hidden,
        "seq_len": cfg.seq_len,
        "seed": cfg.seed,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        "tensor_order": list(TENSOR_FIELDS),
        "best_epoch": report.best_epoch if report else None,
        "train_loss": list(map(float, report.train_loss)) if report else None,
        "val_loss": list(map(float, report.val_loss)) if report else None,
        **(extra_header or {}),
    }
    arrayio.write_array_file(path, arrayio.CHECKPOINT, header, params.flat)


def load_checkpoint(path: str) -> tuple[LstmParams, dict]:
    header, (flat,) = arrayio.read_array_file(
        path, arrayio.CHECKPOINT, lambda h: [(_flat_size(h["dim"], h["hidden"]),)],
        layout={"tensor_order": list(TENSOR_FIELDS)}, dim=int, hidden=int, seq_len=int)
    return LstmParams(flat, header["dim"], header["hidden"]), header
