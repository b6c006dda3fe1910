"""One-to-many LSTM surrogate: numpy forward pass, exact BPTT, Adam, training.

The network consumes a single state vector and emits the next L-1 vectors:
the first cell step reads x0, every later step reads the previous dense
read-out y_{t-1} (D-dimensional feedback). One LSTM layer, linear read-out:

    i = sigmoid(W_i x + U_i h + b_i)    f, o analogous
    g = tanh(W_g x + U_g h + b_g)
    c' = f*c + i*g,  h' = o*tanh(c'),  y = W_d h' + b_d

Backpropagation through time follows the same unrolling, including the
gradient path through fed-back outputs. All weights live in one flat vector,
in which the four gates form stacked (4H, .) row blocks, so each cell step is
two matmuls and the optimizer and checkpoints work on that vector whole.
"""

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

    def tensors(self):
        return [(name, getattr(self, name)) for name in TENSOR_FIELDS]

    def copy(self) -> "LstmParams":
        return LstmParams(self.flat.copy(), self.dim, self.hidden)

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


def _sigmoid(z):
    # exp may overflow for strongly negative z; the result saturates to 0 exactly
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _cell(params: LstmParams, x, h, c):
    """One cell step on (B, .) arrays; returns (h', c', cache)."""
    H = params.hidden
    z = x @ params.W4.T
    z += h @ params.U4.T
    z += params.b4
    i = _sigmoid(z[:, :H])
    f = _sigmoid(z[:, H:2 * H])
    o = _sigmoid(z[:, 2 * H:3 * H])
    g = np.tanh(z[:, 3 * H:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    cache = {"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "o": o, "g": g,
             "tanh_c": tanh_c, "h": h_new}
    return h_new, c_new, cache


def _unroll(params: LstmParams, x0: np.ndarray, out: np.ndarray,
            caches: list | None = None) -> np.ndarray:
    """Unroll out.shape[1] cell steps from x0 (B, D) with h = c = 0 and write
    read-out t to out[:, t]. `out` may hold fewer rows than x0: the extra
    (padding) rows are computed but not stored. Appends each step's BPTT
    cache to `caches` if one is given. Returns the last read-out (B, D)."""
    h = np.zeros((x0.shape[0], params.hidden))
    c = np.zeros_like(h)
    x = x0
    for t in range(out.shape[1]):
        h, c, cache = _cell(params, x, h, c)
        x = h @ params.W_d.T + params.b_d
        out[:, t] = x[:out.shape[0]]
        if caches is not None:
            caches.append(cache)
    return x


def _forward(params: LstmParams, x0: np.ndarray, seq_len: int):
    """Unrolled batch forward for training; x0 is (B, D). Returns
    ((B, L-1, D), caches)."""
    ys = np.empty((x0.shape[0], seq_len - 1, params.dim))
    caches = []
    _unroll(params, x0, ys, caches)
    return ys, caches


def _backward(params: LstmParams, caches: list, dY: np.ndarray) -> LstmParams:
    """Gradients for a batched (B, steps, D) loss gradient; sums over batch."""
    B, steps, _ = dY.shape
    H = params.hidden
    grads = LstmParams.zeros(params.dim, H)
    dx_next = None
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))

    for t in range(steps - 1, -1, -1):
        cache = caches[t]
        x, h_prev, c_prev = cache["x"], cache["h_prev"], cache["c_prev"]
        i, f, o, g = cache["i"], cache["f"], cache["o"], cache["g"]
        tanh_c, h = cache["tanh_c"], cache["h"]

        dy = dY[:, t, :]
        if dx_next is not None:
            dy = dy + dx_next   # feedback: this output fed the next step's input
        grads.W_d += dy.T @ h
        grads.b_d += dy.sum(axis=0)
        dh = dy @ params.W_d + dh_next

        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz = np.empty((B, 4 * H))
        dz[:, :H] = (dc * g) * i * (1.0 - i)
        dz[:, H:2 * H] = (dc * c_prev) * f * (1.0 - f)
        dz[:, 2 * H:3 * H] = do * o * (1.0 - o)
        dz[:, 3 * H:] = (dc * i) * (1.0 - g**2)
        dc_next = dc * f

        grads.W4 += dz.T @ x
        grads.U4 += dz.T @ h_prev
        grads.b4 += dz.sum(axis=0)
        dx_next = dz @ params.W4
        dh_next = dz @ params.U4

    return grads


# ---------------------------------------------------------------------------
# public operations


def cell_forward(x, h, c, params: LstmParams):
    """One LSTM cell step. Accepts (D,)/(H,) vectors or (B, .) batches;
    returns (h', c', cache) with the intermediates needed for BPTT."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape[-1] != params.dim or h.shape[-1] != params.hidden or c.shape[-1] != params.hidden:
        raise ValueError(
            f"cell input shapes {x.shape}/{h.shape}/{c.shape} do not match "
            f"D={params.dim}, H={params.hidden}"
        )
    single = x.ndim == 1
    if single:
        x, h, c = x[None], h[None], c[None]
    h_new, c_new, cache = _cell(params, x, h, c)
    if single:
        return h_new[0], c_new[0], cache
    return h_new, c_new, cache


def one_to_many_forward(x0, seq_len: int, params: LstmParams):
    """Unroll the network from a single input: y_1 .. y_{L-1}.

    x0 is (D,) or (B, D); outputs are (L-1, D) or (B, L-1, D). Step 1
    consumes x0, later steps consume the previous read-out; h and c start
    at zero.
    """
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
    x = np.asarray(x0, dtype=float)
    if x.shape[-1] != params.dim:
        raise ValueError(f"input dimension {x.shape[-1]} does not match D={params.dim}")
    single = x.ndim == 1
    ys, caches = _forward(params, x[None] if single else x, seq_len)
    return (ys[0] if single else ys), caches


def sequence_loss(pred, target) -> float:
    """Mean squared error over every predicted component."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def backward(caches: list, loss_grads, params: LstmParams) -> LstmParams:
    """Exact gradients of the unrolled network w.r.t. every parameter.

    `loss_grads` is dLoss/dy per step, same shape as the forward outputs.
    Gradients flowing through fed-back outputs are included. Batched inputs
    accumulate (sum) over the batch.
    """
    dY = np.asarray(loss_grads, dtype=float)
    if not caches:
        raise ValueError("no forward caches supplied")
    if dY.ndim == 2:
        dY = dY[None]
    if dY.ndim != 3 or dY.shape[1] != len(caches):
        raise ValueError(
            f"loss_grads shape {loss_grads.shape if hasattr(loss_grads, 'shape') else '?'} "
            f"does not match {len(caches)} cached steps"
        )
    return _backward(params, caches, dY)


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
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[LstmParams, AdamState]:
    """Standard bias-corrected Adam update on the flat vectors. `params` and
    the moments are updated in place; returns `params` and the advanced state
    (the input state is consumed)."""
    t = state.step + 1
    scale_m = lr / (1.0 - beta1**t)
    scale_v = 1.0 / np.sqrt(1.0 - beta2**t)
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    denom = np.sqrt(v)
    denom *= scale_v
    denom += eps
    update = m * scale_m
    update /= denom
    params.flat -= update
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.seq_len < 2:
            raise ValueError("seq_len must be at least 2")
        if min(self.hidden, self.batch_size, self.epochs) < 1:
            raise ValueError("hidden, batch_size and epochs must be positive")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be non-negative")


@dataclass
class TrainReport:
    train_loss: np.ndarray   # per epoch
    val_loss: np.ndarray     # per epoch
    best_epoch: int
    wall_time_s: float = 0.0


class TrainDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss in epoch {epoch}, batch {batch}")

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
        total += np.sum((ys - block[:, 1:, :])**2)
    return float(total / (sequences.shape[0] * (seq_len - 1) * sequences.shape[2]))


def train(dataset: SequenceDataset, cfg: TrainConfig,
          progress=None) -> tuple[LstmParams, TrainReport]:
    """Mini-batch Adam training; returns the parameters with the lowest
    validation loss. Fully deterministic for a given config."""
    if dataset.seq_len != cfg.seq_len:
        raise ValueError(f"dataset L={dataset.seq_len} but config L={cfg.seq_len}")
    if dataset.n_train == 0 or dataset.n_validation == 0:
        raise ValueError("dataset must contain training and validation sequences")

    t_start = time.perf_counter()
    params = init_params(dataset.dim, cfg.hidden, substream(cfg.seed, "init"))
    adam = AdamState.zeros(dataset.dim, cfg.hidden)
    best = params.copy()
    best_val = np.inf
    best_epoch = 0
    train_losses, val_losses = [], []

    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "batch", epoch).permutation(dataset.n_train)
        epoch_sq = 0.0
        for batch_no, start in enumerate(range(0, dataset.n_train, cfg.batch_size)):
            seqs = dataset.train[order[start:start + cfg.batch_size]]
            ys, caches = _forward(params, seqs[:, 0, :], cfg.seq_len)
            targets = seqs[:, 1:, :]
            loss = sequence_loss(ys, targets)
            if not np.isfinite(loss):
                raise TrainDivergedError(epoch, batch_no)
            dY = (2.0 / ys.size) * (ys - targets)
            grads = _backward(params, caches, dY)
            params, adam = adam_step(params, grads, adam, cfg.learning_rate,
                                     cfg.beta1, cfg.beta2, cfg.eps)
            epoch_sq += loss * seqs.shape[0]
        train_losses.append(epoch_sq / dataset.n_train)
        val = evaluate_loss(dataset.validation, params, cfg.seq_len)
        val_losses.append(val)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best = params.copy()
        if progress is not None:
            progress(epoch, train_losses[-1], val)

    report = TrainReport(np.array(train_losses), np.array(val_losses),
                         best_epoch, time.perf_counter() - t_start)
    return best, report


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
        dim=int, hidden=int, seq_len=int)
    return LstmParams(flat, header["dim"], header["hidden"]), header
