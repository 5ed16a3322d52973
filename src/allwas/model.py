"""Desk-scale probabilistic classifier head over token embeddings.

A mean-pooled embedding feeds one tanh hidden layer with dropout and a
linear softmax output. Training is plain mini-batch gradient descent on
soft-label cross-entropy, re-initialized from scratch on every call so
each round of an experiment trains a fresh model. Everything is
deterministic given the head's seed. ``train_stack`` trains R heads of one
shape in lockstep, on training sets of any row counts, each bitwise what
``train`` gives it alone; ``train`` is its one-head case.

The per-class gradients of the loss with respect to the last layer's
input activation, weighted by the predicted class probabilities, form one
discrete measure per example (``gradient_arrays``); that measure is the
unit of geometry for the transport-based acquisition strategy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import AllwasError, ConfigError, ShapeError

# Learning rate that suits this small head.
DEFAULT_LR = 1e-2

_WEIGHT_TOL = 1e-9

# Byte budget for one chunk of heads trained in lockstep (memory guard).
_CHUNK_BYTES = 64 * 2**20

# Rows a head gathers and masks at a time: one window of steps, so a
# stack holds no stacked copy of its training sets and no (n, H) block of
# dropout masks per head.
_WINDOW_ROWS = 256


@dataclass
class ClassifierHead:
    """Two-layer softmax classifier over pooled embeddings.

    Carries its own training hyperparameters; ``train`` reads them and the
    seed, ignores any existing parameters, and returns a new trained head.
    """

    input_dim: int
    n_classes: int
    hidden_dim: int = 64
    dropout: float = 0.1
    epochs: int = 5
    batch_size: int = 50
    lr: float = DEFAULT_LR
    seed: int = 0
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1) (got {self.dropout})")
        if self.input_dim < 1 or self.n_classes < 2 or self.hidden_dim < 1:
            raise ConfigError("head dimensions must be positive (>= 2 classes)")
        # A head leaves the training stack only after its last epoch's step,
        # so a head with no epochs or an empty batch would never leave it.
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1 "
                              f"(got {self.epochs}, {self.batch_size})")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be a finite number > 0 (got {self.lr})")

    @property
    def trained(self) -> bool:
        return self.w1 is not None

    def _require_trained(self):
        if not self.trained:
            raise AllwasError("head is untrained; call train first")

    def _hidden(self, pooled: np.ndarray) -> np.ndarray:
        return np.tanh(pooled @ self.w1 + self.b1)

    def _softmax(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class TrainingSet:
    """Training rows as arrays: pooled embeddings ``x`` (n, d) and soft
    labels ``y`` (n, C), one probability vector per row."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ShapeError("training data needs x (n, d) and y (n, C)",
                             expected="(n, d), (n, C)", actual=(x.shape, y.shape))
        if x.shape[0] == 0:
            raise AllwasError("training data is empty")
        if not np.all(np.isfinite(x)):
            raise AllwasError("training embeddings contain non-finite entries")
        if np.any(y < -_WEIGHT_TOL) or np.any(np.abs(y.sum(axis=1) - 1.0) > _WEIGHT_TOL):
            raise AllwasError("training label rows must be probability vectors")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]


def train(head: ClassifierHead, data) -> ClassifierHead:
    """Train a freshly initialized copy of ``head`` on a :class:`TrainingSet`.

    Mini-batch gradient descent on soft-label cross-entropy
    H(L, p) = -sum_c L_c log p_c, with inverted-scaling dropout on the
    hidden layer during training. Bit-reproducible for a fixed seed. This
    is the one-head case of :func:`train_stack`.
    """
    (trained,) = train_stack([head], [data])
    if isinstance(trained, AllwasError):
        raise trained
    return trained


def stack_key(head: ClassifierHead, data) -> tuple:
    """What heads trained in one stack share: the head's dimensions and
    hyperparameters (not its seed) and the training set's column counts
    (not its row count)."""
    return (head.input_dim, head.n_classes, head.hidden_dim, head.dropout,
            head.epochs, head.batch_size, head.lr, data.x.shape[1], data.y.shape[1])


def _window_steps(batch: int) -> int:
    """Steps whose rows and dropout masks a head draws at once."""
    return max(1, _WINDOW_ROWS // batch)


def stack_bytes(head: ClassifierHead, data) -> int:
    """Working bytes that training ``head`` on ``data`` adds to a stack:
    its epoch order, one window of gathered rows and labels, of dropout
    masks and of the draws they come from, the parameters and their
    gradients, and about a dozen batch-sized temporaries (not the training
    set itself)."""
    d, h, c, batch = head.input_dim, head.hidden_dim, head.n_classes, head.batch_size
    window = _window_steps(batch) * batch
    return 8 * (len(data) + window * (d + c + 2 * h) + 2 * (d + c + 1) * (h + c)
                + batch * (2 * d + 2 * c + 6 * h + 6 * c))


def train_stack(heads, datas) -> list:
    """Train fresh copies of R heads in lockstep, head r on ``datas[r]``.

    The heads share their dimensions and hyperparameters; seeds and row
    counts differ. Each head draws from its own generator and owns one
    slice of the (R, d, H) and (R, H, C) weight stacks, so it ends bitwise
    equal to ``train(heads[r], datas[r])``, whatever else shares its stack.
    Each step is one stacked matmul per product for the heads that still
    train; a head with fewer rows takes fewer steps and leaves the stack
    when its last epoch ends. Heads are sorted by row count and cut into
    chunks under ``_CHUNK_BYTES``. Returns, per head, the trained head or
    the :class:`AllwasError` its training raised: a diverging head drops
    out and the others go on.
    """
    heads, datas = list(heads), list(datas)
    if not heads or len(heads) != len(datas):
        raise AllwasError("train_stack needs one training set per head")
    head, data = heads[0], datas[0]
    if data.x.shape[1] != head.input_dim:
        raise ShapeError("data dimension does not match head", expected=head.input_dim,
                         actual=data.x.shape[1])
    if data.y.shape[1] != head.n_classes:
        raise ShapeError("label classes do not match head", expected=head.n_classes,
                         actual=data.y.shape[1])
    if any(stack_key(*pair) != stack_key(head, data) for pair in zip(heads, datas)):
        raise AllwasError("heads trained in lockstep must share dimensions "
                          "and hyperparameters")
    # Largest first: a chunk's heads then leave its stack from the end.
    chunks, used = [[]], 0
    for i in sorted(range(len(heads)), key=lambda i: -len(datas[i])):
        size = stack_bytes(heads[i], datas[i])
        if chunks[-1] and used + size > _CHUNK_BYTES:
            chunks.append([])
            used = 0
        chunks[-1].append(i)
        used += size
    out = [None] * len(heads)
    for chunk in chunks:
        trained = _train_chunk([heads[i] for i in chunk], [datas[i] for i in chunk])
        for i, got in zip(chunk, trained):
            out[i] = got
    return out


def _sgd_step(xb, yb, w1, b1, w2, b2, loss, mask, lr):
    """One mini-batch step of every head in the stacks, in place: head r
    trains on rows ``xb[r]`` with labels ``yb[r]`` under dropout ``mask[r]``
    (or none) and adds its batch's loss to ``-loss[r]``."""
    r, m = xb.shape[:2]
    hid = np.matmul(xb, w1)
    hid += b1
    np.tanh(hid, out=hid)
    hid_d = hid if mask is None else hid * mask
    logits = np.matmul(hid_d, w2)
    logits += b2
    logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
    log_probs = logits
    log_probs -= np.log(np.add.reduce(np.exp(logits), axis=2, keepdims=True))
    probs = np.exp(log_probs)
    # Each head's loss is the flat sum of its (m, C) block.
    loss -= np.add.reduce((yb * log_probs).reshape(r, -1), axis=1)

    dlogits = probs
    dlogits -= yb
    dlogits /= m
    dw2 = np.matmul(hid_d.transpose(0, 2, 1), dlogits)
    db2 = np.add.reduce(dlogits, axis=1, keepdims=True)
    dz1 = np.matmul(dlogits, w2.transpose(0, 2, 1))
    if mask is not None:
        dz1 *= mask
    hid *= hid
    np.subtract(1.0, hid, out=hid)
    dz1 *= hid
    dw1 = np.matmul(xb.transpose(0, 2, 1), dz1)
    db1 = np.add.reduce(dz1, axis=1, keepdims=True)
    for param, grad in ((w2, dw2), (b2, db2), (w1, dw1), (b1, db1)):
        grad *= lr
        param -= grad


def _train_chunk(heads: list, datas: list) -> list:
    """``train_stack`` on one chunk. A head leaves the stacks when its last
    epoch ends or it diverges; with the heads sorted largest first, they
    leave from the end."""
    head = heads[0]
    d, h, c = head.input_dim, head.hidden_dim, head.n_classes
    batch, lr, epochs = head.batch_size, head.lr, head.epochs
    ns = [len(rows) for rows in datas]
    per_epoch = [-(-n // batch) for n in ns]           # steps per epoch
    rngs = [np.random.default_rng(other.seed) for other in heads]
    w1 = np.empty((len(heads), d, h))
    w2 = np.empty((len(heads), h, c))
    for r, rng in enumerate(rngs):
        w1[r] = rng.standard_normal((d, h)) / np.sqrt(d)
        w2[r] = rng.standard_normal((h, c)) / np.sqrt(h)
    b1 = np.zeros((len(heads), 1, h))
    b2 = np.zeros((len(heads), 1, c))

    # Slot r of the stacks belongs to head live[r]. xw[r, w], yw[w, r] and
    # masks[w, r] hold a slot's batch at step s0 + w of the window starting
    # at s0; a partial batch fills the first m rows. Labels and masks are
    # step-major, so the elementwise products of a step read contiguous
    # blocks.
    window = _window_steps(batch)
    live = list(range(len(heads)))
    xw = np.empty((len(heads), window, batch, d))
    yw = np.empty((window, len(heads), batch, c))
    masks = np.zeros((window, len(heads), batch, h)) if head.dropout > 0 else None
    rows = np.zeros((window, batch), dtype=np.intp)
    draws = np.zeros((window, batch, h)) if head.dropout > 0 else None
    orders = [None] * len(heads)        # each head's epoch order
    loss = np.zeros(len(heads))
    losses = [[] for _ in heads]
    out = [None] * len(heads)
    next_end = min(per_epoch) - 1       # the next step that ends some epoch
    s = 0
    while live:
        w = s % window
        if w == 0:
            for r, i in enumerate(live):
                stop = min(s + window, epochs * per_epoch[i])
                orders[i] = _draw_window(rngs[i], orders[i], len(datas[i]), per_epoch[i],
                                         s, stop, rows, draws)
                steps = stop - s
                # Every index is in range; "clip" lets take write into a
                # contiguous out without a buffered copy.
                datas[i].x.take(rows[:steps], axis=0, out=xw[r, :steps], mode="clip")
                datas[i].y.take(rows[:steps], axis=0, out=yw[:steps, r], mode="clip")
                if masks is not None:
                    np.greater_equal(draws[:steps], head.dropout, out=masks[:steps, r])
            if masks is not None:
                masks /= 1.0 - head.dropout
        if s != next_end:
            _sgd_step(xw[:, w], yw[w], w1, b1, w2, b2, loss,
                      None if masks is None else masks[w], lr)
            s += 1
            continue

        # Heads whose epoch ends here may have a partial last batch: step
        # each run of slots with one batch size as its own stack.
        ending = [(s + 1) % per_epoch[i] == 0 for i in live]
        sizes = [ns[i] - (per_epoch[i] - 1) * batch if end else batch
                 for i, end in zip(live, ending)]
        a = 0
        for b in range(1, len(live) + 1):
            if b == len(live) or sizes[b] != sizes[a]:
                m = sizes[a]
                _sgd_step(xw[a:b, w, :m], yw[w, a:b, :m], w1[a:b], b1[a:b], w2[a:b],
                          b2[a:b], loss[a:b], None if masks is None else masks[w, a:b, :m],
                          lr)
                a = b
        keep = np.ones(len(live), dtype=bool)
        for r, i in enumerate(live):
            if not ending[r]:
                continue
            losses[i].append(float(loss[r]) / ns[i])
            loss[r] = 0.0
            if not (np.isfinite(w1[r]).all() and np.isfinite(w2[r]).all()):
                out[i] = AllwasError("training diverged to non-finite parameters")
                keep[r] = False
            elif s + 1 == epochs * per_epoch[i]:
                out[i] = ClassifierHead(
                    input_dim=d, n_classes=c, hidden_dim=h, dropout=head.dropout,
                    epochs=epochs, batch_size=batch, lr=lr, seed=heads[i].seed,
                    w1=w1[r], b1=b1[r, 0], w2=w2[r], b2=b2[r, 0], loss_history=losses[i])
                keep[r] = False
        if not keep.all():
            live = [i for i, kept in zip(live, keep) if kept]
            w1, b1, w2, b2, loss, xw = (arr[keep] for arr in (w1, b1, w2, b2, loss, xw))
            yw = yw[:, keep]
            masks = None if masks is None else masks[:, keep]
        s += 1
        if live:
            next_end = min((s // per_epoch[i] + 1) * per_epoch[i] - 1 for i in live)
    return out


def _draw_window(rng, order, n, per_epoch, start, stop, rows, draws):
    """Draw one head's window for its steps ``start`` to ``stop`` of an
    n-row training set: each batch's row indices into ``rows`` (window,
    batch) and its dropout draws into ``draws`` (window, batch, H), or
    None. Draws follow the head's own stream: each epoch's permutation,
    then one (m, H) draw per m-row batch; split draws give the stream of
    one draw per epoch, since the next permutation comes after the
    epoch's last mask row. ``order`` is the epoch order at step
    ``start - 1``; returns the one at ``stop - 1``."""
    batch = rows.shape[1]
    s = start
    while s < stop:
        step = s % per_epoch
        if step == 0:
            order = rng.permutation(n)
        end = min(stop, s - step + per_epoch)
        lo, hi = step * batch, min(n, (step + end - s) * batch)
        full = (hi - lo) // batch
        w = s - start
        rows[w:w + full] = order[lo:lo + full * batch].reshape(full, batch)
        if draws is not None:
            rng.random(out=draws[w:w + full].reshape(-1, draws.shape[2]))
        if full < end - s:                  # the epoch's partial last batch
            m = hi - lo - full * batch
            rows[w + full, :m] = order[lo + full * batch:hi]
            rows[w + full, m:] = 0
            if draws is not None:
                rng.random(out=draws[w + full, :m])
        s = end
    return order


def predict_proba_batch(head: ClassifierHead, pooled: np.ndarray,
                        dropout_active: bool = False, seed: int = 0) -> np.ndarray:
    """(N, C) class probabilities for a matrix of pooled embeddings.

    With ``dropout_active``, hidden units are masked stochastically under
    the given seed (one mask for every row, deterministic per seed),
    matching the training-time inverted scaling.
    """
    head._require_trained()
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.shape[1] != head.input_dim:
        raise ShapeError("embedding dimension does not match head",
                         expected=head.input_dim, actual=pooled.shape[1])
    hid = head._hidden(pooled)
    if dropout_active and head.dropout > 0:
        rng = np.random.default_rng(seed)
        mask = (rng.random(head.hidden_dim) >= head.dropout) / (1.0 - head.dropout)
        hid = hid * mask
    return head._softmax(hid @ head.w2 + head.b2)


def gradient_arrays(head: ClassifierHead, pooled: np.ndarray):
    """Per-candidate-class loss gradients at the last layer's input.

    For each class c, the cross-entropy gradient with hypothesized hard
    label c w.r.t. the hidden activation is g_c = W2 @ (p - e_c). Row n's
    measure is {(g_c, p_c)}, weighted by the predicted probabilities, so a
    confident prediction concentrates its mass on a near-zero gradient.

    Returns (grads (N, C, H), probs (N, C)).
    """
    probs = predict_proba_batch(head, pooled)
    wp = probs @ head.w2.T                      # (N, H) = W2 @ p_n
    grads = wp[:, None, :] - head.w2.T[None, :, :]
    return grads, probs


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

_MAGIC = b"ALWS"
_FORMAT_VERSION = 1


def save_head(head: ClassifierHead, path) -> None:
    """Versioned binary checkpoint: magic, version, dims, row-major f64."""
    head._require_trained()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIII", _FORMAT_VERSION, head.input_dim,
                             head.hidden_dim, head.n_classes, head.batch_size))
        fh.write(struct.pack("<ddIQ", head.dropout, head.lr, head.epochs, head.seed))
        for arr in (head.w1, head.b1, head.w2, head.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_head(path) -> ClassifierHead:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise AllwasError(f"not a head checkpoint (magic {magic!r})")
        version, d, h, c, batch = struct.unpack("<IIIII", fh.read(20))
        if version != _FORMAT_VERSION:
            raise AllwasError(f"unsupported checkpoint version {version}")
        dropout, lr, epochs, seed = struct.unpack("<ddIQ", fh.read(28))
        shapes = [(d, h), (h,), (h, c), (c,)]
        arrays = []
        for shape in shapes:
            count = int(np.prod(shape))
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise AllwasError("truncated checkpoint")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    return ClassifierHead(
        input_dim=d, n_classes=c, hidden_dim=h, dropout=dropout,
        epochs=epochs, batch_size=batch, lr=lr, seed=seed,
        w1=arrays[0], b1=arrays[1], w2=arrays[2], b2=arrays[3],
    )
