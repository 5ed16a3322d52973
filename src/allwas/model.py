"""Desk-scale probabilistic classifier head over token embeddings.

A mean-pooled embedding feeds one tanh hidden layer with dropout and a
linear softmax output. Training is plain mini-batch gradient descent on
soft-label cross-entropy, re-initialized from scratch on every call so
each round of an experiment trains a fresh model. Everything is
deterministic given the head's seed. ``train_stack`` trains R heads of one
shape in lockstep, each bitwise what ``train`` gives it alone; ``train``
is its one-head case.

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
    hyperparameters (not its seed) and the training set's shapes."""
    return (head.input_dim, head.n_classes, head.hidden_dim, head.dropout,
            head.epochs, head.batch_size, head.lr, data.x.shape, data.y.shape)


def _heads_per_chunk(n: int, d: int, h: int, c: int, batch: int) -> int:
    """Heads whose working arrays fit in ``_CHUNK_BYTES``: per head, the
    epoch's (n, H) dropout masks and row order, the parameters and their
    gradients, and about a dozen batch-sized temporaries."""
    per_head = 8 * (n * (h + 1) + 2 * (d + c + 1) * (h + c)
                    + batch * (2 * d + 2 * c + 6 * h + 6 * c))
    return max(1, _CHUNK_BYTES // per_head)


def train_stack(heads, datas) -> list:
    """Train fresh copies of R heads in lockstep, head r on ``datas[r]``.

    The heads share their dimensions and hyperparameters, and the training
    sets their row count; seeds differ. Each head draws from its own
    generator and owns one slice of the (R, d, H) and (R, H, C) weight
    stacks, so it ends bitwise equal to ``train(heads[r], datas[r])``,
    whatever else shares its stack. Each batch is one stacked matmul per
    product for all R heads. Stacks are cut into chunks under
    ``_CHUNK_BYTES``. Returns, per head, the trained head or the
    :class:`AllwasError` its training raised: a diverging head drops out
    and the others go on.
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
        raise AllwasError("heads trained in lockstep must share dimensions, "
                          "hyperparameters and row count")
    step = _heads_per_chunk(len(data), head.input_dim, head.hidden_dim,
                            head.n_classes, head.batch_size)
    out = []
    for start in range(0, len(heads), step):
        out += _train_chunk(heads[start:start + step], datas[start:start + step])
    return out


def _train_chunk(heads: list, datas: list) -> list:
    head = heads[0]
    d, h, c = head.input_dim, head.hidden_dim, head.n_classes
    n, batch, lr = len(datas[0]), head.batch_size, head.lr
    rngs = [np.random.default_rng(other.seed) for other in heads]
    w1 = np.empty((len(heads), d, h))
    w2 = np.empty((len(heads), h, c))
    for r, rng in enumerate(rngs):
        w1[r] = rng.standard_normal((d, h)) / np.sqrt(d)
        w2[r] = rng.standard_normal((h, c)) / np.sqrt(h)
    b1 = np.zeros((len(heads), 1, h))
    b2 = np.zeros((len(heads), 1, c))
    # Slot r's rows are block r of (R * n, .) matrices; one head's are its own.
    if len(heads) == 1:
        x, y = datas[0].x, datas[0].y
    else:
        x = np.concatenate([rows.x for rows in datas])
        y = np.concatenate([rows.y for rows in datas])

    live = list(range(len(heads)))          # slot -> head index
    order = np.empty((len(heads), n), dtype=np.intp)
    masks = np.empty((len(heads), n, h)) if head.dropout > 0 else None
    losses = [[] for _ in heads]
    out = [None] * len(heads)
    for _ in range(head.epochs):
        for r, i in enumerate(live):
            order[r] = rngs[i].permutation(n)
            if masks is not None:
                # One draw per epoch, after the permutation: the same stream
                # as one (m, H) draw per batch.
                rngs[i].random(out=masks[r])
        order += (np.arange(len(live)) * n)[:, None]
        if masks is not None:
            np.greater_equal(masks, head.dropout, out=masks)
            masks /= 1.0 - head.dropout
        epoch_loss = np.zeros(len(live))
        for start in range(0, n, batch):
            idx = order[:, start:start + batch]
            m = idx.shape[1]
            xb, yb = x.take(idx, axis=0), y.take(idx, axis=0)
            hid = np.matmul(xb, w1)
            hid += b1
            np.tanh(hid, out=hid)
            if masks is not None:
                mask = masks[:, start:start + m]
                hid_d = hid * mask
            else:
                hid_d = hid
            logits = np.matmul(hid_d, w2)
            logits += b2
            logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
            log_probs = logits
            log_probs -= np.log(np.add.reduce(np.exp(logits), axis=2, keepdims=True))
            probs = np.exp(log_probs)
            # Each head's loss is the flat sum of its (m, C) block.
            epoch_loss -= np.add.reduce((yb * log_probs).reshape(len(live), -1), axis=1)

            dlogits = probs
            dlogits -= yb
            dlogits /= m
            dw2 = np.matmul(hid_d.transpose(0, 2, 1), dlogits)
            db2 = np.add.reduce(dlogits, axis=1, keepdims=True)
            dz1 = np.matmul(dlogits, w2.transpose(0, 2, 1))
            if masks is not None:
                dz1 *= mask
            hid *= hid
            np.subtract(1.0, hid, out=hid)
            dz1 *= hid
            dw1 = np.matmul(xb.transpose(0, 2, 1), dz1)
            db1 = np.add.reduce(dz1, axis=1, keepdims=True)
            for param, grad in ((w2, dw2), (b2, db2), (w1, dw1), (b1, db1)):
                grad *= lr
                param -= grad
        for i, loss in zip(live, (epoch_loss / n).tolist()):
            losses[i].append(loss)
        finite = np.isfinite(w1).all(axis=(1, 2)) & np.isfinite(w2).all(axis=(1, 2))
        if not finite.all():
            for r in np.flatnonzero(~finite):
                out[live[r]] = AllwasError("training diverged to non-finite parameters")
            live = [i for i, ok in zip(live, finite) if ok]
            if not live:
                return out
            w1, b1, w2, b2 = w1[finite], b1[finite], w2[finite], b2[finite]
            order = order[finite]
            masks = None if masks is None else masks[finite]
            x = x.reshape(len(finite), n, d)[finite].reshape(-1, d)
            y = y.reshape(len(finite), n, c)[finite].reshape(-1, c)

    for r, i in enumerate(live):
        out[i] = ClassifierHead(
            input_dim=d, n_classes=c, hidden_dim=h, dropout=head.dropout,
            epochs=head.epochs, batch_size=batch, lr=lr, seed=heads[i].seed,
            w1=w1[r], b1=b1[r, 0], w2=w2[r], b2=b2[r, 0], loss_history=losses[i])
    return out


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
