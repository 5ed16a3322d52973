"""Desk-scale probabilistic classifier head over token embeddings.

A mean-pooled embedding feeds one tanh hidden layer with dropout and a
linear softmax output. Training is plain mini-batch gradient descent on
soft-label cross-entropy, re-initialized from scratch on every call so
each round of an experiment trains a fresh model. Everything is
deterministic given the head's seed.

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
    hidden layer during training. Bit-reproducible for a fixed seed.
    """
    x, y = data.x, data.y
    if x.shape[1] != head.input_dim:
        raise ShapeError("data dimension does not match head", expected=head.input_dim,
                         actual=x.shape[1])
    if y.shape[1] != head.n_classes:
        raise ShapeError("label classes do not match head", expected=head.n_classes,
                         actual=y.shape[1])
    rng = np.random.default_rng(head.seed)
    d, h, c = head.input_dim, head.hidden_dim, head.n_classes
    w1 = rng.standard_normal((d, h)) / np.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, c)) / np.sqrt(h)
    b2 = np.zeros(c)

    n = x.shape[0]
    keep = 1.0 - head.dropout
    losses = []
    for _ in range(head.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, head.batch_size):
            idx = order[start:start + head.batch_size]
            xb, yb = x[idx], y[idx]
            z1 = xb @ w1 + b1
            hid = np.tanh(z1)
            if head.dropout > 0:
                mask = (rng.random(hid.shape) >= head.dropout) / keep
                hid_d = hid * mask
            else:
                mask = None
                hid_d = hid
            logits = hid_d @ w2 + b2
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            probs = np.exp(log_probs)
            epoch_loss += float(-(yb * log_probs).sum())

            m = len(idx)
            dlogits = (probs - yb) / m
            dw2 = hid_d.T @ dlogits
            db2 = dlogits.sum(axis=0)
            dhid = dlogits @ w2.T
            if mask is not None:
                dhid = dhid * mask
            dz1 = dhid * (1.0 - hid * hid)
            dw1 = xb.T @ dz1
            db1 = dz1.sum(axis=0)
            w2 -= head.lr * dw2
            b2 -= head.lr * db2
            w1 -= head.lr * dw1
            b1 -= head.lr * db1
        losses.append(epoch_loss / n)
        if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
            raise AllwasError("training diverged to non-finite parameters")

    return ClassifierHead(
        input_dim=d, n_classes=c, hidden_dim=h, dropout=head.dropout,
        epochs=head.epochs, batch_size=head.batch_size, lr=head.lr, seed=head.seed,
        w1=w1, b1=b1, w2=w2, b2=b2, loss_history=losses,
    )


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
