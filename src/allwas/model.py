"""Desk-scale probabilistic classifier head over token embeddings.

A mean-pooled embedding feeds one tanh hidden layer with dropout and a
linear softmax output. Training is plain mini-batch gradient descent on
soft-label cross-entropy, re-initialized from scratch on every call so
each round of an experiment trains a fresh model. Everything is
deterministic given the head's seed. ``train_stack`` trains R heads of one
shape in lockstep, on training sets of any row counts, each bitwise what
``train`` gives it alone; ``train`` is its one-head case. A stack holds its
heads' parameters as blocks of one flat buffer and its step temporaries
preallocated, so a step issues the same few numpy calls whatever R is and
updates every parameter with two.

The per-class gradients of the loss with respect to the last layer's
input activation, weighted by the predicted class probabilities, form one
discrete measure per example (``gradient_arrays``); that measure is the
unit of geometry for the transport-based acquisition strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllwasError, ConfigError, ShapeError, check_simplex, check_types

# Learning rate that suits this small head.
DEFAULT_LR = 1e-2

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
        check_types(ClassifierHead, vars(self))
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
        check_simplex(y, AllwasError, "training label rows")
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
    """Working bytes that training ``head`` on ``data`` adds to a stack
    (not the training set itself): its epoch order; one window of gathered
    rows and labels, of dropout masks, of the draws and the comparison
    they come from; its parameters and gradients; its share of the step
    temporaries (three (batch, H) blocks, three (batch, C) blocks and a
    (batch, 1) reduction); and the copies of its parameters and window
    that the stack takes when a head leaves it."""
    d, h, c, batch = head.input_dim, head.hidden_dim, head.n_classes, head.batch_size
    window = _window_steps(batch) * batch
    params = (d + 1) * h + (h + 1) * c
    return (8 * (len(data) + window * (2 * d + 2 * c + 3 * h) + 3 * params
                 + batch * (3 * h + 3 * c + 1) + 1) + window * h)


def train_stack(heads, datas) -> list:
    """Train fresh copies of R heads in lockstep, head r on ``datas[r]``.

    The heads share their dimensions and hyperparameters; seeds and row
    counts differ. Each head draws from its own generator and owns one
    slot of the stacked (R, ·) parameter blocks, so it ends bitwise
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


def _blocks(flat, r, d, h, c) -> list:
    """The w1, b1, w2 and b2 of r heads as contiguous (r, d, H), (r, 1, H),
    (r, H, C) and (r, 1, C) blocks of one flat buffer, in that order."""
    blocks, start = [], 0
    for shape in ((r, d, h), (r, 1, h), (r, h, c), (r, 1, c)):
        stop = start + r * shape[1] * shape[2]
        blocks.append(flat[start:stop].reshape(shape))
        start = stop
    return blocks


class _Stack:
    """Heads trained in lockstep: their parameters as contiguous (r, ·)
    blocks of one flat buffer, their gradients as the same blocks of a
    second one, and the temporaries of their steps, preallocated for the
    chunk's heads on full batches. Slots leave by moving the kept ones to
    the front, so the buffers are never allocated again."""

    def __init__(self, r: int, d: int, h: int, c: int, batch: int, masked: bool):
        self.dims, self.batch = (d, h, c), batch
        size = r * ((d + 1) * h + (h + 1) * c)
        self.params, self.grads = np.zeros(size), np.empty(size)
        # A step of k slots on m-row batches uses the first k * m rows.
        rows = r * batch
        self.hid, self.dz1, self.logits, self.probs, self.prod = (
            np.empty(rows * width) for width in (h, h, c, c, c))
        self.hid_d = np.empty(rows * h) if masked else self.hid
        self.red, self.sums = np.empty(rows), np.empty(r)
        self._layout(r)

    def _layout(self, r: int) -> None:
        d, h, c = self.dims
        self.size = r * ((d + 1) * h + (h + 1) * c)
        self.blocks = _blocks(self.params[:self.size], r, d, h, c)
        self.w1, self.b1, self.w2, self.b2 = self.blocks
        self.grad_blocks = _blocks(self.grads[:self.size], r, d, h, c)
        self._steps = {}
        self.full = self.step(0, r, self.batch)

    def step(self, a: int, b: int, m: int) -> _Step:
        """The step of slots a to b on m-row batches, kept until slots leave."""
        if (a, b, m) not in self._steps:
            self._steps[a, b, m] = _Step(self, a, b, m)
        return self._steps[a, b, m]

    def keep(self, kept) -> None:
        """Keep the slots where ``kept`` is true, in order."""
        values = [block[kept] for block in self.blocks]
        self._layout(len(values[0]))
        for block, value in zip(self.blocks, values):
            block[...] = value


class _Step:
    """What one step of slots a to b of a stack on m-row batches works in:
    the parameters (and w2 transposed), gradients in their layout, the
    (parameter, gradient) pairs of the update, and the temporaries, all
    views of the stack's buffers. A step of the whole stack updates the
    two flat buffers at once; a step of some of its slots, each parameter.
    """

    def __init__(self, stack: _Stack, a: int, b: int, m: int):
        _, h, c = stack.dims
        k = b - a
        self.w1, self.b1, self.w2, self.b2 = blocks = [block[a:b] for block in stack.blocks]
        self.w2t = self.w2.transpose(0, 2, 1)
        self.dw1, self.db1, self.dw2, self.db2 = grads = [
            block[a:b] for block in stack.grad_blocks]
        if k == len(stack.w1):
            self.updates = ((stack.params[:stack.size], stack.grads[:stack.size]),)
        else:
            self.updates = tuple(zip(blocks, grads))
        self.m = m
        self.hid, self.hid_d, self.dz1 = (
            buf[:k * m * h].reshape(k, m, h) for buf in (stack.hid, stack.hid_d, stack.dz1))
        self.hid_dt = self.hid_d.transpose(0, 2, 1)
        self.logits, self.probs, self.prod = (
            buf[:k * m * c].reshape(k, m, c) for buf in (stack.logits, stack.probs, stack.prod))
        self.columns = [self.logits[:, :, j:j + 1] for j in range(c)]
        self.prod_flat = self.prod.reshape(k, m * c)
        self.red = stack.red[:k * m].reshape(k, m, 1)
        self.sums = stack.sums[:k]


def _sgd_step(st: _Step, xb, xbt, yb, mask, loss, lr):
    """One mini-batch step of every head in the stack, in place: head r
    trains on rows ``xb[r]`` (``xbt[r]`` transposed) with labels ``yb[r]``
    under dropout ``mask[r]`` (or none) and adds its batch's loss to
    ``-loss[r]``."""
    hid, hid_d, logits, probs, red, dz1 = st.hid, st.hid_d, st.logits, st.probs, st.red, st.dz1
    np.matmul(xb, st.w1, out=hid)
    hid += st.b1
    np.tanh(hid, out=hid)
    if mask is not None:
        np.multiply(hid, mask, out=hid_d)
    np.matmul(hid_d, st.w2, out=logits)
    logits += st.b2
    # The row maxima, column by column in maximum.reduce's order.
    first, second, *rest = st.columns
    np.maximum(first, second, out=red)
    for column in rest:
        np.maximum(red, column, out=red)
    logits -= red
    np.exp(logits, out=probs)
    log_probs = logits
    log_probs -= np.log(np.add.reduce(probs, axis=2, keepdims=True, out=red), out=red)
    np.exp(log_probs, out=probs)
    # Each head's loss is the flat sum of its (m, C) block.
    np.multiply(yb, log_probs, out=st.prod)
    loss -= np.add.reduce(st.prod_flat, axis=1, out=st.sums)

    dlogits = probs
    dlogits -= yb
    dlogits /= st.m
    np.matmul(st.hid_dt, dlogits, out=st.dw2)
    np.add.reduce(dlogits, axis=1, keepdims=True, out=st.db2)
    np.matmul(dlogits, st.w2t, out=dz1)
    if mask is not None:
        dz1 *= mask
    hid *= hid
    np.subtract(1.0, hid, out=hid)
    dz1 *= hid
    np.matmul(xbt, dz1, out=st.dw1)
    np.add.reduce(dz1, axis=1, keepdims=True, out=st.db1)
    for param, grad in st.updates:
        grad *= lr
        param -= grad


def _window_views(xw, yw, masks) -> list:
    """Per step of a window: the stack's rows, their transpose, labels and
    dropout masks (or None)."""
    return [(xw[:, w], xw[:, w].transpose(0, 2, 1), yw[w], None if masks is None else masks[w])
            for w in range(yw.shape[0])]


def _step_runs(stack: _Stack, view, sizes: list, loss, lr) -> None:
    """One step of a stack whose slot r has a ``sizes[r]``-row batch in
    the step's ``view``: each run of slots with one batch size steps as
    its own sub-stack. (A function, so that its views of the window die
    with it and a compaction frees the old window.)"""
    xb, _, yb, mask = view
    a = 0
    for b in range(1, len(sizes) + 1):
        if b == len(sizes) or sizes[b] != sizes[a]:
            m = sizes[a]
            _sgd_step(stack.step(a, b, m), xb[a:b, :m], xb[a:b, :m].transpose(0, 2, 1),
                      yb[a:b, :m], None if mask is None else mask[a:b, :m], loss[a:b], lr)
            a = b


def _train_chunk(heads: list, datas: list) -> list:
    """``train_stack`` on one chunk. A head leaves the stacks when its last
    epoch ends or it diverges; with the heads sorted largest first, they
    leave from the end."""
    head = heads[0]
    d, h, c = head.input_dim, head.hidden_dim, head.n_classes
    batch, lr, epochs, dropout = head.batch_size, head.lr, head.epochs, head.dropout
    ns = [len(rows) for rows in datas]
    per_epoch = [-(-n // batch) for n in ns]           # steps per epoch
    rngs = [np.random.default_rng(other.seed) for other in heads]
    stack = _Stack(len(heads), d, h, c, batch, dropout > 0)
    for r, rng in enumerate(rngs):
        stack.w1[r] = rng.standard_normal((d, h)) / np.sqrt(d)
        stack.w2[r] = rng.standard_normal((h, c)) / np.sqrt(h)

    # Slot r of the stack belongs to head live[r]. xw[r, w], yw[w, r] and
    # masks[w, r] hold a slot's batch at step s0 + w of the window starting
    # at s0; a partial batch fills the first m rows. Labels and masks are
    # step-major, so the elementwise products of a step read contiguous
    # blocks.
    window = _window_steps(batch)
    live = list(range(len(heads)))
    xw = np.empty((len(heads), window, batch, d))
    yw = np.empty((window, len(heads), batch, c))
    masks = np.zeros((window, len(heads), batch, h)) if dropout > 0 else None
    views = _window_views(xw, yw, masks)
    rows = np.zeros((window, batch), dtype=np.intp)
    draws = np.zeros((window, batch, h)) if dropout > 0 else None
    scale = 1.0 / (1.0 - dropout)
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
                    # Bitwise the quotient by 1 - dropout: the entries are
                    # 0 and 1.
                    np.multiply(np.greater_equal(draws[:steps], dropout), scale,
                                out=masks[:steps, r])
        if s != next_end:
            _sgd_step(stack.full, *views[w], loss, lr)
            s += 1
            continue

        # Heads whose epoch ends here may have a partial last batch.
        ending = [(s + 1) % per_epoch[i] == 0 for i in live]
        sizes = [ns[i] - (per_epoch[i] - 1) * batch if end else batch
                 for i, end in zip(live, ending)]
        _step_runs(stack, views[w], sizes, loss, lr)
        keep = np.ones(len(live), dtype=bool)
        for r, i in enumerate(live):
            if not ending[r]:
                continue
            losses[i].append(float(loss[r]) / ns[i])
            loss[r] = 0.0
            if not (np.isfinite(stack.w1[r]).all() and np.isfinite(stack.w2[r]).all()):
                out[i] = AllwasError("training diverged to non-finite parameters")
                keep[r] = False
            elif s + 1 == epochs * per_epoch[i]:
                # Copies, so that no head keeps the stack's buffer alive.
                out[i] = ClassifierHead(
                    input_dim=d, n_classes=c, hidden_dim=h, dropout=dropout,
                    epochs=epochs, batch_size=batch, lr=lr, seed=heads[i].seed,
                    w1=stack.w1[r].copy(), b1=stack.b1[r, 0].copy(), w2=stack.w2[r].copy(),
                    b2=stack.b2[r, 0].copy(), loss_history=losses[i])
                keep[r] = False
        if not keep.all():
            live = [i for i, kept in zip(live, keep) if kept]
            stack.keep(keep)
            loss, xw, yw = loss[keep], xw[keep], yw[:, keep]
            masks = None if masks is None else masks[:, keep]
            views = _window_views(xw, yw, masks)
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
    return _proba(head, _checked_hidden(head, pooled), dropout_active, seed)


def mean_dropout_proba(head: ClassifierHead, pooled: np.ndarray, seeds) -> np.ndarray:
    """The mean over ``seeds`` of ``predict_proba_batch(head, pooled,
    dropout_active=True, seed=s)``, summed in order from zero and divided
    by their count. The hidden layer, which no mask changes, is worked out
    once."""
    hid = _checked_hidden(head, pooled)
    mean = np.zeros((len(hid), head.n_classes))
    for seed in seeds:
        mean += _proba(head, hid, True, seed)
    mean /= len(seeds)
    return mean


def _checked_hidden(head: ClassifierHead, pooled) -> np.ndarray:
    head._require_trained()
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.shape[1] != head.input_dim:
        raise ShapeError("embedding dimension does not match head",
                         expected=head.input_dim, actual=pooled.shape[1])
    return head._hidden(pooled)


def _proba(head: ClassifierHead, hid: np.ndarray, dropout_active: bool,
           seed: int) -> np.ndarray:
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

