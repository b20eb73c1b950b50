"""Dense-array numerical core with reverse-mode differentiation.

A small tape-based autograd over numpy: each op builds a Tensor node whose
backward closure scatters gradients into its parents.  An op none of whose
inputs requires a gradient records nothing, so a forward over plain tensors
keeps no activation alive, and ``Tensor.backward`` frees each node as it
sweeps.  Only the kernels the classifier needs are provided, each in the one
form it uses: embedding lookup, 1-d convolution fused with masked
max-over-time pooling, dense layers with a bias, batch norm (momentum and eps
fixed), train-time inverted dropout, softmax cross-entropy and the L2
penalty.  Adam uses the standard betas and eps; ``grad_check`` returns each tensor's
worst finite-difference error and leaves the pass bound to its caller.

Precision policy: tensors carry whatever float dtype their data has; training
code uses float32, verification suites run the same code paths in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import ShapeError, TrainingError


class Tensor:
    """N-d array plus optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output; it consumes the graph.

        Each interior node drops its gradient, closure and parents once its
        closure has run, so activations and gradients are freed during the
        sweep.  Leaf tensors keep their gradients.  Run one backward per
        graph.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * mask)

    return _node(np.maximum(x.data, 0), (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _node(a.data + b.data, (a, b), backward)


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise multiply by a non-differentiated constant (e.g. a mask)."""
    c = np.asarray(c)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * c)

    return _node(x.data * c, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.shape

    def backward(g):
        if x.requires_grad:
            x.accumulate(g.reshape(orig))

    return _node(x.data.reshape(shape), (x,), backward)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p.accumulate(g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` gathered by integer ``ids`` (any shape).

    Output shape is ids.shape + (d,).  The gradient sums into rows as one
    sparse product: a (vocab x N) CSR scatter of ones times the (N, d)
    gradient, which adds each id's rows in position order from zero, the
    order ``np.add.at`` uses.
    """
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.data.shape[0]
    if ids.size:
        flat = ids.ravel()
        bad = np.nonzero((flat < 0) | (flat >= vocab))[0]
        if bad.size:
            i = int(bad[0])
            raise ShapeError(
                f"embedding id {int(flat[i])} at flat position {i} out of range [0, {vocab})")

    def backward(g):
        if table.requires_grad:
            n = ids.size
            scatter = sparse.csr_matrix((np.ones(n, dtype=g.dtype), (ids.ravel(), np.arange(n))),
                                        shape=(vocab, n))
            table.accumulate(scatter @ g.reshape(-1, table.data.shape[1]))

    return _node(table.data[ids], (table,), backward)


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

def _padded_windows(x: np.ndarray, w: int):
    """Zero-padded copy of ``x`` (b, n, c) and its (b, n, c, w) window view."""
    left = (w - 1) // 2
    xp = np.pad(x, [(0, 0), (left, w - 1 - left), (0, 0)])
    return xp, sliding_window_view(xp, w, axis=1)


def _conv_same(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1-d convolution over time with "same" (zero) padding, as plain arrays.

    ``x`` is (b, n, c_in); ``filters`` is (w, c_in, c_out).
    out[r, t, o] = bias[o] + sum_{j,i} x[r, t + j - offset, i] * filters[j, i, o]
    with offset = (w-1)//2, so the output keeps all n steps.
    """
    _, win = _padded_windows(x, filters.shape[0])
    out = np.tensordot(win, filters, axes=([3, 2], [0, 1]))
    out += bias
    return out


# A row block of conv1d's forward holds at most this many bytes of conv
# output and im2col copy (a longer row than that runs alone).
CONV_BLOCK_BYTES = 16 << 20


def _row_blocks(lens: np.ndarray, n: int, right: int, step_bytes: int):
    """conv1d's forward blocks as ``(rows, steps)`` pairs.

    ``steps`` cuts a block to its longest row plus the filter's ``right``
    halo, so every valid step reads what it reads in the uncut batch.  A
    batch that fits ``CONV_BLOCK_BYTES`` is one block of all rows in order
    (``rows`` is ``slice(None)``); otherwise rows go longest first, in
    greedy blocks of as many rows as the budget holds at the first row's
    steps, at least one.
    """
    steps = min(n, int(lens.max(initial=0)) + right)
    if lens.size * steps * step_bytes <= CONV_BLOCK_BYTES:
        yield slice(None), steps
        return
    order = np.argsort(-lens, kind="stable")
    lo = 0
    while lo < order.size:
        steps = min(n, int(lens[order[lo]]) + right)
        hi = lo + max(1, CONV_BLOCK_BYTES // (steps * step_bytes))
        yield order[lo:hi], steps
        lo = hi


def _pool_conv(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, lens: np.ndarray,
               want_arg: bool):
    """Max of ``_conv_same(x, filters, bias)`` over each row's first ``lens`` steps.

    Returns the (b, c_out) max and, if ``want_arg``, the (b, c_out) first
    valid step equal to it (else None).  Both are computed block by block
    (:func:`_row_blocks`), so only one block's output is ever alive; each
    output element is the same dot product as over the whole batch.
    """
    w, c_in, c_out = filters.shape
    dtype = np.result_type(x, filters)
    pooled = np.empty((x.shape[0], c_out), dtype=dtype)
    arg = np.empty((x.shape[0], c_out), dtype=np.intp) if want_arg else None
    right = w - 1 - (w - 1) // 2
    for rows, steps in _row_blocks(lens, x.shape[1], right, (c_out + w * c_in) * dtype.itemsize):
        conv = _conv_same(x[rows, :steps], filters, bias)
        valid = (np.arange(steps) < lens[rows, None])[:, :, None]  # (rows, steps, 1)
        top = np.max(conv, axis=1, where=valid, initial=-np.inf)
        pooled[rows] = top
        if want_arg:
            # a NaN max matches no step; train_step refuses its loss before backward
            arg[rows] = ((conv == top[:, None, :]) & valid).argmax(axis=1)
        del conv  # so the next block's output replaces this one, not joins it
    return pooled, arg


def conv1d(x: Tensor, filters: Tensor, bias: Tensor, valid_len) -> Tensor:
    """Same-padding convolution max-pooled over each row's first ``valid_len`` steps.

    ``x`` is (b, n, c_in), ``filters`` (w, c_in, c_out) and ``valid_len`` a
    length vector of shape (b,); the output is (b, c_out).  The forward
    (:func:`_pool_conv`) runs in row blocks, so no (b, n, c_out) convolution
    exists: when a gradient is needed it keeps only each pooled value's
    argmax, the first valid step equal to the max, and backward rebuilds the
    output gradient and re-pads ``x`` for the filter gradient.
    """
    w, c_in, c_out = filters.data.shape
    if x.data.ndim != 3 or x.data.shape[-1] != c_in:
        raise ShapeError(f"conv1d: input shape {x.data.shape} vs filters {filters.data.shape}")
    b, n, _ = x.data.shape
    lens = np.asarray(valid_len, dtype=np.int64)
    if lens.shape != (b,):
        raise ShapeError(f"conv1d: lengths shape {lens.shape} for batch {b}")
    if lens.size and (lens.min() < 1 or lens.max() > n):
        raise ShapeError(f"conv1d: valid_len must be in [1, {n}], got {lens.min()}..{lens.max()}")

    want_arg = x.requires_grad or filters.requires_grad or bias.requires_grad
    pooled, arg = _pool_conv(x.data, filters.data, bias.data, lens, want_arg)
    if not want_arg:
        return Tensor(pooled)
    arg = arg[:, None, :]
    shape, dtype = (b, n, c_out), pooled.dtype

    def backward(g):
        # g is added into zeros, not put, so a -0.0 in g lands as +0.0
        gout = np.zeros(shape, dtype=dtype)
        np.put_along_axis(gout, arg, np.take_along_axis(gout, arg, axis=1)
                          + g[:, None, :], axis=1)
        if bias.requires_grad:
            bias.accumulate(gout.reshape(-1, c_out).sum(axis=0))
        if filters.requires_grad:
            _, win = _padded_windows(x.data, w)
            fg = np.tensordot(win, gout, axes=([0, 1], [0, 1]))  # (c_in, w, c_out)
            filters.accumulate(fg.transpose(1, 0, 2))
            del win
        if x.requires_grad:
            gxp = np.zeros((b, n + w - 1, c_in), dtype=x.data.dtype)
            for j in range(w):
                # gxp[:, t+j, i] += sum_o gout[:, t, o] * filters[j, i, o]
                gxp[:, j:j + n] += gout @ filters.data[j].T
            left = (w - 1) // 2
            x.accumulate(gxp[:, left:left + n])

    return _node(pooled, (x, filters, bias), backward)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Running statistics; not trained, updated in train mode only."""
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, features: int, dtype=np.float32) -> "BatchNormState":
        return cls(mean=np.zeros(features, dtype=dtype), var=np.ones(features, dtype=dtype))


BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """Feature-wise batch normalization over a (b, f) input.

    Train mode normalizes by the batch statistics and folds them into the
    running ones with momentum ``BN_MOMENTUM``; eval mode uses the running
    statistics.  ``BN_EPS`` is added to the variance.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm: expected (batch, features), got {x.data.shape}")
    b = x.data.shape[0]
    if mode == "train":
        if b < 2:
            raise ShapeError(f"batch_norm: train mode needs batch >= 2, got {b}")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)  # biased
        state.mean[:] = BN_MOMENTUM * state.mean + (1 - BN_MOMENTUM) * mu
        state.var[:] = BN_MOMENTUM * state.var + (1 - BN_MOMENTUM) * var
    elif mode == "eval":
        mu = state.mean
        var = state.var
    else:
        raise ShapeError(f"batch_norm: unknown mode {mode!r}")
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=0))
        if not x.requires_grad:
            return
        if mode == "eval":
            x.accumulate(g * gamma.data * inv)
            return
        # train mode: mean and variance depend on x
        dxhat = g * gamma.data
        xc = x.data - mu
        dvar = (dxhat * xc).sum(axis=0) * (-0.5) * inv ** 3
        dmu = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * xc.mean(axis=0)
        x.accumulate(dxhat * inv + dvar * 2.0 * xc / b + dmu / b)

    return _node(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Train-time inverted dropout: survivors scaled by 1/(1-rate).

    Eval-mode forward passes do not call it.
    """
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout needs an rng")
    keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * keep * scale)

    return _node(x.data * keep * scale, (x,), backward)


# ---------------------------------------------------------------------------
# dense / softmax
# ---------------------------------------------------------------------------

def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(
            f"dense: input shape {x.data.shape} incompatible with weight shape {weight.data.shape}")
    out = x.data @ weight.data + bias.data

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=0))
        if weight.requires_grad:
            weight.accumulate(x.data.T @ g)
        if x.requires_grad:
            x.accumulate(g @ weight.data.T)

    return _node(out, (x, weight, bias), backward)


def softmax_xent(logits: Tensor, labels) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy of softmax(logits) vs integer labels.

    Returns (scalar loss tensor, detached probability matrix).  Stabilized
    by max subtraction; gradient is (probs - onehot) / batch.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_xent: expected (batch, classes), got {logits.data.shape}")
    b, k = logits.data.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ShapeError(f"softmax_xent: labels shape {labels.shape} for batch {b}")
    bad = np.nonzero((labels < 0) | (labels >= k))[0]
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"softmax_xent: label {int(labels[i])} at row {i} out of range [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    logp = z[np.arange(b), labels] - np.log(denom[:, 0])
    loss = -logp.mean()

    def backward(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[np.arange(b), labels] -= 1.0
            logits.accumulate(g * grad / b)

    return _node(np.asarray(loss), (logits,), backward), probs


def l2_penalty(params, lam: float) -> Tensor:
    """lam * sum of squares over the given tensors; gradient adds 2*lam*w."""
    if lam < 0:
        raise ValueError(f"l2 strength must be >= 0, got {lam}")
    params = list(params)
    total = sum(float((p.data ** 2).sum()) for p in params) * lam

    def backward(g):
        for p in params:
            if p.requires_grad:
                p.accumulate(g * 2.0 * lam * p.data)

    return _node(np.asarray(total), tuple(params), backward)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction over a name -> Tensor parameter dict."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** t)
            vhat = self.v[name] / (1 - b2 ** t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params: dict[str, Tensor], *, samples_per_tensor: int = 5,
               h: float = 1e-5, rng: np.random.Generator | None = None) -> dict[str, float]:
    """Central-difference check of analytic gradients: ``{name: worst error}``.

    ``loss_fn`` must be a deterministic closure returning a scalar Tensor
    (dropout off, batch norm mode fixed); run it in float64.  Each tensor
    gets ``samples_per_tensor`` random coordinates, or all of them when 0.
    The error of a coordinate is |a - n| / max(|a|, |n|), or |a - n| itself
    when both are below 1e-6, where finite-difference noise swamps any
    ratio; it is the smallest over steps h, h/10 and h/100, because stepping
    across a relu or max kink inflates one step size but not all of them,
    while a wrong gradient fails at every step.  Callers compare the errors
    with their own bound.
    """
    rng = rng or np.random.default_rng(0)
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    def coordinate_error(flat, c: int, a: float) -> float:
        scale = max(1.0, abs(float(flat[c])))
        best = np.inf
        for step in (h * scale, h * scale / 10, h * scale / 100):
            orig = flat[c]
            flat[c] = orig + step
            f_plus = float(loss_fn().data)
            flat[c] = orig - step
            f_minus = float(loss_fn().data)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2 * step)
            den = max(abs(a), abs(numeric))
            best = min(best, abs(a - numeric) / den if den > 1e-6 else abs(a - numeric))
        return best

    errors = {}
    for name, p in params.items():
        size = p.data.size
        coords = rng.choice(size, size=min(samples_per_tensor or size, size), replace=False)
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        errors[name] = max((coordinate_error(flat, int(c), float(grad[c])) for c in coords),
                           default=0.0)
    for p in params.values():
        p.zero_grad()
    return errors
