"""Dense-array numerical core with reverse-mode differentiation.

A small tape-based autograd over numpy: each op builds a Tensor node whose
backward closure scatters gradients into its parents.  Only the kernels the
classifier needs are provided, each in the one form it uses: embedding
lookup, 1-d convolution and dense layers with a bias, masked max-over-time
pooling, batch norm (momentum and eps fixed), train-time inverted dropout,
softmax cross-entropy and the L2 penalty.  Adam uses the standard betas and
eps; ``grad_check`` returns each tensor's worst finite-difference error and
leaves the pass bound to its caller.

Precision policy: tensors carry whatever float dtype their data has; training
code uses float32, verification suites run the same code paths in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        """Reverse-mode sweep from a scalar output."""
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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

    Output shape is ids.shape + (d,); the gradient scatters (sums) into rows.
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
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.ravel(), g.reshape(-1, table.data.shape[1]))

    return _node(table.data[ids], (table,), backward)


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

def conv1d(x: Tensor, filters: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """1-d convolution over time.

    ``x`` is (b, n, c_in); ``filters`` is (w, c_in, c_out).
    out[r, t, o] = bias[o] + sum_{j,i} x[r, t + j - offset, i] * filters[j, i, o]
    with offset = (w-1)//2 and zero padding for "same"; "valid" yields
    n - w + 1 output steps.
    """
    if padding not in ("same", "valid"):
        raise ShapeError(f"conv1d: unknown padding {padding!r}")
    w, c_in, c_out = filters.data.shape
    if x.data.ndim != 3 or x.data.shape[-1] != c_in:
        raise ShapeError(f"conv1d: input shape {x.data.shape} vs filters {filters.data.shape}")
    n = x.data.shape[1]
    if padding == "same":
        left = (w - 1) // 2
        pad = (left, w - 1 - left)
    else:
        if n < w:
            raise ShapeError(f"conv1d: input length {n} < filter width {w} with valid padding")
        pad = (0, 0)
    xp = np.pad(x.data, [(0, 0), pad, (0, 0)])
    win = sliding_window_view(xp, w, axis=1)  # (b, m, c_in, w)
    out = np.tensordot(win, filters.data, axes=([3, 2], [0, 1])) + bias.data

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, c_out).sum(axis=0))
        if filters.requires_grad:
            fg = np.tensordot(win, g, axes=([0, 1], [0, 1]))  # (c_in, w, c_out)
            filters.accumulate(fg.transpose(1, 0, 2))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            m = g.shape[1]
            for j in range(w):
                # gxp[:, t+j, i] += sum_o g[:, t, o] * filters[j, i, o]
                gxp[:, j:j + m] += g @ filters.data[j].T
            x.accumulate(gxp[:, pad[0]:pad[0] + n])

    return _node(out, (x, filters, bias), backward)


def max_over_time(x: Tensor, valid_len) -> Tensor:
    """Max over the time axis restricted to each row's first ``valid_len`` steps.

    ``x`` is (b, n, c) and ``valid_len`` a length vector of shape (b,).  The
    argmax is computed only in backward; ties route to the first step.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_over_time: expected (batch, time, channels), got {x.data.shape}")
    b, n, _ = x.data.shape
    lens = np.asarray(valid_len, dtype=np.int64)
    if lens.shape != (b,):
        raise ShapeError(f"max_over_time: lengths shape {lens.shape} for batch {b}")
    if lens.size and (lens.min() < 1 or lens.max() > n):
        raise ShapeError(f"max_over_time: valid_len must be in [1, {n}], got {lens.min()}..{lens.max()}")

    valid = (np.arange(n) < lens[:, None])[:, :, None]  # (b, n, 1)
    out = np.max(x.data, axis=1, where=valid, initial=-np.inf)

    def backward(g):
        if not x.requires_grad:
            return
        # first valid step equal to the max (train_step refuses a NaN max)
        arg = ((x.data == out[:, None, :]) & valid).argmax(axis=1)
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, arg[:, None, :], g[:, None, :], axis=1)
        x.accumulate(gx)

    return _node(out, (x,), backward)


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
