"""The three gender-classifier architectures over the tensor core.

Variants: "cnn" (word embeddings only), "cnn_char" (word + per-token char
summary), "cnn_char_pos" (word + char + POS).  Per token the active feature
sources are concatenated, then Kim-style parallel convolutions (one per
filter width, same padding), masked max-over-time, then ReLU (equal by
monotonicity) produce a document vector, followed by dense, batch norm,
ReLU, dropout, and a 2-way softmax output.  Labels: female = 0, male = 1.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, CorpusError, ShapeError, TrainingError
from .ioutil import atomic_open, checkpoint_errors, text_lines
from .tensor import (
    Adam,
    BatchNormState,
    Tensor,
    add,
    batch_norm,
    concat,
    conv1d,
    dense,
    dropout,
    embedding_lookup,
    l2_penalty,
    max_over_time,
    mul_const,
    relu,
    reshape,
    softmax_xent,
)

VARIANTS = ("cnn", "cnn_char", "cnn_char_pos")

CHECKPOINT_MAGIC = b"GFUS"
CHECKPOINT_VERSION = 1


@dataclass
class ArchConfig:
    """Architecture and training hyperparameters.

    Defaults are the reference operating point; word_filters_per_width is
    read as filters per width (set filters_are_total for the split reading).
    """

    variant: str = "cnn_char_pos"
    word_dim: int = 200
    char_dim: int = 50
    pos_dim: int = 10
    char_filters: int = 50
    char_filter_width: int = 3
    word_filter_widths: tuple = (1, 2, 3)
    word_filters_per_width: int = 2048
    filters_are_total: bool = False
    dense_units: int = 256
    dropout: float = 0.2
    l2: float = 1e-5
    lr: float = 0.001
    batch_size: int = 64
    classes: int = 2
    freeze_word_emb: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        self.word_filter_widths = tuple(int(w) for w in self.word_filter_widths)
        for name in ("word_dim", "char_dim", "pos_dim", "char_filters",
                     "char_filter_width", "word_filters_per_width", "dense_units",
                     "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.l2 < 0 or self.lr <= 0:
            raise ConfigError(f"bad l2/lr: {self.l2}/{self.lr}")
        if not self.word_filter_widths or any(w <= 0 for w in self.word_filter_widths):
            raise ConfigError(f"bad filter widths {self.word_filter_widths}")
        if list(self.word_filter_widths) != sorted(self.word_filter_widths):
            raise ConfigError(f"filter widths must be ascending, got {self.word_filter_widths}")
        if self.classes != 2:
            raise ConfigError("only binary classification is supported")

    @property
    def uses_chars(self) -> bool:
        return self.variant in ("cnn_char", "cnn_char_pos")

    @property
    def uses_pos(self) -> bool:
        return self.variant == "cnn_char_pos"

    @property
    def fused_dim(self) -> int:
        return (self.word_dim
                + (self.char_filters if self.uses_chars else 0)
                + (self.pos_dim if self.uses_pos else 0))

    def filters_for_width(self) -> int:
        if self.filters_are_total:
            return max(1, self.word_filters_per_width // len(self.word_filter_widths))
        return self.word_filters_per_width

    @property
    def pooled_dim(self) -> int:
        return self.filters_for_width() * len(self.word_filter_widths)

    def to_json(self) -> dict:
        d = asdict(self)
        d["word_filter_widths"] = list(self.word_filter_widths)
        return d

    @classmethod
    def from_json(cls, obj: dict) -> "ArchConfig":
        obj = dict(obj)
        obj["word_filter_widths"] = tuple(obj["word_filter_widths"])
        return cls(**obj)


@dataclass
class ModelParams:
    arch: ArchConfig
    fingerprint: str
    tensors: dict  # name -> Tensor, all requires_grad
    bn_state: BatchNormState

    @property
    def dtype(self):
        return self.tensors["word_emb"].data.dtype

    def trainable(self) -> dict:
        if self.arch.freeze_word_emb:
            return {k: v for k, v in self.tensors.items() if k != "word_emb"}
        return dict(self.tensors)

    def regularized(self) -> list:
        """Conv filters and dense weights only; no biases, embeddings, or BN."""
        names = [n for n in self.tensors
                 if n in ("dense_w", "out_w", "char_conv_w") or n.startswith("word_conv_w")]
        return [self.tensors[n] for n in sorted(names)]

    def zero_pad_rows(self) -> None:
        for name in ("word_emb", "char_emb", "pos_emb"):
            if name in self.tensors:
                self.tensors[name].data[0] = 0


def read_embeddings(path) -> dict:
    """Parse a whitespace-separated text embedding file (token then reals)."""
    vectors: dict = {}
    dim = None
    for lineno, line in text_lines(path):
        parts = line.split(" ")
        if len(parts) < 2:
            continue
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ShapeError(
                f"{path}, line {lineno}: {len(values)} values, expected {dim}")
        try:
            vectors[token] = np.asarray(values, dtype=np.float64)
        except ValueError as exc:
            raise CorpusError(f"{path}, line {lineno}: {exc}") from exc
    return vectors


def init_params(arch: ArchConfig, vocab, pretrained: dict | None = None,
                seed: int = 0, dtype=np.float32) -> ModelParams:
    """Seeded parameter initialization; uniform [-0.05, 0.05], PAD rows zero."""
    rng = np.random.default_rng(seed)

    def uniform(*shape):
        return Tensor(rng.uniform(-0.05, 0.05, size=shape).astype(dtype), requires_grad=True)

    tensors = {}
    word = rng.uniform(-0.05, 0.05, size=(vocab.n_words, arch.word_dim))
    if pretrained:
        for token, idx in vocab.words.items():
            vec = pretrained.get(token)
            if vec is None:
                continue
            if vec.shape != (arch.word_dim,):
                raise ShapeError(
                    f"pretrained vector for {token!r} has dimension {vec.shape[0]}, "
                    f"expected {arch.word_dim}")
            word[idx] = vec
    tensors["word_emb"] = Tensor(word.astype(dtype), requires_grad=True)
    if arch.uses_chars:
        tensors["char_emb"] = uniform(vocab.n_chars, arch.char_dim)
        tensors["char_conv_w"] = uniform(arch.char_filter_width, arch.char_dim, arch.char_filters)
        tensors["char_conv_b"] = Tensor(np.zeros(arch.char_filters, dtype=dtype), requires_grad=True)
    if arch.uses_pos:
        tensors["pos_emb"] = uniform(vocab.n_tags, arch.pos_dim)
    per_width = arch.filters_for_width()
    for w in arch.word_filter_widths:
        tensors[f"word_conv_w{w}"] = uniform(w, arch.fused_dim, per_width)
        tensors[f"word_conv_b{w}"] = Tensor(np.zeros(per_width, dtype=dtype), requires_grad=True)
    tensors["dense_w"] = uniform(arch.pooled_dim, arch.dense_units)
    tensors["dense_b"] = Tensor(np.zeros(arch.dense_units, dtype=dtype), requires_grad=True)
    tensors["bn_gamma"] = Tensor(np.ones(arch.dense_units, dtype=dtype), requires_grad=True)
    tensors["bn_beta"] = Tensor(np.zeros(arch.dense_units, dtype=dtype), requires_grad=True)
    tensors["out_w"] = uniform(arch.dense_units, arch.classes)
    tensors["out_b"] = Tensor(np.zeros(arch.classes, dtype=dtype), requires_grad=True)

    params = ModelParams(arch=arch, fingerprint=vocab.fingerprint(), tensors=tensors,
                         bn_state=BatchNormState.fresh(arch.dense_units, dtype=dtype))
    params.zero_pad_rows()
    return params


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    word_ids: np.ndarray   # (B, T) int64, PAD = 0
    pos_ids: np.ndarray    # (B, T)
    char_ids: np.ndarray   # (B, T, C)
    char_lens: np.ndarray  # (B, T), clamped to >= 1
    doc_lens: np.ndarray   # (B,)
    labels: np.ndarray | None
    fingerprint: str

    @property
    def size(self) -> int:
        return self.word_ids.shape[0]


def make_batch(docs, labels=None) -> Batch:
    """Pad and stack TokenizedDocs that share one vocabulary fingerprint.

    ``char_lens`` counts each token's nonzero char ids (every real character
    has an id of at least 1), clamped to >= 1 at padded positions.
    """
    if not docs:
        raise ShapeError("make_batch: empty document list")
    fingerprints = {d.fingerprint for d in docs}
    if len(fingerprints) > 1:
        raise CheckpointError(f"make_batch: docs mix vocab fingerprints {sorted(fingerprints)}")
    doc_lens = np.array([len(d.word_ids) for d in docs], dtype=np.int64)
    word_ids = np.zeros((len(docs), doc_lens.max()), dtype=np.int64)
    pos_ids = np.zeros_like(word_ids)
    char_ids = np.zeros((*word_ids.shape, max(d.char_ids.shape[1] for d in docs)), dtype=np.int64)
    for r, d in enumerate(docs):
        n, c = d.char_ids.shape
        word_ids[r, :n] = d.word_ids
        pos_ids[r, :n] = d.pos_ids
        char_ids[r, :n, :c] = d.char_ids
    return Batch(word_ids=word_ids, pos_ids=pos_ids, char_ids=char_ids,
                 char_lens=np.maximum(np.count_nonzero(char_ids, axis=2), 1),
                 doc_lens=doc_lens,
                 labels=None if labels is None else np.asarray(labels, dtype=np.int64),
                 fingerprint=fingerprints.pop())


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _char_summaries(params: ModelParams, batch: Batch) -> Tensor:
    b, t, c = batch.char_ids.shape
    emb = embedding_lookup(params.tensors["char_emb"], batch.char_ids.reshape(b * t, c))
    conv = conv1d(emb, params.tensors["char_conv_w"], params.tensors["char_conv_b"],
                  padding="same")
    pooled = relu(max_over_time(conv, batch.char_lens.reshape(b * t)))
    return reshape(pooled, (b, t, params.arch.char_filters))


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, batch: Batch, mode: str = "eval",
            rng: np.random.Generator | None = None):
    """Run the network; returns (logits Tensor, probability ndarray)."""
    if batch.fingerprint != params.fingerprint:
        raise CheckpointError(
            f"batch vocab fingerprint {batch.fingerprint} does not match "
            f"model fingerprint {params.fingerprint}")
    arch = params.arch
    parts = [embedding_lookup(params.tensors["word_emb"], batch.word_ids)]
    if arch.uses_chars:
        parts.append(_char_summaries(params, batch))
    if arch.uses_pos:
        parts.append(embedding_lookup(params.tensors["pos_emb"], batch.pos_ids))
    fused = concat(parts, axis=-1) if len(parts) > 1 else parts[0]
    # zero padded token positions so batch padding cannot leak into the conv
    t_max = batch.word_ids.shape[1]
    mask = (np.arange(t_max)[None, :] < batch.doc_lens[:, None])
    fused = mul_const(fused, mask[:, :, None].astype(params.dtype))
    pooled = []
    for w in arch.word_filter_widths:
        conv = conv1d(fused, params.tensors[f"word_conv_w{w}"],
                      params.tensors[f"word_conv_b{w}"], padding="same")
        pooled.append(relu(max_over_time(conv, batch.doc_lens)))
    doc_vec = concat(pooled, axis=-1) if len(pooled) > 1 else pooled[0]
    h = dense(doc_vec, params.tensors["dense_w"], params.tensors["dense_b"])
    h = relu(batch_norm(h, params.tensors["bn_gamma"], params.tensors["bn_beta"],
                        params.bn_state, mode=mode))
    if mode == "train" and arch.dropout > 0:
        h = dropout(h, arch.dropout, rng)
    logits = dense(h, params.tensors["out_w"], params.tensors["out_b"])
    return logits, _softmax_np(logits.data)


def train_step(params: ModelParams, batch: Batch, opt: Adam,
               rng: np.random.Generator) -> float:
    """One forward/backward/update pass; returns the scalar loss."""
    if batch.labels is None:
        raise TrainingError("train_step needs a labeled batch")
    opt.zero_grad()
    logits, _ = forward(params, batch, mode="train", rng=rng)
    xent, _ = softmax_xent(logits, batch.labels)
    loss = add(xent, l2_penalty(params.regularized(), params.arch.l2))
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingError(
            f"non-finite loss {value} (lr={params.arch.lr}, l2={params.arch.l2}, "
            f"batch={batch.size}); aborting")
    loss.backward()
    opt.step()
    params.zero_pad_rows()
    return value


def predict_probs(params: ModelParams, docs, batch_size: int | None = None) -> np.ndarray:
    """Eval-mode class probabilities for a list of docs, chunked into batches."""
    bs = params.arch.batch_size if batch_size is None else batch_size
    out = []
    for lo in range(0, len(docs), bs):
        batch = make_batch(docs[lo:lo + bs])
        out.append(forward(params, batch, mode="eval")[1])
    return np.concatenate(out, axis=0) if out else np.zeros((0, 2))


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_params(params: ModelParams, path) -> None:
    """Write a ``.gfus`` checkpoint.

    Layout: ``CHECKPOINT_MAGIC``, u32 version and u32 header length (little
    endian), a key-sorted JSON header, then the raw little-endian payload.
    The header holds the architecture, the vocabulary fingerprint, the dtype
    and, under ``tensors``, each array's name, shape, and the offset and
    nbytes of its bytes in the payload: the parameters in name order, then
    the batch-norm running statistics.
    """
    dtype = np.dtype(params.dtype).newbyteorder("<")
    arrays = {name: t.data for name, t in sorted(params.tensors.items())}
    arrays.update(bn_running_mean=params.bn_state.mean, bn_running_var=params.bn_state.var)
    entries, raws, offset = [], [], 0
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "nbytes": len(raw)})
        raws.append(raw)
        offset += len(raw)
    header = {"arch": params.arch.to_json(), "fingerprint": params.fingerprint,
              "dtype": dtype.str, "tensors": entries}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for raw in raws:
            fh.write(raw)


def load_params(path, expect_fingerprint: str | None = None) -> ModelParams:
    """Read a :func:`save_params` checkpoint.

    Every way the file can be malformed, including a missing header key or a
    value that does not decode, is raised as :class:`CheckpointError`.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} file (bad magic)")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} bytes)")
    found, hlen = struct.unpack_from("<II", blob, 4)
    if found != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format version {found}, expected {CHECKPOINT_VERSION}")
    if 12 + hlen > len(blob):
        raise CheckpointError(f"{path}: truncated header ({hlen} bytes declared, "
                              f"{len(blob) - 12} present)")
    payload = blob[12 + hlen:]
    with checkpoint_errors(path, "corrupt header"):
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
        parts = []
        for entry in header["tensors"]:
            lo, n = entry["offset"], entry["nbytes"]
            raw = payload[lo:lo + n]
            if lo < 0 or len(raw) != n:
                raise CheckpointError(f"{path}: truncated payload ({n} bytes at {lo})")
            parts.append((entry, raw))
        arch = ArchConfig.from_json(header["arch"])
        if expect_fingerprint is not None and header["fingerprint"] != expect_fingerprint:
            raise CheckpointError(
                f"{path}: vocab fingerprint {header['fingerprint']} does not match "
                f"expected {expect_fingerprint}")
        if header["dtype"] not in ("<f4", "<f8"):
            raise CheckpointError(f"{path}: unsupported dtype {header['dtype']!r}")
        dtype = np.dtype(header["dtype"])
        arrays = {entry["name"]: np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).copy()
                  for entry, raw in parts}
        mean = arrays.pop("bn_running_mean")
        var = arrays.pop("bn_running_var")
        tensors = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        return ModelParams(arch=arch, fingerprint=header["fingerprint"], tensors=tensors,
                           bn_state=BatchNormState(mean=mean, var=var))
