"""Spans around genderfuse's public functions, installed from outside the program.

The tracer replaces module attributes (and the aliases other genderfuse
modules imported under their own names) with wrappers that record a span:
name, start, end, parent span and run id.  Spans stay in memory until the run
ends.  Tensor ops get two spans, ``tensor.<op>.fwd`` around the call and
``tensor.<op>.bwd`` around the backward closure the op leaves on the tape.
Counters (calls, tokens, fills, bytes) are recorded at the same boundaries;
any counter work heavier than an increment runs inside a ``trace.counters``
span so instrumentation cost never lands in a program layer.

Per-token helpers (``normalize``, ``tokenize``, ``pos_tag``, ``tag_word``)
and the JSONL line iterator are left unwrapped on purpose: a span per token
or line would cost more than the work it measures.  Their time shows as the
self time of the function that calls them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("textpipe", "corpus", "model", "tensor", "train", "baseline", "stats", "ioutil")

# module -> public functions wrapped as "<module>.<function>" spans
FUNCTIONS = {
    "textpipe": ("build_doc", "build_vocab", "tokenize_tweets"),
    "corpus": ("read_users_jsonl", "read_labeled_tweets_jsonl",
               "read_predictions_jsonl", "write_predictions_jsonl", "split_folds"),
    "model": ("init_params", "make_batch", "forward", "train_step",
              "predict_probs", "save_params", "load_params"),
    "train": ("train_cv", "predict_ensemble", "vote_probs", "evaluate",
              "coverage", "coverage_summary"),
    "baseline": ("baseline_cv", "user_tokens", "fit_tfidf", "transform_docs",
                 "fit_linear"),
    "stats": ("analyze", "build_tables", "odds_ratio", "chi2_test",
              "apply_bonferroni", "emit_figure2"),
    "ioutil": ("write_json", "write_jsonl"),
}
TENSOR_OPS = ("embedding_lookup", "conv1d", "relu", "max_over_time", "concat",
              "mul_const", "dense", "batch_norm", "dropout", "softmax_xent",
              "l2_penalty", "add", "reshape")
# conv1d is reported per call site: the char conv, then one per word width
OP_METRICS = ("embedding_lookup", "conv1d.char", "conv1d.word1", "conv1d.word2",
              "conv1d.word3", "relu", "max_over_time", "concat", "mul_const",
              "dense", "batch_norm", "dropout", "softmax_xent", "l2_penalty")
STAGES = ("train", "predict", "baseline", "analyze")


def _metric_table():
    s, n = ("s", "lower"), ("count", "lower")
    rows = [
        ("textpipe.build_doc.s", *s), ("textpipe.build_doc.calls", *n),
        ("textpipe.build_doc.tokens", *n), ("textpipe.build_vocab.s", *s),
        ("corpus.read_users_jsonl.s", *s), ("corpus.read_labeled_tweets_jsonl.s", *s),
        ("corpus.write_predictions_jsonl.s", *s),
        ("model.make_batch.s", *s), ("model.make_batch.calls", *n),
        ("model.make_batch.token_fill", "ratio", "higher"),
        ("model.make_batch.char_fill", "ratio", "higher"),
        ("model.char_rows.unique_ratio", "ratio", "lower"),
        ("model.train_step.s", *s), ("model.train_step.median_s", *s),
        ("model.train_step.p90_s", *s), ("model.train_step.calls", *n),
        ("model.train_step.final_loss", "nats", "lower"),
        ("model.forward.s", *s), ("model.predict_probs.s", *s),
        ("model.save_params.s", *s), ("model.save_params.bytes", "bytes", "lower"),
        ("model.load_params.s", *s),
    ]
    for op in OP_METRICS:
        rows += [(f"tensor.{op}.fwd_s", *s), (f"tensor.{op}.bwd_s", *s),
                 (f"tensor.{op}.calls", *n)]
    rows += [
        ("tensor.conv1d.out_bytes", "bytes", "lower"),
        ("tensor.max_over_time.bwd_bytes", "bytes", "lower"),
        ("tensor.backward.s", *s), ("tensor.backward.self_s", *s),
        ("tensor.adam_step.s", *s),
        ("train.train_cv.s", *s), ("train.fold_val.s", *s),
        ("train.predict_ensemble.s", *s), ("train.vote_probs.s", *s),
        ("baseline.user_tokens.s", *s), ("baseline.fit_tfidf.s", *s),
        ("baseline.transform_docs.s", *s), ("baseline.fit_linear.s", *s),
        ("baseline.X_nnz", *n),
        ("stats.build_tables.s", *s), ("stats.analyze.s", *s),
        ("stats.emit_figure2.s", *s),
        ("ioutil.atomic_writes", *n), ("ioutil.bytes_written", "bytes", "lower"),
    ]
    rows += [(f"{layer}.self_s", *s) for layer in LAYERS]
    for stage in STAGES:
        rows += [(f"stage.{stage}.wall_s", *s), (f"stage.{stage}.unattributed_s", *s)]
    rows += [("trace.counters.s", *s), ("trace.spans", *n), ("trace.overhead_s", *s)]
    return tuple(rows)


# (name, unit, better) of every per-layer metric a traced run reports
LAYER_METRICS = _metric_table()

# metrics that must repeat exactly between two runs at one seed
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS
                      if unit in ("count", "bytes", "ratio"))


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, run]``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.losses: list = []
        self.runs: dict = {}

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts = Counter()
        self.losses = []
        self.runs[run_id] = (self.counts, self.losses)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[s][0] == name for s in self.stack)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# counters recorded at wrapped boundaries
# ---------------------------------------------------------------------------

def _count_make_batch(tr: Tracer, args, kwargs, batch) -> None:
    b, t, c = batch.char_ids.shape
    tr.counts["model.make_batch.real_tokens"] += int(batch.doc_lens.sum())
    tr.counts["model.make_batch.token_slots"] += b * t
    tr.counts["model.make_batch.real_chars"] += int(np.count_nonzero(batch.char_ids))
    tr.counts["model.make_batch.char_slots"] += b * t * c
    rows = np.unique(batch.char_ids.reshape(b * t, c), axis=0).shape[0]
    tr.counts["model.char_rows.unique"] += rows


def _count_build_doc(tr, args, kwargs, doc) -> None:
    tr.counts["textpipe.build_doc.tokens"] += len(doc.tokens)


def _count_train_step(tr, args, kwargs, loss) -> None:
    tr.losses.append(float(loss))


def _count_save_params(tr, args, kwargs, _) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["model.save_params.bytes"] += os.path.getsize(path)


def _count_transform_docs(tr, args, kwargs, X) -> None:
    tr.counts["baseline.X_nnz"] += int(X.nnz)


HEAVY_COUNTERS = {"model.make_batch": _count_make_batch}
LIGHT_COUNTERS = {"textpipe.build_doc": _count_build_doc,
                  "model.train_step": _count_train_step,
                  "model.save_params": _count_save_params,
                  "baseline.transform_docs": _count_transform_docs}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap_function(tr: Tracer, name: str, fn):
    heavy = HEAVY_COUNTERS.get(name)
    light = LIGHT_COUNTERS.get(name)

    def traced(*args, **kwargs):
        sid = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(sid)
        tr.counts[name + ".calls"] += 1
        if light is not None:
            light(tr, args, kwargs, out)
        if heavy is not None:
            cid = tr.open("trace.counters")
            try:
                heavy(tr, args, kwargs, out)
            finally:
                tr.close(cid)
        return out

    traced.__wrapped__ = fn
    return traced


def _wrap_backward(tr: Tracer, name: str, fn, nbytes: int):
    def backward(g):
        sid = tr.open(name)
        try:
            fn(g)
        finally:
            tr.close(sid)
        if nbytes:
            tr.counts["tensor.max_over_time.bwd_bytes"] += nbytes

    return backward


def _wrap_op(tr: Tracer, op: str, fn):
    def traced(*args, **kwargs):
        label = op
        if op == "conv1d":
            filters = args[1] if len(args) > 1 else kwargs["filters"]
            width = filters.data.shape[0]
            label = "conv1d.char" if tr.inside("model.char_path") else f"conv1d.word{width}"
        sid = tr.open(f"tensor.{label}.fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(sid)
        tr.counts[f"tensor.{label}.calls"] += 1
        node = out[0] if isinstance(out, tuple) else out
        if op == "conv1d":
            tr.counts["tensor.conv1d.out_bytes"] += node.data.nbytes
        # eval-mode dropout hands back its input: that node's closure is not ours
        if node._backward is not None and not any(a is node for a in args):
            nbytes = args[0].data.nbytes if op == "max_over_time" else 0
            node._backward = _wrap_backward(tr, f"tensor.{label}.bwd",
                                            node._backward, nbytes)
        return out

    traced.__wrapped__ = fn
    return traced


def _wrap_atomic_open(tr: Tracer, fn):
    @contextlib.contextmanager
    def traced(path, mode: str = "w"):
        sid = tr.open("ioutil.atomic_open")
        try:
            with fn(path, mode) as fh:
                yield fh
        finally:
            tr.close(sid)
        tr.counts["ioutil.atomic_writes"] += 1
        tr.counts["ioutil.bytes_written"] += os.path.getsize(path)

    return traced


def install(tr: Tracer) -> tuple:
    """Wrap every target; returns ``(restore callable, missing target names)``."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "genderfuse" or name.startswith("genderfuse.")}
    patches = []      # (owner, attribute, original)
    missing = []

    def replace_everywhere(original, wrapped):
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapped)

    def target(module: str, attr: str):
        m = mods.get(f"genderfuse.{module}")
        fn = getattr(m, attr, None) if m is not None else None
        if fn is None:
            missing.append(f"{module}.{attr}")
        return fn

    for module, names in FUNCTIONS.items():
        for attr in names:
            fn = target(module, attr)
            if fn is not None:
                replace_everywhere(fn, _wrap_function(tr, f"{module}.{attr}", fn))
    fn = target("model", "_char_summaries")
    if fn is not None:
        replace_everywhere(fn, _wrap_function(tr, "model.char_path", fn))
    for op in TENSOR_OPS:
        fn = target("tensor", op)
        if fn is not None:
            replace_everywhere(fn, _wrap_op(tr, op, fn))
    fn = target("ioutil", "atomic_open")
    if fn is not None:
        replace_everywhere(fn, _wrap_atomic_open(tr, fn))
    tensor = mods.get("genderfuse.tensor")
    for cls, meth, name in (("Tensor", "backward", "tensor.backward"),
                            ("Adam", "step", "tensor.adam_step")):
        owner = getattr(tensor, cls, None)
        fn = getattr(owner, meth, None)
        if fn is None:
            missing.append(f"tensor.{cls}.{meth}")
            continue
        patches.append((owner, meth, fn))
        setattr(owner, meth, _wrap_function(tr, name, fn))

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore, missing


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def analyze_run(tr: Tracer, run_id: int) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced run.

    Returns ``(metrics, breakdown, problems)``: ``breakdown`` maps each stage
    to the self seconds of every layer plus the stage's unattributed time
    (its own self time, spent in ``cli`` outside any wrapped call), which
    together sum to the stage wall; ``problems`` lists any span for which
    that accounting does not hold.
    """
    spans = [(i, s) for i, s in enumerate(tr.spans) if s[4] == run_id]
    counts, losses = tr.runs[run_id]
    dur = {i: s[2] - s[1] for i, s in spans}
    child = defaultdict(float)
    for i, s in spans:
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = {i: dur[i] - child[i] for i, _ in spans}

    total = defaultdict(float)      # inclusive seconds by span name
    selfs = defaultdict(float)      # self seconds by span name
    stage_of, in_cv = {}, {}        # parents precede children in the list
    breakdown: dict = {}
    for i, s in spans:
        name, parent = s[0], s[3]
        total[name] += dur[i]
        selfs[name] += self_t[i]
        stage_of[i] = i if name.startswith("stage.") else stage_of.get(parent, -1)
        in_cv[i] = name == "train.train_cv" or in_cv.get(parent, False)
        if stage_of[i] >= 0:
            layer = name.split(".", 1)[0]
            row = breakdown.setdefault(tr.spans[stage_of[i]][0], defaultdict(float))
            row["unattributed" if layer == "stage" else layer] += self_t[i]

    m = {}
    for name, unit, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "s":
            m[name] = total.get(base, 0.0)
        elif kind in ("fwd_s", "bwd_s"):
            m[name] = total.get(f"{base}.{kind[:3]}", 0.0)
        elif unit in ("count", "bytes"):
            m[name] = counts.get(name, 0)

    def ratio(num, den):
        return counts[num] / counts[den] if counts.get(den) else 0.0

    m["model.make_batch.token_fill"] = ratio("model.make_batch.real_tokens",
                                             "model.make_batch.token_slots")
    m["model.make_batch.char_fill"] = ratio("model.make_batch.real_chars",
                                            "model.make_batch.char_slots")
    m["model.char_rows.unique_ratio"] = ratio("model.char_rows.unique",
                                              "model.make_batch.token_slots")
    steps = sorted(dur[i] for i, s in spans if s[0] == "model.train_step")
    m["model.train_step.median_s"] = statistics.median(steps) if steps else 0.0
    m["model.train_step.p90_s"] = steps[math.ceil(0.9 * len(steps)) - 1] if steps else 0.0
    m["model.train_step.final_loss"] = losses[-1] if losses else 0.0
    m["tensor.backward.self_s"] = selfs.get("tensor.backward", 0.0)
    m["train.fold_val.s"] = sum(dur[i] for i, s in spans
                                if s[0] == "model.predict_probs" and in_cv[i])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                   if k.split(".", 1)[0] == layer)
    m["trace.spans"] = len(spans)

    problems = []
    for stage in STAGES:
        roots = [i for i, s in spans if s[0] == f"stage.{stage}"]
        m[f"stage.{stage}.wall_s"] = sum(dur[i] for i in roots)
        m[f"stage.{stage}.unattributed_s"] = sum(self_t[i] for i in roots)
        accounted = sum(breakdown.get(f"stage.{stage}", {}).values())
        if abs(accounted - m[f"stage.{stage}.wall_s"]) > 1e-6 * max(1.0, accounted):
            problems.append(f"stage.{stage}: self times sum to {accounted:.6f}s, "
                            f"stage spans last {m[f'stage.{stage}.wall_s']:.6f}s")
    orphans = [s[0] for i, s in spans if stage_of[i] < 0]
    if orphans:
        problems.append(f"{len(orphans)} spans outside any stage, e.g. {orphans[0]}")
    return m, {k: dict(v) for k, v in breakdown.items()}, problems
