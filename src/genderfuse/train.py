"""Cross-validated training, majority-vote ensembling, and accuracy reporting.

The protocol: split the labeled corpus into k gender-stratified folds, train
one model per fold on the other k-1 folds, track held-out accuracy after every
epoch, and keep the checkpoint of the best epoch.  The k best-epoch models
form the ensemble; predictions are majority votes with even-split ties broken
by the higher summed class probability.

Fold runs are self-contained: every fold derives its own RNG streams from
``(master seed, fold index)``, so executing folds in any order, or in
parallel worker processes, produces identical results.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import GENDERS, GenderPrediction, gender_index, split_folds
from .errors import CheckpointError, ShapeError, TrainingError
from .ioutil import write_json
from .model import (ArchConfig, ModelParams, init_params, load_params,
                    make_batch, predict_probs, save_params, train_step)
from .tensor import Adam
from .textpipe import Vocab, build_doc, build_vocab

log = logging.getLogger(__name__)

# Fixed report layout; algorithms we do not train render as "n/a".
CANONICAL_ALGOS = ("SVM", "RNN", "CNN", "CNN_char", "CNN_char_pos")


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass
class FoldResult:
    """Outcome of one fold: best checkpoint plus the full validation trace."""

    fold: int
    checkpoint: str | None
    val_trace: list[float]
    best_epoch: int                      # 1-based; 0 only when no epoch finished
    test_accuracy: float | None = None
    error: str | None = None

    def __post_init__(self):
        for a in self.val_trace:
            if not 0.0 <= a <= 1.0:
                raise TrainingError(f"fold {self.fold}: accuracy {a} outside [0,1]")
        if self.val_trace:
            want = int(np.argmax(self.val_trace)) + 1   # first maximum
            if self.best_epoch != want:
                raise TrainingError(
                    f"fold {self.fold}: best_epoch {self.best_epoch} but trace "
                    f"peaks first at epoch {want}")
        elif self.best_epoch != 0:
            raise TrainingError(f"fold {self.fold}: best_epoch set without a trace")
        if self.error is None and self.checkpoint is None:
            raise TrainingError(f"fold {self.fold}: missing checkpoint path")
        if self.test_accuracy is not None and not 0.0 <= self.test_accuracy <= 1.0:
            raise TrainingError(
                f"fold {self.fold}: test accuracy {self.test_accuracy} outside [0,1]")

    def to_json(self) -> dict:
        return {"fold": self.fold, "checkpoint": self.checkpoint,
                "val_trace": self.val_trace, "best_epoch": self.best_epoch,
                "test_accuracy": self.test_accuracy, "error": self.error}

    @classmethod
    def from_json(cls, obj: dict) -> "FoldResult":
        return cls(fold=int(obj["fold"]), checkpoint=obj["checkpoint"],
                   val_trace=[float(a) for a in obj["val_trace"]],
                   best_epoch=int(obj["best_epoch"]),
                   test_accuracy=obj.get("test_accuracy"),
                   error=obj.get("error"))


@dataclass(frozen=True)
class AlgoSummary:
    """Per-fold accuracies and the voted-ensemble accuracy of one algorithm."""

    folds: tuple[float, ...]
    voting: float

    def __post_init__(self):
        if not self.folds:
            raise TrainingError("algorithm summary needs at least one fold accuracy")
        for a in (*self.folds, self.voting):
            if not 0.0 <= a <= 1.0:
                raise TrainingError(f"accuracy {a} outside [0,1]")

    @property
    def mean(self) -> float:
        return float(np.mean(self.folds))

    @property
    def sd(self) -> float:
        # population SD (divide by k), not the sample estimate
        return float(np.std(self.folds))


@dataclass
class EnsembleReport:
    """Mean / SD / Voting rows for any number of algorithms."""

    algos: dict[str, AlgoSummary] = field(default_factory=dict)

    def add(self, name: str, folds, voting: float) -> None:
        self.algos[name] = AlgoSummary(tuple(float(a) for a in folds), float(voting))

    def columns(self) -> list[str]:
        extra = [a for a in self.algos if a not in CANONICAL_ALGOS]
        return list(CANONICAL_ALGOS) + extra

    def _cell(self, name: str, row: str) -> str:
        s = self.algos.get(name)
        if s is None:
            return "n/a"
        return f"{ {'Mean': s.mean, 'SD': s.sd, 'Voting': s.voting}[row]:.4f}"

    def table(self) -> str:
        cols = self.columns()
        widths = [max(len(c), 6) for c in cols]
        lines = ["        " + "  ".join(c.rjust(w) for c, w in zip(cols, widths))]
        for row in ("Mean", "SD", "Voting"):
            cells = (self._cell(c, row).rjust(w) for c, w in zip(cols, widths))
            lines.append(row.ljust(8) + "  ".join(cells))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {name: {"mean": s.mean, "sd": s.sd, "voting": s.voting,
                       "folds": list(s.folds)}
                for name, s in self.algos.items()}


@dataclass
class CVRun:
    """The fold results of :func:`train_cv` and the docs it built, for reuse."""

    folds: list[FoldResult]
    docs: list                 # TokenizedDoc per corpus author, corpus order
    test_docs: list | None     # the same for the test corpus, when given


# ---------------------------------------------------------------------------
# cross-validation driver
# ---------------------------------------------------------------------------

def _accuracy(probs: np.ndarray, labels) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))


def _run_fold(fold: int, train_docs, train_labels, val_docs, val_labels,
              vocab: Vocab, arch: ArchConfig, epochs: int, seed: int,
              ckpt_path: str, pretrained=None, test_docs=None,
              test_labels=None) -> FoldResult:
    """Train one fold to the full epoch budget, keeping the best checkpoint.

    Deterministic given (seed, fold); independent of which other folds run.
    """
    init_seed, step_seed = np.random.SeedSequence([seed, fold]).generate_state(2)
    rng = np.random.default_rng(int(step_seed))
    params = init_params(arch, vocab, pretrained=pretrained, seed=int(init_seed))
    opt = Adam(params.trainable(), lr=arch.lr)

    trace: list[float] = []
    best, best_epoch = -1.0, 0
    error = None
    try:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(train_docs))
            for lo in range(0, len(order), arch.batch_size):
                idx = order[lo:lo + arch.batch_size]
                if len(idx) < 2:
                    continue        # batch norm is undefined on a single row
                batch = make_batch([train_docs[j] for j in idx],
                                   [train_labels[j] for j in idx])
                train_step(params, batch, opt, rng)
            acc = _accuracy(predict_probs(params, val_docs), val_labels)
            trace.append(acc)
            if acc > best:          # strict: the first maximum wins
                best, best_epoch = acc, epoch
                save_params(params, ckpt_path)
            log.debug("fold %d epoch %d: val acc %.4f", fold, epoch, acc)
    except TrainingError as exc:
        error = str(exc)
        log.warning("fold %d aborted: %s", fold, error)

    test_acc = None
    if error is None and test_docs is not None:
        bestp = load_params(ckpt_path, expect_fingerprint=vocab.fingerprint())
        test_acc = _accuracy(predict_probs(bestp, test_docs), test_labels)
    return FoldResult(fold=fold, checkpoint=None if error else str(ckpt_path),
                      val_trace=trace, best_epoch=best_epoch,
                      test_accuracy=test_acc, error=error)


def _users_digest(users) -> str:
    """Hash of the user ids and gender labels, in corpus order."""
    raw = json.dumps([[u.user_id, u.gender] for u in users]).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _embeddings_digest(pretrained: dict) -> str:
    h = hashlib.sha256()
    for token in sorted(pretrained):
        h.update(token.encode("utf-8") + b"\0")
        h.update(np.asarray(pretrained[token], dtype="<f8").tobytes())
    return h.hexdigest()


def _run_fold_args(args) -> FoldResult:
    # process-pool entry point (pool.map passes a single tuple)
    return _run_fold(*args)


def train_cv(corpus, arch: ArchConfig, *, k: int = 5, epochs: int = 20,
             seed: int = 0, workdir, pretrained: dict | None = None,
             test_corpus=None, min_word_freq: int = 2,
             jobs: int = 1) -> CVRun:
    """k-fold cross-validated training over a labeled corpus.

    Persists to ``workdir``: the corpus-level vocabulary, one best-epoch
    checkpoint per fold (``fold<i>.gfus``), and per-fold metadata
    (``fold<i>.json``) that records the run's settings and inputs.  Reruns
    against the same workdir resume: folds with intact metadata and
    checkpoint are not retrained, and metadata recorded under any other
    settings or inputs is refused.  A fold that fails to
    produce a finite loss is reported with its partial trace and the error
    message instead of aborting the whole run.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    folds = split_folds(corpus, k, seed)

    vocab = build_vocab(corpus, min_word_freq=min_word_freq)
    vocab_path = workdir / "vocab.json"
    if vocab_path.exists():
        stored = Vocab.from_json(json.loads(vocab_path.read_text(encoding="utf-8")))
        if stored.fingerprint() != vocab.fingerprint():
            raise TrainingError(
                f"{vocab_path}: stored vocabulary does not match this corpus; "
                "use a fresh work directory")
    else:
        write_json(vocab_path, vocab.to_json())

    docs = [build_doc(u, vocab) for u in corpus]
    labels = [gender_index(u.gender) for u in corpus]
    test_docs = test_labels = None
    if test_corpus is not None:
        for u in test_corpus:
            if u.gender is None:
                raise TrainingError(f"test user {u.user_id!r} has no gender label")
        test_docs = [build_doc(u, vocab) for u in test_corpus]
        test_labels = [gender_index(u.gender) for u in test_corpus]

    manifest = {
        "seed": seed, "epochs": epochs, "k": k, "arch": arch.to_json(),
        "min_word_freq": min_word_freq,
        "pretrained": _embeddings_digest(pretrained) if pretrained else None,
        "corpus": _users_digest(corpus),
        "test_corpus": _users_digest(test_corpus) if test_corpus is not None else None,
    }
    results: dict[int, FoldResult] = {}
    pending: list[int] = []
    for i in range(k):
        meta_path = workdir / f"fold{i}.json"
        if meta_path.exists():
            obj = json.loads(meta_path.read_text(encoding="utf-8"))
            changed = [key for key in manifest if obj.get(key) != manifest[key]]
            if changed:
                raise TrainingError(
                    f"{meta_path}: recorded run differs in {', '.join(changed)}; "
                    "use a fresh work directory")
            fr = FoldResult.from_json(obj)
            if fr.checkpoint and Path(fr.checkpoint).exists():
                log.info("fold %d: reusing checkpoint %s", i, fr.checkpoint)
                results[i] = fr
                continue
        pending.append(i)

    n = len(corpus)
    jobs_args = []
    for i in pending:
        tr = sorted(set(range(n)) - set(folds[i]))
        jobs_args.append((
            i, [docs[j] for j in tr], [labels[j] for j in tr],
            [docs[j] for j in folds[i]], [labels[j] for j in folds[i]],
            vocab, arch, epochs, seed, str(workdir / f"fold{i}.gfus"),
            pretrained, test_docs, test_labels))

    if jobs > 1 and len(jobs_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fr in pool.map(_run_fold_args, jobs_args):
                results[fr.fold] = fr
    else:
        for args in jobs_args:
            fr = _run_fold_args(args)
            results[fr.fold] = fr

    for i, fr in results.items():
        if i in pending and fr.error is None:
            write_json(workdir / f"fold{i}.json", {**fr.to_json(), **manifest})
    return CVRun(folds=[results[i] for i in range(k)], docs=docs, test_docs=test_docs)


# ---------------------------------------------------------------------------
# ensembling and evaluation
# ---------------------------------------------------------------------------

def vote_probs(all_probs) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over stacked per-fold probabilities of shape (k, n, 2).

    Returns ``(voted labels (n,), per-fold probability of the voted label
    (k, n))``.  An even split is broken toward the class with the higher
    probability summed across folds.
    """
    probs = np.asarray(all_probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[2] != len(GENDERS):
        raise ShapeError(f"expected (k, n, {len(GENDERS)}) probabilities, "
                         f"got {probs.shape}")
    k, n, _ = probs.shape
    male_votes = np.argmax(probs, axis=2).sum(axis=0)
    voted = (2 * male_votes > k).astype(np.int64)
    tie = 2 * male_votes == k
    if np.any(tie):
        voted[tie] = np.argmax(probs.sum(axis=0)[tie], axis=1)
    fold_probs = probs[:, np.arange(n), voted]
    return voted, fold_probs


def predict_ensemble(checkpoints, docs,
                     batch_size: int | None = None) -> list[GenderPrediction]:
    """Voted predictions from k models over tokenized documents.

    ``checkpoints`` may be paths or loaded :class:`ModelParams`; all members
    must share the architecture and the vocabulary fingerprint of the docs.
    """
    models = [c if isinstance(c, ModelParams) else load_params(c)
              for c in checkpoints]
    if not models:
        raise CheckpointError("ensemble needs at least one model")
    fp = docs[0].fingerprint if docs else models[0].fingerprint
    for m in models:
        if m.fingerprint != fp:
            raise CheckpointError(
                f"model vocab fingerprint {m.fingerprint} does not match "
                f"the documents' vocabulary {fp}")
        if m.arch != models[0].arch:
            raise CheckpointError("ensemble members disagree on architecture")
    all_probs = np.stack([predict_probs(m, docs, batch_size) for m in models])
    voted, fold_probs = vote_probs(all_probs)
    return [GenderPrediction.from_fold_probs(doc.user_id, GENDERS[voted[i]],
                                             fold_probs[:, i])
            for i, doc in enumerate(docs)]


def _truth_map(truth) -> dict:
    if isinstance(truth, Mapping):
        return dict(truth)
    return {u.user_id: u.gender for u in truth}


def evaluate(preds, truth) -> float:
    """Fraction of voted predictions matching the truth labels."""
    if not preds:
        raise TrainingError("cannot evaluate an empty prediction list")
    tm = _truth_map(truth)
    correct = 0
    for p in preds:
        label = tm.get(p.user_id)
        if label is None:
            raise TrainingError(f"no truth label for user {p.user_id!r}")
        correct += int(label == p.voted_gender)
    return correct / len(preds)


def coverage(preds, threshold: float = 0.80) -> float:
    """Fraction of predictions whose mean fold probability exceeds threshold.

    The inequality is strict: a prediction at exactly the threshold is out.
    """
    if not preds:
        raise TrainingError("coverage needs at least one prediction")
    return sum(1 for p in preds if p.avg_prob > threshold) / len(preds)


def coverage_summary(preds, threshold: float = 0.80) -> str:
    """Covered count plus percentage, e.g. ``"818908 (75.11%)"``."""
    if not preds:
        raise TrainingError("coverage needs at least one prediction")
    hits = sum(1 for p in preds if p.avg_prob > threshold)
    return f"{hits} ({100.0 * hits / len(preds):.2f}%)"
