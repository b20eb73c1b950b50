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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import GENDERS, GenderPrediction, gender_labels, split_folds
from .errors import CheckpointError, ShapeError, TrainingError
from .ioutil import read_json, write_json
from .model import (ArchConfig, init_params, load_params, make_batch,
                    predict_probs, save_params, train_step)
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
        if not isinstance(obj["checkpoint"], (str, type(None))):
            raise TypeError(f"checkpoint must be a path or null, got {obj['checkpoint']!r}")
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
    """What :func:`train_cv` returns; the ensemble fields are None if a fold failed."""

    folds: list[FoldResult]
    summary: AlgoSummary | None
    preds: list[GenderPrediction] | None   # voted, one per evaluation user


# ---------------------------------------------------------------------------
# cross-validation driver
# ---------------------------------------------------------------------------

def _accuracy(probs: np.ndarray, labels) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))


def _run_fold(fold: int, train_docs, train_labels, val_docs, val_labels,
              vocab: Vocab, arch: ArchConfig, epochs: int, seed: int,
              ckpt_path: str, pretrained=None) -> FoldResult:
    """Train one fold to the full epoch budget, keeping the best checkpoint.

    A fold that aborts on a :class:`TrainingError` deletes its checkpoint.

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
            acc = _accuracy(predict_probs([params], val_docs)[0], val_labels)
            trace.append(acc)
            if acc > best:          # strict: the first maximum wins
                best, best_epoch = acc, epoch
                save_params(params, ckpt_path)
            log.debug("fold %d epoch %d: val acc %.4f", fold, epoch, acc)
    except TrainingError as exc:
        error = str(exc)
        # the best-so-far checkpoint of an aborted fold must not vote in predict
        Path(ckpt_path).unlink(missing_ok=True)
        log.warning("fold %d aborted: %s", fold, error)
    return FoldResult(fold=fold, checkpoint=None if error else str(ckpt_path),
                      val_trace=trace, best_epoch=best_epoch, error=error)


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
    message instead of aborting the whole run, and its partial checkpoint is
    deleted.  The finished folds' best checkpoints then score the evaluation
    users (the test corpus, else the training corpus in sample) in one
    :func:`predict_probs` pass, as ``predict`` does, for each fold's test
    accuracy and the vote.
    """
    folds = split_folds(corpus, k, seed)
    labels = gender_labels(corpus)
    eval_labels = labels if test_corpus is None else gender_labels(test_corpus)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    vocab = build_vocab(corpus, min_word_freq=min_word_freq)
    vocab_path = workdir / "vocab.json"
    if vocab_path.exists():
        stored = read_json(vocab_path, Vocab.from_json)
        if stored.fingerprint() != vocab.fingerprint():
            raise TrainingError(
                f"{vocab_path}: stored vocabulary does not match this corpus; "
                "use a fresh work directory")
    else:
        write_json(vocab_path, vocab.to_json())

    docs = [build_doc(u, vocab) for u in corpus]
    eval_docs = docs if test_corpus is None else [build_doc(u, vocab) for u in test_corpus]

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
            obj, fr = read_json(meta_path, lambda obj: (obj, FoldResult.from_json(obj)))
            changed = [key for key in manifest if obj.get(key) != manifest[key]]
            if changed:
                raise TrainingError(
                    f"{meta_path}: recorded run differs in {', '.join(changed)}; "
                    "use a fresh work directory")
            # the recorded path is as the workdir was spelled then
            ckpt = workdir / f"fold{i}.gfus"
            if fr.checkpoint and ckpt.exists():
                log.info("fold %d: reusing checkpoint %s", i, ckpt)
                results[i] = replace(fr, checkpoint=str(ckpt))
                continue
        pending.append(i)

    n = len(corpus)
    jobs_args = []
    for i in pending:
        tr = sorted(set(range(n)) - set(folds[i]))
        jobs_args.append((
            i, [docs[j] for j in tr], labels[tr],
            [docs[j] for j in folds[i]], labels[folds[i]],
            vocab, arch, epochs, seed, str(workdir / f"fold{i}.gfus"),
            pretrained))

    if jobs > 1 and len(jobs_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fr in pool.map(_run_fold, *zip(*jobs_args)):
                results[fr.fold] = fr
    else:
        for args in jobs_args:
            fr = _run_fold(*args)
            results[fr.fold] = fr

    finished = [i for i in range(k) if results[i].error is None]
    models = [load_params(workdir / f"fold{i}.gfus", expect_fingerprint=vocab.fingerprint())
              for i in finished]
    all_probs = predict_probs(models, eval_docs) if models else []
    for i, probs in zip(finished, all_probs):
        if test_corpus is not None:
            results[i] = replace(results[i], test_accuracy=_accuracy(probs, eval_labels))
        if i in pending:
            write_json(workdir / f"fold{i}.json", {**results[i].to_json(), **manifest})
    frs = [results[i] for i in range(k)]
    if len(finished) < k:
        return CVRun(frs, None, None)
    fold_accs = tuple(fr.test_accuracy if test_corpus is not None else max(fr.val_trace)
                      for fr in frs)
    voted, preds = voted_predictions([d.user_id for d in eval_docs], all_probs)
    return CVRun(frs, AlgoSummary(fold_accs, float(np.mean(voted == eval_labels))), preds)


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


def voted_predictions(user_ids, all_probs) -> tuple[np.ndarray, list[GenderPrediction]]:
    """Voted labels and one prediction per user from (k, n, 2) fold probabilities."""
    voted, fold_probs = vote_probs(all_probs)
    return voted, [GenderPrediction.from_fold_probs(uid, GENDERS[voted[i]], fold_probs[:, i])
                   for i, uid in enumerate(user_ids)]


def predict_ensemble(checkpoints, docs,
                     batch_size: int | None = None) -> list[GenderPrediction]:
    """Voted predictions from k checkpoint files over tokenized documents.

    All members must share the architecture and the vocabulary fingerprint
    of the docs.
    """
    fp = docs[0].fingerprint if docs else None
    models = [load_params(c, expect_fingerprint=fp) for c in checkpoints]
    if not models:
        raise CheckpointError("ensemble needs at least one model")
    if any(m.arch != models[0].arch for m in models):
        raise CheckpointError("ensemble members disagree on architecture")
    return voted_predictions([d.user_id for d in docs], predict_probs(models, docs, batch_size))[1]


def evaluate(preds, users) -> float:
    """Fraction of voted predictions matching the gender labels of ``users``."""
    if not preds:
        raise TrainingError("cannot evaluate an empty prediction list")
    tm = {u.user_id: u.gender for u in users}
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
