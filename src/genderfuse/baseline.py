"""TF-IDF features with linear classifiers under the same CV protocol.

The non-deep reference systems: word n-gram TF-IDF vectors into a logistic
regression ("LR") or a linear hinge-loss SVM ("SVM"), trained per fold with
the identical stratified splits and majority-voting ensemble as the
convolutional models.  TF-IDF statistics are fitted on each fold's training
portion only, so validation documents never leak into the vocabulary.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from .corpus import GENDERS, GenderPrediction, gender_index, split_folds
from .errors import BaselineError, CheckpointError
from .ioutil import read_container, write_container
from .textpipe import tokenize_tweets
from .train import AlgoSummary, _accuracy, evaluate, vote_probs

BASELINE_MAGIC = b"GFLB"
BASELINE_VERSION = 1

_ALGO_LOSS = {"LR": "logistic", "SVM": "hinge"}


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TfidfConfig:
    ngram_lo: int = 1
    ngram_hi: int = 2
    min_df: int = 2
    sublinear: bool = True

    def __post_init__(self):
        if self.ngram_lo < 1 or self.ngram_hi < self.ngram_lo:
            raise BaselineError(
                f"bad n-gram range ({self.ngram_lo}, {self.ngram_hi})")
        if self.min_df < 1:
            raise BaselineError(f"min_df must be >= 1, got {self.min_df}")

    def to_json(self) -> dict:
        return {"ngram_lo": self.ngram_lo, "ngram_hi": self.ngram_hi,
                "min_df": self.min_df, "sublinear": self.sublinear}

    @classmethod
    def from_json(cls, obj: dict) -> "TfidfConfig":
        return cls(**obj)


def _ngrams(tokens, lo: int, hi: int):
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i:i + n])


@dataclass
class TfidfModel:
    terms: dict           # n-gram -> column
    idf: np.ndarray
    config: TfidfConfig

    def __post_init__(self):
        cols = sorted(self.terms.values())
        if cols != list(range(len(cols))):
            raise BaselineError("term columns are not contiguous from 0")
        if len(self.idf) != len(self.terms):
            raise BaselineError(
                f"{len(self.idf)} idf weights for {len(self.terms)} terms")
        if not np.all(np.isfinite(self.idf)) or np.any(self.idf <= 0):
            raise BaselineError("idf weights must be finite and positive")

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def fit_tfidf(docs, config: TfidfConfig | None = None) -> TfidfModel:
    """Vocabulary and idf weights from token lists.

    idf(t) = ln((1+N)/(1+df(t))) + 1, so a term present in every document
    still carries weight 1.
    """
    if not docs:
        raise BaselineError("fit_tfidf needs at least one document")
    config = config or TfidfConfig()
    df: Counter = Counter()
    for toks in docs:
        df.update(set(_ngrams(toks, config.ngram_lo, config.ngram_hi)))
    kept = sorted(t for t, c in df.items() if c >= config.min_df)
    if not kept:
        raise BaselineError(
            f"no n-grams reach document frequency {config.min_df}; "
            "reduce min_df")
    n = len(docs)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept])
    return TfidfModel(terms={t: i for i, t in enumerate(kept)}, idf=idf,
                      config=config)


def transform_docs(model: TfidfModel, docs) -> sparse.csr_matrix:
    """Stacked L2-normalized TF-IDF rows; unseen n-grams are ignored."""
    cfg = model.config
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for toks in docs:
        counts = Counter(g for g in _ngrams(toks, cfg.ngram_lo, cfg.ngram_hi)
                         if g in model.terms)
        cells = sorted((model.terms[g], c) for g, c in counts.items())
        row = []
        for col, c in cells:
            tf = 1.0 + math.log(c) if cfg.sublinear else float(c)
            row.append(tf * model.idf[col])
        norm = math.sqrt(sum(v * v for v in row))
        if norm > 0:
            row = [v / norm for v in row]
        indices.extend(col for col, _ in cells)
        data.extend(row)
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(len(indptr) - 1, model.n_terms))


# ---------------------------------------------------------------------------
# linear models
# ---------------------------------------------------------------------------

@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    loss: str             # "logistic" or "hinge"
    lam: float

    def __post_init__(self):
        if self.loss not in ("logistic", "hinge"):
            raise BaselineError(f"unknown loss {self.loss!r}")
        self.w = np.asarray(self.w, dtype=np.float64).ravel()
        if self.lam < 0:
            raise BaselineError(f"ridge strength must be >= 0, got {self.lam}")

    def decision(self, X) -> np.ndarray:
        return np.asarray(X @ self.w).ravel() + self.b

    def predict_probs(self, X) -> np.ndarray:
        """(n, 2) class probabilities.

        Hinge decisions pass through the same sigmoid; that keeps the voting
        tie-break monotone in the margin but is not a calibrated probability.
        """
        p1 = expit(self.decision(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        return (self.decision(X) > 0).astype(np.int64)


def fit_linear(X, y, loss: str = "logistic", lam: float = 1e-4, *,
               epochs: int = 10, lr: float = 0.1, seed: int = 0) -> LinearModel:
    """Per-sample SGD on (logistic | hinge) loss with an L2 ridge.

    The ridge is applied as a multiplicative shrink 1/(1 + 2*lr*lam) each
    step (proximal form, stable for large lam), tracked through a lazy scale
    factor so updates stay sparse.  The bias is not regularized.
    """
    if loss not in ("logistic", "hinge"):
        raise BaselineError(f"unknown loss {loss!r} (expected logistic or hinge)")
    X = sparse.csr_matrix(X)
    y = np.asarray(y)
    present = np.unique(y)
    if present.size < 2:
        raise BaselineError(
            f"training labels contain only class {present.tolist()}; "
            "need both genders")
    n, n_cols = X.shape
    w = np.zeros(n_cols)
    b = 0.0
    s = 1.0                       # true weights = s * w
    shrink = 1.0 / (1.0 + 2.0 * lr * lam)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(n):
            sl = slice(X.indptr[i], X.indptr[i + 1])
            idx, vals = X.indices[sl], X.data[sl]
            z = s * (w[idx] @ vals) + b
            if loss == "logistic":
                g = expit(z) - y[i]
                w[idx] -= (lr * g / s) * vals
                b -= lr * g
            elif (2.0 * y[i] - 1.0) * z < 1.0:
                # hinge subgradient is zero at or beyond the margin
                t = 2.0 * y[i] - 1.0
                w[idx] += (lr * t / s) * vals
                b += lr * t
            if lam:
                s *= shrink     # proximal step after the gradient step
            if s < 1e-150:
                w *= s
                s = 1.0
    return LinearModel(w=s * w, b=b, loss=loss, lam=lam)


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------

def user_tokens(user) -> list:
    """Flat normalized token stream of all tweets of one user."""
    return [t for toks in tokenize_tweets(user.tweets) for t in toks]


def baseline_cv(corpus, algo: str = "LR", *, k: int = 5, seed: int = 0,
                test_corpus=None, tfidf_config: TfidfConfig | None = None,
                lam: float = 1e-4, epochs: int = 10, lr: float = 0.1,
                model_path=None) -> tuple[AlgoSummary, list[GenderPrediction]]:
    """Fold-wise TF-IDF + linear training with majority-voting ensemble.

    Mirrors the convolutional protocol: identical stratified folds for the
    same (k, seed), per-fold feature fitting on the training split only, and
    fold RNG streams derived from (seed, fold).  With a test corpus, fold
    accuracies and the vote are scored there; otherwise fold accuracies come
    from the held-out folds and the vote is scored in-sample on the training
    corpus (every user has seen k-1 of the voters; documented caveat).
    """
    if algo not in _ALGO_LOSS:
        raise BaselineError(
            f"unknown algorithm {algo!r} (expected one of {sorted(_ALGO_LOSS)})")
    loss = _ALGO_LOSS[algo]
    folds = split_folds(corpus, k, seed)
    token_docs = [user_tokens(u) for u in corpus]
    labels = np.array([gender_index(u.gender) for u in corpus])

    if test_corpus is not None:
        for u in test_corpus:
            if u.gender is None:
                raise BaselineError(f"test user {u.user_id!r} has no gender label")
        eval_tokens = [user_tokens(u) for u in test_corpus]
        eval_ids = [u.user_id for u in test_corpus]
        eval_labels = np.array([gender_index(u.gender) for u in test_corpus])
    else:
        eval_tokens, eval_ids, eval_labels = token_docs, [u.user_id for u in corpus], labels

    pairs: list[tuple[TfidfModel, LinearModel]] = []
    fold_accs: list[float] = []
    all_probs = []
    n = len(corpus)
    for i, val_idx in enumerate(folds):
        tr = sorted(set(range(n)) - set(val_idx))
        tfidf = fit_tfidf([token_docs[j] for j in tr], tfidf_config)
        fold_seed, = np.random.SeedSequence([seed, i]).generate_state(1)
        lin = fit_linear(transform_docs(tfidf, [token_docs[j] for j in tr]),
                         labels[tr], loss, lam, epochs=epochs, lr=lr,
                         seed=int(fold_seed))
        probs = lin.predict_probs(transform_docs(tfidf, eval_tokens))
        if test_corpus is not None:
            fold_accs.append(_accuracy(probs, eval_labels))
        else:
            val_probs = lin.predict_probs(
                transform_docs(tfidf, [token_docs[j] for j in val_idx]))
            fold_accs.append(_accuracy(val_probs, labels[val_idx]))
        all_probs.append(probs)
        pairs.append((tfidf, lin))

    voted, fold_probs = vote_probs(np.stack(all_probs))
    preds = [GenderPrediction.from_fold_probs(uid, GENDERS[voted[i]],
                                              fold_probs[:, i])
             for i, uid in enumerate(eval_ids)]
    truth = dict(zip(eval_ids, (GENDERS[l] for l in eval_labels)))
    summary = AlgoSummary(tuple(fold_accs), evaluate(preds, truth))
    if model_path is not None:
        save_baselines(pairs, model_path, algo=algo)
    return summary, preds


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def save_baselines(pairs, path, *, algo: str) -> None:
    """All fold (TF-IDF, linear) pairs in one versioned binary file."""
    parts = []
    for tfidf, lin in pairs:
        if len(lin.w) != tfidf.n_terms:
            raise BaselineError(
                f"{len(lin.w)} weights for {tfidf.n_terms} TF-IDF columns")
        by_col = sorted(tfidf.terms, key=tfidf.terms.get)
        parts.append(({"terms": by_col, "config": tfidf.config.to_json(),
                       "bias": lin.b, "loss": lin.loss, "lam": lin.lam},
                      np.concatenate([tfidf.idf, lin.w]).astype("<f8").tobytes()))
    write_container(path, BASELINE_MAGIC, BASELINE_VERSION, {"algo": algo}, "folds", parts)


def load_baselines(path) -> tuple[str, list[tuple[TfidfModel, LinearModel]]]:
    def decode(header, parts):
        pairs = []
        for entry, raw in parts:
            values = np.frombuffer(raw, dtype="<f8")
            terms = entry["terms"]
            if len(values) != 2 * len(terms):
                raise CheckpointError(
                    f"{path}: payload holds {len(values)} values for "
                    f"{len(terms)} terms")
            tfidf = TfidfModel(terms={t: i for i, t in enumerate(terms)},
                               idf=values[:len(terms)].copy(),
                               config=TfidfConfig.from_json(entry["config"]))
            lin = LinearModel(w=values[len(terms):].copy(), b=entry["bias"],
                              loss=entry["loss"], lam=entry["lam"])
            pairs.append((tfidf, lin))
        return header["algo"], pairs

    return read_container(path, BASELINE_MAGIC, BASELINE_VERSION, "folds", decode)
