"""TF-IDF features with linear classifiers under the same CV protocol.

The non-deep reference systems: word n-gram TF-IDF vectors into a logistic
regression ("LR") or a linear hinge-loss SVM ("SVM"), trained per fold with
the identical stratified splits and majority-voting ensemble as the
convolutional models.  Each author's n-grams are counted once per run into
one (authors x n-grams) matrix; every fold selects its rows from it.  TF-IDF
statistics are fitted on each fold's training rows only, so validation
documents never leak into the vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from .corpus import GenderPrediction, gender_labels, split_folds
from .errors import BaselineError
from .textpipe import user_tokens
from .train import AlgoSummary, _accuracy, voted_predictions

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


@dataclass(frozen=True)
class NgramCounts:
    """A (documents x n-grams) count matrix in canonical CSR form.

    ``grams[j]`` names column j: the n-gram's tokens joined by one space.
    The columns are in string order.
    """
    grams: np.ndarray     # object array of str
    X: sparse.csr_matrix  # int64 counts
    config: TfidfConfig

    def rows(self, idx) -> NgramCounts:
        """The counts of documents ``idx``, in that order, over the same columns."""
        return NgramCounts(self.grams, self.X[np.asarray(idx, dtype=np.int64)], self.config)


def count_ngrams(docs, config: TfidfConfig | None = None) -> NgramCounts:
    """Count the n-grams of each token list.

    Tokens become int ids once.  Each n-gram order extends the codes of the
    order below by one token id, and only distinct n-grams become strings.
    """
    config = config or TfidfConfig()
    tokens = [t for toks in docs for t in toks]
    ids: dict = {}
    tok = np.array([ids.setdefault(t, len(ids)) for t in tokens], dtype=np.int64)
    doc = np.repeat(np.arange(len(docs)), [len(toks) for toks in docs])
    start = np.arange(len(tokens))   # first token of each n-gram of the current order
    code = tok                       # which distinct n-gram of that order it is
    strings, row, gram = [], [], []
    for n in range(1, config.ngram_hi + 1):
        if n > 1:   # extend each shorter n-gram by the next token of its document
            end = start + n - 1
            ok = end < len(tokens)
            ok[ok] = doc[end[ok]] == doc[start[ok]]
            start, code = start[ok], code[ok] * len(ids) + tok[end[ok]]
        _, first, code = np.unique(code, return_index=True, return_inverse=True)
        if n >= config.ngram_lo:
            gram.append(code + len(strings))
            strings += [" ".join(tokens[i:i + n]) for i in start[first].tolist()]
            row.append(doc[start])
    names, col = np.unique(np.array(strings, dtype=object), return_inverse=True)
    cells = (np.concatenate(row), col[np.concatenate(gram)])
    # duplicates (one n-gram seen twice in a document) are summed
    X = sparse.csr_matrix((np.ones(len(cells[0]), dtype=np.int64), cells),
                          shape=(len(docs), len(names)))
    return NgramCounts(names, X, config)


def _exact(f, values) -> np.ndarray:
    """``f`` applied in Python floats to each distinct value.

    Used with ``math.log``: ``np.log`` differs from it in the last bit for
    some arguments, which would change the reports.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f(v) for v in distinct.tolist()], dtype=np.float64)[inverse]


@dataclass
class TfidfModel:
    grams: np.ndarray     # the columns of the counts it was fitted on
    cols: np.ndarray      # the kept columns, increasing
    idf: np.ndarray
    config: TfidfConfig

    def __post_init__(self):
        cols = np.asarray(self.cols)
        if cols.size and (cols[0] < 0 or cols[-1] >= len(self.grams)
                          or np.any(np.diff(cols) <= 0)):
            raise BaselineError("kept columns must increase within the count matrix")
        if len(self.idf) != len(cols):
            raise BaselineError(
                f"{len(self.idf)} idf weights for {len(cols)} terms")
        if not np.all(np.isfinite(self.idf)) or np.any(self.idf <= 0):
            raise BaselineError("idf weights must be finite and positive")

    @property
    def terms(self) -> np.ndarray:
        """The kept n-grams; ``terms[j]`` names feature column j."""
        return self.grams[self.cols]

    @property
    def n_terms(self) -> int:
        return len(self.cols)


def fit_tfidf(counts: NgramCounts) -> TfidfModel:
    """Kept columns and idf weights from the documents of ``counts``.

    idf(t) = ln((1+N)/(1+df(t))) + 1, so a term present in every document
    still carries weight 1.
    """
    n = counts.X.shape[0]
    if not n:
        raise BaselineError("fit_tfidf needs at least one document")
    df = np.bincount(counts.X.indices, minlength=len(counts.grams))
    cols = np.flatnonzero(df >= counts.config.min_df)
    if not cols.size:
        raise BaselineError(
            f"no n-grams reach document frequency {counts.config.min_df}; "
            "reduce min_df")
    idf = _exact(lambda d: math.log((1 + n) / (1 + d)) + 1.0, df[cols])
    return TfidfModel(grams=counts.grams, cols=cols, idf=idf, config=counts.config)


def transform_docs(model: TfidfModel, counts: NgramCounts) -> sparse.csr_matrix:
    """Stacked L2-normalized TF-IDF rows over the model's kept columns."""
    if counts.grams is not model.grams:
        raise BaselineError("counts and model come from different count matrices")
    X = counts.X[:, model.cols]      # kept columns, renumbered in order
    tf = (_exact(lambda c: 1.0 + math.log(c), X.data) if model.config.sublinear
          else X.data.astype(np.float64))
    v = tf * model.idf[X.indices]
    # bincount adds each row's squares in order, as a running sum does
    row = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    norm = np.sqrt(np.bincount(row, weights=v * v, minlength=X.shape[0]))
    return sparse.csr_matrix((v / norm[row], X.indices, X.indptr), shape=X.shape)


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


def fit_linear(X, y, loss: str = "logistic", lam: float = 1e-4, *,
               epochs: int = 10, lr: float = 0.1, seed: int = 0) -> LinearModel:
    """Per-sample SGD on (logistic | hinge) loss with an L2 ridge.

    The ridge is applied as a multiplicative shrink 1/(1 + 2*lr*lam) each
    step (proximal form, stable for large lam), tracked through a lazy scale
    factor so updates stay sparse.  The bias is not regularized.
    """
    if loss not in ("logistic", "hinge"):
        raise BaselineError(f"unknown loss {loss!r} (expected logistic or hinge)")
    if lam < 0:
        raise BaselineError(f"ridge strength must be >= 0, got {lam}")
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

def baseline_cv(corpus, algo: str = "LR", *, k: int = 5, seed: int = 0,
                test_corpus=None, tfidf_config: TfidfConfig | None = None,
                lam: float = 1e-4, epochs: int = 10,
                lr: float = 0.1) -> tuple[AlgoSummary, list[GenderPrediction]]:
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
    labels = gender_labels(corpus)
    n = len(corpus)
    authors, eval_rows, eval_labels = list(corpus), np.arange(n), labels
    if test_corpus is not None:
        eval_labels = gender_labels(test_corpus)
        authors += test_corpus
        eval_rows = np.arange(n, len(authors))
    # test authors are counted too, but a fold's kept columns come from its
    # training rows alone
    counts = count_ngrams([user_tokens(u) for u in authors], tfidf_config)
    eval_counts = counts.rows(eval_rows)
    eval_ids = [authors[i].user_id for i in eval_rows]

    fold_accs: list[float] = []
    all_probs = []
    for i, val_idx in enumerate(folds):
        tr = np.setdiff1d(np.arange(n), val_idx)
        train = counts.rows(tr)
        tfidf = fit_tfidf(train)
        fold_seed, = np.random.SeedSequence([seed, i]).generate_state(1)
        lin = fit_linear(transform_docs(tfidf, train), labels[tr], loss, lam,
                         epochs=epochs, lr=lr, seed=int(fold_seed))
        probs = lin.predict_probs(transform_docs(tfidf, eval_counts))
        # in sample, a fold is scored on its own validation rows of probs
        scored = slice(None) if test_corpus is not None else val_idx
        fold_accs.append(_accuracy(probs[scored], eval_labels[scored]))
        all_probs.append(probs)

    voted, preds = voted_predictions(eval_ids, np.stack(all_probs))
    summary = AlgoSummary(tuple(fold_accs), float(np.mean(voted == eval_labels)))
    return summary, preds
