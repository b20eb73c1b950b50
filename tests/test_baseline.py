"""TF-IDF arithmetic, SGD linear models, and leakage-free fold protocol."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import genderfuse.baseline as baseline
from genderfuse.baseline import (LinearModel, TfidfConfig, TfidfModel, baseline_cv,
                                 count_ngrams, fit_linear, fit_tfidf, transform_docs,
                                 user_tokens)
from genderfuse.corpus import GENDERS, UserRecord, split_folds
from genderfuse.errors import BaselineError, CorpusError

UNIGRAMS = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=False)


# ---------------------------------------------------------------------------
# string oracle: n-grams joined and counted per document, per call
# ---------------------------------------------------------------------------

def _ngrams(tokens, lo: int, hi: int):
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i:i + n])


def oracle_fit(docs, config: TfidfConfig):
    """``(kept n-grams in string order, idf weights)`` of token lists."""
    df: Counter = Counter()
    for toks in docs:
        df.update(set(_ngrams(toks, config.ngram_lo, config.ngram_hi)))
    kept = sorted(t for t, c in df.items() if c >= config.min_df)
    if not kept:
        raise BaselineError(
            f"no n-grams reach document frequency {config.min_df}; reduce min_df")
    n = len(docs)
    return kept, np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept])


def oracle_transform(kept, idf, config: TfidfConfig, docs) -> sparse.csr_matrix:
    terms = {t: i for i, t in enumerate(kept)}
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for toks in docs:
        counts = Counter(g for g in _ngrams(toks, config.ngram_lo, config.ngram_hi)
                         if g in terms)
        cells = sorted((terms[g], c) for g, c in counts.items())
        row = []
        for col, c in cells:
            tf = 1.0 + math.log(c) if config.sublinear else float(c)
            row.append(tf * idf[col])
        norm = math.sqrt(sum(v * v for v in row))
        if norm > 0:
            row = [v / norm for v in row]
        indices.extend(col for col, _ in cells)
        data.extend(row)
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, len(kept)))


def fit(docs, config=UNIGRAMS) -> TfidfModel:
    return fit_tfidf(count_ngrams(docs, config))


def fit_transform(fit_docs, docs, config=UNIGRAMS):
    """A model fitted on ``fit_docs`` and its rows for ``docs``, from one count matrix."""
    counts = count_ngrams([*fit_docs, *docs], config)
    model = fit_tfidf(counts.rows(range(len(fit_docs))))
    return model, transform_docs(model, counts.rows(range(len(fit_docs), counts.X.shape[0])))


def column(model: TfidfModel, term: str) -> int:
    return list(model.terms).index(term)


def csr_bytes(X) -> tuple:
    return tuple((a.dtype.str, a.tobytes()) for a in (X.indptr, X.indices, X.data)) + (X.shape,)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       docs=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f g"]), max_size=9),
                     min_size=1, max_size=8),
       ngrams=st.sampled_from([(1, 1), (1, 2), (2, 3)]),
       min_df=st.integers(1, 3), sublinear=st.booleans())
def test_count_matrix_matches_string_oracle(data, docs, ngrams, min_df, sublinear):
    config = TfidfConfig(*ngrams, min_df=min_df, sublinear=sublinear)
    # the last document shares no n-gram with any training document
    docs = [*docs, ["zz", "zz", "zz"]]
    train = sorted(data.draw(st.sets(st.integers(0, len(docs) - 2), min_size=1)))
    query = [*data.draw(st.lists(st.integers(0, len(docs) - 1), max_size=6)), len(docs) - 1]
    counts = count_ngrams(docs, config)
    try:
        kept, idf = oracle_fit([docs[i] for i in train], config)
    except BaselineError:
        with pytest.raises(BaselineError, match="min_df"):
            fit_tfidf(counts.rows(train))
        return
    model = fit_tfidf(counts.rows(train))
    assert list(model.terms) == kept
    assert model.idf.tobytes() == idf.tobytes()
    for rows in (train, query):
        assert (csr_bytes(transform_docs(model, counts.rows(rows)))
                == csr_bytes(oracle_transform(kept, idf, config, [docs[i] for i in rows])))


# ---------------------------------------------------------------------------
# TF-IDF fitting
# ---------------------------------------------------------------------------

def test_idf_everywhere_term_is_one():
    m = fit([["red", "cat"], ["red", "dog"]])
    assert m.idf[column(m, "red")] == pytest.approx(1.0, abs=1e-15)


def test_idf_rare_term_value():
    # N=3, df=1: ln((1+3)/(1+1)) + 1 = ln 2 + 1
    m = fit([["a", "b"], ["a"], ["a"]])
    assert m.idf[column(m, "b")] == pytest.approx(1.6931471805599454, abs=1e-15)


def test_idf_is_math_log_to_the_bit():
    # N=20, df=19: on some hosts np.log(21/20) differs from math.log in the last bit
    m = fit([["a", "b"]] * 19 + [["b"]])
    assert m.idf[column(m, "a")] == math.log(21 / 20) + 1.0


def test_min_df_prunes_singletons():
    m = fit([["red", "cat"], ["red", "dog"]],
            TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=2, sublinear=False))
    assert set(m.terms) == {"red"}


def test_empty_vocabulary_suggests_min_df():
    with pytest.raises(BaselineError, match="min_df"):
        fit([["solo"]], TfidfConfig(min_df=2))


def test_fit_needs_documents():
    with pytest.raises(BaselineError, match="at least one"):
        fit([])


def test_bigrams_enter_vocabulary():
    docs = [["good", "morning", "all"], ["good", "morning", "folks"]]
    m = fit(docs, TfidfConfig(ngram_lo=1, ngram_hi=2, min_df=2, sublinear=False))
    assert set(m.terms) == {"good", "morning", "good morning"}


def test_count_matrix_columns_in_string_order():
    counts = count_ngrams([["b", "a"], [], ["a", "b", "a"]],
                          TfidfConfig(ngram_lo=1, ngram_hi=2, min_df=1))
    assert list(counts.grams) == ["a", "a b", "b", "b a"]
    np.testing.assert_array_equal(counts.X.toarray(),
                                  [[1, 0, 1, 1], [0, 0, 0, 0], [2, 1, 1, 1]])


def test_config_validation():
    with pytest.raises(BaselineError):
        TfidfConfig(ngram_lo=0)
    with pytest.raises(BaselineError):
        TfidfConfig(ngram_lo=2, ngram_hi=1)
    with pytest.raises(BaselineError):
        TfidfConfig(min_df=0)


def test_model_invariants_enforced():
    grams = np.array(["a", "b", "c"], dtype=object)
    for cols in ([1, 1], [2, 0], [-1, 0], [1, 3]):
        with pytest.raises(BaselineError, match="increase"):
            TfidfModel(grams=grams, cols=np.array(cols), idf=np.ones(2), config=UNIGRAMS)
    with pytest.raises(BaselineError, match="positive"):
        TfidfModel(grams=grams, cols=np.array([0]), idf=np.array([0.0]), config=UNIGRAMS)
    with pytest.raises(BaselineError, match="idf weights for"):
        TfidfModel(grams=grams, cols=np.array([0]), idf=np.ones(2), config=UNIGRAMS)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_two_doc_vector_matches_manual_arithmetic():
    # d1 = [red, cat], d2 = [red, dog]; columns sort to cat=0, dog=1, red=2.
    # idf: red ln(3/3)+1 = 1, cat ln(3/2)+1 = 1.4054651081081644.
    # d1 raw tf-idf = [1.4054651..., 0, 1], norm 1.7249151196825583.
    m, X = fit_transform([["red", "cat"], ["red", "dog"]], [["red", "cat"]])
    assert list(m.terms) == ["cat", "dog", "red"]
    np.testing.assert_allclose(
        X.toarray()[0], [0.8148024746671689, 0.0, 0.5797386715376657], atol=1e-15)


def test_sublinear_tf_ratio():
    # both terms have idf 1; doubled token gets tf 1 + ln 2
    cfg = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=True)
    m, X = fit_transform([["red", "red", "cat"], ["red", "cat"]],
                         [["red", "red", "cat"]], cfg)
    row = X.toarray()[0]
    assert row[column(m, "red")] / row[column(m, "cat")] \
        == pytest.approx(1.6931471805599454, abs=1e-12)


def test_unknown_terms_give_zero_vector():
    _, X = fit_transform([["red", "cat"], ["red", "dog"]], [["purple", "axolotl"]])
    assert X.shape == (1, 3) and X.nnz == 0


def test_transform_docs_stacks_rows():
    docs = [["red", "cat"], ["dog"], ["nothing", "known"]]
    counts = count_ngrams([["red", "cat"], ["red", "dog"], *docs], UNIGRAMS)
    m = fit_tfidf(counts.rows([0, 1]))
    X = transform_docs(m, counts.rows([2, 3, 4]))
    assert X.shape == (3, 3)
    for i in range(len(docs)):
        np.testing.assert_array_equal(X[i].toarray(),
                                      transform_docs(m, counts.rows([2 + i])).toarray())


def test_transform_refuses_counts_of_other_documents():
    m = fit([["red", "cat"], ["red", "dog"]])
    with pytest.raises(BaselineError, match="different count matrices"):
        transform_docs(m, count_ngrams([["red", "cat"], ["red", "dog"]], UNIGRAMS))


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
                min_size=1, max_size=6))
def test_rows_are_unit_or_zero(docs):
    _, X = fit_transform([["a", "b", "c"], ["c", "d", "e"], ["a", "e"]], docs)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    for v in norms:
        assert v == 0.0 or abs(v - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# linear models
# ---------------------------------------------------------------------------

def test_separable_points_reach_full_accuracy():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.1, 0.9]])
    y = np.array([0, 1, 0, 1])
    for loss in ("logistic", "hinge"):
        m = fit_linear(X, y, loss, lam=0.0, epochs=50, seed=0)
        assert np.array_equal(m.decision(X) > 0, y), loss


def test_huge_ridge_shrinks_weights():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = (X[:, 0] > 0).astype(int)
    for loss in ("logistic", "hinge"):
        m = fit_linear(X, y, loss, lam=1e3, epochs=5, seed=2)
        assert np.linalg.norm(m.w) < 0.1, loss


def test_zero_input_zero_bias_is_half():
    m = LinearModel(w=np.zeros(3), b=0.0, loss="logistic", lam=0.0)
    probs = m.predict_probs(sparse.csr_matrix((1, 3)))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])


def test_probabilities_proper():
    rng = np.random.default_rng(3)
    m = LinearModel(w=rng.normal(size=4), b=0.3, loss="logistic", lam=0.0)
    probs = m.predict_probs(rng.normal(size=(20, 4)))
    assert np.all(probs > 0) and np.all(probs < 1)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_hinge_idle_beyond_margin():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    m = fit_linear(X, y, "hinge", lam=0.0, epochs=60, seed=0)
    margins = (2.0 * y - 1.0) * m.decision(X)
    assert np.all(margins >= 1.0)
    # once every margin clears 1 the subgradient is zero: extra epochs no-op
    m2 = fit_linear(X, y, "hinge", lam=0.0, epochs=75, seed=0)
    np.testing.assert_array_equal(m.w, m2.w)
    assert m.b == m2.b


def test_single_class_rejected():
    with pytest.raises(BaselineError, match="single|only class"):
        fit_linear(np.eye(3), np.zeros(3, dtype=int), "logistic")


@pytest.mark.parametrize("lam", [-5.0, -1.0])
def test_negative_ridge_rejected_before_any_step(monkeypatch, lam):
    # -5 with lr=0.1 would divide by zero in the shrink factor; -1 would
    # train every step before the model refused it
    def no_step(z):
        raise AssertionError("an SGD step ran")

    monkeypatch.setattr(baseline, "expit", no_step)
    with pytest.raises(BaselineError, match="ridge strength"):
        fit_linear(np.eye(2), np.array([0, 1]), "logistic", lam=lam, lr=0.1)


def test_unknown_loss_rejected():
    with pytest.raises(BaselineError, match="unknown loss"):
        fit_linear(np.eye(2), np.array([0, 1]), "perceptron")
    with pytest.raises(BaselineError):
        LinearModel(w=np.ones(2), b=0.0, loss="huber", lam=0.0)


def test_fit_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    if len(set(y)) < 2:
        y[0] = 1 - y[0]
    a = fit_linear(X, y, "logistic", seed=9)
    b = fit_linear(X, y, "logistic", seed=9)
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------

FEMALE_WORDS = ["rose", "tea", "garden", "lovely", "ballet", "poem"]
MALE_WORDS = ["engine", "truck", "gear", "rugby", "circuit", "steel"]


def make_corpus(n_per_gender=8, tag=""):
    # user ids stay digit-free so per-user filler tokens survive
    # normalization instead of collapsing to <number>
    users = []
    for gender, words in (("female", FEMALE_WORDS), ("male", MALE_WORDS)):
        for i in range(n_per_gender):
            text = " ".join(words[(i + j) % len(words)] for j in range(4))
            uid = f"{tag}{gender[0]}{chr(97 + i)}"
            users.append(UserRecord(uid, gender, [text, f"uniq{uid} hello"]))
    return users


def test_separable_corpus_votes_correctly():
    corpus = make_corpus()
    for algo in ("LR", "SVM"):
        summary, preds = baseline_cv(corpus, algo, k=4, seed=3)
        assert len(summary.folds) == 4
        assert summary.voting >= 0.9, algo
        assert [p.user_id for p in preds] == [u.user_id for u in corpus]


def fold_models(monkeypatch) -> list:
    """Every model ``baseline_cv`` fits from now on, in fold order."""
    models = []

    def recording(counts):
        models.append(fit_tfidf(counts))
        return models[-1]

    monkeypatch.setattr(baseline, "fit_tfidf", recording)
    return models


def test_fold_vocabularies_differ_and_do_not_leak(monkeypatch):
    corpus = make_corpus()
    held_out = make_corpus(2, tag="t")
    cfg = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=False)
    models = fold_models(monkeypatch)
    baseline_cv(corpus, "LR", k=4, seed=3, tfidf_config=cfg, test_corpus=held_out)
    folds = split_folds(corpus, 4, 3)
    assert len(models) == 4
    vocab_sets = [set(m.terms) for m in models]
    assert any(a != b for a in vocab_sets for b in vocab_sets)
    for i, val_idx in enumerate(folds):
        # each fold model is the oracle fitted on that fold's training split
        kept, idf = oracle_fit([user_tokens(u) for j, u in enumerate(corpus)
                                if j not in val_idx], cfg)
        assert list(models[i].terms) == kept
        assert models[i].idf.tobytes() == idf.tobytes()
        # a token unique to a held-out or test user never enters its features
        for uid in [corpus[j].user_id for j in val_idx] + [u.user_id for u in held_out]:
            assert f"uniq{uid}" not in vocab_sets[i], (i, uid)


def test_cv_with_test_corpus():
    corpus = make_corpus(6)
    held_out = make_corpus(2, tag="t")
    summary, preds = baseline_cv(corpus, "LR", k=3, seed=1,
                                 test_corpus=held_out)
    assert [p.user_id for p in preds] == [u.user_id for u in held_out]
    assert len(summary.folds) == 3
    assert 0.0 <= summary.voting <= 1.0


def test_cv_rejects_unlabeled_test_user():
    with pytest.raises(CorpusError, match="ghost"):
        baseline_cv(make_corpus(4), "LR", k=2, seed=0,
                    test_corpus=[UserRecord("ghost", None, ["hi there"])])


def test_cv_unknown_algorithm():
    with pytest.raises(BaselineError, match="unknown algorithm"):
        baseline_cv(make_corpus(4), "XGB", k=2, seed=0)


def test_cv_deterministic():
    corpus = make_corpus(5)
    a, _ = baseline_cv(corpus, "SVM", k=3, seed=11)
    b, _ = baseline_cv(corpus, "SVM", k=3, seed=11)
    assert a.folds == b.folds
    assert a.voting == b.voting


def test_user_tokens_normalizes():
    u = UserRecord("x", "female", ["@bob hi http://a.example see #CoolStuff"])
    toks = user_tokens(u)
    assert toks[0] == "<user>"
    assert "<url>" in toks
    assert "<hashtag>" in toks
