"""TF-IDF arithmetic, SGD linear models, and leakage-free fold protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from genderfuse.baseline import (LinearModel, TfidfConfig, TfidfModel, baseline_cv,
                                 fit_linear, fit_tfidf, load_baselines,
                                 save_baselines, transform_docs,
                                 user_tokens)
from genderfuse.corpus import GENDERS, UserRecord, split_folds
from genderfuse.errors import BaselineError, CheckpointError

UNIGRAMS = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=False)


# ---------------------------------------------------------------------------
# TF-IDF fitting
# ---------------------------------------------------------------------------

def test_idf_everywhere_term_is_one():
    m = fit_tfidf([["red", "cat"], ["red", "dog"]], UNIGRAMS)
    assert m.idf[m.terms["red"]] == pytest.approx(1.0, abs=1e-15)


def test_idf_rare_term_value():
    # N=3, df=1: ln((1+3)/(1+1)) + 1 = ln 2 + 1
    m = fit_tfidf([["a", "b"], ["a"], ["a"]], UNIGRAMS)
    assert m.idf[m.terms["b"]] == pytest.approx(1.6931471805599454, abs=1e-15)


def test_min_df_prunes_singletons():
    m = fit_tfidf([["red", "cat"], ["red", "dog"]],
                  TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=2, sublinear=False))
    assert set(m.terms) == {"red"}


def test_empty_vocabulary_suggests_min_df():
    with pytest.raises(BaselineError, match="min_df"):
        fit_tfidf([["solo"]], TfidfConfig(min_df=2))


def test_fit_needs_documents():
    with pytest.raises(BaselineError, match="at least one"):
        fit_tfidf([], UNIGRAMS)


def test_bigrams_enter_vocabulary():
    docs = [["good", "morning", "all"], ["good", "morning", "folks"]]
    m = fit_tfidf(docs, TfidfConfig(ngram_lo=1, ngram_hi=2, min_df=2,
                                    sublinear=False))
    assert set(m.terms) == {"good", "morning", "good morning"}


def test_config_validation():
    with pytest.raises(BaselineError):
        TfidfConfig(ngram_lo=0)
    with pytest.raises(BaselineError):
        TfidfConfig(ngram_lo=2, ngram_hi=1)
    with pytest.raises(BaselineError):
        TfidfConfig(min_df=0)


def test_model_invariants_enforced():
    with pytest.raises(BaselineError, match="contiguous"):
        TfidfModel(terms={"a": 0, "b": 2}, idf=np.ones(2), config=UNIGRAMS)
    with pytest.raises(BaselineError, match="positive"):
        TfidfModel(terms={"a": 0}, idf=np.array([0.0]), config=UNIGRAMS)
    with pytest.raises(BaselineError, match="idf weights for"):
        TfidfModel(terms={"a": 0}, idf=np.ones(2), config=UNIGRAMS)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_two_doc_vector_matches_manual_arithmetic():
    # d1 = [red, cat], d2 = [red, dog]; columns sort to cat=0, dog=1, red=2.
    # idf: red ln(3/3)+1 = 1, cat ln(3/2)+1 = 1.4054651081081644.
    # d1 raw tf-idf = [1.4054651..., 0, 1], norm 1.7249151196825583.
    m = fit_tfidf([["red", "cat"], ["red", "dog"]], UNIGRAMS)
    assert m.terms == {"cat": 0, "dog": 1, "red": 2}
    row = transform_docs(m, [["red", "cat"]]).toarray()[0]
    np.testing.assert_allclose(
        row, [0.8148024746671689, 0.0, 0.5797386715376657], atol=1e-15)


def test_sublinear_tf_ratio():
    # both terms have idf 1; doubled token gets tf 1 + ln 2
    cfg = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=True)
    m = fit_tfidf([["red", "red", "cat"], ["red", "cat"]], cfg)
    row = transform_docs(m, [["red", "red", "cat"]]).toarray()[0]
    assert row[m.terms["red"]] / row[m.terms["cat"]] \
        == pytest.approx(1.6931471805599454, abs=1e-12)


def test_unknown_terms_give_zero_vector():
    m = fit_tfidf([["red", "cat"], ["red", "dog"]], UNIGRAMS)
    row = transform_docs(m, [["purple", "axolotl"]])
    assert row.nnz == 0


def test_transform_docs_stacks_rows():
    m = fit_tfidf([["red", "cat"], ["red", "dog"]], UNIGRAMS)
    docs = [["red", "cat"], ["dog"], ["nothing", "known"]]
    X = transform_docs(m, docs)
    assert X.shape == (3, 3)
    for i, d in enumerate(docs):
        np.testing.assert_array_equal(X[i].toarray(), transform_docs(m, [d]).toarray())


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
                min_size=1, max_size=6))
def test_rows_are_unit_or_zero(docs):
    m = fit_tfidf([["a", "b", "c"], ["c", "d", "e"], ["a", "e"]], UNIGRAMS)
    X = transform_docs(m, docs)
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
        assert np.array_equal(m.predict(X), y), loss


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


def test_fold_vocabularies_differ_and_do_not_leak(tmp_path):
    corpus = make_corpus()
    cfg = TfidfConfig(ngram_lo=1, ngram_hi=1, min_df=1, sublinear=False)
    path = tmp_path / "lr.gflb"
    baseline_cv(corpus, "LR", k=4, seed=3, tfidf_config=cfg, model_path=path)
    _, pairs = load_baselines(path)
    folds = split_folds(corpus, 4, 3)
    vocab_sets = [set(t.terms) for t, _ in pairs]
    assert any(a != b for a in vocab_sets for b in vocab_sets)
    for i, val_idx in enumerate(folds):
        # a token unique to a held-out user never enters that fold's features
        for j in val_idx:
            unique = f"uniq{corpus[j].user_id}"
            assert unique not in vocab_sets[i], (i, unique)


def test_cv_with_test_corpus():
    corpus = make_corpus(6)
    held_out = make_corpus(2, tag="t")
    summary, preds = baseline_cv(corpus, "LR", k=3, seed=1,
                                 test_corpus=held_out)
    assert [p.user_id for p in preds] == [u.user_id for u in held_out]
    assert len(summary.folds) == 3
    assert 0.0 <= summary.voting <= 1.0


def test_cv_rejects_unlabeled_test_user():
    with pytest.raises(BaselineError, match="ghost"):
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


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _fitted_pair():
    m = fit_tfidf([["red", "cat"], ["red", "dog"], ["cat", "dog"]], UNIGRAMS)
    X = transform_docs(m, [["red", "cat"], ["red", "dog"], ["cat", "dog"]])
    lin = fit_linear(X, np.array([0, 1, 0]), "logistic", seed=5)
    return m, lin


def test_baseline_file_roundtrip(tmp_path):
    pair = _fitted_pair()
    path = tmp_path / "b.gflb"
    save_baselines([pair, pair], path, algo="LR")
    algo, pairs = load_baselines(path)
    assert algo == "LR"
    assert len(pairs) == 2
    tf2, lin2 = pairs[0]
    assert tf2.terms == pair[0].terms
    assert tf2.config == pair[0].config
    np.testing.assert_array_equal(tf2.idf, pair[0].idf)
    np.testing.assert_array_equal(lin2.w, pair[1].w)
    assert lin2.b == pair[1].b
    assert lin2.loss == "logistic"
    assert lin2.lam == pair[1].lam


def test_baseline_file_bad_magic(tmp_path):
    path = tmp_path / "junk.gflb"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_baselines(path)


def test_baseline_file_bad_version(tmp_path):
    pair = _fitted_pair()
    path = tmp_path / "b.gflb"
    save_baselines([pair], path, algo="LR")
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_baselines(path)


def test_baseline_file_truncated(tmp_path):
    pair = _fitted_pair()
    path = tmp_path / "b.gflb"
    save_baselines([pair], path, algo="LR")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated|holds"):
        load_baselines(path)


def test_save_rejects_mismatched_pair(tmp_path):
    m, lin = _fitted_pair()
    bad = LinearModel(w=np.ones(m.n_terms + 2), b=0.0, loss="logistic", lam=0.0)
    with pytest.raises(BaselineError, match="weights for"):
        save_baselines([(m, bad)], tmp_path / "b.gflb", algo="LR")
