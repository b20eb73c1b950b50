"""Cross-validation protocol, voting, and report rendering."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genderfuse.corpus import GENDERS, GenderPrediction, UserRecord, gender_index, split_folds
from genderfuse.errors import CheckpointError, CorpusError, ShapeError, TrainingError
from genderfuse.model import ArchConfig, init_params, save_params
from genderfuse.textpipe import build_doc, build_vocab
from genderfuse.train import (AlgoSummary, EnsembleReport, FoldResult, _run_fold,
                              coverage, coverage_summary, evaluate, predict_ensemble,
                              train_cv, vote_probs)

FEMALE_WORDS = ["rose", "tea", "garden", "lovely", "ballet", "poem"]
MALE_WORDS = ["engine", "truck", "gear", "rugby", "circuit", "steel"]


def tiny_arch(**kw):
    base = dict(variant="cnn_char_pos", word_dim=8, char_dim=4, pos_dim=3,
                char_filters=4, char_filter_width=3, word_filter_widths=(1, 2, 3),
                word_filters_per_width=4, dense_units=8, dropout=0.0, batch_size=4)
    base.update(kw)
    return ArchConfig(**base)


def make_corpus(n_per_gender=6):
    users = []
    for gender, words in (("female", FEMALE_WORDS), ("male", MALE_WORDS)):
        for i in range(n_per_gender):
            text = " ".join(words[(i + j) % len(words)] for j in range(4))
            users.append(UserRecord(f"{gender[0]}{i}", gender, [text, "hello world"]))
    return users


@pytest.fixture(scope="module")
def cv_run(tmp_path_factory):
    corpus = make_corpus()
    workdir = tmp_path_factory.mktemp("cv")
    results = train_cv(corpus, tiny_arch(), k=3, epochs=2, seed=7,
                       workdir=workdir, min_word_freq=1).folds
    return corpus, results, workdir


# ---------------------------------------------------------------------------
# FoldResult / AlgoSummary / EnsembleReport
# ---------------------------------------------------------------------------

def test_fold_result_best_epoch_is_first_argmax():
    FoldResult(0, "ck", [0.5, 0.7, 0.7], 2)
    with pytest.raises(TrainingError, match="peaks first at epoch 2"):
        FoldResult(0, "ck", [0.5, 0.7, 0.7], 3)


def test_fold_result_empty_trace_means_no_best():
    FoldResult(1, None, [], 0, error="boom")
    with pytest.raises(TrainingError, match="without a trace"):
        FoldResult(1, None, [], 2, error="boom")


def test_fold_result_accuracy_range():
    with pytest.raises(TrainingError, match="outside"):
        FoldResult(0, "ck", [1.2], 1)


def test_fold_result_needs_checkpoint_unless_failed():
    with pytest.raises(TrainingError, match="checkpoint"):
        FoldResult(0, None, [0.5], 1)


def test_fold_result_json_roundtrip():
    fr = FoldResult(2, "f2.gfus", [0.4, 0.9], 2, test_accuracy=0.8)
    assert FoldResult.from_json(fr.to_json()) == fr


def test_algo_summary_constant_folds():
    s = AlgoSummary((0.8, 0.8, 0.8, 0.8, 0.8), 0.81)
    assert s.mean == pytest.approx(0.8)
    assert s.sd == 0.0


def test_algo_summary_population_sd():
    # two-point population SD is half the spread
    s = AlgoSummary((0.6, 0.8), 0.7)
    assert s.mean == pytest.approx(0.7)
    assert s.sd == pytest.approx(0.1)


def test_algo_summary_rejects_bad_accuracy():
    with pytest.raises(TrainingError):
        AlgoSummary((0.5, 1.5), 0.5)
    with pytest.raises(TrainingError):
        AlgoSummary((), 0.5)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                          allow_subnormal=False),
                min_size=1, max_size=8),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_algo_summary_mean_bounds(folds, voting):
    s = AlgoSummary(tuple(folds), voting)
    assert min(folds) - 1e-12 <= s.mean <= max(folds) + 1e-12
    assert s.sd >= 0.0


def test_report_table_canonical_columns():
    rep = EnsembleReport()
    rep.add("CNN_char_pos", [0.81, 0.82, 0.80, 0.81, 0.82], 0.8237)
    text = rep.table()
    lines = text.splitlines()
    assert lines[0].split() == ["SVM", "RNN", "CNN", "CNN_char", "CNN_char_pos"]
    assert lines[1].startswith("Mean")
    assert lines[2].startswith("SD")
    assert lines[3].startswith("Voting")
    assert lines[3].count("n/a") == 4
    assert "0.8237" in lines[3]


def test_report_extra_algorithm_appended():
    rep = EnsembleReport()
    rep.add("LR", [0.7, 0.7], 0.7)
    assert rep.columns()[-1] == "LR"
    assert "0.7000" in rep.table()


def test_report_json_mirror():
    rep = EnsembleReport()
    rep.add("CNN", [0.8, 0.8], 0.81)
    obj = rep.to_json()
    assert obj == {"CNN": {"mean": pytest.approx(0.8), "sd": 0.0,
                           "voting": 0.81, "folds": [0.8, 0.8]}}


# ---------------------------------------------------------------------------
# voting arithmetic
# ---------------------------------------------------------------------------

def test_vote_majority_three_of_five():
    # fold votes M, M, F, M, F
    probs = np.array([[[0.4, 0.6]], [[0.45, 0.55]], [[0.8, 0.2]],
                      [[0.3, 0.7]], [[0.6, 0.4]]])
    voted, fold_probs = vote_probs(probs)
    assert voted.tolist() == [1]
    np.testing.assert_allclose(fold_probs[:, 0], [0.6, 0.55, 0.2, 0.7, 0.4])


def test_vote_tie_breaks_by_summed_probability():
    # one confident female vote vs one lukewarm male vote
    probs = np.array([[[0.9, 0.1]], [[0.4, 0.6]]])
    voted, fold_probs = vote_probs(probs)
    assert voted.tolist() == [0]
    np.testing.assert_allclose(fold_probs[:, 0], [0.9, 0.4])


def test_vote_rejects_bad_shape():
    with pytest.raises(ShapeError, match="probabilities"):
        vote_probs(np.zeros((3, 4)))


def test_vote_batch_of_users():
    rng = np.random.default_rng(0)
    raw = rng.random((5, 11, 2))
    probs = raw / raw.sum(axis=2, keepdims=True)
    voted, fold_probs = vote_probs(probs)
    assert voted.shape == (11,)
    for i in range(11):
        counts = np.bincount(np.argmax(probs[:, i, :], axis=1), minlength=2)
        assert voted[i] == int(np.argmax(counts))
        np.testing.assert_array_equal(fold_probs[:, i], probs[:, i, voted[i]])


# ---------------------------------------------------------------------------
# train_cv
# ---------------------------------------------------------------------------

def test_train_cv_shape_of_results(cv_run):
    _, results, workdir = cv_run
    assert len(results) == 3
    for i, fr in enumerate(results):
        assert fr.fold == i
        assert fr.error is None
        assert Path(fr.checkpoint).exists()
        assert len(fr.val_trace) == 2
        assert fr.best_epoch == int(np.argmax(fr.val_trace)) + 1
    assert (workdir / "vocab.json").exists()


def test_train_cv_epochs_one_best_epoch_one(tmp_path):
    results = train_cv(make_corpus(3), tiny_arch(), k=2, epochs=1, seed=1,
                       workdir=tmp_path, min_word_freq=1).folds
    assert [fr.best_epoch for fr in results] == [1, 1]


def test_train_cv_deterministic(cv_run, tmp_path):
    corpus, results, _ = cv_run
    again = train_cv(corpus, tiny_arch(), k=3, epochs=2, seed=7,
                     workdir=tmp_path, min_word_freq=1).folds
    assert [fr.val_trace for fr in again] == [fr.val_trace for fr in results]
    assert [fr.best_epoch for fr in again] == [fr.best_epoch for fr in results]


def test_train_cv_fold_order_independent(cv_run, tmp_path):
    # fold 2 run in isolation reproduces the full run's fold 2 exactly
    corpus, results, _ = cv_run
    folds = split_folds(corpus, 3, 7)
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    labels = [gender_index(u.gender) for u in corpus]
    tr = sorted(set(range(len(corpus))) - set(folds[2]))
    fr = _run_fold(2, [docs[j] for j in tr], [labels[j] for j in tr],
                   [docs[j] for j in folds[2]], [labels[j] for j in folds[2]],
                   vocab, tiny_arch(), 2, 7, str(tmp_path / "solo.gfus"))
    assert fr.val_trace == results[2].val_trace
    assert fr.best_epoch == results[2].best_epoch


def test_train_cv_resume_skips_finished_folds(cv_run, monkeypatch):
    corpus, results, workdir = cv_run

    def boom(*args, **kw):
        raise AssertionError("fold retrained despite resume metadata")

    monkeypatch.setattr("genderfuse.train._run_fold", boom)
    again = train_cv(corpus, tiny_arch(), k=3, epochs=2, seed=7,
                     workdir=workdir, min_word_freq=1).folds
    assert [fr.val_trace for fr in again] == [fr.val_trace for fr in results]


def test_train_cv_resume_rejects_changed_settings(cv_run):
    corpus, _, workdir = cv_run
    with pytest.raises(TrainingError, match="fresh work directory"):
        train_cv(corpus, tiny_arch(), k=3, epochs=5, seed=7,
                 workdir=workdir, min_word_freq=1)


def test_train_cv_resume_rejects_changed_fold_count(tmp_path):
    # fold i of a 2-fold run was trained on users a 3-fold run validates on
    corpus = make_corpus(3)
    train_cv(corpus, tiny_arch(), k=2, epochs=1, seed=3, workdir=tmp_path, min_word_freq=1)
    with pytest.raises(TrainingError, match=r"differs in k\b.*fresh work directory"):
        train_cv(corpus, tiny_arch(), k=3, epochs=1, seed=3, workdir=tmp_path,
                 min_word_freq=1)


def test_train_cv_resume_rejects_changed_architecture(tmp_path):
    corpus = make_corpus(3)
    train_cv(corpus, tiny_arch(), k=2, epochs=1, seed=3, workdir=tmp_path, min_word_freq=1)
    with pytest.raises(TrainingError, match="differs in arch"):
        train_cv(corpus, tiny_arch(variant="cnn", word_filters_per_width=6), k=2,
                 epochs=1, seed=3, workdir=tmp_path, min_word_freq=1)


def test_train_cv_rejects_vocab_mismatch(cv_run):
    _, _, workdir = cv_run
    other = [UserRecord(f"u{i}", GENDERS[i % 2], ["totally different words here"])
             for i in range(4)]
    with pytest.raises(TrainingError, match="vocabulary"):
        train_cv(other, tiny_arch(), k=2, epochs=1, seed=7,
                 workdir=workdir, min_word_freq=1)


def test_train_cv_parallel_folds_match_serial(cv_run, tmp_path):
    corpus, results, _ = cv_run
    par = train_cv(corpus, tiny_arch(), k=3, epochs=2, seed=7,
                   workdir=tmp_path, min_word_freq=1, jobs=2).folds
    assert [fr.val_trace for fr in par] == [fr.val_trace for fr in results]


def test_train_cv_captures_fold_failures(tmp_path, monkeypatch):
    def boom(*args, **kw):
        raise TrainingError("synthetic divergence")

    monkeypatch.setattr("genderfuse.train.train_step", boom)
    results = train_cv(make_corpus(3), tiny_arch(), k=2, epochs=1, seed=3,
                       workdir=tmp_path, min_word_freq=1).folds
    assert all(fr.error == "synthetic divergence" for fr in results)
    assert all(fr.checkpoint is None for fr in results)
    # failed folds leave no resume metadata, so a rerun retries them
    assert not list(tmp_path.glob("fold*.json"))


def test_train_cv_scores_finished_folds_when_one_fails(tmp_path, monkeypatch):
    corpus, work = make_corpus(3), tmp_path / "w"

    def run():
        return train_cv(corpus, tiny_arch(), k=3, epochs=1, seed=5, workdir=work,
                        min_word_freq=1, test_corpus=corpus)

    whole = run()
    assert whole.summary.folds == tuple(fr.test_accuracy for fr in whole.folds)
    written = {p.name: p.read_bytes() for p in work.glob("fold*.json")}
    shutil.rmtree(work)
    import genderfuse.train as train_mod
    real = train_mod._run_fold

    def fail_fold_1(fold, *args):
        if fold == 1:
            return FoldResult(fold=1, checkpoint=None, val_trace=[], best_epoch=0,
                              error="synthetic divergence")
        return real(fold, *args)

    monkeypatch.setattr("genderfuse.train._run_fold", fail_fold_1)
    partial = run()
    assert partial.summary is None and partial.preds is None
    assert [fr.test_accuracy for fr in partial.folds] == \
        [whole.folds[0].test_accuracy, None, whole.folds[2].test_accuracy]
    # the finished folds' metadata carries their test accuracy, as in a whole run
    assert {p.name: p.read_bytes() for p in work.glob("fold*.json")} == \
        {n: b for n, b in written.items() if n != "fold1.json"}


def test_train_cv_scores_test_corpus(tmp_path):
    corpus = make_corpus(3)
    results = train_cv(corpus, tiny_arch(), k=2, epochs=1, seed=5,
                       workdir=tmp_path, min_word_freq=1, test_corpus=corpus).folds
    for fr in results:
        assert fr.test_accuracy is not None
        assert 0.0 <= fr.test_accuracy <= 1.0


def test_train_cv_rejects_unlabeled_test_user(tmp_path):
    bad = [UserRecord("ghost", None, ["some words"])]
    with pytest.raises(CorpusError, match="ghost"):
        train_cv(make_corpus(3), tiny_arch(), k=2, epochs=1, seed=5,
                 workdir=tmp_path, min_word_freq=1, test_corpus=bad)


def test_train_cv_full_scale_fold_arithmetic():
    # 3000 users under 5 folds: train on 2400, validate on 600, per fold
    corpus = [UserRecord(f"u{i}", GENDERS[i % 2], ["hi"]) for i in range(3000)]
    folds = split_folds(corpus, 5, 0)
    assert [len(f) for f in folds] == [600] * 5
    for i in range(5):
        assert len(corpus) - len(folds[i]) == 2400


def test_run_fold_drops_singleton_batch(tmp_path, monkeypatch):
    corpus = make_corpus(3)
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    labels = [gender_index(u.gender) for u in corpus]
    calls = []
    import genderfuse.train as train_mod
    real = train_mod.train_step

    def counting(params, batch, opt, rng):
        calls.append(batch.size)
        return real(params, batch, opt, rng)

    monkeypatch.setattr("genderfuse.train.train_step", counting)
    # 5 training docs with batch 4: the trailing singleton is skipped
    _run_fold(0, docs[:5], labels[:5], docs[5:], labels[5:],
              vocab, tiny_arch(), 1, 0, str(tmp_path / "f.gfus"))
    assert calls == [4]


# ---------------------------------------------------------------------------
# ensembling
# ---------------------------------------------------------------------------

def test_identical_members_equal_single_model(tmp_path):
    corpus = make_corpus(2)
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    p = init_params(tiny_arch(), vocab, seed=9)
    path = tmp_path / "m.gfus"
    save_params(p, path)
    preds = predict_ensemble([path] * 5, docs)
    from genderfuse.model import predict_probs
    solo = predict_probs([p], docs)[0]
    for i, pred in enumerate(preds):
        want = GENDERS[int(np.argmax(solo[i]))]
        assert pred.voted_gender == want
        assert len(pred.fold_probs) == 5
        assert len(set(pred.fold_probs)) == 1
        assert pred.fold_probs[0] == pytest.approx(solo[i].max(), abs=1e-7)


def test_ensemble_rejects_foreign_vocab(cv_run, tmp_path):
    corpus, results, _ = cv_run
    other_corpus = [UserRecord(f"x{i}", GENDERS[i % 2], ["completely other tokens"])
                    for i in range(4)]
    other_vocab = build_vocab(other_corpus, min_word_freq=1)
    stranger = init_params(tiny_arch(), other_vocab, seed=0)
    path = tmp_path / "stranger.gfus"
    save_params(stranger, path)
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    with pytest.raises(CheckpointError, match="fingerprint"):
        predict_ensemble([results[0].checkpoint, path], docs)


def test_ensemble_rejects_arch_mismatch(cv_run, tmp_path):
    corpus, results, _ = cv_run
    vocab = build_vocab(corpus, min_word_freq=1)
    odd = init_params(tiny_arch(dense_units=16), vocab, seed=0)
    path = tmp_path / "odd.gfus"
    save_params(odd, path)
    docs = [build_doc(u, vocab) for u in corpus]
    with pytest.raises(CheckpointError, match="architecture"):
        predict_ensemble([results[0].checkpoint, path], docs)


def test_ensemble_needs_members():
    with pytest.raises(CheckpointError, match="at least one"):
        predict_ensemble([], [])


def test_cv_checkpoints_ensemble_end_to_end(cv_run):
    corpus, results, _ = cv_run
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    preds = predict_ensemble([fr.checkpoint for fr in results], docs)
    assert [p.user_id for p in preds] == [u.user_id for u in corpus]
    acc = evaluate(preds, corpus)
    assert 0.0 <= acc <= 1.0


# ---------------------------------------------------------------------------
# evaluate / coverage
# ---------------------------------------------------------------------------

def _pred(uid, gender, probs):
    return GenderPrediction.from_fold_probs(uid, gender, probs)


def _users(**genders):
    return [UserRecord(uid, g, ["hi"]) for uid, g in genders.items()]


def test_evaluate_all_correct():
    preds = [_pred("a", "female", [0.9]), _pred("b", "male", [0.8])]
    assert evaluate(preds, _users(a="female", b="male")) == 1.0


def test_evaluate_half_correct():
    preds = [_pred("a", "female", [0.9]), _pred("b", "male", [0.8])]
    assert evaluate(preds, _users(a="female", b="female")) == 0.5


def test_evaluate_accepts_user_records():
    preds = [_pred("a", "female", [0.9])]
    truth = [UserRecord("a", "female", ["hi"])]
    assert evaluate(preds, truth) == 1.0


def test_evaluate_missing_truth_names_user():
    preds = [_pred("nobody", "female", [0.9])]
    with pytest.raises(TrainingError, match="nobody"):
        evaluate(preds, [])


def test_evaluate_empty_preds():
    with pytest.raises(TrainingError, match="empty"):
        evaluate([], [])


def test_coverage_strict_threshold():
    preds = [_pred("a", "female", [0.9]), _pred("b", "male", [0.7])]
    assert coverage(preds) == 0.5
    boundary = [_pred("c", "female", [0.80])]
    assert coverage(boundary) == 0.0


def test_coverage_summary_format():
    preds = [_pred("a", "female", [0.9]), _pred("b", "male", [0.9]),
             _pred("c", "male", [0.5])]
    assert coverage_summary(preds) == "2 (66.67%)"
    assert coverage_summary(preds[:1]) == "1 (100.00%)"


def test_coverage_empty():
    with pytest.raises(TrainingError):
        coverage([])
