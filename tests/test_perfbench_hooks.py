"""The benchmark's tracer finds every genderfuse name it wraps.

A rename of a traced function would otherwise zero its per-layer metrics
without failing anything, and a change of the document or batch shape
would otherwise break the counters of a traced run.  Likewise a baseline
that stopped calling its traced fit and transform would zero their metrics,
and a conv whose filters moved from the second argument would lose its
per-layer label.
"""

from pathlib import Path

import numpy as np

import genderfuse.cli  # noqa: F401  (imports every module the tracer patches)
from genderfuse import baseline, model, tensor, textpipe
from genderfuse.corpus import UserRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_without_missing_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (model.make_batch, model._char_summaries, tensor.Tensor.backward)
    restore, missing = tracing.install(tracing.Tracer())
    try:
        # conv1d pools over time, so the tracer's separate pooling op is gone
        assert missing == ["tensor.max_over_time"]
        assert model.make_batch is not originals[0]
    finally:
        restore()
    assert (model.make_batch, model._char_summaries, tensor.Tensor.backward) == originals


def test_traced_counters_see_docs_and_batches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    user = UserRecord("a", "female", ["the cat sat on the mat", "hello there"])
    vocab = textpipe.build_vocab([user], min_word_freq=1)
    tr = tracing.Tracer()
    restore, _ = tracing.install(tr)
    try:
        doc = textpipe.build_doc(user, vocab)
        model.make_batch([doc])
    finally:
        restore()
    assert tr.counts["textpipe.build_doc.tokens"] == len(doc.tokens) > 0
    assert tr.counts["model.make_batch.real_tokens"] > 0
    assert tr.counts["model.char_rows.unique"] > 0


def test_traced_baseline_counts_fits_and_transforms(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    words = {"female": ["rose", "tea", "garden", "poem"],
             "male": ["gear", "truck", "steel", "rugby"]}

    def users(n, tag):
        return [UserRecord(f"{tag}{g[0]}{chr(97 + i)}", g,
                           [" ".join(w[(i + j) % 4] for j in range(3))])
                for g, w in words.items() for i in range(n)]

    k = 3
    for test, transforms in ((users(2, "t"), 2 * k), (None, 2 * k)):
        tr = tracing.Tracer()
        restore, _ = tracing.install(tr)
        try:
            baseline.baseline_cv(users(6, ""), "LR", k=k, seed=0, test_corpus=test)
        finally:
            restore()
        assert tr.counts["baseline.fit_tfidf.calls"] == k
        assert tr.counts["baseline.transform_docs.calls"] == transforms
        assert tr.counts["baseline.X_nnz"] > 0


def test_traced_forward_labels_every_conv(monkeypatch):
    # the per-layer conv metrics read the filter width from conv1d's args[1]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    users = [UserRecord("a", "female", ["the cat sat on the mat"]),
             UserRecord("b", "male", ["dogs run fast", "hello there"])]
    vocab = textpipe.build_vocab(users, min_word_freq=1)
    docs = [textpipe.build_doc(u, vocab) for u in users]
    arch = model.ArchConfig(word_dim=4, char_dim=3, pos_dim=2, char_filters=2,
                            word_filters_per_width=2, dense_units=2, dropout=0.0)
    params = model.init_params(arch, vocab, seed=0)
    runs = {
        "train_step": lambda: model.train_step(params, model.make_batch(docs, [0, 1]),
                                               tensor.Adam(params.trainable()),
                                               np.random.default_rng(0)),
        "predict_probs": lambda: model.predict_probs([params], docs),
    }
    for name, run in runs.items():
        tr = tracing.Tracer()
        restore, _ = tracing.install(tr)
        try:
            run()
        finally:
            restore()
        for label in ("char", *(f"word{w}" for w in arch.word_filter_widths)):
            assert tr.counts[f"tensor.conv1d.{label}.calls"] > 0, (name, label)
