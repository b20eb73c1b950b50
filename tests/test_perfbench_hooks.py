"""The benchmark's tracer finds every genderfuse name it wraps.

A rename of a traced function would otherwise zero its per-layer metrics
without failing anything, and a change of the document or batch shape
would otherwise break the counters of a traced run.  Likewise a baseline
that stopped calling its traced fit and transform would zero their metrics.
"""

from pathlib import Path

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
        assert missing == []
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
    for test, transforms in ((users(2, "t"), 2 * k), (None, 3 * k)):
        tr = tracing.Tracer()
        restore, _ = tracing.install(tr)
        try:
            baseline.baseline_cv(users(6, ""), "LR", k=k, seed=0, test_corpus=test)
        finally:
            restore()
        assert tr.counts["baseline.fit_tfidf.calls"] == k
        assert tr.counts["baseline.transform_docs.calls"] == transforms
        assert tr.counts["baseline.X_nnz"] > 0
