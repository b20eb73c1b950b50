import string
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderfuse.corpus import UserRecord, gender_index
from genderfuse.errors import CheckpointError, ConfigError, ShapeError, TrainingError
from genderfuse.model import (
    CHECKPOINT_VERSION,
    ArchConfig,
    Batch,
    forward,
    init_params,
    load_params,
    make_batch,
    predict_probs,
    read_embeddings,
    save_params,
    train_step,
)
from genderfuse.tensor import (Adam, Tensor, _conv_same, add, conv1d, embedding_lookup,
                               grad_check, l2_penalty, softmax_xent)
from genderfuse.textpipe import (MAX_DOC_TOKENS, MAX_TOKEN_CHARS, UNK_ID, build_doc,
                                 build_vocab, pos_tag, tokenize_tweets, user_tokens)


def tiny_arch(**kw):
    base = dict(variant="cnn_char_pos", word_dim=8, char_dim=4, pos_dim=3,
                char_filters=4, char_filter_width=3, word_filter_widths=(1, 2, 3),
                word_filters_per_width=4, dense_units=8, dropout=0.0, batch_size=4)
    base.update(kw)
    return ArchConfig(**base)


def tiny_corpus():
    tweets = {
        "u1": ["the cat sat on the mat", "happy days are here"],
        "u2": ["dogs run fast in the park", "rain again today"],
        "u3": ["coffee first then work", "the cat naps a lot"],
        "u4": ["long walks by the sea", "reading a good book"],
    }
    genders = {"u1": "female", "u2": "male", "u3": "female", "u4": "male"}
    return [UserRecord(user_id=u, gender=genders[u], tweets=tw) for u, tw in tweets.items()]


@pytest.fixture(scope="module")
def setup():
    corpus = tiny_corpus()
    vocab = build_vocab(map(user_tokens, corpus), min_word_freq=1)
    docs = [build_doc(u.user_id, user_tokens(u), vocab) for u in corpus]
    labels = [gender_index(u.gender) for u in corpus]
    return corpus, vocab, docs, labels


# ---------------------------------------------------------------------------
# ArchConfig
# ---------------------------------------------------------------------------

def test_arch_defaults_match_reference_operating_point():
    a = ArchConfig()
    assert a.variant == "cnn_char_pos"
    assert (a.word_dim, a.char_dim, a.pos_dim) == (200, 50, 10)
    assert (a.char_filters, a.char_filter_width) == (50, 3)
    assert a.word_filter_widths == (1, 2, 3)
    assert a.word_filters_per_width == 2048
    assert (a.dropout, a.l2, a.lr, a.batch_size) == (0.2, 1e-5, 0.001, 64)
    assert a.fused_dim == 260
    assert a.pooled_dim == 3 * 2048


def test_arch_fused_dim_by_variant():
    assert ArchConfig(variant="cnn").fused_dim == 200
    assert ArchConfig(variant="cnn_char").fused_dim == 250
    assert ArchConfig(variant="cnn_char_pos").fused_dim == 260


def test_arch_validation():
    with pytest.raises(ConfigError, match="variant"):
        ArchConfig(variant="rnn")
    with pytest.raises(ConfigError, match="dropout"):
        ArchConfig(dropout=1.0)
    with pytest.raises(ConfigError, match="ascending"):
        ArchConfig(word_filter_widths=(3, 1))
    # a repeated width would give both conv layers one word_conv_w2
    with pytest.raises(ConfigError, match=r"word_filter_widths must be strictly ascending"):
        ArchConfig(word_filter_widths=(2, 2))
    with pytest.raises(ConfigError, match="positive"):
        ArchConfig(word_dim=0)


def test_arch_json_roundtrip():
    a = tiny_arch(variant="cnn_char")
    assert ArchConfig.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_pad_rows_zero_and_bounds(setup):
    _, vocab, _, _ = setup
    p = init_params(tiny_arch(), vocab, seed=3)
    for name in ("word_emb", "char_emb", "pos_emb"):
        assert np.all(p.tensors[name].data[0] == 0)
    for name, t in p.tensors.items():
        if name == "bn_gamma":  # initialized to ones
            continue
        assert np.all(np.abs(t.data) <= 0.05001), name
    assert np.all(p.tensors["bn_gamma"].data == 1)
    assert np.all(p.tensors["bn_beta"].data == 0)


def test_init_copies_pretrained_rows(setup):
    _, vocab, _, _ = setup
    vec = np.arange(8, dtype=np.float64) / 10
    p = init_params(tiny_arch(), vocab, pretrained={"the": vec}, seed=0)
    np.testing.assert_allclose(p.tensors["word_emb"].data[vocab.words["the"]],
                               vec.astype(np.float32))


def test_init_pretrained_dim_mismatch(setup):
    _, vocab, _, _ = setup
    with pytest.raises(ShapeError, match="dimension 3"):
        init_params(tiny_arch(), vocab, pretrained={"the": np.zeros(3)}, seed=0)


def test_init_deterministic(setup):
    _, vocab, _, _ = setup
    a = init_params(tiny_arch(), vocab, seed=11)
    b = init_params(tiny_arch(), vocab, seed=11)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)


def test_read_embeddings(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("the 0.1 0.2\ncat 0.3 0.4\n")
    vecs = read_embeddings(path)
    np.testing.assert_allclose(vecs["cat"], [0.3, 0.4])
    path.write_text("the 0.1 0.2\ncat 0.3\n")
    with pytest.raises(ShapeError, match="line 2"):
        read_embeddings(path)


# ---------------------------------------------------------------------------
# char layer
# ---------------------------------------------------------------------------

def char_layer(params, char_ids) -> np.ndarray:
    """Character summary of one token (conv, ReLU, max pool) as a batch of one.

    It rectifies before the max, over the conv kernel's full output; the
    model pools inside ``conv1d`` and rectifies after.
    """
    ids = np.asarray(char_ids, dtype=np.int64)[None]
    emb = params.tensors["char_emb"].data[ids]
    conv = _conv_same(emb, params.tensors["char_conv_w"].data, params.tensors["char_conv_b"].data)
    return np.maximum(conv, 0).max(axis=1)[0]


def test_char_layer_output_shape_for_all_lengths(setup):
    _, vocab, _, _ = setup
    p = init_params(tiny_arch(), vocab, seed=5)
    for n in range(1, 21):
        out = char_layer(p, np.arange(2, 2 + n) % vocab.n_chars)
        assert out.shape == (4,)


def test_char_layer_zero_table_gives_zero(setup):
    _, vocab, _, _ = setup
    p = init_params(tiny_arch(), vocab, seed=5)
    p.tensors["char_emb"].data[:] = 0
    p.tensors["char_conv_b"].data[:] = 0
    out = char_layer(p, [5, 6, 7])
    np.testing.assert_array_equal(out, np.zeros(4))


def test_char_layer_single_char_matches_padded_oracle(setup):
    _, vocab, _, _ = setup
    p = init_params(tiny_arch(), vocab, dtype=np.float64, seed=6)
    cid = 9
    out = char_layer(p, [cid])
    # length-1 same-padding conv: only the centre tap sees the embedding
    emb = p.tensors["char_emb"].data[cid]
    w = p.tensors["char_conv_w"].data
    b = p.tensors["char_conv_b"].data
    expect = np.maximum(emb @ w[1] + b, 0)  # offset (3-1)//2 = 1
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_batched_char_summaries_match_single(setup):
    from genderfuse.model import _char_summaries
    _, vocab, docs, _ = setup
    p = init_params(tiny_arch(), vocab, dtype=np.float64, seed=7)
    batch = make_batch(docs)
    summaries = _char_summaries(p, batch).data
    doc, row = docs[1], 1
    for t, chars in enumerate(doc.char_ids):
        single = char_layer(p, chars[chars != 0])
        np.testing.assert_allclose(summaries[row, t], single, atol=1e-12)


def frozen_view(p):
    """The gradient-free view of the parameters that inference runs on."""
    return replace(p, tensors={k: Tensor(t.data) for k, t in p.tensors.items()})


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_eval_char_summaries_run_once_per_distinct_row(dtype, tol, monkeypatch):
    import genderfuse.model as model
    # repeated tokens, tokens of different lengths padded to the longest,
    # one-token docs, and the padded token slots of the shorter docs
    corpus = [UserRecord("a", "male", ["hi"]), UserRecord("b", "female", ["hi"]),
              UserRecord("c", "male", ["the cat the cat sat", "cat naps supercalifragilistic"]),
              UserRecord("d", "female", ["x"])]
    vocab = build_vocab(map(user_tokens, corpus), min_word_freq=1)
    batch = make_batch([build_doc(u.user_id, user_tokens(u), vocab) for u in corpus])
    rows = batch.char_ids.reshape(-1, batch.char_ids.shape[2])
    first, inverse = batch.char_rows
    n_distinct = len(np.unique(rows, axis=0))
    assert len(first) == n_distinct < len(rows)
    np.testing.assert_array_equal(rows[first][inverse], rows)

    p = init_params(tiny_arch(), vocab, dtype=dtype, seed=8)
    conv_rows = []

    def counting_conv(x, filters, bias, valid_len):
        conv_rows.append(x.shape[0])
        return conv1d(x, filters, bias, valid_len)

    monkeypatch.setattr(model, "conv1d", counting_conv)
    per_token = model._char_summaries(p, batch)
    per_type = model._char_summaries(frozen_view(p), batch)
    assert conv_rows == [len(rows), n_distinct]
    assert per_type.data.dtype == per_token.data.dtype
    np.testing.assert_allclose(per_type.data, per_token.data, rtol=tol, atol=tol)


# ---------------------------------------------------------------------------
# batching and forward
# ---------------------------------------------------------------------------

def make_batch_oracle(users, vocab, labels=None) -> Batch:
    """Per-token padding loop over raw users, resolving every id in place."""
    streams = []
    for u in users:
        toks = [t for tweet in tokenize_tweets(u.tweets) for t in tweet][:MAX_DOC_TOKENS]
        streams.append([(vocab.word_id(t),
                         [vocab.chars.get(c, UNK_ID) for c in t[:MAX_TOKEN_CHARS]],
                         vocab.tags[g])
                        for t, g in zip(toks, pos_tag(toks))])
    b = len(streams)
    t_max = max(len(s) for s in streams)
    c_max = max(len(chars) for s in streams for _, chars, _ in s)
    word_ids = np.zeros((b, t_max), dtype=np.int64)
    pos_ids = np.zeros((b, t_max), dtype=np.int64)
    char_ids = np.zeros((b, t_max, c_max), dtype=np.int64)
    char_lens = np.ones((b, t_max), dtype=np.int64)
    doc_lens = np.zeros(b, dtype=np.int64)
    for r, stream in enumerate(streams):
        doc_lens[r] = len(stream)
        for t, (word, chars, pos) in enumerate(stream):
            word_ids[r, t] = word
            pos_ids[r, t] = pos
            char_ids[r, t, :len(chars)] = chars
            char_lens[r, t] = max(1, len(chars))
    return Batch(word_ids=word_ids, pos_ids=pos_ids, char_ids=char_ids,
                 char_lens=char_lens, doc_lens=doc_lens,
                 labels=None if labels is None else np.asarray(labels, dtype=np.int64),
                 fingerprint=vocab.fingerprint())


_WORDS = st.one_of(
    st.sampled_from(["the", "cat", "runs", "happy", "<3", ":)", "wow!!!", "#tag", "@bob"]),
    st.text(alphabet="abcxyz", min_size=MAX_TOKEN_CHARS + 1, max_size=30),
    st.text(alphabet="aéüßж€😀", min_size=1, max_size=6),
    st.text(alphabet=string.ascii_letters + string.digits + "'!?.,", min_size=1, max_size=8),
)
_TWEETS = st.lists(_WORDS, min_size=1, max_size=8).map(" ".join)
# the fixed users add a one-token doc and a long, non-ASCII token to every corpus
_FIXED = [UserRecord("one", "male", ["hi"]),
          UserRecord("long", "female", ["supercalifragilisticexpialidocious naïve"])]


@settings(max_examples=60, deadline=None)
@given(tweets=st.lists(st.lists(_TWEETS, min_size=1, max_size=3), min_size=1, max_size=5),
       vocab_users=st.integers(1, 7))
def test_make_batch_matches_per_token_oracle(tweets, vocab_users):
    users = _FIXED + [UserRecord(f"u{i}", "female", tw) for i, tw in enumerate(tweets)]
    # a vocabulary from a prefix of the users leaves the rest with OOV words
    vocab = build_vocab(map(user_tokens, users[:vocab_users]), min_word_freq=1)
    labels = [i % 2 for i in range(len(users))]
    got = make_batch([build_doc(u.user_id, user_tokens(u), vocab) for u in users], labels)
    want = make_batch_oracle(users, vocab, labels)
    for name in ("word_ids", "pos_ids", "char_ids", "char_lens", "doc_lens", "labels"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert got.fingerprint == want.fingerprint


def test_make_batch_rejects_mixed_vocabularies(setup):
    corpus, vocab, docs, _ = setup
    other = build_doc(corpus[0].user_id, user_tokens(corpus[0]),
                      build_vocab(map(user_tokens, corpus), min_word_freq=2))
    with pytest.raises(CheckpointError, match="fingerprint"):
        make_batch([docs[1], other])

def test_make_batch_shapes_and_padding(setup):
    _, vocab, docs, labels = setup
    batch = make_batch(docs, labels)
    b = len(docs)
    t_max = max(len(d.tokens) for d in docs)
    assert batch.word_ids.shape == (b, t_max)
    assert batch.char_ids.shape[:2] == (b, t_max)
    assert batch.doc_lens.tolist() == [len(d.tokens) for d in docs]
    shortest = int(np.argmin(batch.doc_lens))
    assert np.all(batch.word_ids[shortest, batch.doc_lens[shortest]:] == 0)
    assert np.all(batch.char_lens >= 1)
    assert batch.fingerprint == vocab.fingerprint()
    with pytest.raises(ShapeError, match="empty"):
        make_batch([])


@pytest.mark.parametrize("variant", ["cnn", "cnn_char", "cnn_char_pos"])
def test_forward_shapes_and_probs(setup, variant):
    _, vocab, docs, labels = setup
    arch = tiny_arch(variant=variant)
    p = init_params(arch, vocab, seed=8)
    batch = make_batch(docs, labels)
    logits, probs = forward(p, batch, mode="eval")
    assert logits.data.shape == (4, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    # parameter shapes follow the closed-form dims
    for w in arch.word_filter_widths:
        assert p.tensors[f"word_conv_w{w}"].data.shape == (w, arch.fused_dim, 4)
    assert p.tensors["dense_w"].data.shape == (arch.pooled_dim, arch.dense_units)


def test_forward_shape_audit_random_configs(setup):
    _, vocab, docs, labels = setup
    rng = np.random.default_rng(9)
    for _ in range(6):
        arch = tiny_arch(
            variant=["cnn", "cnn_char", "cnn_char_pos"][rng.integers(3)],
            word_dim=int(rng.integers(2, 10)),
            char_dim=int(rng.integers(2, 6)),
            pos_dim=int(rng.integers(2, 5)),
            char_filters=int(rng.integers(2, 6)),
            word_filter_widths=tuple(sorted(set(rng.integers(1, 4, size=2).tolist()))),
            word_filters_per_width=int(rng.integers(2, 6)),
            dense_units=int(rng.integers(2, 9)),
        )
        p = init_params(arch, vocab, seed=int(rng.integers(100)))
        logits, probs = forward(p, make_batch(docs), mode="eval")
        assert logits.data.shape == (len(docs), 2)
        assert np.isfinite(probs).all()


def test_forward_eval_deterministic(setup):
    _, vocab, docs, _ = setup
    p = init_params(tiny_arch(), vocab, seed=10)
    batch = make_batch(docs)
    _, p1 = forward(p, batch, mode="eval")
    _, p2 = forward(p, batch, mode="eval")
    np.testing.assert_array_equal(p1, p2)


def test_forward_batch_composition_invariance(setup):
    # a doc's probabilities must not depend on what it is batched with
    _, vocab, docs, _ = setup
    p = init_params(tiny_arch(), vocab, seed=12)
    alone = predict_probs([p], [docs[0]])[0]
    together = predict_probs([p], docs)[0]
    np.testing.assert_allclose(alone[0], together[0], atol=1e-6)


def test_predict_probs_builds_each_batch_once_for_all_models(setup, monkeypatch):
    import genderfuse.model as model
    _, vocab, docs, _ = setup
    docs = docs * 3
    models = [init_params(tiny_arch(), vocab, seed=s) for s in (30, 31, 32)]
    calls = []

    def counting_make_batch(chunk, labels=None):
        calls.append(len(chunk))
        return make_batch(chunk, labels)

    monkeypatch.setattr(model, "make_batch", counting_make_batch)
    probs = predict_probs(models, docs, batch_size=5)
    assert calls == [5, 5, 2]   # ceil(12 / 5) batches, not that many per model
    assert probs.shape == (3, len(docs), 2)
    solo = np.stack([predict_probs([m], docs, batch_size=5)[0] for m in models])
    np.testing.assert_array_equal(probs, solo)
    assert predict_probs(models, [], batch_size=5).shape == (3, 0, 2)


def test_forward_frees_embeddings_before_word_convs(setup, monkeypatch):
    # at inference nothing holds the word, char and POS inputs of the fused
    # array once it exists, so none of them is alive while a word conv runs
    import genderfuse.model as model
    _, vocab, docs, _ = setup
    p = init_params(tiny_arch(), vocab, seed=14)
    lookups, alive = [], []

    def tracking_lookup(table, ids):
        out = embedding_lookup(table, ids)
        lookups.append(weakref.ref(out.data))
        return out

    def checking_conv(x, filters, bias, valid_len):
        if x.shape[-1] == p.arch.fused_dim:
            alive.append(sum(ref() is not None for ref in lookups))
        return conv1d(x, filters, bias, valid_len)

    monkeypatch.setattr(model, "embedding_lookup", tracking_lookup)
    monkeypatch.setattr(model, "conv1d", checking_conv)
    predict_probs([p], docs)
    assert len(lookups) == 3 and alive == [0, 0, 0]


def test_forward_rejects_foreign_vocab(setup):
    corpus, vocab, docs, _ = setup
    p = init_params(tiny_arch(), vocab, seed=13)
    other_vocab = build_vocab(map(user_tokens, corpus), min_word_freq=2)
    batch = make_batch([build_doc(corpus[0].user_id, user_tokens(corpus[0]), other_vocab)])
    with pytest.raises(CheckpointError, match="fingerprint"):
        forward(p, batch)


def test_variant_nesting_zeroed_extras_equals_cnn(setup):
    _, vocab, docs, _ = setup
    full = init_params(tiny_arch(), vocab, dtype=np.float64, seed=14)
    word_only = init_params(tiny_arch(variant="cnn"), vocab, dtype=np.float64, seed=15)
    # silence char and POS contributions in the full model
    full.tensors["char_conv_w"].data[:] = 0
    full.tensors["char_conv_b"].data[:] = 0
    full.tensors["pos_emb"].data[:] = 0
    # share word embeddings, word-channel filters, and the head
    full.tensors["word_emb"].data[:] = word_only.tensors["word_emb"].data
    for w in (1, 2, 3):
        full.tensors[f"word_conv_w{w}"].data[:, :8, :] = word_only.tensors[f"word_conv_w{w}"].data
        full.tensors[f"word_conv_b{w}"].data[:] = word_only.tensors[f"word_conv_b{w}"].data
    for name in ("dense_w", "dense_b", "bn_gamma", "bn_beta", "out_w", "out_b"):
        full.tensors[name].data[:] = word_only.tensors[name].data
    batch = make_batch(docs)
    logits_full, _ = forward(full, batch, mode="eval")
    logits_cnn, _ = forward(word_only, batch, mode="eval")
    np.testing.assert_allclose(logits_full.data, logits_cnn.data, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_overfit_small_corpus(setup):
    _, vocab, docs, labels = setup
    arch = tiny_arch(lr=0.01, l2=0.0)
    p = init_params(arch, vocab, seed=16)
    opt = Adam(p.trainable(), lr=arch.lr)
    batch = make_batch(docs, labels)
    rng = np.random.default_rng(17)
    losses = [train_step(p, batch, opt, rng) for _ in range(50)]
    assert losses[-1] < 0.05
    assert losses[-1] < losses[0]


def test_l2_bookkeeping_at_first_step(setup):
    _, vocab, docs, labels = setup
    batch = make_batch(docs, labels)

    def first_loss(l2):
        arch = tiny_arch(l2=l2)
        p = init_params(arch, vocab, seed=18)
        opt = Adam(p.trainable(), lr=arch.lr)
        penalty = float(l2_penalty(p.regularized(), l2).data)
        loss = train_step(p, batch, opt, np.random.default_rng(19))
        return loss, penalty

    loss_reg, penalty = first_loss(1e-2)
    loss_plain, _ = first_loss(0.0)
    assert penalty > 0
    assert loss_reg - loss_plain == pytest.approx(penalty, rel=1e-6)


def test_frozen_word_embeddings_take_no_gradient(setup, tmp_path):
    _, vocab, docs, labels = setup
    p = init_params(tiny_arch(freeze_word_emb=True), vocab, seed=16)
    word = p.tensors["word_emb"]
    before = word.data.copy()
    assert not word.requires_grad and "word_emb" not in p.trainable()
    opt = Adam(p.trainable(), lr=0.01)
    rng = np.random.default_rng(17)
    for _ in range(3):
        train_step(p, make_batch(docs, labels), opt, rng)
        assert word.grad is None
    np.testing.assert_array_equal(word.data, before)
    assert p.tensors["char_emb"].grad is not None
    save_params(p, tmp_path / "m.gfus")
    assert "word_emb" not in load_params(tmp_path / "m.gfus").trainable()


def test_pad_rows_stay_zero_after_training(setup):
    _, vocab, docs, labels = setup
    arch = tiny_arch(lr=0.01)
    p = init_params(arch, vocab, seed=20)
    opt = Adam(p.trainable(), lr=arch.lr)
    batch = make_batch(docs, labels)
    rng = np.random.default_rng(21)
    for _ in range(20):
        train_step(p, batch, opt, rng)
    for name in ("word_emb", "char_emb", "pos_emb"):
        assert np.all(p.tensors[name].data[0] == 0), name


def test_full_model_gradients(setup):
    # tiny cnn_char_pos in float64, dropout off, batch norm eval
    _, vocab, docs, labels = setup
    p = init_params(tiny_arch(), vocab, dtype=np.float64, seed=22)
    # shift dense features off the relu kink and give the normalized
    # activations O(1) magnitude; otherwise mostly-dead features have
    # ~1e-8 gradients where finite-difference noise swamps the relative error
    p.tensors["bn_beta"].data[:] = 0.3 + 0.05 * np.arange(8)
    p.tensors["dense_b"].data[:] = 0.4 + 0.1 * np.arange(8)
    batch = make_batch(docs, labels)

    def loss():
        logits, _ = forward(p, batch, mode="eval")
        xent, _ = softmax_xent(logits, batch.labels)
        return add(xent, l2_penalty(p.regularized(), 1e-3))

    errors = grad_check(loss, p.tensors, samples_per_tensor=4,
                        rng=np.random.default_rng(23))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# memory: what the tape keeps alive
# ---------------------------------------------------------------------------

def long_batch_setup(n_docs: int = 4):
    """Three widths of 512 filters over ``n_docs`` ~800-token docs.

    Returns (params, docs, batch, conv output bytes, fused input bytes).
    The fused input is only 24 channels wide, so the (b, n, filters) conv
    outputs dominate every other array of the forward.
    """
    rng = np.random.default_rng(40)
    words = [f"w{i}" for i in range(50)]
    corpus = [UserRecord(f"u{i}", ("female", "male")[i % 2],
                         [" ".join(rng.choice(words, 20)) for _ in range(20)])
              for i in range(n_docs)]
    vocab = build_vocab(map(user_tokens, corpus), min_word_freq=1)
    docs = [build_doc(u.user_id, user_tokens(u), vocab) for u in corpus]
    arch = tiny_arch(word_dim=16, pos_dim=4, word_filters_per_width=512, batch_size=n_docs)
    p = init_params(arch, vocab, seed=41)
    batch = make_batch(docs, [i % 2 for i in range(n_docs)])
    cells = batch.word_ids.size
    return p, docs, batch, cells * 512 * 4, cells * arch.fused_dim * 4


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_keeps_one_conv_output_alive():
    # Inference records no tape, so each width's conv output dies once its
    # max is taken.  While the widest conv runs, alive are: its output
    # (conv), the im2col copy tensordot makes of its windows (3 fused
    # sizes), and fused-size arrays: the fused input, its zero-padded copy
    # and the batch's index arrays (~3.1 fused sizes at these dims; 5
    # allowed).  A forward that keeps the per-source embeddings the fused
    # input was concatenated from holds ~4.0; one that keeps every conv
    # output holds 3 of them.
    p, docs, _, conv, fused = long_batch_setup()
    im2col = 3 * fused
    peak = traced_peak(lambda: predict_probs([p], docs))
    assert peak < conv + im2col + 5 * fused, (peak, conv, fused)


def test_predict_peak_is_one_conv_block_and_stays_flat_as_the_batch_grows(monkeypatch):
    # With a budget below one 800-step row, conv1d runs one row at a time:
    # the widest width's block is one row's output and im2col copy, 800 x
    # (512 + 3*24) float32 = 1.9 MB.  Beside it are fused-size arrays only
    # (2.6 of them at 4 docs, 2.2 at 16; 4 allowed).  Doubling the docs
    # doubles those and adds no conv output: the peak grows by ~2.1 of the
    # smaller batch's fused sizes (4 allowed).  With whole-batch convs it
    # grows by at least the smaller batch's conv output, 21.3 fused sizes
    # (27 measured).
    import genderfuse.tensor as tensor
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 1 << 20)
    peaks = {}
    for n_docs in (4, 8, 16):
        p, docs, batch, _, fused = long_batch_setup(n_docs)
        block = batch.word_ids.shape[1] * (512 + 3 * p.arch.fused_dim) * 4
        peaks[n_docs] = traced_peak(lambda: predict_probs([p], docs)), fused
        assert peaks[n_docs][0] < block + 4 * fused, (n_docs, peaks[n_docs], block)
    for small, large in ((4, 8), (8, 16)):
        grown = peaks[large][0] - peaks[small][0]
        assert grown < 4 * peaks[small][1], (small, large, grown, peaks[small][1])


def test_conv_blocks_skip_the_padding_of_longer_rows(monkeypatch):
    # heavy-tailed docs: each word conv convolves each block's rows up to
    # the block's longest row plus the right halo, far fewer steps than
    # b x n; blocks take rows longest first, as many as two 800-step rows'
    # budget holds at the block's first row
    import genderfuse.tensor as tensor
    p, docs, _, _, _ = long_batch_setup(8)
    cut = [800, 13, 400, 3, 100, 7, 50, 25]
    docs = [replace(d, tokens=d.tokens[:k], word_ids=d.word_ids[:k], pos_ids=d.pos_ids[:k],
                    char_ids=d.char_ids[:k]) for d, k in zip(docs, cut)]
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 2 * 800 * (512 + 3 * p.arch.fused_dim) * 4)
    blocks = {}   # width -> [(rows, steps)] of its word conv calls
    conv_same = tensor._conv_same

    def recording(x, filters, bias):
        if x.shape[-1] == p.arch.fused_dim:     # the word convs, not the char conv
            blocks.setdefault(filters.shape[0], []).append(x.shape[:2])
        return conv_same(x, filters, bias)

    monkeypatch.setattr(tensor, "_conv_same", recording)
    predict_probs([p], docs)
    lens = sorted(cut, reverse=True)
    b, n = len(cut), max(cut)
    assert sorted(blocks) == [1, 2, 3]
    for w, calls in blocks.items():
        right = w - 1 - (w - 1) // 2
        bound, lo = 0, 0
        for rows, _ in calls:
            bound += rows * min(n, lens[lo] + right)
            lo += rows
        assert lo == b and len(calls) > 1, (w, calls)
        total = sum(rows * steps for rows, steps in calls)
        assert total <= bound < b * n / 2, (w, total, bound)


def test_train_step_holds_one_conv_output_at_a_time():
    # conv1d pools inside the op and keeps only the argmax and its input,
    # so no (b, n, c_out) conv output outlives its op.  Here the batch fits
    # one block (15 MB of output and im2col): the forward holds one width's
    # output with the two bool masks of its argmax (1/4 conv size each);
    # the backward one width's rebuilt output gradient.  With fused-size
    # arrays, that peaks near 1.75 conv sizes here.  A forward that keeps
    # every conv output until backward pools it holds all 3 of them and
    # peaks near 4.6.
    p, _, batch, conv, _ = long_batch_setup(n_docs=8)
    opt = Adam(p.trainable(), lr=p.arch.lr)
    peak = traced_peak(lambda: train_step(p, batch, opt, np.random.default_rng(42)))
    assert peak < 3 * conv, (peak, conv)


def test_train_step_peak_is_the_backward_gradient_under_small_blocks(monkeypatch):
    # A budget of 1/8 conv output runs each forward conv one 800-step row
    # at a time (1.9 MB, 0.14 conv).  The peak is then the backward's: one
    # width's rebuilt (b, n, c_out) output gradient (1 conv) beside the
    # tape's fused-size arrays (5.4 of them when the widest width's filter
    # gradient starts, a fused size being conv / 21.3 here), that
    # gradient's padded copy and im2col (4 more) and smaller temporaries:
    # 1.50 conv measured.  A forward that convolves the whole batch holds
    # a whole conv output with its two bool argmax masks and peaks at 1.75.
    import genderfuse.tensor as tensor
    p, _, batch, conv, _ = long_batch_setup(n_docs=8)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", conv // 8)
    opt = Adam(p.trainable(), lr=p.arch.lr)
    peak = traced_peak(lambda: train_step(p, batch, opt, np.random.default_rng(42)))
    assert peak < 1.6 * conv, (peak / conv, conv)


@pytest.mark.parametrize("step", ["valid", "padded"])
def test_train_step_refuses_a_nan_in_a_valid_conv_step_only(setup, monkeypatch, step):
    # a NaN where a row's max is taken reaches the loss; one in a padded
    # step is masked out of the max and its argmax alike
    import genderfuse.tensor as tensor
    _, vocab, docs, labels = setup
    p = init_params(tiny_arch(), vocab, seed=43)
    batch = make_batch(docs, labels)
    short = int(np.argmin(batch.doc_lens))
    n = batch.word_ids.shape[1]
    assert batch.doc_lens[short] < n
    conv_same = tensor._conv_same

    def poisoned(x, filters, bias):
        out = conv_same(x, filters, bias)
        if x.shape[-1] == p.arch.fused_dim:     # the word convs, not the char conv
            out[short, 0 if step == "valid" else n - 1] = np.nan
        return out

    monkeypatch.setattr(tensor, "_conv_same", poisoned)
    opt = Adam(p.trainable(), lr=p.arch.lr)
    if step == "valid":
        with pytest.raises(TrainingError, match="non-finite loss"):
            train_step(p, batch, opt, np.random.default_rng(44))
    else:
        assert np.isfinite(train_step(p, batch, opt, np.random.default_rng(44)))
        assert all(np.isfinite(t.data).all() for t in p.tensors.values())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(setup, tmp_path):
    _, vocab, docs, labels = setup
    p = init_params(tiny_arch(), vocab, seed=24)
    # make running stats non-trivial before saving
    opt = Adam(p.trainable(), lr=0.01)
    train_step(p, make_batch(docs, labels), opt, np.random.default_rng(25))
    path = tmp_path / "model.gfus"
    save_params(p, path)
    q = load_params(path)
    assert q.arch == p.arch
    assert q.fingerprint == p.fingerprint
    assert set(q.tensors) == set(p.tensors)
    for name in p.tensors:
        np.testing.assert_array_equal(q.tensors[name].data, p.tensors[name].data)
    np.testing.assert_array_equal(q.bn_state.mean, p.bn_state.mean)
    np.testing.assert_array_equal(q.bn_state.var, p.bn_state.var)
    # and the loaded model predicts identically
    np.testing.assert_array_equal(predict_probs([p], docs), predict_probs([q], docs))


def test_checkpoint_corrupt_magic(setup, tmp_path):
    _, vocab, _, _ = setup
    path = tmp_path / "model.gfus"
    save_params(init_params(tiny_arch(), vocab, seed=26), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_params(path)


def test_checkpoint_version_mismatch(setup, tmp_path):
    _, vocab, _, _ = setup
    path = tmp_path / "model.gfus"
    save_params(init_params(tiny_arch(), vocab, seed=27), path)
    blob = bytearray(path.read_bytes())
    # 1 and 2: checkpoints from builds whose headers still held ArchConfig.classes
    # or ArchConfig.filters_are_total
    for version in (1, 2, 99):
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError,
                           match=f"format version {version}, expected {CHECKPOINT_VERSION}$"):
            load_params(path)


def test_checkpoint_fingerprint_mismatch(setup, tmp_path):
    _, vocab, _, _ = setup
    path = tmp_path / "model.gfus"
    save_params(init_params(tiny_arch(), vocab, seed=29), path)
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_params(path, expect_fingerprint="deadbeefdeadbeef")
