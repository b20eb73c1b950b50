import json
import string
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderfuse.corpus import UserRecord
from genderfuse.errors import TextPipeError
from genderfuse.textpipe import (
    LEXICON,
    MAX_DOC_TOKENS,
    MAX_TOKEN_CHARS,
    MARKER_TAG,
    PAD_ID,
    SURFACE_CACHE_SIZE,
    TAGSET,
    UNK_ID,
    Vocab,
    build_doc,
    build_vocab,
    normalize,
    pos_tag,
    surface_ids,
    tag_word,
    tokenize,
    tokenize_tweets,
    user_tokens,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "normalize_goldens.json").read_text())["cases"]


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", GOLDENS, ids=lambda c: c["raw"][:30])
def test_normalize_goldens(case):
    assert normalize(case["raw"]) == case["expected"]


@pytest.mark.parametrize("case", GOLDENS, ids=lambda c: c["raw"][:30])
def test_normalize_idempotent_on_goldens(case):
    once = normalize(case["raw"])
    assert normalize(once) == once


# Alphabet biased toward rule triggers: caps, digits, emoticon parts, tags.
_tweet_chars = st.sampled_from(
    list("abcXYZ018 !?.#@:;=-()dDpPlL|/<3'")
    + ["http://t.co/x", "Www.a.b/c", "Http://a.b", "oooo", "zzZ"])
_tweets = st.lists(_tweet_chars, min_size=0, max_size=25).map("".join)


@given(_tweets)
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent_random(raw):
    once = normalize(raw)
    assert normalize(once) == once


@given(_tweets)
@settings(max_examples=200, deadline=None)
def test_tokenize_rejoin_identity(raw):
    toks = tokenize(normalize(raw))
    assert all(toks), "empty token produced"
    assert tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_examples():
    assert tokenize("check <url> <user> <smile>") == ["check", "<url>", "<user>", "<smile>"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("") == []


def test_tokenize_splits_attached_punctuation():
    assert tokenize("bad! <repeat>") == ["bad", "!", "<repeat>"]
    assert tokenize("so,so") == ["so", ",", "so"]
    assert tokenize("<hashtag> covid <allcaps><number>") == \
        ["<hashtag>", "covid", "<allcaps>", "<number>"]


def test_tokenize_keeps_punct_runs_together():
    assert tokenize("wait ;-; what") == ["wait", ";-;", "what"]


# Fragments that sit at a tweet's edge: a URL or "www." ending a tweet, half
# an emoticon or of "<3", "#" runs, "!?." runs and elongations, ALL-CAPS
# runs, the context-sensitive lowercasings of "Σ" and "İ", and whitespace
# other than a space inside a tweet.
_EDGE_FRAGMENTS = st.sampled_from([
    "http://t.co/x", "https://a.b/c!", "www.", "www.a.", "Www.a.b/c", "ftp",
    ":", ";", "=", "8", "-", "'", ")", "(", "D", "d", "p", "P", "/", "|", "*",
    "<", "3", "<3", "#", "##", "#a#b", "!", "?", ".", "!!", "?.", "oooo", "zzZ",
    "Aaa", "LOUD", "ΑΣ", "Σ", "σ", "ς", "İ", "i", "@", "_", "1", "2.5",
    " ", "\n", "\r", "\t", "\r\n",
])
_EDGE_TWEETS = st.lists(_EDGE_FRAGMENTS, min_size=0, max_size=6).map("".join)


@given(tweets=st.lists(_EDGE_TWEETS, min_size=0, max_size=5))
@settings(max_examples=500, deadline=None)
def test_user_tokens_equal_the_concatenated_per_tweet_tokens(tweets):
    # any tweets, blank ones too, which the readers refuse
    got = user_tokens(SimpleNamespace(tweets=tweets))
    assert got == list(chain.from_iterable(tokenize_tweets(tweets)))


# ---------------------------------------------------------------------------
# pos_tag
# ---------------------------------------------------------------------------

def test_tag_examples():
    assert pos_tag(["the", "dog", "runs"]) == ["DT", "NN", "VBZ"]
    assert pos_tag(["<url>"]) == [MARKER_TAG]
    assert pos_tag(["blorptastic"]) == ["JJ"]


def test_tag_length_matches_input():
    toks = tokenize(normalize("OMG!!! @you are soooo :p wrong-ish, maybe 9/10"))
    assert len(pos_tag(toks)) == len(toks)
    assert pos_tag([]) == []


def test_tag_morphology_via_lexicon():
    # -s resolves through the base form, -ed through known verbs
    assert tag_word("dogs") == "NNS"
    assert tag_word("thinks") == "VBZ"
    assert tag_word("goes") == "VBZ"
    assert tag_word("studies") == "NNS"
    assert tag_word("stopped") == "VBD"
    assert tag_word("loved") == "VBD"
    assert tag_word("dog's") == "NN"


def test_tag_suffix_fallbacks():
    assert tag_word("happiness") == "NN"
    assert tag_word("vaccination") == "NN"
    assert tag_word("quickly") == "RB"
    assert tag_word("swimming") == "VBG"
    assert tag_word("zorbed") == "VBN"
    assert tag_word("fantastic") == "JJ"
    assert tag_word("needles") == "NNS"
    assert tag_word("zxqv") == "NN"


def test_tag_punct_and_numbers():
    assert tag_word("!") == "."
    assert tag_word(",") == ","
    assert tag_word(";-;") == ":"
    assert tag_word("$") == "$"
    assert tag_word("12,345.6") == "CD"
    assert tag_word("(") == "("


def test_lexicon_tags_are_all_in_tagset():
    assert set(LEXICON.values()) <= set(TAGSET)
    assert LEXICON["the"] == "DT"
    assert LEXICON["run"] == "VB"


# ---------------------------------------------------------------------------
# Vocab / build_vocab
# ---------------------------------------------------------------------------

def _user(uid, tweets):
    return UserRecord(user_id=uid, gender="female", tweets=list(tweets))


def test_char_map_size_and_reserved_ids():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    assert v.n_chars == 97  # 95 printable + PAD + UNK
    assert v.chars["<pad>"] == PAD_ID and v.words["<pad>"] == PAD_ID
    assert v.tags["<pad>"] == PAD_ID
    assert v.chars["<unk>"] == UNK_ID
    # injective maps
    assert len(set(v.chars.values())) == v.n_chars
    assert len(set(v.tags.values())) == v.n_tags


def test_tag_map_covers_tagset():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    assert set(TAGSET) <= set(v.tags)
    assert v.n_tags == len(TAGSET) + 2
    assert surface_ids("the")[0] == v.tags["DT"]
    assert surface_ids("<url>")[0] == v.tags[MARKER_TAG]


def test_build_vocab_min_freq():
    corpus = [_user("u1", ["apple banana apple", "banana cherry"])]
    v1 = build_vocab(map(user_tokens, corpus), min_word_freq=1)
    assert {"apple", "banana", "cherry"} <= set(v1.words)
    v2 = build_vocab(map(user_tokens, corpus), min_word_freq=2)
    assert "cherry" not in v2.words
    assert v2.word_id("cherry") == UNK_ID
    # frequency then lexicographic tie-break keeps ids stable
    assert v2.words["apple"] == 2 and v2.words["banana"] == 3


def test_vocab_json_roundtrip_preserves_fingerprint():
    corpus = [_user("u1", ["hello world hello", "world again"])]
    v = build_vocab(map(user_tokens, corpus), min_word_freq=1)
    v2 = Vocab.from_json(v.to_json())
    assert v2.words == v.words
    assert v2.fingerprint() == v.fingerprint()
    other = build_vocab(map(user_tokens, corpus), min_word_freq=2)
    assert other.fingerprint() != v.fingerprint()


def test_char_ids_truncation_and_unk():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    ids = surface_ids("a" * 50)[1]
    assert len(ids) == MAX_TOKEN_CHARS == 20
    assert ids == (v.chars["a"],) * 20
    assert surface_ids("é")[1] == (UNK_ID,)  # non-ASCII char


# ---------------------------------------------------------------------------
# build_doc
# ---------------------------------------------------------------------------

def test_build_doc_concatenates_in_tweet_order():
    u = _user("u1", ["one two three", "four five six"])
    v = build_vocab([user_tokens(u)], min_word_freq=1)
    doc = build_doc(u.user_id, user_tokens(u), v)
    assert doc.tokens == ["one", "two", "three", "four", "five", "six"]
    assert doc.user_id == "u1"


def test_build_doc_truncates_head_preserving():
    words = ["alpha"] + ["beta", "gamma"] * (MAX_DOC_TOKENS // 2) + ["delta", "omega"]
    assert len(words) == MAX_DOC_TOKENS + 3
    u = _user("u1", [" ".join(words[:10]), " ".join(words[10:])])
    v = build_vocab([user_tokens(u)], min_word_freq=1)
    doc = build_doc(u.user_id, user_tokens(u), v)
    assert doc.tokens == words[:MAX_DOC_TOKENS]
    assert doc.word_ids.shape == doc.pos_ids.shape == (MAX_DOC_TOKENS,)
    assert doc.char_ids.shape[0] == MAX_DOC_TOKENS


def test_build_doc_oov_word_resolves_chars():
    u = _user("u1", ["zxqv hello"])
    v = build_vocab([user_tokens(_user("u2", ["hello there"]))], min_word_freq=1)
    doc = build_doc(u.user_id, user_tokens(u), v)
    assert v.word_id("zxqv") == UNK_ID
    assert doc.word_ids[0] == UNK_ID
    assert doc.char_ids[0, :4].tolist() == [v.chars[c] for c in "zxqv"]
    assert all(c != UNK_ID for c in doc.char_ids[0, :4])


def test_build_doc_zero_tokens_names_user():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    with pytest.raises(TextPipeError, match="ghost"):
        build_doc("ghost", [], v)


def build_doc_oracle(user, vocab):
    """The per-occurrence build: every token tagged and resolved where it stands."""
    tokens = []
    for toks in tokenize_tweets(user.tweets):
        tokens += toks[:MAX_DOC_TOKENS - len(tokens)]
    chars = [[vocab.chars.get(c, UNK_ID) for c in t[:MAX_TOKEN_CHARS]] for t in tokens]
    lens = np.fromiter(map(len, chars), dtype=np.int64)
    char_ids = np.zeros((len(tokens), lens.max()), dtype=np.int64)
    char_ids[np.arange(lens.max()) < lens[:, None]] = list(chain.from_iterable(chars))
    word_ids = np.fromiter(map(vocab.word_id, tokens), dtype=np.int64)
    pos_ids = np.fromiter((vocab.tags[g] for g in pos_tag(tokens)), dtype=np.int64)
    return tokens, word_ids, pos_ids, char_ids


def assert_doc_matches_oracle(doc, user, vocab):
    tokens, *arrays = build_doc_oracle(user, vocab)
    assert doc.tokens == tokens
    for name, want in zip(("word_ids", "pos_ids", "char_ids"), arrays):
        got = getattr(doc, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert doc.fingerprint == vocab.fingerprint()


_DOC_WORDS = st.one_of(
    st.sampled_from(["the", "cat", "runs", "wow!!!", "<3", ":)", "#tag", "@bob",
                     "http://t.co/x", "LOUD", "12.5"]),
    st.text(alphabet="abcxyz", min_size=MAX_TOKEN_CHARS + 1, max_size=30),
    st.text(alphabet="aéüßж€😀", min_size=1, max_size=6),
    st.text(alphabet=string.ascii_letters + string.digits + "'!?.,", min_size=1, max_size=8),
)
_DOC_TWEETS = st.lists(_DOC_WORDS, min_size=1, max_size=10).map(" ".join)


@settings(max_examples=80, deadline=None)
@given(users=st.lists(st.lists(_DOC_TWEETS, min_size=1, max_size=4), min_size=1, max_size=4),
       repeat=st.integers(1, 3), vocab_users=st.integers(0, 4))
def test_build_doc_matches_per_token_oracle(users, repeat, vocab_users):
    # repeated tweets repeat tokens; a vocabulary from a prefix of the users
    # leaves the rest with OOV words; the fixed user is a one-token doc
    corpus = [_user("one", ["hi"])] + [_user(f"u{i}", tw * repeat) for i, tw in enumerate(users)]
    vocab = build_vocab(map(user_tokens, corpus[:vocab_users + 1]), min_word_freq=1)
    for u in corpus:
        assert_doc_matches_oracle(build_doc(u.user_id, user_tokens(u), vocab), u, vocab)


def test_build_doc_matches_oracle_past_the_surface_cache():
    # more distinct surfaces than the cache holds, then the first ones again
    # after they were evicted, each doc a full MAX_DOC_TOKENS of distinct words
    n_docs = SURFACE_CACHE_SIZE // MAX_DOC_TOKENS + 2
    words = [f"w{i}x" for i in range(n_docs * MAX_DOC_TOKENS)]
    corpus = [_user(f"u{d}", [" ".join(words[d * MAX_DOC_TOKENS:(d + 1) * MAX_DOC_TOKENS])])
              for d in range(n_docs)]
    vocab = build_vocab(map(user_tokens, corpus[:1]), min_word_freq=1)
    for u in corpus + corpus[:1]:
        assert_doc_matches_oracle(build_doc(u.user_id, user_tokens(u), vocab), u, vocab)
    assert surface_ids.cache_info().currsize <= SURFACE_CACHE_SIZE
