import json
from pathlib import Path
from types import SimpleNamespace

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
    TAGSET,
    UNK_ID,
    Vocab,
    build_doc,
    build_vocab,
    normalize,
    pos_tag,
    tag_word,
    tokenize,
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
    assert v.tag_id("NOTATAG") == UNK_ID


def test_build_vocab_min_freq():
    corpus = [_user("u1", ["apple banana apple", "banana cherry"])]
    v1 = build_vocab(corpus, min_word_freq=1)
    assert {"apple", "banana", "cherry"} <= set(v1.words)
    v2 = build_vocab(corpus, min_word_freq=2)
    assert "cherry" not in v2.words
    assert v2.word_id("cherry") == UNK_ID
    # frequency then lexicographic tie-break keeps ids stable
    assert v2.words["apple"] == 2 and v2.words["banana"] == 3


def test_vocab_json_roundtrip_preserves_fingerprint():
    corpus = [_user("u1", ["hello world hello", "world again"])]
    v = build_vocab(corpus, min_word_freq=1)
    v2 = Vocab.from_json(v.to_json())
    assert v2.words == v.words
    assert v2.fingerprint() == v.fingerprint()
    other = build_vocab(corpus, min_word_freq=2)
    assert other.fingerprint() != v.fingerprint()


def test_char_ids_truncation_and_unk():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    ids = v.char_ids("a" * 50)
    assert len(ids) == MAX_TOKEN_CHARS == 20
    assert v.char_ids("é") == [UNK_ID]  # non-ASCII char


# ---------------------------------------------------------------------------
# build_doc
# ---------------------------------------------------------------------------

def test_build_doc_concatenates_in_tweet_order():
    u = _user("u1", ["one two three", "four five six"])
    v = build_vocab([u], min_word_freq=1)
    doc = build_doc(u, v)
    assert doc.tokens == ["one", "two", "three", "four", "five", "six"]
    assert doc.user_id == "u1"


def test_build_doc_truncates_head_preserving():
    words = ["alpha"] + ["beta", "gamma"] * (MAX_DOC_TOKENS // 2) + ["delta", "omega"]
    assert len(words) == MAX_DOC_TOKENS + 3
    u = _user("u1", [" ".join(words[:10]), " ".join(words[10:])])
    v = build_vocab([u], min_word_freq=1)
    doc = build_doc(u, v)
    assert doc.tokens == words[:MAX_DOC_TOKENS]
    assert doc.word_ids.shape == doc.pos_ids.shape == (MAX_DOC_TOKENS,)
    assert doc.char_ids.shape[0] == MAX_DOC_TOKENS


def test_build_doc_oov_word_resolves_chars():
    u = _user("u1", ["zxqv hello"])
    v = build_vocab([_user("u2", ["hello there"])], min_word_freq=1)
    doc = build_doc(u, v)
    assert v.word_id("zxqv") == UNK_ID
    assert doc.word_ids[0] == UNK_ID
    assert doc.char_ids[0, :4].tolist() == [v.chars[c] for c in "zxqv"]
    assert all(c != UNK_ID for c in doc.char_ids[0, :4])


def test_build_doc_zero_tokens_names_user():
    v = Vocab({"<pad>": 0, "<unk>": 1})
    ghost = SimpleNamespace(user_id="ghost", tweets=[])
    with pytest.raises(TextPipeError, match="ghost"):
        build_doc(ghost, v)
