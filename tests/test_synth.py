"""Tests for the synthetic corpus generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genderfuse.cli import main
from genderfuse.corpus import HBM_CONSTRUCTS, TPB_ATTITUDES, write_labeled_tweets_jsonl
from genderfuse.errors import ConfigError
from genderfuse.stats import CONSTRUCTS, AnalysisConfig, analyze
from genderfuse.synth import (
    CHAR_SUFFIX,
    MARKER_WORDS,
    POS_TEMPLATES,
    SynthSpec,
    _POOLS,
    _word,
    gen_gender_corpus,
    gen_labeled_tweets,
    implied_odds_ratio,
)
from genderfuse.textpipe import pos_tag, tag_word, tokenize_tweets


def small(**kw):
    kw.setdefault("users_per_class", 8)
    kw.setdefault("tweets_per_user", 6)
    kw.setdefault("seed", 11)
    return SynthSpec(**kw)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_defaults():
    s = SynthSpec()
    assert s.users_per_class == 200
    assert s.tweets_per_user == 20
    assert s.signal == "all"
    assert s.construct_rates["barriers"] == (0.40, 0.25)
    assert set(s.yearly_volumes) == {2014, 2015, 2016, 2017, 2018}


@pytest.mark.parametrize("kw", [
    {"users_per_class": 0},
    {"tweets_per_user": 0},
    {"vocab_size": 0},
    {"vocab_size": 2001},
    {"marker_rate": -0.01},
    {"marker_rate": 1.5},
    {"signal": "loud"},
    {"construct_rates": {"barriers": (0.4, 0.25)}},
    {"yearly_volumes": {2015: 0}},
])
def test_spec_rejects(kw):
    with pytest.raises(ConfigError):
        SynthSpec(**kw)


def test_synth_tweets_refuses_year_zero(tmp_path, capsys):
    out, preds = tmp_path / "tweets.jsonl", tmp_path / "truth.jsonl"
    assert main(["synth", "tweets", "--seed", "1", "--volumes", "0=5,2015=5",
                 "--out", str(out), "--preds-out", str(preds)]) == 2
    assert "years must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists() and not preds.exists()


def test_spec_rejects_rate_outside_unit_interval():
    rates = {c: (0.1, 0.1) for c in CONSTRUCTS}
    rates["severity"] = (1.2, 0.1)
    with pytest.raises(ConfigError, match="severity"):
        SynthSpec(construct_rates=rates)


# ---------------------------------------------------------------------------
# neutral vocabulary
# ---------------------------------------------------------------------------

def test_word_generator_distinct_and_normalization_stable():
    words = [_word(i) for i in range(500)]
    assert len(set(words)) == 500
    assert all(len(w) == 3 and w.islower() and w.isalpha() for w in words)
    # the normalizer must pass them through untouched
    [toks] = tokenize_tweets([" ".join(words)])
    assert toks == words


# ---------------------------------------------------------------------------
# marker injection per signal channel
# ---------------------------------------------------------------------------

def all_tokens(users):
    for u in users:
        for doc in tokenize_tweets(u.tweets):
            yield from doc


def test_rate_one_marks_every_tweet():
    users = gen_gender_corpus(small(signal="word", marker_rate=1.0))
    for u in users:
        pool = set(MARKER_WORDS[u.gender])
        for doc in tokenize_tweets(u.tweets):
            assert pool & set(doc), u.user_id


def test_rate_zero_marks_nothing():
    users = gen_gender_corpus(small(signal="word", marker_rate=0.0))
    markers = set(MARKER_WORDS["female"]) | set(MARKER_WORDS["male"])
    assert markers.isdisjoint(all_tokens(users))


def test_signal_none_is_unmarked_at_any_rate():
    users = gen_gender_corpus(small(signal="none", marker_rate=1.0))
    markers = set(MARKER_WORDS["female"]) | set(MARKER_WORDS["male"])
    for tok in all_tokens(users):
        assert tok not in markers
        assert not tok.endswith(CHAR_SUFFIX["female"])
        assert not tok.endswith(CHAR_SUFFIX["male"])


def test_char_signal_hides_from_word_channel():
    users = gen_gender_corpus(small(signal="char", marker_rate=1.0))
    markers = set(MARKER_WORDS["female"]) | set(MARKER_WORDS["male"])
    assert markers.isdisjoint(all_tokens(users))
    for u in users:
        suffix = CHAR_SUFFIX[u.gender]
        marked = [t for t in all_tokens([u]) if t.endswith(suffix)]
        assert len(marked) == small().tweets_per_user  # one per tweet
        assert all(len(t) == 8 for t in marked)
    # random stems keep the surface forms from collapsing to a few types
    stems = {t[:4] for t in all_tokens(users)
             if t.endswith(CHAR_SUFFIX["female"]) or t.endswith(CHAR_SUFFIX["male"])}
    assert len(stems) > 20


def test_pos_signal_plants_contiguous_tag_run():
    users = gen_gender_corpus(small(signal="pos", marker_rate=1.0))
    for u in users:
        want = POS_TEMPLATES[u.gender]
        for doc in tokenize_tweets(u.tweets):
            tags = pos_tag(doc)
            runs = [tuple(tags[i:i + len(want)])
                    for i in range(len(tags) - len(want) + 1)]
            assert want in runs, (u.user_id, doc, tags)


def test_pool_words_carry_their_slot_tag():
    for slot, pool in _POOLS.items():
        assert all(tag_word(w) == slot for w in pool), slot


def test_decorations_exercise_normalization():
    users = gen_gender_corpus(SynthSpec(users_per_class=40, tweets_per_user=10,
                                        seed=2, signal="none"))
    toks = set(all_tokens(users))
    assert "<hashtag>" in toks
    assert "<user>" in toks
    assert "<url>" in toks


# ---------------------------------------------------------------------------
# corpus shape and determinism
# ---------------------------------------------------------------------------

def test_corpus_shape():
    users = gen_gender_corpus(small())
    assert len(users) == 16
    assert sum(u.gender == "female" for u in users) == 8
    assert len({u.user_id for u in users}) == 16
    assert all(len(u.tweets) == 6 for u in users)


def test_corpus_bitwise_deterministic():
    assert gen_gender_corpus(small()) == gen_gender_corpus(small())


def test_corpus_seed_changes_output():
    assert gen_gender_corpus(small(seed=1)) != gen_gender_corpus(small(seed=2))


# ---------------------------------------------------------------------------
# implied odds ratio arithmetic
# ---------------------------------------------------------------------------

def test_implied_or_hand_values():
    # odds(0.4)=2/3, odds(0.25)=1/3
    assert implied_odds_ratio(0.40, 0.25) == pytest.approx(2.0, rel=1e-12)
    assert implied_odds_ratio(0.5, 0.5) == 1.0
    assert implied_odds_ratio(0.25, 0.40) == pytest.approx(0.5, rel=1e-12)


def test_implied_or_degenerate_rates():
    assert implied_odds_ratio(0.3, 0.0) == math.inf
    assert math.isnan(implied_odds_ratio(0.0, 0.0))
    assert math.isnan(implied_odds_ratio(1.0, 1.0))
    assert implied_odds_ratio(0.0, 0.3) == 0.0


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_implied_or_direction(pm, pf):
    r = implied_odds_ratio(pm, pf)
    if pm > pf:
        assert r > 1.0
    elif pm < pf:
        assert r < 1.0
    else:
        assert r == 1.0


# ---------------------------------------------------------------------------
# labeled tweet stream
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stream():
    return gen_labeled_tweets(SynthSpec(users_per_class=60, seed=5,
                                        yearly_volumes={2014: 1500, 2016: 900}))


def test_stream_volumes_and_years(stream, tmp_path):
    years, counts = np.unique(stream.tweets.year, return_counts=True)
    assert dict(zip(years.tolist(), counts.tolist())) == {2014: 1500, 2016: 900}
    path = tmp_path / "tweets.jsonl"
    write_labeled_tweets_jsonl(stream.tweets, path)
    with open(path, encoding="utf-8") as fh:
        assert len({json.loads(line)["tweet_id"] for line in fh}) == 2400


def test_stream_predictions_are_perfect(stream):
    assert len(stream.predictions) == 120
    for p in stream.predictions:
        assert p.avg_prob == 1.0
        assert list(p.fold_probs) == [1.0]
    g = {p.user_id: p.voted_gender for p in stream.predictions}
    assert g["sf0000"] == "female" and g["sm0000"] == "male"


def test_stream_authors_resolve(stream):
    known = {p.user_id for p in stream.predictions}
    assert set(stream.tweets.authors) <= known
    assert len(set(stream.tweets.authors)) == len(stream.tweets.authors)
    assert set(stream.tweets.author.tolist()) == set(range(len(stream.tweets.authors)))


def test_stream_attitudes_binary(stream):
    assert ({TPB_ATTITUDES[c] for c in stream.tweets.tpb.tolist()}
            <= {"positive", "negative"})


def test_stream_deterministic(stream):
    again = gen_labeled_tweets(SynthSpec(users_per_class=60, seed=5,
                                         yearly_volumes={2014: 1500, 2016: 900}))
    assert again.tweets.authors == stream.tweets.authors
    for column in ("author", "year", "hbm", "tpb"):
        assert np.array_equal(getattr(again.tweets, column), getattr(stream.tweets, column))
    assert again.implied_or == stream.implied_or


def test_stream_jsonl_frozen(tmp_path):
    # written by the per-tweet generator this column generator replaced
    frozen = (
        '{"tweet_id": "t0", "user_id": "sm0002", "year": 2014, "hbm": ["severity", "susceptibility"], "tpb": "negative"}\n'
        '{"tweet_id": "t1", "user_id": "sm0000", "year": 2014, "hbm": [], "tpb": "positive"}\n'
        '{"tweet_id": "t2", "user_id": "sm0000", "year": 2014, "hbm": ["barriers", "severity"], "tpb": "negative"}\n'
        '{"tweet_id": "t3", "user_id": "sf0001", "year": 2016, "hbm": ["barriers", "benefits"], "tpb": "negative"}\n'
        '{"tweet_id": "t4", "user_id": "sf0000", "year": 2016, "hbm": [], "tpb": "negative"}\n'
        '{"tweet_id": "t5", "user_id": "sm0000", "year": 2016, "hbm": ["barriers"], "tpb": "positive"}\n')
    out = gen_labeled_tweets(SynthSpec(users_per_class=3, seed=0,
                                       yearly_volumes={2016: 3, 2014: 3}))
    write_labeled_tweets_jsonl(out.tweets, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text(encoding="utf-8") == frozen


def test_stream_implied_or_exposed(stream):
    assert set(stream.implied_or) == set(CONSTRUCTS)
    assert stream.implied_or["barriers"] == pytest.approx(2.0, rel=1e-12)


def test_empirical_rates_within_three_sigma():
    spec = SynthSpec(users_per_class=100, seed=9, yearly_volumes={2015: 12000})
    out = gen_labeled_tweets(spec)
    t = out.tweets
    genders = {p.user_id: p.voted_gender for p in out.predictions}
    gender = np.array([genders[u] for u in t.authors])[t.author]
    member = {c: (t.hbm >> HBM_CONSTRUCTS.index(c) & 1).astype(bool) for c in CONSTRUCTS[:-1]}
    member["tpb_positive"] = t.tpb == TPB_ATTITUDES.index("positive")
    n = {g: int((gender == g).sum()) for g in ("male", "female")}
    hits = {(g, c): int((member[c] & (gender == g)).sum())
            for g in ("male", "female") for c in CONSTRUCTS}
    for c in CONSTRUCTS:
        pm, pf = spec.construct_rates[c]
        for g, p in (("male", pm), ("female", pf)):
            phat = hits[g, c] / n[g]
            sigma = math.sqrt(p * (1 - p) / n[g])
            assert abs(phat - p) <= 3 * sigma, (c, g, phat, p)


def test_recovered_or_tracks_implied():
    spec = SynthSpec(users_per_class=100, seed=13, yearly_volumes={2015: 20000})
    out = gen_labeled_tweets(spec)
    tables = analyze(out.tweets, out.predictions, AnalysisConfig())
    by = {(t.construct, t.year): t for t in tables}
    got = by["barriers", 2015].odds_ratio
    assert abs(got - out.implied_or["barriers"]) < 0.15
