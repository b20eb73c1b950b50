import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderfuse.corpus import (
    _CANONICAL_TWEET,
    GENDERS,
    HBM_CONSTRUCTS,
    TPB_ATTITUDES,
    CorpusError,
    GenderPrediction,
    UserRecord,
    import_pan,
    read_labeled_tweets_jsonl,
    read_predictions_jsonl,
    read_users_jsonl,
    split_folds,
    write_labeled_tweets_jsonl,
    write_predictions_jsonl,
    write_users_jsonl,
)
from genderfuse.synth import SynthSpec, gen_labeled_tweets


def make_corpus(n_female, n_male, tweets_per_user=2):
    users = []
    for g, n in (("female", n_female), ("male", n_male)):
        for i in range(n):
            users.append(UserRecord(f"{g[0]}{i}", g, [f"tweet {j} of {g[0]}{i}" for j in range(tweets_per_user)]))
    return users


# ---------------------------------------------------------------------------
# record invariants
# ---------------------------------------------------------------------------

def test_user_record_rejects_empty_tweets():
    with pytest.raises(CorpusError):
        UserRecord("u1", "female", [])
    with pytest.raises(CorpusError):
        UserRecord("u1", "female", ["ok", "   "])
    with pytest.raises(CorpusError):
        UserRecord("", "female", ["ok"])


def test_labeled_tweet_validation(tmp_path):
    good = '{"tweet_id": "t1", "user_id": "u1", "year": 2015, "hbm": ["benefits", "barriers"], "tpb": "positive"}'
    path = tmp_path / "t.jsonl"
    path.write_text(good + "\n", encoding="utf-8")
    t = read_labeled_tweets_jsonl(path)
    assert t.authors == ("u1",) and t.author.tolist() == [0] and t.year.tolist() == [2015]
    assert t.hbm.tolist() == [1 << HBM_CONSTRUCTS.index("benefits") | 1 << HBM_CONSTRUCTS.index("barriers")]
    assert t.tpb.tolist() == [TPB_ATTITUDES.index("positive")]
    for bad in ('{"tweet_id": "t2", "user_id": "u1", "year": 0}',
                '{"tweet_id": "t3", "user_id": "u1", "year": 2015, "hbm": ["bogus"], "tpb": null}',
                '{"tweet_id": "t4", "user_id": "u1", "year": 2015, "tpb": "meh"}'):
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}, line 2:")):
            read_labeled_tweets_jsonl(path)


def test_prediction_avg_must_match_mean():
    GenderPrediction("u1", "male", [0.6, 0.8], 0.7)
    with pytest.raises(CorpusError):
        GenderPrediction("u1", "male", [0.6, 0.8], 0.75)
    with pytest.raises(CorpusError):
        GenderPrediction("u1", "male", [1.2], 1.2)
    p = GenderPrediction.from_fold_probs("u2", "female", [0.5, 0.9, 0.7])
    assert p.avg_prob == pytest.approx(0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# PAN import
# ---------------------------------------------------------------------------

def write_pan_author(dirpath, uid, tweets):
    docs = "".join(f"<document><![CDATA[{t}]]></document>" for t in tweets)
    (dirpath / f"{uid}.xml").write_text(
        f'<author lang="en">{docs}</author>', encoding="utf-8")


def test_import_pan_maps_fields(tmp_path):
    write_pan_author(tmp_path, "abc", [f"tweet number {i}" for i in range(100)])
    (tmp_path / "truth.txt").write_text("abc:::female\n", encoding="utf-8")
    corpus, warnings = import_pan(tmp_path, tmp_path / "truth.txt")
    assert len(corpus) == 1
    assert corpus[0].user_id == "abc"
    assert corpus[0].gender == "female"
    assert len(corpus[0].tweets) == 100
    assert warnings == []


def test_import_pan_empty_dir(tmp_path):
    (tmp_path / "truth.txt").write_text("", encoding="utf-8")
    corpus, warnings = import_pan(tmp_path, tmp_path / "truth.txt")
    assert corpus == []
    assert len(warnings) == 0


def test_import_pan_author_missing_from_truth(tmp_path):
    # hand-built 2-file fixture: one author in truth, one not
    write_pan_author(tmp_path, "known", ["hello world"])
    write_pan_author(tmp_path, "stray", ["hi there"])
    (tmp_path / "truth.txt").write_text("known:::MALE\n", encoding="utf-8")
    corpus, warnings = import_pan(tmp_path, tmp_path / "truth.txt")
    by_id = {u.user_id: u for u in corpus}
    assert by_id["known"].gender == "male"          # case-insensitive
    assert by_id["stray"].gender is None
    assert any("stray" in w for w in warnings)


def test_import_pan_rejects_bad_gender_token(tmp_path):
    write_pan_author(tmp_path, "a1", ["hello"])
    (tmp_path / "truth.txt").write_text("a1:::robot\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="robot"):
        import_pan(tmp_path, tmp_path / "truth.txt")


def test_import_pan_malformed_xml_names_file(tmp_path):
    (tmp_path / "bad.xml").write_text("<author><document>oops", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad.xml"):
        import_pan(tmp_path, None)


# ---------------------------------------------------------------------------
# JSONL round-trips
# ---------------------------------------------------------------------------

def test_users_jsonl_round_trip(tmp_path):
    corpus = make_corpus(2, 1)
    corpus.append(UserRecord("nolabel", None, ["unlabeled tweet"]))
    path = tmp_path / "corpus.jsonl"
    write_users_jsonl(corpus, path)
    assert len(path.read_text().splitlines()) == 4
    back = read_users_jsonl(path)
    assert back == corpus


def test_users_jsonl_gender_case_insensitive(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"user_id": "x", "gender": "MALE", "tweets": ["hi"]}) + "\n")
    assert read_users_jsonl(path)[0].gender == "male"


def test_users_jsonl_duplicate_ids_name_both_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    rows = [{"user_id": f"u{i}", "gender": "male", "tweets": ["t"]} for i in range(5)]
    rows[4]["user_id"] = "u1"  # lines are 1-based: duplicate on lines 2 and 5
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(CorpusError, match=r"lines 2 and 5"):
        read_users_jsonl(path)


def test_users_jsonl_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"user_id": "a", "gender": null, "tweets": ["x"]}\n{oops\n')
    with pytest.raises(CorpusError, match="line 2"):
        read_users_jsonl(path)


# a string or an object is iterable too, so it must not read as a list
@pytest.mark.parametrize("tweets", ['"hi"', '{"x": 1}', '["ok", 7]', '["ok", null]',
                                    '[["ok"]]', 'null', '7'])
def test_users_jsonl_tweets_must_be_a_list_of_strings(tmp_path, tweets):
    path = tmp_path / "users.jsonl"
    path.write_text('{"user_id": "a", "gender": null, "tweets": ["x"]}\n'
                    f'{{"user_id": "b", "gender": null, "tweets": {tweets}}}\n')
    with pytest.raises(CorpusError, match=r"line 2: .*tweets must be a list of strings"):
        read_users_jsonl(path)


@pytest.mark.parametrize("fold_probs", ['"1"', '{"1": 0}', '["1"]', '[true]', '[1, null]',
                                        'null', '1'])
def test_predictions_jsonl_fold_probs_must_be_a_list_of_numbers(tmp_path, fold_probs):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"user_id": "a", "gender": "male", "fold_probs": [1], "avg_prob": 1}\n'
                    f'{{"user_id": "b", "gender": "male", "fold_probs": {fold_probs}, '
                    '"avg_prob": 1.0}\n')
    with pytest.raises(CorpusError, match=r"line 2: .*fold_probs must be a list of numbers"):
        read_predictions_jsonl(path)


# 7 would reach evaluate as "no truth label for user 7"; "1" would read as 1.0
@pytest.mark.parametrize("user_id, avg_prob, message", [
    ('7', '1', "user_id must be a string, got 7"),
    ('null', '1', "user_id must be a string, got None"),
    ('"b"', '"1"', "avg_prob must be a number"),
    ('"b"', 'true', "avg_prob must be a number"),
    ('"b"', 'null', "avg_prob must be a number"),
])
def test_predictions_jsonl_refuses_mistyped_id_or_avg(tmp_path, user_id, avg_prob, message):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"user_id": "a", "gender": "male", "fold_probs": [1], "avg_prob": 1}\n'
                    f'{{"user_id": {user_id}, "gender": "male", "fold_probs": [1], '
                    f'"avg_prob": {avg_prob}}}\n')
    with pytest.raises(CorpusError, match=f"line 2: malformed record: {message}$"):
        read_predictions_jsonl(path)


def test_predictions_jsonl_round_trip(tmp_path):
    preds = [GenderPrediction.from_fold_probs(f"u{i}", GENDERS[i % 2], [0.5 + 0.01 * i] * 5)
             for i in range(3)]
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(preds, path)
    assert read_predictions_jsonl(path) == preds


def test_labeled_tweets_jsonl_round_trip(tmp_path):
    stream = gen_labeled_tweets(SynthSpec(users_per_class=5, seed=3,
                                          yearly_volumes={2014: 40, 2017: 30})).tweets
    path = tmp_path / "tweets.jsonl"
    write_labeled_tweets_jsonl(stream, path)
    back = read_labeled_tweets_jsonl(path)
    assert back.authors == stream.authors
    for column in ("author", "year", "hbm", "tpb"):
        assert np.array_equal(getattr(back, column), getattr(stream, column))
        assert getattr(back, column).dtype == getattr(stream, column).dtype
    # lines as the writer emits them skip the JSON decoder
    with open(path, "rb") as fh:
        assert all(_CANONICAL_TWEET(line) for line in fh)


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def test_split_3000_users_five_folds_of_600():
    corpus = make_corpus(1500, 1500, tweets_per_user=1)
    folds = split_folds(corpus, k=5, seed=0)
    assert [len(f) for f in folds] == [600] * 5


def test_split_forced_stratification():
    corpus = make_corpus(5, 5, tweets_per_user=1)
    folds = split_folds(corpus, k=5, seed=3)
    for fold in folds:
        genders = [corpus[i].gender for i in fold]
        assert sorted(genders) == ["female", "male"]


def test_split_deterministic():
    corpus = make_corpus(13, 17, tweets_per_user=1)
    assert split_folds(corpus, 5, seed=42) == split_folds(corpus, 5, seed=42)
    assert split_folds(corpus, 5, seed=42) != split_folds(corpus, 5, seed=43)


def test_split_rejects_unlabeled_users():
    corpus = make_corpus(3, 3, tweets_per_user=1)
    corpus.append(UserRecord("ghost", None, ["boo"]))
    with pytest.raises(CorpusError, match="ghost"):
        split_folds(corpus, 2, seed=0)


def test_split_rejects_bad_k():
    corpus = make_corpus(2, 2, tweets_per_user=1)
    with pytest.raises(CorpusError):
        split_folds(corpus, 1, seed=0)
    with pytest.raises(CorpusError):
        split_folds(corpus, 9, seed=0)


@settings(max_examples=60, deadline=None)
@given(n_female=st.integers(0, 40), n_male=st.integers(0, 40),
       k=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_split_partition_and_stratification_properties(n_female, n_male, k, seed):
    if n_female + n_male < k:
        return
    corpus = make_corpus(n_female, n_male, tweets_per_user=1)
    folds = split_folds(corpus, k, seed)
    # partition: union is the full index set, pairwise disjoint
    flat = [i for f in folds for i in f]
    assert sorted(flat) == list(range(len(corpus)))
    assert len(set(flat)) == len(flat)
    # sizes within 1 overall and per gender
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    for gender, total in (("female", n_female), ("male", n_male)):
        for fold in folds:
            cnt = sum(1 for i in fold if corpus[i].gender == gender)
            assert abs(cnt - total / k) <= 1
