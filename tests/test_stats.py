"""Contingency tables, odds ratios, and chi-square machinery.

The chi-square tail values below were frozen from numerical quadrature of
the df=1 density (integral of exp(-u^2/2)*sqrt(2/pi) over u >= sqrt(x),
after substituting u = sqrt(t)), independent of the erfc closed form used
by the implementation.  Do not regenerate them from package output.
"""

import csv
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genderfuse.corpus import (HBM_CONSTRUCTS, TPB_ATTITUDES, GenderPrediction, TweetTable,
                               read_labeled_tweets_jsonl)
from genderfuse.errors import CorpusError, StatsError
from genderfuse.ioutil import iter_jsonl
from genderfuse.stats import (CONSTRUCTS, AnalysisConfig, ConstructTable,
                              analyze, apply_bonferroni, build_tables,
                              chi2_tail, chi2_test, emit_figure2, odds_ratio)

QUADRATURE_TAIL = [
    (0.5, 0.47950012218695354),
    (1.0, 0.3173105078629141),
    (2.0, 0.15729920705028513),
    (3.841, 0.05001368376394897),
    (5.0, 0.025347318677466518),
    (6.635, 0.009999419592037418),
    (10.828, 0.0009997657195830935),
    (20.0, 7.744216430980921e-06),
]


def table(a, b, c, d, construct="barriers", year=2015, **kw):
    return ConstructTable(construct, year, a, b, c, d, **kw)


# ---------------------------------------------------------------------------
# chi-square tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,expected", QUADRATURE_TAIL)
def test_tail_matches_quadrature_oracle(x, expected):
    assert chi2_tail(x) == pytest.approx(expected, abs=2e-8)


def test_tail_at_classic_critical_value():
    assert chi2_tail(3.841) == pytest.approx(0.0500, abs=1e-3)


def test_tail_boundaries():
    assert chi2_tail(0.0) == 1.0
    with pytest.raises(StatsError):
        chi2_tail(-0.1)


@given(st.lists(st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
                min_size=2, max_size=10,
                unique_by=lambda x: round(x, 4)))   # 1-ulp gaps round alike
def test_tail_strictly_decreasing(xs):
    xs = sorted(xs)
    ps = [chi2_tail(x) for x in xs]
    assert all(0.0 < p <= 1.0 for p in ps)
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


# ---------------------------------------------------------------------------
# odds ratio
# ---------------------------------------------------------------------------

def test_or_symmetric_table_is_one():
    assert odds_ratio(table(10, 10, 10, 10)) == 1.0


def test_or_hand_arithmetic():
    # (20*20)/(10*10)
    assert odds_ratio(table(20, 10, 10, 20)) == 4.0


def test_or_gender_swap_reciprocal():
    assert odds_ratio(table(10, 20, 20, 10)) == pytest.approx(0.25, rel=1e-15)


@given(st.tuples(*[st.integers(min_value=1, max_value=60)] * 4))
def test_or_reciprocal_property(cells):
    a, b, c, d = cells
    fwd = odds_ratio(table(a, b, c, d))
    rev = odds_ratio(table(c, d, a, b))
    assert rev == pytest.approx(1.0 / fwd, rel=1e-14)


@given(st.tuples(*[st.integers(min_value=1, max_value=60)] * 4),
       st.integers(min_value=1, max_value=20))
def test_or_row_scaling_invariance(cells, m):
    a, b, c, d = cells
    # replicating every male tweet m times leaves the ratio exact
    assert odds_ratio(table(m * a, m * b, c, d)) == odds_ratio(table(a, b, c, d))


def test_or_haldane_correction():
    # zero cell: all cells +0.5, so (0.5*20.5)/(10.5*5.5)
    got = odds_ratio(table(0, 10, 5, 20))
    assert got == pytest.approx((0.5 * 20.5) / (10.5 * 5.5), rel=1e-15)
    assert got > 0


def test_or_zero_cell_without_policy():
    cfg = AnalysisConfig(haldane=False)
    with pytest.raises(StatsError, match="Haldane"):
        odds_ratio(table(0, 10, 5, 20), cfg)


# ---------------------------------------------------------------------------
# chi-square test on tables
# ---------------------------------------------------------------------------

def test_chi2_proportional_table_is_zero():
    stat, p = chi2_test(table(10, 20, 5, 10))
    assert stat == 0.0
    assert p == 1.0


def test_chi2_hand_computed_expecteds():
    # margins 40/40 and 40/40 over N=80: every expected cell is 20,
    # statistic = 4 * (10^2)/20 = 20
    t = table(30, 10, 10, 30)
    stat, p = chi2_test(t)
    assert stat == pytest.approx(20.0, abs=1e-12)
    # brute-force recount from margins
    cells = [[30, 10], [10, 30]]
    rows = [sum(r) for r in cells]
    cols = [sum(c) for c in zip(*cells)]
    n = sum(rows)
    brute = sum((cells[i][j] - rows[i] * cols[j] / n) ** 2 / (rows[i] * cols[j] / n)
                for i in range(2) for j in range(2))
    assert stat == pytest.approx(brute, rel=1e-14)
    assert p == pytest.approx(chi2_tail(20.0), rel=1e-14)


def test_chi2_transpose_invariant_and_nonnegative():
    for cells in ((3, 9, 14, 2), (7, 7, 7, 7), (1, 50, 2, 49)):
        a, b, c, d = cells
        s1, _ = chi2_test(table(a, b, c, d))
        s2, _ = chi2_test(table(a, c, b, d))
        assert s1 >= 0.0
        assert s1 == pytest.approx(s2, rel=1e-12)


def test_chi2_yates_flag():
    stat, _ = chi2_test(table(30, 10, 10, 30), AnalysisConfig(yates=True))
    # every |O-E| = 10 shrinks to 9.5: 4 * 9.5^2 / 20
    assert stat == pytest.approx(18.05, abs=1e-12)


def test_chi2_zero_margin_errors():
    with pytest.raises(StatsError, match="margin"):
        chi2_test(table(0, 0, 5, 10))
    with pytest.raises(StatsError, match="margin"):
        chi2_test(table(0, 5, 0, 10))


# ---------------------------------------------------------------------------
# config and bonferroni
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(StatsError):
        AnalysisConfig(alpha=0.0)
    with pytest.raises(StatsError):
        AnalysisConfig(alpha=1.0)
    with pytest.raises(StatsError):
        AnalysisConfig(comparisons=0)
    with pytest.raises(StatsError):
        AnalysisConfig(denominator="some")


def test_default_threshold():
    assert AnalysisConfig().threshold == pytest.approx(0.002)


def test_bonferroni_strict_threshold():
    ts = [table(5, 5, 5, 5, p_value=0.0019),
          table(5, 5, 5, 5, p_value=0.002),
          table(5, 5, 5, 5, p_value=0.5)]
    apply_bonferroni(ts)
    assert [t.significant for t in ts] == [True, False, False]


def test_bonferroni_single_comparison():
    ts = [table(5, 5, 5, 5, p_value=0.03)]
    apply_bonferroni(ts, AnalysisConfig(comparisons=1))
    assert ts[0].significant is True


def test_bonferroni_needs_p_values():
    with pytest.raises(StatsError, match="p-value missing"):
        apply_bonferroni([table(5, 5, 5, 5)])


def test_table_validation():
    with pytest.raises(StatsError, match="unknown construct"):
        ConstructTable("optimism", 2015, 1, 1, 1, 1)
    with pytest.raises(StatsError, match="negative"):
        table(-1, 1, 1, 1)


# ---------------------------------------------------------------------------
# oracle: the per-tweet record, reader and table loop the columns replaced
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class LabeledTweet:
    """One tweet with HBM construct labels and an optional TPB attitude."""

    tweet_id: str
    user_id: str
    year: int
    hbm_constructs: frozenset = field(default_factory=frozenset)
    tpb_attitude: str | None = None

    def __post_init__(self):
        if not isinstance(self.user_id, str):
            raise CorpusError(f"tweet {self.tweet_id!r}: user_id must be a string")
        if self.year <= 0:
            raise CorpusError(f"tweet {self.tweet_id!r}: year must be positive")
        self.hbm_constructs = frozenset(self.hbm_constructs)
        bad = self.hbm_constructs - set(HBM_CONSTRUCTS)
        if bad:
            raise CorpusError(f"tweet {self.tweet_id!r}: unknown HBM constructs {sorted(bad)}")
        if self.tpb_attitude is not None and self.tpb_attitude not in TPB_ATTITUDES:
            raise CorpusError(f"tweet {self.tweet_id!r}: bad TPB attitude {self.tpb_attitude!r}")


def oracle_read(path) -> list:
    """The per-line reader, except that record errors also name the line."""
    tweets = []
    for lineno, obj in iter_jsonl(path):
        try:
            tweets.append(LabeledTweet(
                tweet_id=obj["tweet_id"],
                user_id=obj["user_id"],
                year=int(obj["year"]),
                hbm_constructs=frozenset(obj.get("hbm", ())),
                tpb_attitude=obj.get("tpb"),
            ))
        except (AttributeError, KeyError, TypeError, ValueError, CorpusError) as exc:
            raise CorpusError(f"{path}, line {lineno}: {exc}") from exc
    return tweets


def _in_construct(tweet, construct: str) -> bool:
    if construct == "tpb_positive":
        return tweet.tpb_attitude == "positive"
    return construct in tweet.hbm_constructs


def _in_denominator(tweet, construct: str, config: AnalysisConfig) -> bool:
    if config.denominator == "all":
        return True
    if construct == "tpb_positive":
        return tweet.tpb_attitude is not None
    return bool(tweet.hbm_constructs)


def oracle_tables(tweets, preds, config: AnalysisConfig | None = None) -> list:
    """The loop over years x constructs x tweets that ``build_tables`` replaced."""
    config = config or AnalysisConfig()
    gender_of = {p.user_id: p.voted_gender for p in preds}
    unresolved = sorted({t.user_id for t in tweets if t.user_id not in gender_of})
    if unresolved:
        raise StatsError(
            f"{len(unresolved)} tweet author(s) have no gender prediction, "
            f"e.g. {unresolved[:5]}")

    tables = []
    for year in sorted({t.year for t in tweets}):
        year_tweets = [t for t in tweets if t.year == year]
        for construct in CONSTRUCTS:
            a = b = c = d = 0
            for t in year_tweets:
                if not _in_denominator(t, construct, config):
                    continue
                male = gender_of[t.user_id] == "male"
                hit = _in_construct(t, construct)
                if male:
                    a, b = a + hit, b + (not hit)
                else:
                    c, d = c + hit, d + (not hit)
            tables.append(ConstructTable(construct, year, a, b, c, d))
    return tables


def stream_of(tweets) -> TweetTable:
    """The columns of a list of oracle tweets, authors in first-seen order."""
    authors = {}
    author = [authors.setdefault(t.user_id, len(authors)) for t in tweets]
    return TweetTable(
        authors=tuple(authors),
        author=np.array(author, dtype=np.int64),
        year=np.array([t.year for t in tweets], dtype=np.int64),
        hbm=np.array([sum(1 << HBM_CONSTRUCTS.index(c) for c in t.hbm_constructs)
                      for t in tweets], dtype=np.uint8),
        tpb=np.array([-1 if t.tpb_attitude is None else TPB_ATTITUDES.index(t.tpb_attitude)
                      for t in tweets], dtype=np.int8))


def cells(tables) -> list:
    return [(t.construct, t.year, t.cells) for t in tables]


# ---------------------------------------------------------------------------
# table building (hand-counted 6-tweet fixture)
# ---------------------------------------------------------------------------

def fixture_tweets():
    return [
        LabeledTweet("t1", "bob", 2015, frozenset({"barriers"})),
        LabeledTweet("t2", "bob", 2015, frozenset({"barriers", "severity"})),
        LabeledTweet("t3", "ben", 2015, frozenset(), "positive"),
        LabeledTweet("t4", "alice", 2015, frozenset({"benefits"})),
        LabeledTweet("t5", "amy", 2015, frozenset({"barriers"}), "negative"),
        LabeledTweet("t6", "alice", 2015, frozenset()),
        LabeledTweet("t7", "ben", 2015, frozenset({"susceptibility"})),
    ]


def fixture_preds():
    return [GenderPrediction.from_fold_probs(u, g, [0.9])
            for u, g in (("bob", "male"), ("ben", "male"),
                         ("alice", "female"), ("amy", "female"))]


def by_construct(tables):
    return {(t.construct, t.year): t for t in tables}


def test_fixture_cells_match_hand_count():
    # male tweets: t1, t2, t3, t7; female: t4, t5, t6
    tables = by_construct(build_tables(stream_of(fixture_tweets()), fixture_preds()))
    assert len(tables) == 5
    assert tables[("barriers", 2015)].cells == (2, 2, 1, 2)
    assert tables[("severity", 2015)].cells == (1, 3, 0, 3)     # t2 counted here too
    assert tables[("benefits", 2015)].cells == (0, 4, 1, 2)
    assert tables[("susceptibility", 2015)].cells == (1, 3, 0, 3)
    assert tables[("tpb_positive", 2015)].cells == (1, 3, 0, 3)


def test_fixture_row_totals():
    for t in build_tables(stream_of(fixture_tweets()), fixture_preds()):
        assert t.a + t.b == 4       # male tweets that year
        assert t.c + t.d == 3


def test_labeled_denominator():
    cfg = AnalysisConfig(denominator="labeled")
    tables = by_construct(build_tables(stream_of(fixture_tweets()), fixture_preds(), cfg))
    # HBM-labeled tweets only: t1, t2, t7, t4, t5
    assert tables[("barriers", 2015)].cells == (2, 1, 1, 1)
    # TPB-labeled tweets only: t3, t5
    assert tables[("tpb_positive", 2015)].cells == (1, 0, 0, 1)


def test_multi_year_and_empty_year():
    tweets = fixture_tweets() + [
        LabeledTweet("t7", "amy", 2017, frozenset({"benefits"}))]
    tables = build_tables(stream_of(tweets), fixture_preds())
    assert len(tables) == 10
    assert sorted({t.year for t in tables}) == [2015, 2017]


def test_unresolvable_user_listed():
    tweets = fixture_tweets() + [LabeledTweet("t9", "zoe", 2015, frozenset())]
    with pytest.raises(StatsError, match="zoe"):
        build_tables(stream_of(tweets), fixture_preds())


@given(st.lists(st.tuples(st.sampled_from(["bob", "amy"]),
                          st.sampled_from([2014, 2015]),
                          st.booleans()),
                min_size=1, max_size=30))
def test_totals_against_brute_recount(rows):
    tweets = [LabeledTweet(f"t{i}", uid, year,
                           frozenset({"barriers"} if hit else set()))
              for i, (uid, year, hit) in enumerate(rows)]
    preds = [GenderPrediction.from_fold_probs("bob", "male", [0.9]),
             GenderPrediction.from_fold_probs("amy", "female", [0.9])]
    for t in build_tables(stream_of(tweets), preds):
        male = sum(1 for tw in tweets if tw.year == t.year and tw.user_id == "bob")
        female = sum(1 for tw in tweets if tw.year == t.year and tw.user_id == "amy")
        assert t.a + t.b == male
        assert t.c + t.d == female
        if t.construct == "barriers":
            assert t.a == sum(1 for tw in tweets
                              if tw.year == t.year and tw.user_id == "bob"
                              and "barriers" in tw.hbm_constructs)


# ---------------------------------------------------------------------------
# differential: column reader + bincount against the oracle reader + loop
# ---------------------------------------------------------------------------

AUTHORS = {"sf0001": "female", "sm0002": "male", "zo\u00eb": "female",
           "\u30e6\u30fc\u30b6\u30fc": "male", 'quo"te': "male", "back\\slash": "female",
           "tab\tid": "male", "": "female"}
AUTHOR_PREDS = [GenderPrediction.from_fold_probs(u, g, [0.8]) for u, g in AUTHORS.items()]
KEYS = ("tweet_id", "user_id", "year", "hbm", "tpb")
# each is refused by both readers
BAD_LINES = (
    '{"tweet_id": "x", "user_id": "sf0001", "year": 0, "hbm": [], "tpb": null}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": -4}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": 2015, "hbm": ["bogus"], "tpb": null}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": 2015, "hbm": [], "tpb": "meh"}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": 2015, "hbm": "barriers"}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": 2015, "hbm": null}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": "x"}',
    '{"tweet_id": "x", "user_id": "sf0001", "year": null}',
    '{"tweet_id": "x", "year": 2015}',
    '{"tweet_id": "x", "user_id": 7, "year": 2015}',
    '{"tweet_id": "x", "user_id": null, "year": 2015}',
    '{"user_id": "sf0001", "year": 2015}',
    '{"tweet_id": "x", "user_id": "sf0001"}',
    '["x", "sf0001", 2015]',
    'not json',
)


@st.composite
def tweet_lines(draw):
    """One valid tweet line, canonical or in any form JSON allows."""
    year = draw(st.sampled_from([2014, 2015, 2016]))
    names = draw(st.lists(st.sampled_from(HBM_CONSTRUCTS), max_size=5))
    tpb = draw(st.sampled_from([None, *TPB_ATTITUDES]))
    obj = {"tweet_id": f"t{draw(st.integers(0, 999))}",
           "user_id": draw(st.sampled_from(sorted(AUTHORS))), "year": year,
           "hbm": sorted(set(names)), "tpb": tpb}
    if draw(st.booleans()):
        return json.dumps(obj, ensure_ascii=False)      # as the writer emits it
    obj["hbm"] = names                                  # any order, duplicates
    if draw(st.booleans()):
        obj["year"] = str(year)
    if not names and draw(st.booleans()):
        del obj["hbm"]
    if tpb is None and draw(st.booleans()):
        del obj["tpb"]
    if draw(st.booleans()):
        obj["text"] = draw(st.text(max_size=6))
    keys = draw(st.permutations(list(obj)))
    return json.dumps({k: obj[k] for k in keys}, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(", ", ": "), (",", ":"),
                                                       (" ,\t", " : ")])))


@st.composite
def tweet_streams(draw):
    """``(file bytes, 1-based number of the one bad line or None)``."""
    lines = draw(st.lists(tweet_lines(), min_size=1, max_size=25))
    bad_at = None
    if draw(st.booleans()):
        bad_at = draw(st.integers(0, len(lines)))
        lines.insert(bad_at, draw(st.sampled_from(BAD_LINES)))
    physical, bad_line = [], None
    for i, line in enumerate(lines):
        physical += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        if i == bad_at:
            bad_line = len(physical) + 1
        physical.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(physical) + (end if draw(st.booleans()) else "")
    return text.encode("utf-8"), bad_line


@settings(max_examples=200, deadline=None)
@given(tweet_streams())
def test_reader_and_tables_match_oracle(case):
    data, bad_line = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tweets.jsonl"
        path.write_bytes(data)
        if bad_line is not None:
            for read in (oracle_read, read_labeled_tweets_jsonl):
                with pytest.raises(CorpusError) as err:
                    read(path)
                assert str(err.value).startswith(f"{path}, line {bad_line}:"), read
            return
        old, new = oracle_read(path), read_labeled_tweets_jsonl(path)
    assert len(new) == len(old)
    for denominator in ("all", "labeled"):
        config = AnalysisConfig(denominator=denominator)
        assert (cells(build_tables(new, AUTHOR_PREDS, config))
                == cells(oracle_tables(old, AUTHOR_PREDS, config)))


# ---------------------------------------------------------------------------
# analyze + figure emission
# ---------------------------------------------------------------------------

def test_analyze_fills_all_fields():
    tables = analyze(stream_of(fixture_tweets()), fixture_preds())
    for t in tables:
        assert t.odds_ratio > 0
        assert t.chi2 >= 0
        assert 0.0 <= t.p_value <= 1.0
        assert isinstance(t.significant, bool)


def synthetic_tables():
    tables = []
    for year in range(2014, 2019):
        for i, construct in enumerate(CONSTRUCTS):
            tables.append(ConstructTable(
                construct, year, 20 + i, 30, 15, 35,
                odds_ratio=1.5 + 0.1 * i, chi2=4.2, p_value=0.001 * (i + 1),
                significant=i == 0))
    return tables


def test_emit_figure2_layout(tmp_path):
    path = tmp_path / "figure2.csv"
    emit_figure2(synthetic_tables(), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(("construct", "year", "odds_ratio", "chi2",
                            "p_value", "significant"))
    assert len(rows) == 26
    # constructs in fixed order, years ascending within each
    assert [r[0] for r in rows[1:]] == [c for c in CONSTRUCTS for _ in range(5)]
    assert [r[1] for r in rows[1:6]] == ["2014", "2015", "2016", "2017", "2018"]
    assert rows[1][2] == "1.5000"
    assert rows[1][5] == "true"
    assert rows[6][5] == "false"


def test_emit_figure2_header_bytes(tmp_path):
    path = tmp_path / "figure2.csv"
    emit_figure2(synthetic_tables()[:5], path)
    first = path.read_bytes().splitlines()[0]
    assert first == b"construct,year,odds_ratio,chi2,p_value,significant"


def test_emit_figure2_json_mirror(tmp_path):
    path = tmp_path / "figure2.csv"
    tables = synthetic_tables()
    emit_figure2(tables, path)
    mirror = json.loads((tmp_path / "figure2.json").read_text(encoding="utf-8"))
    assert len(mirror) == 25
    assert mirror[0]["construct"] == "susceptibility"
    assert mirror[0]["year"] == 2014
    assert mirror[0]["odds_ratio"] == pytest.approx(1.5)
    assert mirror[0]["significant"] is True


def test_emit_requires_statistics(tmp_path):
    with pytest.raises(StatsError, match="statistics missing"):
        emit_figure2([table(5, 5, 5, 5)], tmp_path / "x.csv")


def test_full_pipeline_or_direction():
    # barriers: male odds 2/2 vs female odds 1/2, ratio 2
    tables = by_construct(analyze(stream_of(fixture_tweets()), fixture_preds()))
    assert tables[("barriers", 2015)].odds_ratio == pytest.approx(2.0)
    assert math.isfinite(tables[("severity", 2015)].odds_ratio)
