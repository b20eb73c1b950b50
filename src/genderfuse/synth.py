"""Synthetic corpora with controllable gender signal.

Two generators make the full pipeline runnable without any external data:

* :func:`gen_gender_corpus` emits labeled authors whose tweets share a
  neutral vocabulary, with class markers injected at a configurable rate.
  The marker design separates the three embedding channels: word markers
  are high-frequency class-specific tokens, char markers are near-unique
  random stems wearing a class suffix (invisible to word embeddings, plain
  to a character CNN), and POS markers are class-specific syntax templates
  filled from pools of tagged words.
* :func:`gen_labeled_tweets` emits construct-labeled tweets whose
  per-gender Bernoulli rates imply a known population odds ratio per
  construct, plus perfect-confidence predictions to feed the statistics.

Both are bitwise deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import (GENDERS, HBM_CONSTRUCTS, TPB_ATTITUDES, GenderPrediction,
                     TweetTable, UserRecord)
from .errors import ConfigError
from .stats import CONSTRUCTS

SIGNALS = ("word", "char", "pos", "all", "none")

MARKER_WORDS = {
    "female": ("lorivel", "melodyn", "seraphy"),
    "male": ("brakton", "gruxley", "dravnor"),
}
CHAR_SUFFIX = {"female": "ixxo", "male": "uzzo"}

# template slots draw from pools of words the tagger knows; the tag
# sequence is class-determined even though the surface words vary
_POOLS = {
    "PRP": ("i", "you", "he", "she", "it", "we", "they", "me", "them", "us"),
    "MD": ("will", "would", "can", "could", "should", "may", "might", "must"),
    "VB": ("be", "do", "go", "get", "make", "take", "see", "come", "know",
           "think", "want", "use", "find", "give", "run", "walk"),
    "RB": ("very", "also", "just", "now", "then", "here", "too", "only",
           "really", "never", "always", "often"),
    "DT": ("the", "a", "this", "these", "those", "some", "any", "each",
           "every", "another"),
    "JJ": ("good", "new", "first", "last", "long", "great", "little", "old",
           "right", "big", "high"),
    "NN": ("time", "year", "way", "day", "man", "thing", "woman", "life",
           "child", "world", "school", "family"),
    "IN": ("of", "in", "on", "at", "by", "for", "with", "from", "about",
           "into", "over", "under"),
}
POS_TEMPLATES = {
    "female": ("DT", "JJ", "NN", "IN", "NN"),
    "male": ("PRP", "MD", "VB", "RB"),
}

DEFAULT_RATES = {
    "susceptibility": (0.10, 0.12),
    "severity": (0.15, 0.20),
    "benefits": (0.20, 0.30),
    "barriers": (0.40, 0.25),       # implied OR 2.0, the headline direction
    "tpb_positive": (0.25, 0.35),
}

_CONS = "bcdfghjklmnpqrstvwxz"
_VOWS = "aeiou"


def _word(i: int) -> str:
    # consonant-vowel-consonant: survives normalization unchanged
    return _CONS[i % 20] + _VOWS[(i // 20) % 5] + _CONS[i // 100]


@dataclass(frozen=True)
class SynthSpec:
    users_per_class: int = 200
    tweets_per_user: int = 20
    vocab_size: int = 150
    marker_rate: float = 0.3
    signal: str = "all"
    seed: int = 0
    construct_rates: dict = field(default_factory=lambda: dict(DEFAULT_RATES))
    yearly_volumes: dict = field(
        default_factory=lambda: {y: 2000 for y in range(2014, 2019)})

    def __post_init__(self):
        if self.users_per_class < 1 or self.tweets_per_user < 1:
            raise ConfigError("users_per_class and tweets_per_user must be >= 1")
        if not 1 <= self.vocab_size <= 2000:
            raise ConfigError(f"vocab_size must be in [1, 2000], got {self.vocab_size}")
        if not 0.0 <= self.marker_rate <= 1.0:
            raise ConfigError(f"marker_rate must be in [0,1], got {self.marker_rate}")
        if self.signal not in SIGNALS:
            raise ConfigError(f"signal must be one of {SIGNALS}, got {self.signal!r}")
        if set(self.construct_rates) != set(CONSTRUCTS):
            raise ConfigError(
                f"construct_rates must cover exactly {sorted(CONSTRUCTS)}")
        for c, pair in self.construct_rates.items():
            pm, pf = pair
            if not (0.0 <= pm <= 1.0 and 0.0 <= pf <= 1.0):
                raise ConfigError(f"{c}: rates {pair} outside [0,1]")
        for year, vol in self.yearly_volumes.items():
            if year < 1:
                raise ConfigError(f"years must be >= 1, got {year}")
            if vol < 1:
                raise ConfigError(f"year {year}: volume must be positive, got {vol}")


# ---------------------------------------------------------------------------
# author corpus
# ---------------------------------------------------------------------------

def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _tweet(rng, spec: SynthSpec, gender: str, vocab) -> str:
    words = [_pick(rng, vocab) for _ in range(int(rng.integers(6, 13)))]
    if spec.signal != "none" and rng.random() < spec.marker_rate:
        if spec.signal in ("word", "all"):
            words.insert(int(rng.integers(len(words) + 1)),
                         _pick(rng, MARKER_WORDS[gender]))
        if spec.signal in ("char", "all"):
            stem = "".join(_pick(rng, _CONS) for _ in range(4))
            words.insert(int(rng.integers(len(words) + 1)),
                         stem + CHAR_SUFFIX[gender])
        if spec.signal in ("pos", "all"):
            # keep the template contiguous: the signal is the tag n-gram
            run = [_pick(rng, _POOLS[slot]) for slot in POS_TEMPLATES[gender]]
            at = int(rng.integers(len(words) + 1))
            words[at:at] = run
    # class-neutral decorations so normalization paths get exercised
    if rng.random() < 0.10:
        words.append("#" + _pick(rng, vocab))
    if rng.random() < 0.07:
        words.append("@" + "".join(_pick(rng, _CONS) for _ in range(4)))
    if rng.random() < 0.07:
        words.append("http://example.com/" + "".join(_pick(rng, _CONS)
                                                     for _ in range(6)))
    return " ".join(words)


def gen_gender_corpus(spec: SynthSpec) -> list:
    """Labeled authors, ``users_per_class`` per gender, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    vocab = tuple(_word(i) for i in range(spec.vocab_size))
    users = []
    for gender in GENDERS:
        for u in range(spec.users_per_class):
            tweets = [_tweet(rng, spec, gender, vocab)
                      for _ in range(spec.tweets_per_user)]
            users.append(UserRecord(f"{gender[0]}{u:04d}", gender, tweets))
    return users


# ---------------------------------------------------------------------------
# construct-labeled tweet stream
# ---------------------------------------------------------------------------

def _odds(p: float) -> float:
    return math.inf if p == 1.0 else p / (1.0 - p)


def implied_odds_ratio(pm: float, pf: float) -> float:
    """Population OR of the male over the female Bernoulli rate."""
    om, of = _odds(pm), _odds(pf)
    if of == 0.0:
        return math.nan if om == 0.0 else math.inf
    return om / of          # inf/inf degenerates to nan


@dataclass
class LabeledTweetSet:
    tweets: TweetTable
    predictions: list       # perfect-confidence gender predictions
    implied_or: dict        # construct -> population odds ratio


def gen_labeled_tweets(spec: SynthSpec) -> LabeledTweetSet:
    """Construct labels drawn per tweet from per-gender Bernoulli rates.

    Rates are ``{construct: (male_rate, female_rate)}``; the TPB entry sets
    attitude "positive" on a hit and "negative" otherwise.
    """
    rng = np.random.default_rng(spec.seed)
    users = [(f"s{g[0]}{i:04d}", g)
             for g in GENDERS for i in range(spec.users_per_class)]
    preds = [GenderPrediction.from_fold_probs(uid, g, [1.0]) for uid, g in users]
    is_male = np.array([g == "male" for _, g in users])
    # rate pairs are (male, female); row 1 holds the male rates
    rates = np.array([[spec.construct_rates[c][1 - m] for c in CONSTRUCTS] for m in (0, 1)])

    years = sorted(spec.yearly_volumes)
    volumes = [spec.yearly_volumes[y] for y in years]
    drawn, draws = [], []
    for vol in volumes:
        drawn.append(rng.integers(0, len(users), size=vol))
        draws.append(rng.random(size=(vol, len(CONSTRUCTS))))
    drawn = np.concatenate(drawn)
    hits = np.concatenate(draws) < rates[is_male[drawn].astype(np.int64)]
    bits = 1 << np.array([HBM_CONSTRUCTS.index(c) for c in CONSTRUCTS[:-1]])
    ids, first, inverse = np.unique(drawn, return_index=True, return_inverse=True)
    order = np.argsort(first)               # authors in first-seen order
    tweets = TweetTable(
        authors=tuple(users[i][0] for i in ids[order].tolist()),
        author=np.argsort(order)[inverse],
        year=np.repeat(np.array(years, dtype=np.int64), volumes),
        hbm=(hits[:, :-1] @ bits).astype(np.uint8),
        tpb=np.where(hits[:, -1], TPB_ATTITUDES.index("positive"),
                     TPB_ATTITUDES.index("negative")).astype(np.int8))
    implied = {c: implied_odds_ratio(*spec.construct_rates[c])
               for c in CONSTRUCTS}
    return LabeledTweetSet(tweets=tweets, predictions=preds, implied_or=implied)
