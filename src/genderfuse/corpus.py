"""Canonical data model and ingestion for author corpora and label streams.

Three record kinds move through the pipeline:

* :class:`UserRecord` -- one Twitter author with raw tweets (the unit the
  gender model predicts on);
* :class:`TweetTable` -- a construct-labeled tweet stream as columns,
  consumed by the contingency statistics;
* :class:`GenderPrediction` -- one voted ensemble prediction with per-fold
  probabilities.

The canonical on-disk format is JSONL, one object per line.  PAN-style
author directories (``<id>.xml`` + ``truth.txt``) are import-only.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorpusError
from .ioutil import iter_jsonl, json_line, text_lines, write_jsonl

# Label encoding is fixed package-wide: female = 0, male = 1.
GENDERS = ("female", "male")
HBM_CONSTRUCTS = ("susceptibility", "severity", "benefits", "barriers")
TPB_ATTITUDES = ("positive", "negative", "neutral")


def gender_index(gender: str) -> int:
    return GENDERS.index(gender)


def gender_labels(users) -> np.ndarray:
    """int64 gender indices of ``users``; every user must carry a label."""
    for u in users:
        if u.gender is None:
            raise CorpusError(f"user {u.user_id!r} has no gender label")
    return np.array([gender_index(u.gender) for u in users], dtype=np.int64)


def _parse_gender(token, *, where: str):
    """Case-insensitive gender parsing; anything but female/male is an error."""
    if token is None:
        return None
    g = str(token).strip().lower()
    if g not in GENDERS:
        raise CorpusError(f"{where}: unknown gender token {token!r} (expected one of {GENDERS})")
    return g


@dataclass
class UserRecord:
    """One author: opaque id, optional gender label, raw tweet texts."""

    user_id: str
    gender: str | None
    tweets: list[str]

    def __post_init__(self):
        if not isinstance(self.user_id, str):
            raise TypeError(f"user_id must be a string, got {self.user_id!r}")
        if not self.user_id:
            raise CorpusError("user_id must be non-empty")
        if self.gender is not None and self.gender not in GENDERS:
            raise CorpusError(f"user {self.user_id!r}: bad gender {self.gender!r}")
        if not self.tweets:
            raise CorpusError(f"user {self.user_id!r}: tweets list is empty")
        for t in self.tweets:
            if not t.strip():
                raise CorpusError(f"user {self.user_id!r}: contains an empty tweet")


@dataclass(frozen=True, eq=False)
class TweetTable:
    """A construct-labeled tweet stream as columns, one row per tweet.

    ``author`` indexes ``authors``, the distinct user ids in first-seen
    order.  Bit j of ``hbm`` marks ``HBM_CONSTRUCTS[j]``; ``tpb`` is -1 for no
    attitude, otherwise an index into ``TPB_ATTITUDES``.
    """

    authors: tuple
    author: np.ndarray      # int64
    year: np.ndarray        # int64, positive
    hbm: np.ndarray         # uint8 bitmask
    tpb: np.ndarray         # int8 code

    def __len__(self) -> int:
        return len(self.year)


@dataclass
class GenderPrediction:
    """Voted ensemble label with the per-fold probability of that label."""

    user_id: str
    voted_gender: str
    fold_probs: list[float]
    avg_prob: float

    def __post_init__(self):
        if self.voted_gender not in GENDERS:
            raise CorpusError(f"prediction {self.user_id!r}: bad gender {self.voted_gender!r}")
        if not self.fold_probs:
            raise CorpusError(f"prediction {self.user_id!r}: fold_probs is empty")
        for p in self.fold_probs:
            if not 0.0 <= p <= 1.0:
                raise CorpusError(f"prediction {self.user_id!r}: probability {p} outside [0,1]")
        if not math.isclose(self.avg_prob, sum(self.fold_probs) / len(self.fold_probs),
                            rel_tol=0.0, abs_tol=1e-12):
            raise CorpusError(f"prediction {self.user_id!r}: avg_prob is not the mean of fold_probs")

    @classmethod
    def from_fold_probs(cls, user_id: str, voted_gender: str, fold_probs) -> "GenderPrediction":
        fold_probs = [float(p) for p in fold_probs]
        return cls(user_id, voted_gender, fold_probs, sum(fold_probs) / len(fold_probs))


# ---------------------------------------------------------------------------
# PAN-style import
# ---------------------------------------------------------------------------

def import_pan(author_dir, truth_path) -> tuple[list[UserRecord], list[str]]:
    """Read a directory of per-author XML files plus an ``id:::gender`` truth file.

    Returns ``(corpus, warnings)``.  Authors missing from the truth file get
    an absent gender and a warning; malformed XML raises naming the file,
    and a truth file that cannot be opened raises ``OSError``.
    """
    author_dir = Path(author_dir)
    truth = {}
    if truth_path is not None:
        for lineno, line in text_lines(truth_path):
            line = line.strip()
            if not line:
                continue
            parts = line.split(":::")
            if len(parts) < 2:
                raise CorpusError(f"{truth_path}, line {lineno}: bad truth row {line!r} "
                                  "(expected id:::gender)")
            uid = parts[0].strip()
            truth[uid] = _parse_gender(parts[1],
                                       where=f"{truth_path}, line {lineno} (author {uid!r})")

    users: list[UserRecord] = []
    warnings: list[str] = []
    for xml_path in sorted(author_dir.glob("*.xml")):
        try:
            tree = ET.parse(xml_path)
        except ET.ParseError as exc:
            raise CorpusError(f"malformed XML in {xml_path.name}: {exc}") from exc
        tweets = [(el.text or "").strip() for el in tree.getroot().iter("document")]
        tweets = [t for t in tweets if t]
        uid = xml_path.stem
        if not tweets:
            warnings.append(f"{xml_path.name}: no non-empty tweets, author skipped")
            continue
        gender = truth.get(uid)
        if gender is None:
            warnings.append(f"{uid}: not listed in truth file, gender left unset")
        users.append(UserRecord(uid, gender, tweets))
    return users, warnings


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------

def write_users_jsonl(corpus, path) -> None:
    write_jsonl(path, ({"user_id": u.user_id, "gender": u.gender, "tweets": u.tweets}
                       for u in corpus))


def _bad_record(path, lineno: int, exc: Exception) -> CorpusError:
    """A non-object line, a missing or mistyped field, or a value that does not convert."""
    what = f"missing field {exc}" if isinstance(exc, KeyError) else f"malformed record: {exc}"
    return CorpusError(f"{path}, line {lineno}: {what}")


def read_users_jsonl(path) -> list[UserRecord]:
    users: list[UserRecord] = []
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl(path):
        try:
            user = UserRecord(
                user_id=obj["user_id"],
                gender=_parse_gender(obj.get("gender"), where=f"{path}, line {lineno}"),
                tweets=list(obj["tweets"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _bad_record(path, lineno, exc) from exc
        if user.user_id in seen:
            raise CorpusError(
                f"{path}: duplicate user_id {user.user_id!r} on lines "
                f"{seen[user.user_id]} and {lineno}")
        seen[user.user_id] = lineno
        users.append(user)
    if not users:
        raise CorpusError(f"{path}: no users")
    return users


def write_labeled_tweets_jsonl(stream: TweetTable, path) -> None:
    """One canonical line per row, tweet ids numbered ``t0``, ``t1``, ..."""
    hbm = [sorted(c for j, c in enumerate(HBM_CONSTRUCTS) if mask >> j & 1)
           for mask in range(1 << len(HBM_CONSTRUCTS))]
    tpb = (*TPB_ATTITUDES, None)            # code -1 reads the last entry
    rows = zip(stream.author.tolist(), stream.year.tolist(), stream.hbm.tolist(),
               stream.tpb.tolist())
    write_jsonl(path, ({"tweet_id": f"t{i}", "user_id": stream.authors[a], "year": y,
                        "hbm": hbm[h], "tpb": tpb[t]}
                       for i, (a, y, h, t) in enumerate(rows)))


# The line write_labeled_tweets_jsonl emits: fixed key order, default
# separators, strings of printable ASCII without escapes, and a year of at
# most 18 digits, so it fits int64.  Group 1 is the user id; group 2, the
# year, hbm and tpb fields, takes few distinct values in a stream.
_PLAIN = rb'[ !#-\[\]-~]*'
_CANONICAL_TWEET = re.compile(
    rb'\{"tweet_id": "' + _PLAIN + rb'", "user_id": "(' + _PLAIN + rb')", '
    rb'("year": [1-9][0-9]{0,17}, "hbm": \[(?:"[a-z]+"(?:, "[a-z]+")*)?\], '
    rb'"tpb": (?:null|"[a-z]+"))\}\r?\n?').fullmatch
_INT64_MAX = int(np.iinfo(np.int64).max)


def _tweet_labels(obj) -> tuple:
    """``(year, hbm bitmask, tpb code)`` of one decoded tweet object."""
    year = int(obj["year"])
    if not 0 < year <= _INT64_MAX:
        raise ValueError(f"year must be in 1..{_INT64_MAX}, got {obj['year']!r}")
    hbm = frozenset(obj.get("hbm", ()))
    bad = hbm - set(HBM_CONSTRUCTS)
    if bad:
        raise ValueError(f"unknown HBM constructs {sorted(bad, key=repr)}")
    tpb = obj.get("tpb")
    if tpb is not None and tpb not in TPB_ATTITUDES:
        raise ValueError(f"bad TPB attitude {tpb!r}")
    return (year, sum(1 << HBM_CONSTRUCTS.index(c) for c in hbm),
            -1 if tpb is None else TPB_ATTITUDES.index(tpb))


def read_labeled_tweets_jsonl(path) -> TweetTable:
    """Read a labeled-tweet stream; every non-blank line is one JSON object.

    ``tweet_id``, ``user_id`` (a string) and ``year`` are required, ``hbm``
    (a list of names, read as a set) and ``tpb`` (a name or null) are
    optional, and any other field is ignored.  Lines exactly as
    :func:`write_labeled_tweets_jsonl` writes them skip the JSON decoder.
    """
    authors: dict = {}          # user id -> author index, in first-seen order
    labels: dict = {}           # (year, hbm, tpb) -> label row
    raw_authors: dict = {}      # raw bytes of canonical lines -> the same indices
    raw_labels: dict = {}
    author, label = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                m = _CANONICAL_TWEET(line)
                if m is not None:
                    uid, fields = m.groups()
                    a = raw_authors.get(uid)
                    if a is None:
                        a = raw_authors[uid] = authors.setdefault(uid.decode("ascii"),
                                                                  len(authors))
                    r = raw_labels.get(fields)
                    if r is None:
                        row = _tweet_labels(json.loads(b"{" + fields + b"}"))
                        r = raw_labels[fields] = labels.setdefault(row, len(labels))
                elif line.strip():
                    obj = json_line(path, lineno, line)
                    _, uid = obj["tweet_id"], obj["user_id"]   # tweet_id is not kept
                    if not isinstance(uid, str):
                        raise TypeError(f"user_id must be a string, got {uid!r}")
                    a = authors.setdefault(uid, len(authors))
                    r = labels.setdefault(_tweet_labels(obj), len(labels))
                else:
                    continue
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise _bad_record(path, lineno, exc) from exc
            author.append(a)
            label.append(r)
    rows = np.array(label, dtype=np.int64)
    year, hbm, tpb = np.array(list(labels), dtype=np.int64).reshape(-1, 3).T
    return TweetTable(authors=tuple(authors), author=np.array(author, dtype=np.int64),
                      year=year[rows], hbm=hbm[rows].astype(np.uint8),
                      tpb=tpb[rows].astype(np.int8))


def write_predictions_jsonl(preds, path) -> None:
    write_jsonl(path, ({"user_id": p.user_id, "gender": p.voted_gender,
                        "fold_probs": p.fold_probs, "avg_prob": p.avg_prob}
                       for p in preds))


def read_predictions_jsonl(path) -> list[GenderPrediction]:
    preds = []
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl(path):
        try:
            pred = GenderPrediction(
                user_id=obj["user_id"],
                voted_gender=_parse_gender(obj["gender"], where=f"{path}, line {lineno}"),
                fold_probs=[float(p) for p in obj["fold_probs"]],
                avg_prob=float(obj["avg_prob"]),
            )
            first = seen.setdefault(pred.user_id, lineno)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _bad_record(path, lineno, exc) from exc
        if first != lineno:
            raise CorpusError(f"{path}: duplicate user_id {pred.user_id!r} on lines "
                              f"{first} and {lineno}")
        preds.append(pred)
    return preds


# ---------------------------------------------------------------------------
# Fold splitting
# ---------------------------------------------------------------------------

def split_folds(corpus, k: int, seed: int) -> list[list[int]]:
    """Partition corpus indices into ``k`` gender-stratified folds.

    Fold sizes differ by at most one, as do per-gender counts per fold.
    Deterministic for a fixed seed and corpus order.
    """
    if k < 2:
        raise CorpusError(f"fold count must be >= 2, got {k}")
    if len(corpus) < k:
        raise CorpusError(f"corpus of {len(corpus)} users cannot be split into {k} folds")
    labels = gender_labels(corpus)

    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    # Dealing each gender round-robin, continuing the cursor across genders,
    # keeps both the per-gender and the overall fold sizes within 1.
    for g in range(len(GENDERS)):
        idx = np.flatnonzero(labels == g)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [sorted(f) for f in folds]
