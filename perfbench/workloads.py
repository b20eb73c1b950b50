"""Workload definitions and seeded input generation for the genderfuse benchmark.

Every workload runs the same four user-facing stages in the order of the
README quick start (``train``, ``predict``, ``baseline``, ``analyze``), so
every end-to-end metric is measured on every workload.  The workloads differ
in operating point, which decides where the time goes:

* ``ref_train``: the reference network (200/50/10 dims, 2048 filters per
  width, batch 64) trained on ~155-token users; the tensor kernels, conv
  backward and Adam over ~4.8M parameters dominate ``train``.
* ``ref_predict_long``: the reference network predicting heavy-tweeter users
  of ~2000 tokens (``MAX_DOC_TOKENS`` is 4000); forward-only, long sequences,
  memory-bound, and the only place ``(b, n, 2048)`` activations of long
  documents set ``peak_rss_mb``.  Its ``train`` stage is the small one that
  makes the fold checkpoints ``predict`` reads.
* ``desk_protocol``: the README quick start at desk scale (k=5, 8 epochs,
  200 users, held-out test users, a 500k-tweet construct stream); per-token
  Python work, per-sample SGD and JSONL parsing dominate.

The inputs are made here from the workload seed with the benchmark's own
generator (a character-suffix gender signal like ``genderfuse synth users
--signal char``, and construct-labelled tweets drawn from known per-gender
rates), so the program only ever sees generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# --- the char-signal author corpus ------------------------------------------

_CONS = "bcdfghjklmnpqrstvwxz"
_VOWS = "aeiou"
_VOCAB = tuple(_CONS[i % 20] + _VOWS[(i // 20) % 5] + _CONS[i // 100]
               for i in range(150))
CHAR_SUFFIX = {"female": "ixxo", "male": "uzzo"}
MARKER_RATE = 0.3

# --- the construct-labelled tweet stream -------------------------------------

# (male rate, female rate); barriers implies an odds ratio of exactly 2.0
RATES = {"susceptibility": (0.10, 0.12), "severity": (0.15, 0.20),
         "benefits": (0.20, 0.30), "barriers": (0.40, 0.25),
         "tpb_positive": (0.25, 0.35)}
STREAM_YEARS = tuple(range(2014, 2019))
IMPLIED_BARRIERS_OR = 2.0

DESK_CONFIG = """\
# desk-scale network from the README quick start
variant    = cnn_char_pos
word_dim   = 16
char_dim   = 8
pos_dim    = 4
char_filters = 8
word_filters_per_width = 8
dense_units = 16
dropout    = 0.2
lr         = 0.005
batch_size = 16
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    desk_arch: bool            # desk.cfg network, else the built-in reference defaults
    batch_size: int            # training batch of the chosen network
    users_per_class: int       # training corpus
    tweets_per_user: int
    test_per_class: int        # held-out users for train and baseline --test-users
    test_tweets_per_user: int
    folds: int
    epochs: int
    stream_users_per_class: int
    stream_per_year: int
    # users scored by predict; when unset, predict scores the held-out users
    predict_per_class: int | None = None
    predict_tweets_per_user: int | None = None
    predict_batch: int | None = None      # predict --batch-size
    min_voting_accuracy: float | None = None   # floor on the held-out vote
    # repeats of each stage inside one iteration, so short stages still
    # collect enough samples for a steady median (order: Runner.schedule)
    reps: dict = field(default_factory=dict)

    @property
    def predict_users(self) -> int:
        return 2 * (self.predict_per_class or self.test_per_class)

    @property
    def stream_tweets(self) -> int:
        return self.stream_per_year * len(STREAM_YEARS)

    def sizes(self) -> dict:
        return {"train_users": 2 * self.users_per_class,
                "train_tweets_per_user": self.tweets_per_user,
                "test_users": 2 * self.test_per_class,
                "test_tweets_per_user": self.test_tweets_per_user,
                "predict_users": self.predict_users,
                "predict_tweets_per_user": (self.predict_tweets_per_user
                                            or self.test_tweets_per_user),
                "network": "desk.cfg" if self.desk_arch else "reference defaults",
                "batch_size": self.batch_size,
                "predict_batch_size": self.predict_batch or self.batch_size,
                "folds": self.folds, "epochs": self.epochs,
                "stream_tweets": self.stream_tweets,
                "stream_authors": 2 * self.stream_users_per_class,
                "stage_reps": {s: self.reps.get(s, 1) for s in STAGES}}


STAGES = ("train", "predict", "baseline", "analyze")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref_train",
        why="reference network training: conv1d forward/backward, the char "
            "path and Adam over ~4.8M parameters take nearly all of train",
        desk_arch=False, batch_size=64,
        users_per_class=64, tweets_per_user=16,         # ~155 tokens each
        test_per_class=8, test_tweets_per_user=16,
        folds=2, epochs=1,                              # one 64-document step per fold
        stream_users_per_class=100, stream_per_year=10_000,
        reps={"predict": 2, "baseline": 4, "analyze": 2}),
    Workload(
        name="ref_predict_long",
        why="reference network predicting ~2000-token users: forward-only, "
            "long sequences, memory-bound; (b, n, 2048) activations set peak RSS",
        desk_arch=False, batch_size=64,
        users_per_class=8, tweets_per_user=16,
        test_per_class=4, test_tweets_per_user=16,
        folds=2, epochs=1,
        stream_users_per_class=100, stream_per_year=10_000,
        predict_per_class=4, predict_tweets_per_user=206,   # ~2000 tokens each
        predict_batch=8,
        reps={"train": 2, "baseline": 12, "analyze": 3}),
    Workload(
        name="desk_protocol",
        why="README quick start at desk scale: build_doc/make_batch loops, "
            "tape bookkeeping, per-sample SGD and 500k-tweet JSONL parsing",
        desk_arch=True, batch_size=16,
        users_per_class=100, tweets_per_user=15,
        test_per_class=30, test_tweets_per_user=15,
        folds=5, epochs=8,
        stream_users_per_class=500, stream_per_year=100_000,
        min_voting_accuracy=0.75,   # well above chance; the README run reaches 0.98
        reps={"predict": 3, "baseline": 2}),
)}


def _check_no_singleton_batch(w: Workload) -> None:
    # train skips a one-row batch (batch norm needs two rows); with such a
    # remainder the consumed-token count would depend on the shuffle
    n = 2 * w.users_per_class
    for fold_size in {n // w.folds, -(-n // w.folds)}:
        if (n - fold_size) % w.batch_size == 1:
            raise ValueError(f"{w.name}: a fold would train on a one-row batch")


for _w in WORKLOADS.values():
    _check_no_singleton_batch(_w)


def rng_for(seed: int, wl_index: int, role: int) -> np.random.Generator:
    # roles: 0 training corpus, 1 held-out users, 2 construct stream,
    # 3 and 4 warm-up corpus and stream, 5 users scored by predict
    return np.random.default_rng([seed, wl_index, role])


def _tweet(rng, gender: str, n_words: int) -> str:
    words = [_VOCAB[i] for i in rng.integers(len(_VOCAB), size=n_words)]
    if rng.random() < MARKER_RATE:
        stem = "".join(_CONS[i] for i in rng.integers(20, size=4))
        words.insert(int(rng.integers(len(words) + 1)), stem + CHAR_SUFFIX[gender])
    # class-neutral decorations so the normalizer's marker paths run
    if rng.random() < 0.10:
        words.append("#" + _VOCAB[int(rng.integers(len(_VOCAB)))])
    if rng.random() < 0.07:
        words.append("@" + "".join(_CONS[i] for i in rng.integers(20, size=4)))
    if rng.random() < 0.07:
        words.append("http://example.com/"
                     + "".join(_CONS[i] for i in rng.integers(20, size=6)))
    return " ".join(words)


def write_users(path: Path, rng, per_class: int, tweets_per_user: int,
                prefix: str) -> None:
    lines = []
    for gender in ("female", "male"):
        for u in range(per_class):
            tweets = [_tweet(rng, gender, int(n))
                      for n in rng.integers(6, 13, size=tweets_per_user)]
            lines.append(json.dumps({"user_id": f"{prefix}{gender[0]}{u:04d}",
                                     "gender": gender, "tweets": tweets}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_stream(tweets_path: Path, truth_path: Path, rng, per_class: int,
                 per_year: int) -> dict:
    """Construct-labelled tweets plus a perfect-confidence truth file.

    Returns the barriers 2x2 cells per year, ``[a, b, c, d]`` = male hit,
    male miss, female hit, female miss, for the odds-ratio check.
    """
    users = [(f"s{g[0]}{i:04d}", g) for g in ("male", "female")
             for i in range(per_class)]
    male = np.array([g == "male" for _, g in users])
    order = ("susceptibility", "severity", "benefits", "barriers", "tpb_positive")
    rate = np.array([[RATES[c][0 if m else 1] for c in order] for m in (False, True)])
    hbm_json = {}
    for bits in range(16):
        names = sorted(order[j] for j in range(4) if bits >> j & 1)
        hbm_json[bits] = json.dumps(names)
    cells = {}
    out = []
    tid = 0
    for year in STREAM_YEARS:
        authors = rng.integers(0, len(users), size=per_year)
        is_male = male[authors]
        hits = rng.random((per_year, 5)) < rate[is_male.astype(np.int64)]
        bits = (hits[:, :4] * (1 << np.arange(4))).sum(axis=1)
        barriers = hits[:, 3]
        cells[year] = [int((barriers & is_male).sum()), int((~barriers & is_male).sum()),
                       int((barriers & ~is_male).sum()), int((~barriers & ~is_male).sum())]
        for a, b, pos in zip(authors.tolist(), bits.tolist(), hits[:, 4].tolist()):
            out.append(f'{{"tweet_id": "t{tid}", "user_id": "{users[a][0]}", '
                       f'"year": {year}, "hbm": {hbm_json[b]}, '
                       f'"tpb": "{"positive" if pos else "negative"}"}}\n')
            tid += 1
    tweets_path.write_text("".join(out), encoding="utf-8")
    truth_path.write_text("".join(
        json.dumps({"user_id": uid, "gender": g, "fold_probs": [1.0],
                    "avg_prob": 1.0}) + "\n" for uid, g in users), encoding="utf-8")
    return cells


def generate_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write every input file of workload ``w`` for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    idx = list(WORKLOADS).index(w.name)
    write_users(out / "users.jsonl", rng_for(seed, idx, 0),
                w.users_per_class, w.tweets_per_user, "")
    write_users(out / "test_users.jsonl", rng_for(seed, idx, 1),
                w.test_per_class, w.test_tweets_per_user, "t")
    if w.predict_per_class:
        write_users(out / "predict_users.jsonl", rng_for(seed, idx, 5),
                    w.predict_per_class, w.predict_tweets_per_user, "p")
    cells = write_stream(out / "tweets.jsonl", out / "truth.jsonl",
                         rng_for(seed, idx, 2), w.stream_users_per_class,
                         w.stream_per_year)
    # a miniature of every stage for warming the measuring process
    warm = out / "warm"
    warm.mkdir(exist_ok=True)
    write_users(warm / "users.jsonl", rng_for(seed, idx, 3), 4, 4, "")
    write_stream(warm / "tweets.jsonl", warm / "truth.jsonl",
                 rng_for(seed, idx, 4), 20, 400)
    (out / "desk.cfg").write_text(DESK_CONFIG, encoding="utf-8")
    (out / "expected.json").write_text(json.dumps({"barriers_cells": cells}),
                                       encoding="utf-8")
