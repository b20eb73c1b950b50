"""Tweet normalization, Twitter-aware tokenization, and POS tagging.

The normalization cascade mirrors the widely used GloVe Twitter
preprocessing rules and is applied in a fixed order:

1.  URLs                ``<url>``
2.  @handles            ``<user>``
3.  emoticons           ``<smile>`` / ``<lolface>`` / ``<sadface>`` / ``<neutralface>``
4.  ``<3``              ``<heart>``
5.  number tokens       ``<number>``
6.  ``#body``           ``<hashtag> body``  (hashtag bodies are not segmented)
7.  repeated ``!?.``    single mark + ``<repeat>``
8.  trailing elongation (>= 3 repeated letters) -> stem + ``<elong>``
9.  ALL-CAPS runs       lowercased run + ``<allcaps>``
10. lowercase everything

The cascade is a total, idempotent function of the input string.  Marker
tokens keep their angle brackets so they can never collide with natural
words.

A document resolves each distinct surface token once: its POS-tag and char
ids come from a bounded cache keyed by the surface (``surface_ids``), its
word id from the vocabulary, and the doc's arrays gather them back.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import TextPipeError

# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_EYES = r"[8:=;]"
_NOSE = r"['`\-]?"

# Letter-bearing rules are case-insensitive; the final lowercase step must
# never create a fresh match on a second pass (idempotence).
_RE_URL = re.compile(r"https?://\S+\b|www\.(\w+\.)+\S*", re.IGNORECASE)
_RE_USER = re.compile(r"@\w+")
_RE_SMILE = re.compile(rf"{_EYES}{_NOSE}[)d]+|[)d]+{_NOSE}{_EYES}", re.IGNORECASE)
_RE_LOLFACE = re.compile(rf"{_EYES}{_NOSE}p+", re.IGNORECASE)
_RE_SADFACE = re.compile(rf"{_EYES}{_NOSE}\(+|\)+{_NOSE}{_EYES}")
_RE_NEUTRALFACE = re.compile(rf"{_EYES}{_NOSE}[/|l*]", re.IGNORECASE)
_RE_HEART = re.compile(r"<3")
_RE_NUMBER = re.compile(r"[-+]?[.\d]*[\d]+[:,.\d]*")
_RE_HASHTAG = re.compile(r"#\S+")
_RE_REPEAT = re.compile(r"([!?.]){2,}")
_RE_ELONG = re.compile(r"\b(\S*?)([a-z])\2{2,}\b", re.IGNORECASE)
_RE_ALLCAPS = re.compile(r"([A-Z]){2,}")


def _hashtag_repl(match: re.Match) -> str:
    # Split on every '#' so no '#' survives into the output; that keeps the
    # cascade idempotent even for bodies like "a#b" or "##a".
    parts = [p for p in match.group(0).split("#") if p]
    if not parts:
        return "<hashtag>"
    return " ".join("<hashtag> " + p for p in parts)


def _allcaps_repl(match: re.Match) -> str:
    return match.group(0).lower() + " <allcaps>"


def normalize(raw_tweet: str) -> str:
    """Apply the normalization cascade; total and idempotent."""
    text = raw_tweet
    text = _RE_URL.sub("<url>", text)
    text = _RE_USER.sub("<user>", text)
    text = _RE_SMILE.sub("<smile>", text)
    text = _RE_LOLFACE.sub("<lolface>", text)
    text = _RE_SADFACE.sub("<sadface>", text)
    text = _RE_NEUTRALFACE.sub("<neutralface>", text)
    text = _RE_HEART.sub("<heart>", text)
    text = _RE_NUMBER.sub("<number>", text)
    text = _RE_HASHTAG.sub(_hashtag_repl, text)
    text = _RE_REPEAT.sub(r" \1 <repeat>", text)
    text = _RE_ELONG.sub(r"\1\2 <elong>", text)
    text = _RE_ALLCAPS.sub(_allcaps_repl, text)
    # The all-caps rule can merge letter runs ("zzZZ" -> "zzzz <allcaps>");
    # one more elongation pass after lowercasing keeps the cascade idempotent.
    return _RE_ELONG.sub(r"\1\2 <elong>", text.lower())


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

# Alternatives, in priority order: angle-bracket markers, ascii emoticons,
# words (inner apostrophes allowed), punctuation runs.  Every emitted token
# re-tokenizes to itself, so join-with-spaces / re-tokenize is the identity.
# A punctuation run must stop where a marker begins ("$<number>" is "$" then
# "<number>", not "$<" then "number" then ">").
_TOKEN_RE = re.compile(
    r"<[a-z][a-z0-9]*>"
    r"|[8:=;]['`\-]?[()dDpP/\\|lL*3]+"
    r"|\w+(?:['’]\w+)*"
    r"|(?:(?!<[a-z][a-z0-9]*>)[^\w\s])+"
)


def tokenize(normalized: str) -> list[str]:
    """Split normalized text into surface tokens; never yields empty strings."""
    return _TOKEN_RE.findall(normalized)


# ---------------------------------------------------------------------------
# POS tagging
# ---------------------------------------------------------------------------

MARKER_TAG = "MRK"

#: Penn-Treebank-style tags plus punctuation tags plus the marker tag.
TAGSET = (
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNP", "NNPS", "NNS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
    "VBZ", "WDT", "WP", "WP$", "WRB",
    ".", ",", ":", "(", ")", "``", "''", "$", "#",
    MARKER_TAG,
)

# Majority tags for frequent (lowercased) English words.  Coverage is meant
# for normalized tweets; everything else goes through the suffix heuristics.
_LEXICON_SRC = """
the DT a DT an DT this DT these DT those DT some DT any DT no DT each DT
every DT another DT both DT all DT such JJ
of IN in IN on IN at IN by IN for IN with IN from IN about IN into IN
over IN under IN after IN before IN between IN during IN without IN against IN
through IN within IN upon IN across IN among IN behind IN near IN like IN
than IN as IN if IN because IN while IN since IN until IN although IN though IN
that IN
to TO and CC but CC or CC nor CC
will MD would MD can MD could MD should MD may MD might MD must MD shall MD
i PRP you PRP he PRP she PRP it PRP we PRP they PRP me PRP him PRP them PRP us PRP
myself PRP yourself PRP himself PRP herself PRP itself PRP ourselves PRP themselves PRP
my PRP$ your PRP$ his PRP$ its PRP$ our PRP$ their PRP$ her PRP$
who WP what WP whom WP which WDT when WRB where WRB why WRB how WRB
there EX
up RP out RP down RP off RP
not RB very RB also RB just RB now RB then RB here RB too RB only RB really RB
never RB always RB often RB soon RB still RB even RB again RB ever RB maybe RB
perhaps RB quite RB rather RB almost RB already RB so RB well RB
oh UH yes UH yeah UH hey UH wow UH please UH hi UH hello UH lol UH omg UH thanks UH
good JJ new JJ first JJ last JJ long JJ great JJ little JJ own JJ other JJ old JJ
right JJ big JJ high JJ different JJ small JJ large JJ next JJ early JJ young JJ
important JJ few JJ public JJ bad JJ same JJ able JJ best JJS better JJR sure JJ
free JJ true JJ full JJ hard JJ special JJ whole JJ easy JJ strong JJ nice JJ
happy JJ sad JJ red JJ safe JJ sick JJ
time NN year NN way NN day NN man NN thing NN woman NN life NN child NN world NN
school NN state NN family NN student NN group NN country NN problem NN hand NN
part NN place NN case NN week NN company NN system NN program NN question NN
government NN number NN night NN point NN home NN water NN room NN mother NN
area NN money NN story NN fact NN month NN lot NN study NN book NN eye NN job NN
word NN business NN issue NN side NN kind NN head NN house NN friend NN father NN
power NN hour NN game NN line NN end NN member NN law NN car NN city NN name NN
team NN minute NN idea NN body NN information NN person NN back NN face NN
level NN office NN door NN health NN art NN war NN history NN party NN result NN
change NN morning NN reason NN research NN girl NN guy NN moment NN air NN
teacher NN force NN education NN vaccine NN flu NN virus NN cancer NN doctor NN
news NN media NN twitter NN tweet NN user NN dog NN cat NN baby NN bed NN music NN
people NNS years NNS days NNS things NNS children NNS women NNS men NNS
students NNS friends NNS parents NNS kids NNS
be VB do VB go VB get VB make VB take VB see VB come VB know VB think VB want VB
use VB find VB give VB tell VB work VB call VB try VB ask VB need VB feel VB
seem VB help VB talk VB turn VB start VB show VB hear VB play VB run VB move VB
live VB believe VB hold VB bring VB happen VB write VB sit VB stand VB lose VB
pay VB meet VB set VB learn VB lead VB watch VB follow VB stop VB speak VB
read VB spend VB grow VB open VB walk VB win VB love VB buy VB wait VB die VB
send VB build VB stay VB fall VB cut VB eat VB drink VB sleep VB vote VB share VB
have VBP are VBP am VBP
is VBZ has VBZ does VBZ says VBZ goes VBZ
was VBD were VBD had VBD did VBD said VBD went VBD made VBD got VBD took VBD
came VBD saw VBD knew VBD thought VBD gave VBD found VBD told VBD felt VBD
left VBD kept VBD began VBD brought VBD ran VBD wrote VBD met VBD
been VBN done VBN gone VBN taken VBN seen VBN known VBN given VBN written VBN
being VBG doing VBG going VBG getting VBG making VBG taking VBG coming VBG seeing VBG
one CD two CD three CD four CD five CD six CD seven CD eight CD nine CD ten CD
don't VBP didn't VBD doesn't VBZ can't MD won't MD isn't VBZ aren't VBP
wasn't VBD weren't VBD couldn't MD wouldn't MD shouldn't MD ain't VBP
i'm PRP you're PRP we're PRP they're PRP it's PRP he's PRP she's PRP that's PRP
what's PRP there's PRP i've PRP we've PRP you've PRP they've PRP i'll PRP
you'll PRP we'll PRP they'll PRP i'd PRP let's PRP
"""


def _parse_lexicon(src: str) -> dict[str, str]:
    items = src.split()
    if len(items) % 2:
        raise ValueError("lexicon source must hold word/tag pairs")
    lex: dict[str, str] = {}
    for word, tag in zip(items[::2], items[1::2]):
        if word in lex:
            raise ValueError(f"duplicate lexicon entry {word!r}")
        if tag not in TAGSET:
            raise ValueError(f"lexicon entry {word!r} has unknown tag {tag!r}")
        lex[word] = tag
    return lex


LEXICON = _parse_lexicon(_LEXICON_SRC)

_RE_MARKER = re.compile(r"<[a-z][a-z0-9]*>\Z")
_RE_NUMERIC = re.compile(r"[-+]?[\d.,:]*\d[\d.,:%]*\Z")
_RE_PUNCT = re.compile(r"[^\w\s]+\Z")

# Ordered suffix heuristics for words outside the lexicon.
_SUFFIX_TAGS = (
    ("tastic", "JJ"),
    ("ness", "NN"), ("ment", "NN"), ("tion", "NN"), ("sion", "NN"),
    ("ship", "NN"), ("ance", "NN"), ("ence", "NN"), ("hood", "NN"),
    ("ity", "NN"), ("ism", "NN"), ("ist", "NN"),
    ("able", "JJ"), ("ible", "JJ"), ("less", "JJ"), ("ous", "JJ"),
    ("ful", "JJ"), ("ive", "JJ"), ("ish", "JJ"), ("ary", "JJ"),
    ("ic", "JJ"), ("al", "JJ"),
    ("ly", "RB"),
    ("ing", "VBG"),
    ("ed", "VBN"),
    ("est", "JJS"),
)


def _punct_tag(token: str) -> str:
    if any(c in ".!?…" for c in token):
        return "."
    if token == ",":
        return ","
    if any(c in ";:" for c in token):
        return ":"
    if "(" in token or "[" in token or "{" in token:
        return "("
    if ")" in token or "]" in token or "}" in token:
        return ")"
    if "$" in token:
        return "$"
    if "#" in token:
        return "#"
    if set(token) <= set("'\"`‘’“”"):
        return "''"
    return "SYM"


def _inflected_tag(word: str) -> str | None:
    """Resolve -s / -ed inflections against the lexicon base form."""
    if word.endswith("'s") and len(word) > 2:
        return LEXICON.get(word[:-2], "NN")
    if word.endswith("ies") and len(word) > 4:
        base = LEXICON.get(word[:-3] + "y")
        if base and base.startswith("V"):
            return "VBZ"
        return "NNS"
    if word.endswith("s") and len(word) > 3 and not word.endswith(("ss", "us", "is")):
        for cand in (word[:-1], word[:-2] if word.endswith("es") else None):
            tag = LEXICON.get(cand) if cand else None
            if tag:
                return "VBZ" if tag.startswith("V") else "NNS"
    if word.endswith("ed") and len(word) > 3:
        cands = [word[:-2], word[:-1]]
        if len(word) > 4 and word[-3] == word[-4]:
            cands.append(word[:-3])  # doubled consonant: stopped -> stop
        for cand in cands:
            tag = LEXICON.get(cand)
            if tag and tag.startswith("V"):
                return "VBD"
    return None


def tag_word(token: str) -> str:
    """Tag a single surface token; deterministic and context-free."""
    if _RE_MARKER.match(token):
        return MARKER_TAG
    tag = LEXICON.get(token)
    if tag:
        return tag
    if _RE_PUNCT.match(token):
        return _punct_tag(token)
    if _RE_NUMERIC.match(token):
        return "CD"
    tag = _inflected_tag(token)
    if tag:
        return tag
    for suffix, stag in _SUFFIX_TAGS:
        if token.endswith(suffix) and len(token) > len(suffix) + 1:
            return stag
    if token.endswith("s") and len(token) > 3 and not token.endswith(("ss", "us", "is")):
        return "NNS"
    return "NN"


def pos_tag(tokens: list[str]) -> list[str]:
    """One Penn-Treebank-style tag per token; output length equals input length."""
    return [tag_word(t) for t in tokens]


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


@functools.cache
def _char_map() -> dict[str, int]:
    chars = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for code in range(32, 127):  # printable ASCII
        chars[chr(code)] = len(chars)
    return chars


@functools.cache
def _tag_map() -> dict[str, int]:
    tags = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for tag in TAGSET:
        tags[tag] = len(tags)
    return tags


class Vocab:
    """Frozen word / character / POS-tag id maps; PAD is id 0 in every map.

    The maps are never mutated, so the fingerprint is hashed once, here.
    """

    def __init__(self, words: dict[str, int]):
        self.words = dict(words)
        self.chars = dict(_char_map())
        self.tags = dict(_tag_map())
        payload = json.dumps(
            [sorted(self.words.items(), key=lambda kv: kv[1]), len(self.chars), len(self.tags)],
            ensure_ascii=False)
        self._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_chars(self) -> int:
        return len(self.chars)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def word_id(self, surface: str) -> int:
        return self.words.get(surface, UNK_ID)

    def fingerprint(self) -> str:
        return self._fingerprint

    def to_json(self) -> dict:
        by_id = sorted(self.words.items(), key=lambda kv: kv[1])
        return {"words": [w for w, _ in by_id]}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocab":
        return cls({w: i for i, w in enumerate(obj["words"])})


def tokenize_tweets(tweets) -> list[list[str]]:
    """Normalize + tokenize a sequence of raw tweets, one token list per tweet."""
    return [tokenize(normalize(t)) for t in tweets]


def build_vocab(corpus, min_word_freq: int = 2) -> Vocab:
    """Word map for all tokens with corpus frequency >= ``min_word_freq``.

    The char map is fixed (printable ASCII + PAD/UNK = 97 entries) and the
    tag map is the fixed tagset, so only words depend on the corpus.
    """
    counts: Counter = Counter()
    for user in corpus:
        for toks in tokenize_tweets(user.tweets):
            counts.update(toks)
    words = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for word, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if counts[word] >= min_word_freq:
            words[word] = len(words)
    return Vocab(words)


# ---------------------------------------------------------------------------
# document building
# ---------------------------------------------------------------------------

MAX_TOKEN_CHARS = 20
MAX_DOC_TOKENS = 4000


@dataclass(eq=False)
class TokenizedDoc:
    """One author's T tokens, resolved to ids by the vocabulary ``fingerprint`` names.

    ``word_ids`` and ``pos_ids`` are int64 (T,); ``char_ids`` is int64 (T, C), each
    row a token's char ids then PAD, C its longest token capped at ``MAX_TOKEN_CHARS``.
    """

    user_id: str
    tokens: list[str]
    word_ids: np.ndarray
    pos_ids: np.ndarray
    char_ids: np.ndarray
    fingerprint: str


SURFACE_CACHE_SIZE = 16384


@functools.lru_cache(maxsize=SURFACE_CACHE_SIZE)
def surface_ids(surface: str) -> tuple[int, tuple[int, ...]]:
    """POS-tag id and char ids of one surface token.

    Both come from the fixed tag and char maps, so they do not depend on the
    vocabulary; the char ids cover the first ``MAX_TOKEN_CHARS`` characters.
    A full cache of ``SURFACE_CACHE_SIZE`` entries measured 6.5 MB with
    tracemalloc for 20-char surfaces and 10.8 MB for 280-char ones (the
    tweet limit), keys included.
    """
    chars = _char_map()
    return (_tag_map()[tag_word(surface)],
            tuple(chars.get(c, UNK_ID) for c in surface[:MAX_TOKEN_CHARS]))


def build_doc(user, vocab: Vocab) -> TokenizedDoc:
    """Normalize, tokenize, tag and resolve all tweets of one user into one doc.

    Tweets are concatenated in order and the token stream is truncated
    head-preserving at ``MAX_DOC_TOKENS``.  Each distinct surface is resolved
    once, then gathered back to token order.
    """
    tokens: list[str] = []
    for toks in tokenize_tweets(user.tweets):
        tokens += toks[:MAX_DOC_TOKENS - len(tokens)]
    if not tokens:
        raise TextPipeError(f"user {user.user_id!r}: no tokens survive preprocessing")
    types: dict[str, int] = {}
    inverse = np.fromiter((types.setdefault(t, len(types)) for t in tokens),
                          dtype=np.int64, count=len(tokens))
    tag_ids, chars = zip(*map(surface_ids, types))
    lens = np.fromiter(map(len, chars), dtype=np.int64, count=len(chars))
    char_ids = np.zeros((len(chars), lens.max()), dtype=np.int64)
    char_ids[np.arange(lens.max()) < lens[:, None]] = list(chain.from_iterable(chars))
    return TokenizedDoc(
        user_id=user.user_id, tokens=tokens,
        word_ids=np.fromiter(map(vocab.word_id, types), dtype=np.int64, count=len(types))[inverse],
        pos_ids=np.array(tag_ids, dtype=np.int64)[inverse],
        char_ids=char_ids[inverse], fingerprint=vocab.fingerprint())
