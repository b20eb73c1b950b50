# Walk a few raw tweets through the text pipeline: normalization,
# tokenization, POS tagging, and the id spaces a model actually consumes.

from genderfuse.corpus import UserRecord
from genderfuse.textpipe import (build_doc, build_vocab, normalize, pos_tag, tokenize,
                                 user_tokens)

raw_tweets = [
    "@doctor_amy said the HPV vaccine is SAFE!!! read http://vax.example.org",
    "I'm sooooo done with needles :( #NotFun",
    "got my 2nd dose at 10:30 <3 :-)",
]

for raw in raw_tweets:
    norm = normalize(raw)
    toks = tokenize(norm)
    tags = pos_tag(toks)
    print("raw :", raw)
    print("norm:", norm)
    width = max(len(t) for t in toks)
    print("toks:", "  ".join(f"{t:<{width}}" for t in toks))
    print("tags:", "  ".join(f"{t:<{width}}" for t in tags))
    print()

# normalization is idempotent: running it twice changes nothing
assert normalize(normalize(raw_tweets[0])) == normalize(raw_tweets[0])
print("idempotence holds on these examples")
print()

# user_tokens passes all of an author's tweets through normalization and
# tokenization at once: one token stream per author, the same tokens as the
# tweets' own streams end to end
corpus = [
    UserRecord("a", "female", [raw_tweets[0], raw_tweets[1]]),
    UserRecord("b", "male", [raw_tweets[2], "the vaccine is safe and free"]),
]
streams = [user_tokens(u) for u in corpus]
assert streams[0] == tokenize(normalize(raw_tweets[0])) + tokenize(normalize(raw_tweets[1]))

# a vocabulary maps surface forms to ids; rare words collapse to <unk>
vocab = build_vocab(streams, min_word_freq=2)
print(f"vocabulary: {vocab.n_words} word ids, {vocab.n_chars} char ids, "
      f"{vocab.n_tags} tag ids")
for word in ("the", "vaccine", "needles", "<url>"):
    print(f"  word_id({word!r}) = {vocab.word_id(word)}")

# build_doc resolves one author's token stream to id arrays: word and tag
# ids per token, and a PAD-filled char matrix
doc = build_doc(corpus[0].user_id, streams[0], vocab)
print(f"\nuser 'a': {len(doc.tokens)} tokens, char matrix {doc.char_ids.shape}")
print(f"first token: {doc.tokens[0]!r}")
print(f"  word id : {doc.word_ids[0]}")
print(f"  char ids: {doc.char_ids[0].tolist()}")
print(f"  pos id  : {doc.pos_ids[0]}")
