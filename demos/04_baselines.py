# TF-IDF linear baselines on a corpus where the gender signal is carried by
# whole marker words.  Logistic regression and the linear SVM both find it,
# and the heaviest feature weights turn out to be exactly the planted words.

import numpy as np

from genderfuse.baseline import (TfidfConfig, baseline_cv, count_ngrams, fit_linear,
                                 fit_tfidf, transform_docs)
from genderfuse.synth import MARKER_WORDS, SynthSpec, gen_gender_corpus
from genderfuse.textpipe import user_tokens
from genderfuse.train import EnsembleReport

corpus = gen_gender_corpus(SynthSpec(users_per_class=80, tweets_per_user=15,
                                     marker_rate=0.3, signal="word", seed=0))
held_out = gen_gender_corpus(SynthSpec(users_per_class=25, tweets_per_user=15,
                                       marker_rate=0.3, signal="word", seed=1))
print(f"{len(corpus)} training users, {len(held_out)} held-out users")
print(f"planted markers: female {MARKER_WORDS['female']}, "
      f"male {MARKER_WORDS['male']}")
print()

config = TfidfConfig(ngram_lo=1, ngram_hi=2, min_df=2, sublinear=True)
report = EnsembleReport()
for algo in ("LR", "SVM"):
    summary, preds = baseline_cv(corpus, algo, k=5, seed=0, test_corpus=held_out,
                                 tfidf_config=config)
    report.add(algo, summary.folds, summary.voting)
    accs = " ".join(f"{a:.2f}" for a in summary.folds)
    print(f"{algo:<4} folds [{accs}]  voting {summary.voting:.3f}")

# one LR model on every training user: count each author's n-grams once,
# fit the TF-IDF weights on those counts, then the linear model on the rows
counts = count_ngrams([user_tokens(u) for u in corpus], config)
tfidf = fit_tfidf(counts)
labels = np.array([u.gender == "male" for u in corpus], dtype=np.int64)
lin = fit_linear(transform_docs(tfidf, counts), labels, "logistic", seed=0)
print(f"\nLR on all {len(corpus)} training users: {tfidf.n_terms} n-gram features")

# positive decision weight means class index 1, which is "male"
order = np.argsort(lin.w)
print("top female-weighted n-grams:")
for col in order[:5]:
    print(f"  {lin.w[col]:+.3f}  {tfidf.terms[col]!r}")
print("top male-weighted n-grams:")
for col in order[::-1][:5]:
    print(f"  {lin.w[col]:+.3f}  {tfidf.terms[col]!r}")

print()
print(report.table())
