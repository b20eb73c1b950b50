# Train the three network variants on a synthetic corpus where the gender
# signal lives only in character suffixes, and watch the fused models pull
# ahead of the word-only one.
#
# Marked tweets contain tokens like "qxbsixxo" (female) or "tkfruzzo"
# (male): the random stem keeps each surface form near-unique, so the word
# channel sees <unk> while the character channel can read the suffix.

import tempfile
import time
from pathlib import Path

from genderfuse.model import ArchConfig
from genderfuse.synth import SynthSpec, gen_gender_corpus
from genderfuse.train import EnsembleReport, train_cv

corpus = gen_gender_corpus(SynthSpec(users_per_class=80, tweets_per_user=15,
                                     marker_rate=0.3, signal="char", seed=0))
held_out = gen_gender_corpus(SynthSpec(users_per_class=25, tweets_per_user=15,
                                       marker_rate=0.3, signal="char", seed=1))
print(f"{len(corpus)} training users, {len(held_out)} held-out users")

report = EnsembleReport()
with tempfile.TemporaryDirectory() as tmp:
    for variant, column in (("cnn", "CNN"), ("cnn_char", "CNN_char"),
                            ("cnn_char_pos", "CNN_char_pos")):
        arch = ArchConfig(variant=variant, word_dim=16, char_dim=8, pos_dim=4,
                          char_filters=8, word_filter_widths=(1, 2, 3),
                          word_filters_per_width=8, dense_units=16,
                          dropout=0.2, lr=0.005, batch_size=16)
        workdir = Path(tmp) / variant
        t0 = time.time()
        run = train_cv(corpus, arch, k=5, epochs=8, seed=0,
                       workdir=workdir, test_corpus=held_out)
        # fold accuracies and the vote are both scored on the held-out users
        summary = run.summary
        report.add(column, summary.folds, summary.voting)
        accs = " ".join(f"{a:.2f}" for a in summary.folds)
        print(f"{variant:<13} folds [{accs}]  voting {summary.voting:.3f}  "
              f"({time.time() - t0:.0f}s)")

print()
print(report.table())
print()
print("the character channel is what separates the fused variants from the")
print("word-only network on this corpus; note how majority voting sits at or")
print("above the fold mean, papering over any fold that converged badly")
