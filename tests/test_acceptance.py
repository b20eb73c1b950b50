"""Acceptance suite: nine criteria, one verdict line each.

Each test prints ``criterion N (<name>): PASS/FAIL - <detail>`` before
asserting, so ``pytest tests/test_acceptance.py -s`` shows the scoreboard;
without ``-s`` the lines surface for failing criteria only.  The slow entry
is criterion 3, which trains ten small fold models (about a minute).
"""

import json
import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from genderfuse.baseline import TfidfConfig, baseline_cv
from genderfuse.cli import fd_gradcheck, main
from genderfuse.corpus import split_folds
from genderfuse.model import ArchConfig
from genderfuse.stats import AnalysisConfig, ConstructTable, analyze, chi2_tail, odds_ratio
from genderfuse.synth import SynthSpec, gen_gender_corpus, gen_labeled_tweets
from genderfuse.tensor import Tensor, _conv_same, conv1d
from genderfuse.textpipe import Vocab, build_doc, normalize, tokenize, user_tokens
from genderfuse.train import EnsembleReport, evaluate, predict_ensemble, train_cv
from test_baseline import fold_models, oracle_fit

GOLDENS = Path(__file__).parent / "data" / "acceptance_goldens.json"

DESK_ARCH = dict(word_dim=16, char_dim=8, pos_dim=4, char_filters=8,
                 word_filter_widths=(1, 2, 3), word_filters_per_width=8,
                 dense_units=16, dropout=0.2, l2=1e-5, lr=0.005, batch_size=16)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    errors = fd_gradcheck(seed=0, h=1e-5, coords_per_tensor=8)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    verdict(1, "gradient integrity", worst < 1e-4 and elapsed < 60,
            f"max relative error {worst:.2e} across {len(errors)} tensors, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. kernel oracles
# ---------------------------------------------------------------------------

def _conv_loop(x, f, b):
    w = f.shape[0]
    left = (w - 1) // 2
    out = np.zeros((x.shape[0], f.shape[2]))
    for t in range(x.shape[0]):
        for o in range(f.shape[2]):
            acc = b[o]
            for j in range(w):
                src = t + j - left
                if 0 <= src < x.shape[0]:
                    acc += x[src] @ f[j, :, o]
            out[t, o] = acc
    return out


def test_criterion_2_kernel_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = int(rng.integers(1, min(n, 4) + 1))
        x = rng.standard_normal((n, c_in))
        f = rng.standard_normal((w, c_in, c_out))
        b = rng.standard_normal(c_out)
        got = _conv_same(x[None], f, b)[0]
        worst = max(worst, float(np.abs(got - _conv_loop(x, f, b)).max()))
    for _ in range(200):
        bsz, n, c = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 5))
        x = rng.standard_normal((bsz, n, c))
        lens = rng.integers(1, n + 1, size=bsz)
        # a one-wide identity filter and zero bias pool x itself, exactly
        got = conv1d(Tensor(x), Tensor(np.eye(c)[None]), Tensor(np.zeros(c)), lens).data
        want = np.stack([x[i, :lens[i]].max(axis=0) for i in range(bsz)])
        worst = max(worst, float(np.abs(got - want).max()))
    verdict(2, "kernel oracles", worst <= 1e-12,
            f"worst deviation {worst:.2e} over 400 random instances")


# ---------------------------------------------------------------------------
# 3 + 4. learning capability and protocol fidelity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def char_runs(tmp_path_factory):
    """Two 5-fold runs on the char-suffix-only corpus: fused net vs word-only."""
    t0 = time.perf_counter()
    corpus = gen_gender_corpus(SynthSpec(users_per_class=200, tweets_per_user=20,
                                         marker_rate=0.3, signal="char", seed=0))
    held_out = gen_gender_corpus(SynthSpec(users_per_class=50, tweets_per_user=20,
                                           marker_rate=0.3, signal="char", seed=1))
    root = tmp_path_factory.mktemp("char_runs")
    runs = {}
    for variant in ("cnn_char_pos", "cnn"):
        arch = ArchConfig(variant=variant, **DESK_ARCH)
        frs = train_cv(corpus, arch, k=5, epochs=8, seed=0,
                       workdir=root / variant, test_corpus=held_out).folds
        vocab = Vocab.from_json(json.loads(
            (root / variant / "vocab.json").read_text(encoding="utf-8")))
        docs = [build_doc(u.user_id, user_tokens(u), vocab) for u in held_out]
        preds = predict_ensemble([fr.checkpoint for fr in frs], docs)
        runs[variant] = SimpleNamespace(frs=frs, vocab=vocab, docs=docs,
                                        voting=evaluate(preds, held_out),
                                        preds=preds)
    return SimpleNamespace(fused=runs["cnn_char_pos"], word=runs["cnn"],
                           elapsed=time.perf_counter() - t0)


def test_criterion_3_learning_capability(char_runs):
    fused, word = char_runs.fused.voting, char_runs.word.voting
    ok = fused >= 0.95 and fused > word and char_runs.elapsed < 300
    verdict(3, "learning capability", ok,
            f"char-only signal: fused voting {fused:.3f} vs word-only "
            f"{word:.3f}, both runs in {char_runs.elapsed:.0f}s")


def test_criterion_4_protocol_fidelity(char_runs):
    run = char_runs.fused
    single = predict_ensemble([run.frs[0].checkpoint], run.docs)
    five = predict_ensemble([run.frs[0].checkpoint] * 5, run.docs)
    clones_exact = all(a.voted_gender == b.voted_gender
                       for a, b in zip(single, five))
    probs_close = all(abs(a.avg_prob - b.avg_prob) < 1e-12
                      for a, b in zip(single, five))
    argmax_best = all(fr.best_epoch == int(np.argmax(fr.val_trace)) + 1
                      for fr in run.frs)
    report = EnsembleReport()
    report.add("CNN_char_pos", [fr.test_accuracy for fr in run.frs], run.voting)
    table = report.table()
    renders = all(row in table for row in ("Mean", "SD", "Voting")) \
        and "CNN_char_pos" in table
    ok = clones_exact and probs_close and argmax_best and renders
    verdict(4, "protocol fidelity", ok,
            f"clone ensemble exact={clones_exact}, best-epoch=argmax "
            f"{argmax_best}, table rows rendered={renders}")


# ---------------------------------------------------------------------------
# 5. baseline floor
# ---------------------------------------------------------------------------

def test_criterion_5_baseline_floor(monkeypatch):
    corpus = gen_gender_corpus(SynthSpec(users_per_class=200, tweets_per_user=20,
                                         marker_rate=0.3, signal="word", seed=2))
    held_out = gen_gender_corpus(SynthSpec(users_per_class=50, tweets_per_user=20,
                                           marker_rate=0.3, signal="word", seed=3))
    models = fold_models(monkeypatch)
    summary, _ = baseline_cv(corpus, "LR", k=5, seed=0, test_corpus=held_out)
    # leakage audit: every fold model must be the string oracle fitted on
    # that fold's train split alone, terms and idf weights both
    folds = split_folds(corpus, 5, seed=0)
    leak_free = len(models) == 5
    for tfidf, val_idx in zip(models, folds):
        train_docs = [user_tokens(u) for j, u in enumerate(corpus) if j not in set(val_idx)]
        kept, idf = oracle_fit(train_docs, TfidfConfig())
        leak_free &= list(tfidf.terms) == kept and tfidf.idf.tobytes() == idf.tobytes()
    ok = summary.voting >= 0.90 and leak_free
    verdict(5, "baseline floor", ok,
            f"LR voting {summary.voting:.3f} on held-out users, "
            f"fold vocabularies leak-free={leak_free}")


# ---------------------------------------------------------------------------
# 6. statistics oracle
# ---------------------------------------------------------------------------

def test_criterion_6_statistics_oracle():
    def tail_by_quadrature(x):
        # substitute u = sqrt(t) in the df=1 density integral
        val, _ = quad(lambda u: math.sqrt(2.0 / math.pi) * math.exp(-u * u / 2.0),
                      math.sqrt(x), np.inf)
        return val

    grid = np.concatenate([np.linspace(0.01, 5, 40), np.linspace(5.5, 50, 40)])
    worst = max(abs(chi2_tail(float(x)) - tail_by_quadrature(float(x)))
                for x in grid)
    anchor = abs(chi2_tail(3.841) - 0.05)

    unit = odds_ratio(ConstructTable("barriers", 2015, 7, 7, 7, 7)) == 1.0
    a = ConstructTable("barriers", 2015, 6, 3, 2, 8)
    swapped = ConstructTable("barriers", 2015, 3, 6, 8, 2)
    reciprocal = odds_ratio(a) * odds_ratio(swapped) == 1.0
    scaled = ConstructTable("barriers", 2015, 18, 9, 2, 8)
    scaling = odds_ratio(scaled) == odds_ratio(a)

    ok = worst < 1e-8 and anchor < 1e-3 and unit and reciprocal and scaling
    verdict(6, "statistics oracle", ok,
            f"tail vs quadrature worst {worst:.2e}, p(3.841) off by "
            f"{anchor:.2e}, OR laws exact={unit and reciprocal and scaling}")


# ---------------------------------------------------------------------------
# 7. end-to-end stats
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_stats():
    spec = SynthSpec(users_per_class=500, seed=0,
                     yearly_volumes={y: 100_000 for y in range(2014, 2019)})
    stream = gen_labeled_tweets(spec)
    config = AnalysisConfig()
    tables = analyze(stream.tweets, stream.predictions, config)

    per_year = {}
    for t in tables:
        per_year[t.year] = per_year.get(t.year, 0) + 1
    five_each = per_year == {y: 5 for y in range(2014, 2019)}
    barrier_ors = [t.odds_ratio for t in tables if t.construct == "barriers"]
    within = all(abs(r - 2.0) <= 0.15 for r in barrier_ors)
    threshold_ok = config.threshold == 0.05 / 25 == 0.002

    ok = five_each and within and threshold_ok
    verdict(7, "end-to-end stats", ok,
            f"barriers OR {min(barrier_ors):.3f}..{max(barrier_ors):.3f} "
            f"(implied 2.0), {len(tables)} tables, threshold "
            f"{config.threshold:g}")


# ---------------------------------------------------------------------------
# 8. preprocessing goldens
# ---------------------------------------------------------------------------

def test_criterion_8_preprocessing_goldens():
    rows = json.loads(GOLDENS.read_text(encoding="utf-8"))
    exact = sum(normalize(r["raw"]) == r["normalized"]
                and tokenize(r["normalized"]) == r["tokens"] for r in rows)

    rng = np.random.default_rng(8)
    alphabet = list("abcdefgXYZ019 @#:;()!?.<3htp/\\-='\twls")
    failures = 0
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        once = normalize(s)
        failures += normalize(once) != once
    ok = exact == len(rows) == 30 and failures == 0
    verdict(8, "preprocessing goldens", ok,
            f"{exact}/{len(rows)} goldens byte-exact, {failures} idempotence "
            f"failures in 10000 random strings")


# ---------------------------------------------------------------------------
# 9. conditional reproduction
# ---------------------------------------------------------------------------

TINY_SETS = ["--set", "word_dim=8", "--set", "char_dim=4", "--set", "pos_dim=3",
             "--set", "char_filters=4", "--set", "word_filters_per_width=4",
             "--set", "dense_units=8", "--set", "dropout=0",
             "--set", "batch_size=8", "--set", "min_word_freq=1"]

_XML = ("<author lang=\"en\"><documents>{}</documents></author>")


def _write_mini_pan(root: Path) -> Path:
    """Eight authors in the per-author XML layout with a truth file."""
    d = root / "pan"
    d.mkdir()
    words = {"female": "lorivel melodyn seraphy", "male": "brakton gruxley dravnor"}
    lines = []
    for gender in ("female", "male"):
        for i in range(4):
            uid = f"{gender[0]}author{chr(97 + i)}"
            docs = "".join(f"<document>{words[gender]} tweet {j} ok</document>"
                           for j in range(4))
            (d / f"{uid}.xml").write_text(_XML.format(docs), encoding="utf-8")
            lines.append(f"{uid}:::{gender}")
    (root / "truth.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return d


def test_criterion_9_conditional_reproduction(tmp_path):
    defaults = ArchConfig()
    recipe_ok = (defaults.lr == 0.001 and defaults.batch_size == 64
                 and defaults.word_dim == 200 and defaults.char_dim == 50
                 and defaults.pos_dim == 10 and defaults.l2 == 1e-5
                 and defaults.dropout == 0.2
                 and defaults.word_filters_per_width == 2048
                 and defaults.char_filters == 50
                 and defaults.word_filter_widths == (1, 2, 3)
                 and defaults.char_filter_width == 3
                 and defaults.variant == "cnn_char_pos")

    pan_dir = _write_mini_pan(tmp_path)
    users = tmp_path / "users.jsonl"
    imported = main(["import-pan", str(pan_dir), "--truth",
                     str(tmp_path / "truth.txt"), "--out", str(users)]) == 0
    workdir = tmp_path / "run"
    trained = main(["train", "--users", str(users), "--workdir", str(workdir),
                    "--seed", "1", "--folds", "2", "--epochs", "1",
                    *TINY_SETS]) == 0
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8")) \
        if trained else {}
    harness_ok = imported and trained and {"mean", "sd", "voting_accuracy"} <= set(report)

    supplied = os.environ.get("GENDERFUSE_PAN_DIR")
    note = (f"full corpus at {supplied} can be run with the same commands at "
            f"default settings" if supplied else
            "full corpus not supplied; matching the reference voting accuracy "
            "stays aspirational")
    ok = recipe_ok and harness_ok
    verdict(9, "conditional reproduction", ok,
            f"default recipe intact={recipe_ok}, miniature import+train+report "
            f"round trip={harness_ok}; {note}")
