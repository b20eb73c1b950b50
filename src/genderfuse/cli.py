"""Command-line front end for the whole pipeline.

One executable, ten subcommands: corpus import (``import-pan``),
normalization preview (``preprocess``), cross-validated training
(``train``), ensemble inference (``predict``), accuracy reporting
(``evaluate``), linear reference models (``baseline``), the odds-ratio /
chi-square analysis (``analyze``), synthetic data (``synth``), a
finite-difference gradient audit (``gradcheck``), and a built-in invariant
suite (``selftest``).

Configuration is a flat ``key = value`` file (``#`` starts a comment);
``--set key=value`` and dedicated flags override file values, and the
``GENDERFUSE_CONFIG`` environment variable names a default file.  Unknown
keys are errors.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import TfidfConfig, baseline_cv, count_ngrams, fit_tfidf, transform_docs
from .corpus import (
    GENDERS,
    gender_index,
    import_pan,
    read_labeled_tweets_jsonl,
    read_predictions_jsonl,
    read_users_jsonl,
    write_labeled_tweets_jsonl,
    write_predictions_jsonl,
    write_users_jsonl,
)
from .errors import CheckpointError, ConfigError, CorpusError, GenderfuseError
from .ioutil import read_json, write_json, write_jsonl
from .model import (
    ArchConfig,
    forward,
    init_params,
    load_params,
    make_batch,
    read_embeddings,
    save_params,
)
from .stats import AnalysisConfig, ConstructTable, chi2_tail, emit_figure2, odds_ratio
from .stats import analyze as run_analysis
from .synth import DEFAULT_RATES, SIGNALS, SynthSpec, gen_gender_corpus, gen_labeled_tweets
from .tensor import add, grad_check, l2_penalty, softmax_xent
from .textpipe import Vocab, build_doc, build_vocab, normalize, tokenize_tweets
from .train import (
    EnsembleReport,
    coverage,
    coverage_summary,
    predict_ensemble,
    train_cv,
    vote_probs,
)
from .train import evaluate as voting_accuracy

VARIANT_COLUMN = {"cnn": "CNN", "cnn_char": "CNN_char", "cnn_char_pos": "CNN_char_pos"}


class UsageError(Exception):
    """Bad invocation; reported on stderr with exit code 1."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_ints(s: str) -> tuple:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


def _choice(*options):
    def parse(s: str) -> str:
        t = s.strip()
        if t not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {s!r}")
        return t
    return parse


@dataclass(frozen=True)
class _Key:
    parse: object
    default: object
    help: str
    # (test, wording) of the allowed range, for keys that no config object
    # (ArchConfig, TfidfConfig, AnalysisConfig) checks before a run starts
    bound: tuple | None = None


_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")


CONFIG_SPEC = {
    "variant": _Key(_choice(*VARIANT_COLUMN), "cnn_char_pos",
                    "network variant: cnn | cnn_char | cnn_char_pos"),
    "word_dim": _Key(int, 200, "word embedding width"),
    "char_dim": _Key(int, 50, "character embedding width"),
    "pos_dim": _Key(int, 10, "part-of-speech embedding width"),
    "char_filters": _Key(int, 50, "filters in the per-token character conv"),
    "char_filter_width": _Key(int, 3, "character conv window"),
    "word_filter_widths": _Key(_parse_ints, (1, 2, 3),
                               "token conv windows, comma separated"),
    "word_filters_per_width": _Key(int, 2048, "filters per token conv window"),
    "filters_are_total": _Key(_parse_bool, False,
                              "treat word_filters_per_width as a total split across widths"),
    "dense_units": _Key(int, 256, "hidden dense layer width"),
    "dropout": _Key(float, 0.2, "dropout rate after the dense layer"),
    "l2": _Key(float, 1e-5, "L2 penalty on conv and dense weights"),
    "lr": _Key(float, 0.001, "Adam learning rate"),
    "batch_size": _Key(int, 64, "training batch size"),
    "freeze_word_emb": _Key(_parse_bool, False, "do not update word embeddings"),
    "folds": _Key(int, 5, "cross-validation fold count"),
    "epochs": _Key(int, 20, "training epochs per fold", _AT_LEAST_ONE),
    "min_word_freq": _Key(int, 2, "corpus frequency below which words map to <unk>"),
    "jobs": _Key(int, 1, "process count; parallelism is across folds only",
                 _AT_LEAST_ONE),
    "coverage_threshold": _Key(float, 0.80, "confidence bar for the coverage summary",
                               (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    "baseline_ngram_lo": _Key(int, 1, "smallest TF-IDF n-gram order"),
    "baseline_ngram_hi": _Key(int, 2, "largest TF-IDF n-gram order"),
    "baseline_min_df": _Key(int, 2, "minimum document frequency for TF-IDF terms"),
    "baseline_sublinear": _Key(_parse_bool, True, "log-scale TF-IDF term counts"),
    "baseline_l2": _Key(float, 1e-4, "ridge strength for the linear models",
                        (lambda v: v >= 0, "at least 0")),
    "baseline_epochs": _Key(int, 10, "SGD epochs for the linear models", _AT_LEAST_ONE),
    "baseline_lr": _Key(float, 0.1, "SGD learning rate for the linear models",
                        (lambda v: v > 0, "positive")),
    "alpha": _Key(float, 0.05, "family-wise significance level"),
    "comparisons": _Key(int, 25, "Bonferroni comparison count"),
    "haldane": _Key(_parse_bool, True,
                    "add 0.5 to every cell of a table with a zero (odds ratio only)"),
    "yates": _Key(_parse_bool, False, "continuity-correct the chi-square statistic"),
    "denominator": _Key(_choice("all", "labeled"), "all",
                        "rate denominator: every tweet, or construct-labeled tweets only"),
}


def parse_config_text(text: str, where: str) -> dict:
    """Flat ``key = value`` lines; ``#`` comments; later keys win."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_SPEC:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_SPEC[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"{where}:{lineno}: {key}: {exc}") from exc
    return out


def resolve_config(config_flag, overrides, flags=None) -> dict:
    """Defaults, then the config file, then ``--set`` pairs, then the
    dedicated flags in ``flags`` that were given; then every range check."""
    cfg = {k: spec.default for k, spec in CONFIG_SPEC.items()}
    path = config_flag or os.environ.get("GENDERFUSE_CONFIG")
    if path:
        blob = Path(path).read_bytes()
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = blob.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
        cfg.update(parse_config_text(text, where=str(path)))
    for item in overrides or []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"--set expects key=value, got {item!r}")
        if key not in CONFIG_SPEC:
            raise UsageError(f"--set: unknown key {key!r}")
        try:
            cfg[key] = CONFIG_SPEC[key].parse(value.strip())
        except ValueError as exc:
            raise UsageError(f"--set {key}: {exc}") from exc
    cfg.update((key, v) for key, v in (flags or {}).items() if v is not None)
    for key, spec in CONFIG_SPEC.items():
        if spec.bound is not None and not spec.bound[0](cfg[key]):
            raise ConfigError(f"{key} must be {spec.bound[1]}, got {cfg[key]!r}")
    return cfg


def arch_from_config(cfg: dict) -> ArchConfig:
    return ArchConfig(
        variant=cfg["variant"],
        word_dim=cfg["word_dim"],
        char_dim=cfg["char_dim"],
        pos_dim=cfg["pos_dim"],
        char_filters=cfg["char_filters"],
        char_filter_width=cfg["char_filter_width"],
        word_filter_widths=tuple(cfg["word_filter_widths"]),
        word_filters_per_width=cfg["word_filters_per_width"],
        filters_are_total=cfg["filters_are_total"],
        dense_units=cfg["dense_units"],
        dropout=cfg["dropout"],
        l2=cfg["l2"],
        lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        freeze_word_emb=cfg["freeze_word_emb"],
    )


def tfidf_from_config(cfg: dict) -> TfidfConfig:
    return TfidfConfig(ngram_lo=cfg["baseline_ngram_lo"], ngram_hi=cfg["baseline_ngram_hi"],
                       min_df=cfg["baseline_min_df"], sublinear=cfg["baseline_sublinear"])


def stats_config(cfg: dict) -> AnalysisConfig:
    return AnalysisConfig(alpha=cfg["alpha"], comparisons=cfg["comparisons"],
                          haldane=cfg["haldane"], yates=cfg["yates"],
                          denominator=cfg["denominator"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_import_pan(args) -> int:
    users, warnings = import_pan(args.author_dir, args.truth)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not users:
        raise CorpusError(f"{args.author_dir}: no author XML files found")
    write_users_jsonl(users, args.out)
    labeled = sum(1 for u in users if u.gender is not None)
    print(f"imported {len(users)} authors ({labeled} labeled) -> {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    users = read_users_jsonl(args.users)
    write_jsonl(args.out, ({"user_id": u.user_id,
                            "tokens": tokenize_tweets(u.tweets)}
                           for u in users))
    print(f"normalized and tokenized {len(users)} authors -> {args.out}")
    return 0


def _config(args) -> dict:
    """resolve_config for a subcommand, with its dedicated flags."""
    return resolve_config(args.config, args.set, {
        key: getattr(args, attr, None)
        for key, attr in (("variant", "arch"), ("folds", "folds"),
                          ("epochs", "epochs"), ("jobs", "jobs"))})


def _cmd_train(args) -> int:
    cfg = _config(args)
    arch = arch_from_config(cfg)
    corpus = read_users_jsonl(args.users)
    test = read_users_jsonl(args.test_users) if args.test_users else None
    pretrained = read_embeddings(args.embeddings) if args.embeddings else None

    workdir = Path(args.workdir)
    if not args.resume and any(workdir.glob("fold*.json")):
        raise ConfigError(
            f"{workdir} already holds fold results; pass --resume to reuse "
            "them or choose a fresh directory")

    run = train_cv(corpus, arch, k=cfg["folds"], epochs=cfg["epochs"],
                   seed=args.seed, workdir=workdir, pretrained=pretrained,
                   test_corpus=test, min_word_freq=cfg["min_word_freq"],
                   jobs=cfg["jobs"])
    failed = [fr for fr in run.folds if fr.error]
    for fr in failed:
        print(f"fold {fr.fold} failed: {fr.error}", file=sys.stderr)
    if failed:
        return 2

    report = EnsembleReport()
    report.add(VARIANT_COLUMN[arch.variant], run.summary.folds, run.summary.voting)
    print(report.table())
    thr = cfg["coverage_threshold"]
    print(f"coverage at {thr:g}: {coverage_summary(run.preds, thr)}")

    out_path = args.report or workdir / "report.json"
    write_json(out_path, {
        "variant": arch.variant,
        "seed": args.seed,
        "folds": cfg["folds"],
        "epochs": cfg["epochs"],
        "held_out": test is not None,
        "fold_accuracies": list(run.summary.folds),
        "mean": run.summary.mean,
        "sd": run.summary.sd,
        "voting_accuracy": run.summary.voting,
        "coverage": float(coverage(run.preds, thr)),
        # checkpoint names are workdir-relative so reruns compare bytewise
        "fold_results": [{**fr.to_json(),
                          "checkpoint": Path(fr.checkpoint).name}
                         for fr in run.folds],
    })
    print(f"report -> {out_path}")
    return 0


def _cmd_predict(args) -> int:
    workdir = Path(args.workdir)
    vocab_path = workdir / "vocab.json"
    if not vocab_path.exists():
        raise CorpusError(f"{vocab_path}: missing; train in this directory first")
    vocab = read_json(vocab_path, Vocab.from_json)
    # fold order, not name order: fold_probs[i] is fold i's probability
    found = {int(m[1]): p for p in workdir.glob("fold*.gfus")
             if (m := re.fullmatch(r"fold(0|[1-9][0-9]*)\.gfus", p.name))}
    if not found:
        raise CorpusError(f"{workdir}: no fold checkpoints found")
    missing = [f"fold{i}.gfus" for i in range(max(found)) if i not in found]
    if missing:
        raise CheckpointError(f"{workdir}: missing {', '.join(missing)} of folds "
                              f"0..{max(found)}; retrain in this directory")
    # train writes fold<i>.json once the fold is scored; a checkpoint without
    # it is a best epoch so far of a run that did not finish
    unrecorded = [f"fold{i}.json" for i in range(len(found))
                  if not (workdir / f"fold{i}.json").exists()]
    if unrecorded:
        raise CheckpointError(f"{workdir}: missing {', '.join(unrecorded)}, so its train "
                              "did not finish; rerun train with --resume")
    checkpoints = [found[i] for i in range(len(found))]
    users = read_users_jsonl(args.users)
    docs = [build_doc(u, vocab) for u in users]
    preds = predict_ensemble(checkpoints, docs, batch_size=args.batch_size)
    write_predictions_jsonl(preds, args.out)
    print(f"predicted {len(preds)} authors with {len(checkpoints)} fold models "
          f"-> {args.out}")
    print(f"coverage at 0.8: {coverage_summary(preds)}")
    return 0


def _other_gender(g: str) -> str:
    return GENDERS[1 - gender_index(g)]


def _cmd_evaluate(args) -> int:
    cfg = _config(args)
    preds = read_predictions_jsonl(args.preds)
    truth = read_users_jsonl(args.truth)
    voting = voting_accuracy(preds, truth)

    kset = {len(p.fold_probs) for p in preds}
    if len(kset) != 1:
        raise CorpusError(f"predictions disagree on fold count: {sorted(kset)}")
    k = kset.pop()
    truths = {u.user_id: u.gender for u in truth}
    fold_accs = []
    for i in range(k):
        # a fold endorsed the voted gender iff its probability clears 0.5
        hit = sum((p.voted_gender if p.fold_probs[i] > 0.5
                   else _other_gender(p.voted_gender)) == truths[p.user_id]
                  for p in preds)
        fold_accs.append(hit / len(preds))

    report = EnsembleReport()
    report.add(args.algo, fold_accs, voting)
    print(report.table())
    thr = cfg["coverage_threshold"]
    print(f"coverage at {thr:g}: {coverage_summary(preds, thr)}")
    if args.report:
        write_json(args.report, {**report.to_json(),
                                 "coverage": float(coverage(preds, thr))})
        print(f"report -> {args.report}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = _config(args)
    corpus = read_users_jsonl(args.users)
    test = read_users_jsonl(args.test_users) if args.test_users else None
    summary, preds = baseline_cv(corpus, args.algo, k=cfg["folds"],
                                 seed=args.seed, test_corpus=test,
                                 tfidf_config=tfidf_from_config(cfg), lam=cfg["baseline_l2"],
                                 epochs=cfg["baseline_epochs"],
                                 lr=cfg["baseline_lr"])
    report = EnsembleReport()
    report.add(args.algo, summary.folds, summary.voting)
    print(report.table())
    if args.out:
        write_predictions_jsonl(preds, args.out)
        print(f"predictions -> {args.out}")
    if args.report:
        write_json(args.report, report.to_json())
        print(f"report -> {args.report}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = _config(args)
    config = stats_config(cfg)
    tweets = read_labeled_tweets_jsonl(args.tweets)
    preds = read_predictions_jsonl(args.preds)
    tables = run_analysis(tweets, preds, config)
    emit_figure2(tables, args.out)
    years = sorted({t.year for t in tables})
    print(f"wrote {args.out}: {len(tables)} construct-year tables "
          f"({years[0]}..{years[-1]})")
    print(f"significance threshold: {cfg['alpha']:g} / {cfg['comparisons']} "
          f"= {config.threshold:.6g}")
    return 0


def _cmd_synth(args) -> int:
    rates = dict(DEFAULT_RATES)
    for item in args.rate or []:
        name, eq, rest = item.partition("=")
        try:
            pm, pf = (float(x) for x in rest.split(","))
        except ValueError as exc:
            raise UsageError(f"--rate expects NAME=PM,PF, got {item!r}") from exc
        if not eq:
            raise UsageError(f"--rate expects NAME=PM,PF, got {item!r}")
        rates[name.strip()] = (pm, pf)
    spec = SynthSpec(users_per_class=args.users_per_class,
                     tweets_per_user=args.tweets_per_user,
                     vocab_size=args.vocab_size,
                     marker_rate=args.marker_rate,
                     signal=args.signal,
                     seed=args.seed,
                     construct_rates=rates,
                     yearly_volumes=args.volumes or
                     {y: 2000 for y in range(2014, 2019)})
    if args.kind == "users":
        users = gen_gender_corpus(spec)
        write_users_jsonl(users, args.out)
        print(f"generated {len(users)} authors "
              f"({spec.users_per_class} per gender) -> {args.out}")
    else:
        if not args.preds_out:
            raise UsageError("--preds-out is required with 'tweets'")
        stream = gen_labeled_tweets(spec)
        write_labeled_tweets_jsonl(stream.tweets, args.out)
        write_predictions_jsonl(stream.predictions, args.preds_out)
        print(f"generated {len(stream.tweets)} labeled tweets -> {args.out}")
        print(f"author predictions -> {args.preds_out}")
        for construct in sorted(stream.implied_or):
            print(f"implied odds ratio {construct}: "
                  f"{stream.implied_or[construct]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _gradcheck_setup(seed: int):
    spec = SynthSpec(users_per_class=3, tweets_per_user=2, vocab_size=30,
                     marker_rate=1.0, signal="all", seed=seed)
    corpus = gen_gender_corpus(spec)
    arch = ArchConfig(variant="cnn_char_pos", word_dim=8, char_dim=6, pos_dim=4,
                      char_filters=5, char_filter_width=3,
                      word_filter_widths=(1, 2, 3), word_filters_per_width=4,
                      dense_units=8, dropout=0.0, l2=1e-4, batch_size=6)
    vocab = build_vocab(corpus, min_word_freq=1)
    docs = [build_doc(u, vocab) for u in corpus]
    labels = [gender_index(u.gender) for u in corpus]
    batch = make_batch(docs, labels)
    params = init_params(arch, vocab, seed=seed, dtype=np.float64)
    # keep the normalized activations alive; a mostly dead layer has
    # gradients down in the finite-difference noise
    params.tensors["bn_beta"].data[:] = 0.3 + 0.05 * np.arange(arch.dense_units)
    params.tensors["dense_b"].data[:] = 0.4 + 0.1 * np.arange(arch.dense_units)
    return params, batch


def fd_gradcheck(seed: int = 0, h: float = 1e-5,
                 coords_per_tensor: int = 8) -> dict:
    """Analytic gradients vs central differences on a small fused network.

    Returns ``{tensor name: worst relative error}`` over ``coords_per_tensor``
    seeded random coordinates per tensor, or every coordinate when 0; see
    :func:`genderfuse.tensor.grad_check` for the error measure and step sizes.
    """
    params, batch = _gradcheck_setup(seed)

    def loss_tensor():
        logits, _ = forward(params, batch, mode="train")
        xent, _ = softmax_xent(logits, batch.labels)
        return add(xent, l2_penalty(params.regularized(), params.arch.l2))

    return grad_check(loss_tensor, params.tensors, samples_per_tensor=coords_per_tensor,
                      h=h, rng=np.random.default_rng(seed))


def _cmd_gradcheck(args) -> int:
    errors = fd_gradcheck(seed=args.seed, h=args.step,
                          coords_per_tensor=args.coords)
    for name in sorted(errors):
        print(f"{name:<16} {errors[name]:.3e}")
    worst = max(errors.values())
    ok = worst < args.tolerance
    print(f"max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tolerance:g})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _check_conv_oracle():
    from .tensor import _conv_same
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, c_in, c_out, w = (int(rng.integers(3, 7)), int(rng.integers(1, 4)),
                             int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        x = rng.standard_normal((n, c_in))
        f = rng.standard_normal((w, c_in, c_out))
        b = rng.standard_normal(c_out)
        got = _conv_same(x[None], f, b)[0]
        left = (w - 1) // 2
        want = np.zeros((n, c_out))
        for t in range(n):
            for o in range(c_out):
                acc = b[o]
                for j in range(w):
                    src = t + j - left
                    if 0 <= src < n:
                        acc += x[src] @ f[j, :, o]
                want[t, o] = acc
        assert np.allclose(got, want, atol=1e-12), "the conv kernel disagrees with the loop"


def _check_conv_pooling():
    from .tensor import Tensor, conv1d
    rng = np.random.default_rng(1)
    for _ in range(20):
        b, n, c = 3, int(rng.integers(2, 8)), 4
        x = rng.standard_normal((b, n, c))
        lens = rng.integers(1, n + 1, size=b)
        # a one-wide identity filter and zero bias pool x itself, exactly
        got = conv1d(Tensor(x), Tensor(np.eye(c)[None]), Tensor(np.zeros(c)), lens).data
        want = np.stack([x[i, :lens[i]].max(axis=0) for i in range(b)])
        assert np.array_equal(got, want), "conv1d's pooling disagrees with the loop"


def _check_chi2_tail():
    assert chi2_tail(0.0) == 1.0
    assert abs(chi2_tail(3.841) - 0.05) < 1e-3
    grid = [chi2_tail(x) for x in np.linspace(0.1, 30, 50)]
    assert all(a > b for a, b in zip(grid, grid[1:])), "tail is not decreasing"


def _check_or_invariants():
    t = ConstructTable("barriers", 2015, 5, 5, 5, 5)
    assert odds_ratio(t) == 1.0
    a = ConstructTable("barriers", 2015, 6, 3, 2, 8)
    flipped = ConstructTable("barriers", 2015, 3, 6, 8, 2)
    assert odds_ratio(a) * odds_ratio(flipped) == 1.0
    scaled = ConstructTable("barriers", 2015, 18, 9, 2, 8)
    assert odds_ratio(scaled) == odds_ratio(a), "row scaling moved the ratio"


def _check_normalize_idempotent():
    rng = np.random.default_rng(2)
    alphabet = list("abcXYZ019 @#:()!?.<3htp/ensw")
    for _ in range(500):
        s = "".join(rng.choice(alphabet, size=int(rng.integers(0, 50))))
        once = normalize(s)
        assert normalize(once) == once, f"not idempotent on {s!r}"


def _check_checkpoint_roundtrip():
    spec = SynthSpec(users_per_class=2, tweets_per_user=2, vocab_size=20,
                     marker_rate=1.0, seed=4)
    corpus = gen_gender_corpus(spec)
    vocab = build_vocab(corpus, min_word_freq=1)
    arch = ArchConfig(variant="cnn_char_pos", word_dim=4, char_dim=3, pos_dim=2,
                      char_filters=3, word_filter_widths=(1, 2),
                      word_filters_per_width=2, dense_units=4, dropout=0.0)
    params = init_params(arch, vocab, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.gfus"
        save_params(params, path)
        back = load_params(path, expect_fingerprint=params.fingerprint)
        for name, t in params.tensors.items():
            assert np.array_equal(back.tensors[name].data, t.data), name


def _check_vote_tiebreak():
    probs = np.array([[[0.9, 0.1]], [[0.4, 0.6]]])
    voted, fold_probs = vote_probs(probs)
    assert voted.tolist() == [0], "tie must fall to the larger summed probability"
    assert fold_probs[:, 0].tolist() == [0.9, 0.4]


def _check_tfidf_rows_unit_norm():
    counts = count_ngrams([["a", "b", "a"], ["b", "c"], ["a", "c", "c"]],
                          TfidfConfig(1, 1, 1, True))
    X = transform_docs(fit_tfidf(counts), counts)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    assert np.allclose(norms, 1.0, atol=1e-12), "rows are not unit length"


SELFTEST_CHECKS = (
    ("the conv kernel matches a nested-loop oracle", _check_conv_oracle),
    ("conv1d max-pools like a masked-loop oracle", _check_conv_pooling),
    ("chi-square tail anchors and monotonicity", _check_chi2_tail),
    ("odds ratio unit, reciprocal, and scaling laws", _check_or_invariants),
    ("tweet normalization is idempotent", _check_normalize_idempotent),
    ("checkpoints survive a save/load round trip", _check_checkpoint_roundtrip),
    ("ensemble ties fall to the summed probability", _check_vote_tiebreak),
    ("TF-IDF rows are unit length", _check_tfidf_rows_unit_norm),
)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        try:
            check()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILED'}")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _config_epilog() -> str:
    lines = ["configuration keys (config file or --set key=value):"]
    for key, spec in CONFIG_SPEC.items():
        if isinstance(spec.default, tuple):
            default = ",".join(str(v) for v in spec.default)
        elif isinstance(spec.default, bool):
            default = "true" if spec.default else "false"
        else:
            default = str(spec.default)
        lines.append(f"  {key:<24} default {default:<12} {spec.help}")
    return "\n".join(lines)


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", metavar="FILE",
                    help="key=value configuration file "
                         "(default: $GENDERFUSE_CONFIG if set)")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one configuration key; repeatable")


def _positive_int(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_volumes(s: str) -> dict:
    try:
        return {int(year): int(count)
                for year, count in (part.split("=") for part in s.split(","))}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected YEAR=COUNT[,YEAR=COUNT...] with integers, got {s!r}") from None


def build_parser() -> argparse.ArgumentParser:
    epilog = _config_epilog()
    parser = _Parser(
        prog="genderfuse",
        description="Gender prediction from tweets: fused-embedding CNN "
                    "ensembles, TF-IDF linear baselines, and odds-ratio "
                    "construct analysis.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, help_, config=False):
        sp = sub.add_parser(
            name, help=help_, description=help_,
            epilog=epilog if config else None,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.set_defaults(func=func)
        if config:
            _add_config_flags(sp)
        return sp

    sp = command("import-pan", _cmd_import_pan,
                 "convert a directory of per-author XML files to users JSONL")
    sp.add_argument("author_dir", help="directory of <author id>.xml files")
    sp.add_argument("--truth", metavar="FILE",
                    help="id:::gender truth file, which must exist; authors "
                         "missing from it stay unlabeled")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="users JSONL destination")

    sp = command("preprocess", _cmd_preprocess,
                 "write normalized token lists for inspection")
    sp.add_argument("--users", required=True, metavar="FILE")
    sp.add_argument("--out", required=True, metavar="FILE")

    sp = command("train", _cmd_train,
                 "k-fold cross-validated training of the fused CNN", config=True)
    sp.add_argument("--users", required=True, metavar="FILE")
    sp.add_argument("--workdir", required=True, metavar="DIR",
                    help="vocabulary, per-fold checkpoints, and metadata land here")
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--arch", choices=sorted(VARIANT_COLUMN),
                    help="overrides the 'variant' configuration key")
    sp.add_argument("--folds", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--jobs", type=int, help="fold-level process parallelism")
    sp.add_argument("--embeddings", metavar="FILE",
                    help="pretrained word vectors, one 'word v1 .. vd' per line")
    sp.add_argument("--test-users", metavar="FILE",
                    help="held-out users JSONL; fold and voting accuracy move there")
    sp.add_argument("--resume", action="store_true",
                    help="reuse finished folds found in --workdir")
    sp.add_argument("--report", metavar="FILE",
                    help="report JSON destination (default: WORKDIR/report.json)")

    sp = command("predict", _cmd_predict,
                 "majority-vote fold checkpoints over a users file")
    sp.add_argument("--workdir", required=True, metavar="DIR",
                    help="directory produced by train")
    sp.add_argument("--users", required=True, metavar="FILE")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="predictions JSONL destination")
    sp.add_argument("--batch-size", type=_positive_int, metavar="N")

    sp = command("evaluate", _cmd_evaluate,
                 "score predictions against labeled users", config=True)
    sp.add_argument("--preds", required=True, metavar="FILE")
    sp.add_argument("--truth", required=True, metavar="FILE",
                    help="users JSONL with gold genders")
    sp.add_argument("--algo", default="CNN_char_pos",
                    help="column label in the report table")
    sp.add_argument("--report", metavar="FILE", help="report JSON destination")

    sp = command("baseline", _cmd_baseline,
                 "TF-IDF linear reference models under the same protocol",
                 config=True)
    sp.add_argument("--users", required=True, metavar="FILE")
    sp.add_argument("--algo", choices=("LR", "SVM"), default="LR")
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--folds", type=int)
    sp.add_argument("--test-users", metavar="FILE")
    sp.add_argument("--out", metavar="FILE", help="predictions JSONL destination")
    sp.add_argument("--report", metavar="FILE", help="report JSON destination")

    sp = command("analyze", _cmd_analyze,
                 "per-year odds ratios and chi-square tests by construct",
                 config=True)
    sp.add_argument("--tweets", required=True, metavar="FILE",
                    help="construct-labeled tweets JSONL")
    sp.add_argument("--preds", required=True, metavar="FILE",
                    help="gender predictions JSONL covering every author")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="CSV destination; a .json twin lands beside it")

    sp = command("synth", _cmd_synth, "generate synthetic fixture data")
    sp.add_argument("kind", choices=("users", "tweets"))
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.add_argument("--preds-out", metavar="FILE",
                    help="author predictions JSONL (tweets kind only)")
    sp.add_argument("--users-per-class", type=int, default=200)
    sp.add_argument("--tweets-per-user", type=int, default=20)
    sp.add_argument("--vocab-size", type=int, default=150)
    sp.add_argument("--marker-rate", type=float, default=0.3)
    sp.add_argument("--signal", choices=SIGNALS, default="all")
    sp.add_argument("--volumes", type=_parse_volumes, metavar="Y=N,...",
                    help="labeled tweets per year, e.g. 2014=2000,2015=2000")
    sp.add_argument("--rate", action="append", metavar="NAME=PM,PF",
                    help="construct hit rates for male,female; repeatable")

    sp = command("gradcheck", _cmd_gradcheck,
                 "finite-difference audit of the analytic gradients")
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--coords", type=int, default=8,
                    help="coordinates sampled per tensor; 0 checks all")
    sp.add_argument("--step", type=float, default=1e-5,
                    help="central difference step")
    sp.add_argument("--tolerance", type=float, default=1e-4)

    command("selftest", _cmd_selftest,
            "run the built-in invariant checks and print pass/fail")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("run 'genderfuse --help' for usage", file=sys.stderr)
        return 1
    except GenderfuseError as exc:
        print(f"genderfuse: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"genderfuse: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
