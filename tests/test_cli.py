"""End-to-end tests for the command-line interface."""

import inspect
import json
import shutil
import warnings

import pytest

from genderfuse.baseline import TfidfConfig, baseline_cv
from genderfuse.cli import (
    CONFIG_SPEC,
    UsageError,
    arch_from_config,
    main,
    parse_config_text,
    resolve_config,
    stats_config,
    tfidf_from_config,
)
from genderfuse.corpus import (GenderPrediction, UserRecord, gender_index, read_predictions_jsonl,
                               read_users_jsonl, write_predictions_jsonl, write_users_jsonl)
from genderfuse.errors import ConfigError, TrainingError
from genderfuse.ioutil import write_json
from genderfuse.model import ArchConfig, init_params, predict_probs, save_params
from genderfuse.stats import AnalysisConfig
from genderfuse.textpipe import build_doc, build_vocab
from genderfuse.train import coverage, coverage_summary, train_cv


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("GENDERFUSE_CONFIG", raising=False)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_parse_config_comments_spacing_and_last_wins():
    text = "\n".join([
        "# a comment",
        "folds = 3   # trailing comment",
        "",
        "lr=0.01",
        "folds = 4",
        "word_filter_widths = 2, 3",
    ])
    got = parse_config_text(text, where="cfg")
    assert got == {"folds": 4, "lr": 0.01, "word_filter_widths": (2, 3)}


def test_parse_config_unknown_key_names_file_and_line():
    with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'folsd'"):
        parse_config_text("folds = 3\n\nfolsd = 4\n", where="cfg")


def test_parse_config_bad_value_reports_location():
    with pytest.raises(ConfigError, match=r"cfg:1: haldane: expected a boolean"):
        parse_config_text("haldane = maybe", where="cfg")


def test_parse_config_requires_key_value_shape():
    with pytest.raises(ConfigError, match=r"cfg:2: expected key=value"):
        parse_config_text("folds = 3\njust some words\n", where="cfg")


def test_resolve_defaults_file_and_set_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("folds = 3\nlr = 0.01\n", encoding="utf-8")
    cfg = resolve_config(str(cfg_file), ["lr=0.5"])
    assert cfg["folds"] == 3          # from the file
    assert cfg["lr"] == 0.5           # --set beats the file
    assert cfg["epochs"] == 20        # untouched default


def test_resolve_reads_env_default(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.cfg"
    cfg_file.write_text("alpha = 0.01\n", encoding="utf-8")
    monkeypatch.setenv("GENDERFUSE_CONFIG", str(cfg_file))
    assert resolve_config(None, None)["alpha"] == 0.01


def test_resolve_set_rejects_unknown_key():
    with pytest.raises(UsageError, match="unknown key 'folsd'"):
        resolve_config(None, ["folsd=4"])


def test_default_arch_matches_reference_recipe():
    arch = arch_from_config(resolve_config(None, None))
    assert arch.variant == "cnn_char_pos"
    assert arch.word_dim == 200
    assert arch.char_dim == 50
    assert arch.pos_dim == 10
    assert arch.word_filter_widths == (1, 2, 3)
    assert arch.word_filters_per_width == 2048
    assert arch.char_filters == 50
    assert arch.dense_units == 256
    assert arch.dropout == 0.2
    assert arch.l2 == 1e-5
    assert arch.lr == 0.001
    assert arch.batch_size == 64


def test_cli_defaults_equal_library_defaults():
    cfg = resolve_config(None, None)
    assert arch_from_config(cfg) == ArchConfig()
    assert tfidf_from_config(cfg) == TfidfConfig()
    assert stats_config(cfg) == AnalysisConfig()
    for fn, keys in ((train_cv, {"k": "folds", "epochs": "epochs",
                                 "min_word_freq": "min_word_freq", "jobs": "jobs"}),
                     (baseline_cv, {"k": "folds", "lam": "baseline_l2",
                                    "epochs": "baseline_epochs", "lr": "baseline_lr"}),
                     (coverage, {"threshold": "coverage_threshold"}),
                     (coverage_summary, {"threshold": "coverage_threshold"})):
        params = inspect.signature(fn).parameters
        for name, key in keys.items():
            assert params[name].default == cfg[key], (fn.__name__, name, key)


def test_help_documents_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in CONFIG_SPEC:
        assert key in out, key
    assert "default" in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_missing_seed_is_usage_error(tmp_path):
    assert main(["train", "--users", "u.jsonl",
                 "--workdir", str(tmp_path)]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_input_file_is_data_error(tmp_path):
    code = main(["preprocess", "--users", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2


def test_bad_config_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n", encoding="utf-8")
    code = main(["evaluate", "--preds", "p", "--truth", "t",
                 "--config", str(bad)])
    assert code == 2
    assert "bad.cfg:1: unknown key 'nope'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth + preprocess
# ---------------------------------------------------------------------------

def test_synth_users_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "users.jsonl"
    code = main(["synth", "users", "--seed", "3", "--out", str(out),
                 "--users-per-class", "5", "--tweets-per-user", "2"])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 10
    assert {r["gender"] for r in rows} == {"female", "male"}
    assert "10 authors" in capsys.readouterr().out


def test_synth_tweets_requires_preds_out(tmp_path):
    assert main(["synth", "tweets", "--seed", "3",
                 "--out", str(tmp_path / "t.jsonl")]) == 1


def test_synth_tweets_emits_both_files_and_implied_or(tmp_path, capsys):
    t, p = tmp_path / "t.jsonl", tmp_path / "p.jsonl"
    code = main(["synth", "tweets", "--seed", "3", "--out", str(t),
                 "--preds-out", str(p), "--users-per-class", "10",
                 "--volumes", "2015=50",
                 "--rate", "barriers=0.4,0.25"])
    assert code == 0
    assert len(t.read_text().splitlines()) == 50
    assert len(p.read_text().splitlines()) == 20
    assert "implied odds ratio barriers: 2.0000" in capsys.readouterr().out


def test_synth_bad_rate_is_usage_error(tmp_path):
    assert main(["synth", "tweets", "--seed", "3",
                 "--out", str(tmp_path / "t.jsonl"),
                 "--preds-out", str(tmp_path / "p.jsonl"),
                 "--rate", "barriers=high"]) == 1


@pytest.mark.parametrize("flag, argv", [
    ("--batch-size", ["predict", "--workdir", "W", "--users", "U", "--out", "O",
                      "--batch-size", "x"]),
    ("--volumes", ["synth", "tweets", "--seed", "1", "--out", "O", "--preds-out", "P",
                   "--volumes", "x"]),
    ("--volumes", ["synth", "tweets", "--seed", "1", "--out", "O", "--preds-out", "P",
                   "--volumes", "2014=5,2015"]),
])
def test_bad_flag_value_is_usage_error_naming_the_flag(tmp_path, capsys, flag, argv):
    files = {"W": tmp_path / "w", "U": tmp_path / "u.jsonl", "O": tmp_path / "out",
             "P": tmp_path / "preds"}
    assert main([str(files.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err, err
    assert "_" not in err, err          # no private function name
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_preprocess_writes_token_lists(tmp_path):
    users = tmp_path / "users.jsonl"
    write_users_jsonl([UserRecord("a", "female", ["Hello WORLD", "x 123"])], users)
    out = tmp_path / "toks.jsonl"
    assert main(["preprocess", "--users", str(users), "--out", str(out)]) == 0
    [row] = [json.loads(l) for l in out.read_text().splitlines()]
    assert row["user_id"] == "a"
    assert row["tokens"][0] == ["hello", "world", "<allcaps>"]
    assert row["tokens"][1] == ["x", "<number>"]


# ---------------------------------------------------------------------------
# train / predict / evaluate round trip
# ---------------------------------------------------------------------------

TINY = ["--set", "word_dim=8", "--set", "char_dim=4", "--set", "pos_dim=3",
        "--set", "char_filters=4", "--set", "word_filters_per_width=4",
        "--set", "dense_units=8", "--set", "dropout=0",
        "--set", "batch_size=8", "--set", "min_word_freq=1"]


@pytest.fixture(scope="module")
def users_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "users.jsonl"
    assert main(["synth", "users", "--seed", "5", "--out", str(path),
                 "--users-per-class", "12", "--tweets-per-user", "6",
                 "--marker-rate", "1.0"]) == 0
    return path


def train_args(users, workdir):
    return ["train", "--users", str(users), "--workdir", str(workdir),
            "--seed", "7", "--set", "variant=cnn", "--arch", "cnn_char_pos",
            "--folds", "3", "--epochs", "2", *TINY]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, users_file):
    workdir = tmp_path_factory.mktemp("run")
    assert main(train_args(users_file, workdir)) == 0
    return workdir


def test_train_report_and_table(trained, users_file, capfd):
    capfd.readouterr()
    assert main(train_args(users_file, trained) + ["--resume"]) == 0
    out = capfd.readouterr().out
    for row in ("Mean", "SD", "Voting"):
        assert row in out
    assert "CNN_char_pos" in out
    assert "coverage at 0.8:" in out
    report = json.loads((trained / "report.json").read_text())
    # the --arch flag must beat the file/--set value
    assert report["variant"] == "cnn_char_pos"
    assert report["folds"] == 3 and report["seed"] == 7
    assert len(report["fold_accuracies"]) == 3
    assert report["held_out"] is False
    for fr in report["fold_results"]:
        assert "/" not in fr["checkpoint"]


def test_train_twice_is_byte_identical(tmp_path, users_file, trained):
    other = tmp_path / "again"
    assert main(train_args(users_file, other)) == 0
    assert (other / "report.json").read_bytes() == \
        (trained / "report.json").read_bytes()


@pytest.mark.parametrize("held_out", [False, True])
def test_train_tokenizes_each_author_once(tmp_path, users_file, monkeypatch, held_out):
    calls = []

    def counting_build_doc(user, vocab):
        calls.append(user.user_id)
        return build_doc(user, vocab)

    monkeypatch.setattr("genderfuse.train.build_doc", counting_build_doc)
    monkeypatch.setattr("genderfuse.cli.build_doc", counting_build_doc)
    extra = ["--test-users", str(users_file)] if held_out else []
    assert main(train_args(users_file, tmp_path) + extra) == 0
    # 24 training authors, plus the same 24 again as the test corpus
    assert len(calls) == (48 if held_out else 24)


def test_train_refuses_dirty_workdir_without_resume(users_file, trained, capsys):
    assert main(train_args(users_file, trained)) == 2
    assert "pass --resume" in capsys.readouterr().err


def test_predict_then_evaluate(tmp_path, users_file, trained, capsys):
    preds = tmp_path / "preds.jsonl"
    assert main(["predict", "--workdir", str(trained),
                 "--users", str(users_file), "--out", str(preds)]) == 0
    assert len(preds.read_text().splitlines()) == 24
    report = tmp_path / "eval.json"
    assert main(["evaluate", "--preds", str(preds), "--truth", str(users_file),
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "Voting" in out
    obj = json.loads(report.read_text())
    assert "CNN_char_pos" in obj
    assert set(obj["CNN_char_pos"]) == {"mean", "sd", "voting", "folds"}


def test_predict_without_checkpoints_is_data_error(tmp_path, users_file):
    assert main(["predict", "--workdir", str(tmp_path),
                 "--users", str(users_file),
                 "--out", str(tmp_path / "p.jsonl")]) == 2


def test_predict_on_six_byte_checkpoint_is_data_error(tmp_path, users_file, trained, capsys):
    (tmp_path / "vocab.json").write_bytes((trained / "vocab.json").read_bytes())
    (tmp_path / "fold0.json").write_bytes((trained / "fold0.json").read_bytes())
    (tmp_path / "fold0.gfus").write_bytes((trained / "fold0.gfus").read_bytes()[:6])
    assert main(["predict", "--workdir", str(tmp_path), "--users", str(users_file),
                 "--out", str(tmp_path / "p.jsonl")]) == 2
    assert "truncated header" in capsys.readouterr().err


def _random_folds(workdir, users_file, k):
    """k untrained fold models at distinct seeds, saved next to their vocab.

    Each gets a ``fold<i>.json`` too, the record of a finished fold that
    ``predict`` requires; it does not read what the record holds.
    """
    users = read_users_jsonl(users_file)
    vocab = build_vocab(users, min_word_freq=1)
    write_json(workdir / "vocab.json", vocab.to_json())
    arch = ArchConfig(variant="cnn", word_dim=4, word_filter_widths=(1,),
                      word_filters_per_width=2, dense_units=2, dropout=0.0, batch_size=8)
    models = [init_params(arch, vocab, seed=100 + i) for i in range(k)]
    for i, m in enumerate(models):
        save_params(m, workdir / f"fold{i}.gfus")
        write_json(workdir / f"fold{i}.json", {"fold": i})
    return models, [build_doc(u, vocab) for u in users]


def test_predict_takes_folds_in_index_order(tmp_path, users_file):
    # from 11 folds on, name order would put fold10 before fold2
    models, docs = _random_folds(tmp_path, users_file, 12)
    out = tmp_path / "p.jsonl"
    assert main(["predict", "--workdir", str(tmp_path), "--users", str(users_file),
                 "--out", str(out)]) == 0
    preds = read_predictions_jsonl(out)
    voted = [gender_index(p.voted_gender) for p in preds]
    for i, m in enumerate(models):
        probs = predict_probs([m], docs)[0]
        assert [p.fold_probs[i] for p in preds] == [float(probs[n, v])
                                                  for n, v in enumerate(voted)], i


def test_predict_refuses_a_missing_fold(tmp_path, users_file, capsys):
    _random_folds(tmp_path, users_file, 12)
    (tmp_path / "fold5.gfus").unlink()
    out = tmp_path / "p.jsonl"
    assert main(["predict", "--workdir", str(tmp_path), "--users", str(users_file),
                 "--out", str(out)]) == 2
    assert "missing fold5.gfus of folds 0..11" in capsys.readouterr().err
    assert not out.exists()


def test_predict_refuses_a_checkpoint_of_an_interrupted_train(tmp_path, users_file,
                                                              monkeypatch, capsys):
    import genderfuse.train as train_mod
    real_step, steps = train_mod.train_step, []

    def interrupted_step(*args, **kw):
        # 16 training authors in batches of 8: step 3 is fold 0's second epoch
        steps.append(None)
        if len(steps) == 3:
            raise KeyboardInterrupt
        return real_step(*args, **kw)

    monkeypatch.setattr("genderfuse.train.train_step", interrupted_step)
    work = tmp_path / "w"
    with pytest.raises(KeyboardInterrupt):
        main(train_args(users_file, work))
    # fold 0's first epoch was its best so far, and nothing recorded it
    assert sorted(p.name for p in work.iterdir()) == ["fold0.gfus", "vocab.json"]
    out = tmp_path / "p.jsonl"
    assert main(["predict", "--workdir", str(work), "--users", str(users_file),
                 "--out", str(out)]) == 2
    assert "missing fold0.json" in capsys.readouterr().err
    assert not out.exists()


def test_failed_fold_leaves_no_checkpoint_to_vote(tmp_path, users_file, monkeypatch, capsys):
    import genderfuse.train as train_mod
    real_step, steps = train_mod.train_step, []

    def failing_step(*args, **kw):
        # 16 training authors in batches of 8: step 3 is fold 0's second epoch
        steps.append(None)
        if len(steps) == 3:
            raise TrainingError("injected non-finite loss")
        return real_step(*args, **kw)

    monkeypatch.setattr("genderfuse.train.train_step", failing_step)
    work = tmp_path / "w"
    assert main(train_args(users_file, work)) == 2
    assert "fold 0 failed: injected" in capsys.readouterr().err
    assert sorted(p.name for p in work.glob("fold*")) == [
        "fold1.gfus", "fold1.json", "fold2.gfus", "fold2.json"]
    out = tmp_path / "p.jsonl"
    assert main(["predict", "--workdir", str(work), "--users", str(users_file),
                 "--out", str(out)]) == 2
    assert "missing fold0.gfus" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr("genderfuse.train.train_step", real_step)
    assert main(train_args(users_file, work) + ["--resume"]) == 0
    assert (work / "fold0.gfus").exists() and (work / "fold0.json").exists()


def _copy_workdir(src, dst):
    dst.mkdir()
    for path in src.glob("*"):
        if path.name != "report.json":
            shutil.copy(path, dst / path.name)
    return dst


def _corrupt(path, data):
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode("utf-8"))


def _drop_key(path, key):
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj[key]
    _corrupt(path, obj)


# (case, what the message names, the command run on a copy of the trained
# workdir after the corruption)
BAD_INPUTS = [
    ("vocab_truncated", "vocab.json", "predict",
     lambda w: _corrupt(w / "vocab.json", (w / "vocab.json").read_bytes()[:20])),
    ("vocab_empty_object", "vocab.json: corrupt file: missing key 'words'", "predict",
     lambda w: _corrupt(w / "vocab.json", {})),
    ("vocab_not_object", "vocab.json: corrupt file: expected a JSON object", "predict",
     lambda w: _corrupt(w / "vocab.json", ["a", "b"])),
    ("vocab_not_utf8", "vocab.json: corrupt file", "predict",
     lambda w: _corrupt(w / "vocab.json", b'{"words": ["\xff"]}')),
    ("fold_truncated", "fold0.json: corrupt file", "resume",
     lambda w: _corrupt(w / "fold0.json", (w / "fold0.json").read_bytes()[:30])),
    ("fold_without_trace", "fold0.json: corrupt file: missing key 'val_trace'", "resume",
     lambda w: _drop_key(w / "fold0.json", "val_trace")),
    ("fold_bad_checkpoint", "fold1.json: corrupt file: checkpoint must be", "resume",
     lambda w: _corrupt(w / "fold1.json", {**json.loads((w / "fold1.json").read_text()),
                                           "checkpoint": 5})),
    ("fold_bad_trace", "fold0.json: corrupt file", "resume",
     lambda w: _corrupt(w / "fold0.json", {**json.loads((w / "fold0.json").read_text()),
                                           "val_trace": ["high"]})),
    ("resume_vocab_truncated", "vocab.json: corrupt file", "resume",
     lambda w: _corrupt(w / "vocab.json", (w / "vocab.json").read_bytes()[:20])),
    ("config_not_utf8", "bad.cfg:2: not UTF-8", "config",
     lambda w: (w / "bad.cfg").write_bytes(b"folds = 3\n# caf\xff\n")),
    ("truth_not_utf8", "truth.txt, line 2: not UTF-8", "import-pan",
     lambda w: (w / "truth.txt").write_bytes(b"alice:::female\nb\xffb:::male\n")),
    ("embeddings_not_numbers", "emb.txt, line 2: could not convert", "embeddings",
     lambda w: (w / "emb.txt").write_text("cat 1 2 3 4\ntub 1 x 3 4\n")),
    ("embeddings_not_utf8", "emb.txt, line 1: not UTF-8", "embeddings",
     lambda w: (w / "emb.txt").write_bytes(b"c\xfft 1 2 3 4\n")),
]


@pytest.mark.parametrize("case, names, command, corrupt", BAD_INPUTS,
                         ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_file_is_data_error_naming_it(tmp_path, users_file, trained, capsys,
                                                case, names, command, corrupt):
    work = _copy_workdir(trained, tmp_path / "w")
    corrupt(work)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    out = tmp_path / "out.jsonl"
    pan = tmp_path / "pan"
    pan.mkdir()
    (pan / "alice.xml").write_text(
        "<author><documents><document>hello world</document></documents></author>")
    fresh = ["train", "--users", str(users_file), "--workdir", str(tmp_path / "new"),
             "--seed", "7", "--folds", "3", "--epochs", "2", *TINY]
    argv = {
        "predict": ["predict", "--workdir", str(work), "--users", str(users_file),
                    "--out", str(out)],
        "resume": train_args(users_file, work) + ["--resume"],
        "config": fresh + ["--config", str(work / "bad.cfg")],
        "import-pan": ["import-pan", str(pan), "--truth", str(work / "truth.txt"),
                       "--out", str(out)],
        "embeddings": fresh + ["--embeddings", str(work / "emb.txt")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert names in err, err
    assert not out.exists() and not (tmp_path / "new").exists()
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "train_test", "baseline_test", "predict"])
def test_empty_users_file_is_refused_on_read(tmp_path, users_file, trained, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    work, out = tmp_path / "w", tmp_path / "out.jsonl"
    argv = {
        "train": ["train", "--users", str(empty), "--workdir", str(work), "--seed", "1",
                  *TINY],
        "train_test": ["train", "--users", str(users_file), "--test-users", str(empty),
                       "--workdir", str(work), "--seed", "1", *TINY],
        "baseline_test": ["baseline", "--users", str(users_file), "--test-users", str(empty),
                          "--seed", "1", "--folds", "2", "--out", str(out),
                          "--report", str(tmp_path / "r.json")],
        "predict": ["predict", "--workdir", str(trained), "--users", str(empty),
                    "--out", str(out)],
    }[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert f"{empty}: no users" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]


# (what the message names, exit code, the command's arguments after the
# subcommand name; USERS is the labeled users file, GHOST an unlabeled one)
BAD_SETTINGS = [
    ("epochs", 2, ["train", "--epochs", "0", "--test-users", "USERS"]),
    ("jobs", 2, ["train", "--jobs", "0"]),
    ("jobs", 2, ["train", "--jobs", "-3"]),
    ("coverage_threshold", 2, ["train", "--set", "coverage_threshold=1.5"]),
    ("baseline_epochs", 2, ["baseline", "--set", "baseline_epochs=0"]),
    ("baseline_lr", 2, ["baseline", "--set", "baseline_lr=-1"]),
    ("baseline_l2", 2, ["baseline", "--set", "baseline_l2=-5"]),
    ("'ghost'", 2, ["train", "--test-users", "GHOST"]),
    ("'ghost'", 2, ["baseline", "--test-users", "GHOST"]),
    ("--batch-size", 1, ["predict", "--batch-size", "0"]),
    ("--batch-size", 1, ["predict", "--batch-size", "-1"]),
]


@pytest.mark.parametrize("names, code, argv", BAD_SETTINGS,
                         ids=[" ".join(c[2]) for c in BAD_SETTINGS])
def test_out_of_range_setting_is_refused_before_any_write(tmp_path, users_file, trained,
                                                          capsys, names, code, argv):
    ghost = tmp_path / "ghost.jsonl"
    write_users_jsonl([UserRecord("ghost", None, ["some words"])], ghost)
    files = {"USERS": str(users_file), "GHOST": str(ghost)}
    command, *rest = [files.get(a, a) for a in argv]
    work, out = tmp_path / "w", tmp_path / "out.jsonl"
    common = {
        "train": ["--users", str(users_file), "--workdir", str(work), "--seed", "1",
                  "--folds", "2", *TINY],
        "baseline": ["--users", str(users_file), "--seed", "1", "--folds", "2",
                     "--out", str(out), "--report", str(tmp_path / "r.json")],
        "predict": ["--workdir", str(trained), "--users", str(users_file),
                    "--out", str(out)],
    }[command]
    before = {p.name: p.read_bytes() for p in trained.iterdir()}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *common, *rest]) == code
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ghost.jsonl"]
    assert {p.name: p.read_bytes() for p in trained.iterdir()} == before


def test_resume_from_another_directory_reuses_every_fold(tmp_path, users_file,
                                                         monkeypatch):
    # fold<i>.json records the checkpoint as --workdir was spelled at the time
    monkeypatch.chdir(tmp_path)
    assert main(train_args(users_file, "wr") + ["--test-users", str(users_file)]) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "wr").iterdir()}

    def boom(*args, **kw):
        raise AssertionError("fold retrained despite resume metadata")

    monkeypatch.setattr("genderfuse.train._run_fold", boom)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(train_args(users_file, "../wr") +
                ["--test-users", str(users_file), "--resume"]) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "wr").iterdir()} == before


@pytest.mark.parametrize("held_out", [False, True])
def test_train_scores_each_fold_model_once(tmp_path, users_file, monkeypatch, held_out):
    import genderfuse.train as train_mod
    loads, passes = [], []
    real_load, real_predict = train_mod.load_params, train_mod.predict_probs

    def counting_load(*args, **kw):
        loads.append(args[0])
        return real_load(*args, **kw)

    def counting_predict(models, docs, *args, **kw):
        passes.append((len(models), len(docs)))
        return real_predict(models, docs, *args, **kw)

    monkeypatch.setattr("genderfuse.train.load_params", counting_load)
    monkeypatch.setattr("genderfuse.train.predict_probs", counting_predict)
    extra = ["--test-users", str(users_file)] if held_out else []
    assert main(train_args(users_file, tmp_path) + extra) == 0
    # 3 folds of 2 epochs over 24 authors: 8 validation authors per epoch,
    # then one pass of the 3 best models together over the 24 evaluation authors
    assert len(loads) == 3
    assert passes == [(1, 8)] * 6 + [(3, 24)]


def test_train_jobs_two_writes_the_bytes_of_jobs_one(tmp_path, users_file):
    work = tmp_path / "w"
    argv = train_args(users_file, work) + ["--test-users", str(users_file)]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = {p.name: p.read_bytes() for p in work.iterdir()}
    shutil.rmtree(work)
    assert main(argv + ["--jobs", "2"]) == 0
    assert {p.name: p.read_bytes() for p in work.iterdir()} == serial


USER_OK = '{"user_id": "a", "gender": "female", "tweets": ["hi there"]}'
TWEET_OK = '{"tweet_id": "t1", "user_id": "a", "year": 2015, "hbm": [], "tpb": null}'
PRED_OK = '{"user_id": "a", "gender": "male", "fold_probs": [0.9], "avg_prob": 0.9}'


@pytest.mark.parametrize("command, good, bad", [
    ("train", USER_OK, '{"user_id": "b", "tweets": ["x"]'),
    ("train", USER_OK, '{"user_id": "b", "tweets": ["\xff"]}'),
    ("train", USER_OK, '["b", "male", ["x"]]'),
    ("train", USER_OK, '{"user_id": "b", "gender": "male", "tweets": 5}'),
    ("train", USER_OK, '{"user_id": "b", "gender": "male", "tweets": [5]}'),
    ("train", USER_OK, '{"user_id": 7, "gender": "male", "tweets": ["x"]}'),
    ("analyze", TWEET_OK, '{"tweet_id": "t2", "user_id": "a", "year": "x"}'),
    ("analyze", TWEET_OK, '{"tweet_id": "t2", "user_id": "a", "year": 0}'),
    ("analyze", TWEET_OK, '{"tweet_id": "t2", "user_id": "a", "year": 99999999999999999999}'),
    ("analyze", TWEET_OK, '{"tweet_id": "t2", "user_id": 7, "year": 2015}'),
    ("evaluate", PRED_OK, '{"user_id": "b", "gender": "male", "fold_probs": 5, "avg_prob": 1}'),
])
def test_malformed_jsonl_is_data_error_naming_line(tmp_path, capsys, command, good, bad):
    path = tmp_path / "bad.jsonl"
    # latin-1 keeps the \xff case a byte that is not UTF-8
    path.write_bytes((good + "\n" + bad + "\n").encode("latin-1"))
    argv = {
        "train": ["train", "--users", str(path), "--workdir", str(tmp_path / "w"),
                  "--seed", "1", *TINY],
        "analyze": ["analyze", "--tweets", str(path), "--preds", str(tmp_path / "p.jsonl"),
                    "--out", str(tmp_path / "fig.csv")],
        "evaluate": ["evaluate", "--preds", str(path), "--truth", str(tmp_path / "u.jsonl")],
    }[command]
    assert main(argv) == 2
    assert f"{path}, line 2:" in capsys.readouterr().err


def test_evaluate_reconstructs_fold_accuracy(tmp_path, capsys):
    # fold prob 0.4 for the voted gender means that fold backed the other one
    preds = [GenderPrediction.from_fold_probs("a", "female", [0.9]),
             GenderPrediction.from_fold_probs("b", "male", [0.4])]
    ppath = tmp_path / "p.jsonl"
    write_predictions_jsonl(preds, ppath)
    tpath = tmp_path / "t.jsonl"
    write_users_jsonl([UserRecord("a", "female", ["x"]),
                       UserRecord("b", "male", ["x"])], tpath)
    assert main(["evaluate", "--preds", str(ppath), "--truth", str(tpath),
                 "--algo", "LR"]) == 0
    out = capsys.readouterr().out
    header, mean_row, _, voting_row, *_ = out.splitlines()
    assert header.split() == ["SVM", "RNN", "CNN", "CNN_char",
                              "CNN_char_pos", "LR"]
    assert mean_row.split()[-1] == "0.5000"     # one fold, half right
    assert voting_row.split()[-1] == "1.0000"   # the vote itself is correct


def test_evaluate_rejects_mixed_fold_counts(tmp_path, capsys):
    preds = [GenderPrediction.from_fold_probs("a", "female", [0.9]),
             GenderPrediction.from_fold_probs("b", "male", [0.6, 0.7])]
    ppath = tmp_path / "p.jsonl"
    write_predictions_jsonl(preds, ppath)
    tpath = tmp_path / "t.jsonl"
    write_users_jsonl([UserRecord("a", "female", ["x"]),
                       UserRecord("b", "male", ["x"])], tpath)
    assert main(["evaluate", "--preds", str(ppath), "--truth", str(tpath)]) == 2
    assert "fold count" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# baseline / analyze
# ---------------------------------------------------------------------------

def test_baseline_subcommand(tmp_path, users_file, capsys):
    report = tmp_path / "bl.json"
    code = main(["baseline", "--users", str(users_file), "--algo", "LR",
                 "--seed", "1", "--folds", "3", "--report", str(report),
                 "--set", "baseline_min_df=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "LR" in out.splitlines()[0]
    obj = json.loads(report.read_text())
    assert len(obj["LR"]["folds"]) == 3


def test_analyze_subcommand(tmp_path, capsys):
    t, p = tmp_path / "t.jsonl", tmp_path / "p.jsonl"
    assert main(["synth", "tweets", "--seed", "4", "--out", str(t),
                 "--preds-out", str(p), "--users-per-class", "30",
                 "--volumes", "2014=400,2015=400"]) == 0
    csv_path = tmp_path / "fig.csv"
    assert main(["analyze", "--tweets", str(t), "--preds", str(p),
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "construct,year,odds_ratio,chi2,p_value,significant"
    assert len(lines) == 1 + 5 * 2      # five constructs, two years
    assert csv_path.with_suffix(".json").exists()
    out = capsys.readouterr().out
    assert "10 construct-year tables" in out
    assert "= 0.002" in out


@pytest.mark.parametrize("text", ["", "\n  \n\t\r\n"])
def test_analyze_empty_stream_is_data_error(tmp_path, capsys, text):
    t, p = tmp_path / "t.jsonl", tmp_path / "p.jsonl"
    t.write_text(text, encoding="utf-8")
    write_predictions_jsonl([GenderPrediction.from_fold_probs("a", "male", [0.9])], p)
    csv_path = tmp_path / "fig.csv"
    assert main(["analyze", "--tweets", str(t), "--preds", str(p),
                 "--out", str(csv_path)]) == 2
    assert "no tweets" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([t, p])      # no figure written


# ---------------------------------------------------------------------------
# import-pan
# ---------------------------------------------------------------------------

def test_import_pan_roundtrip(tmp_path, capsys):
    d = tmp_path / "pan"
    d.mkdir()
    (d / "alice.xml").write_text(
        "<author lang='en'><documents><document>hello world</document>"
        "<document>second tweet</document></documents></author>")
    (d / "bob.xml").write_text(
        "<author><documents><document>hi there</document></documents></author>")
    (d / "carol.xml").write_text(
        "<author><documents><document>unlisted</document></documents></author>")
    truth = tmp_path / "truth.txt"
    truth.write_text("alice:::female\nbob:::male\n")
    out = tmp_path / "users.jsonl"
    assert main(["import-pan", str(d), "--truth", str(truth),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "3 authors (2 labeled)" in captured.out
    assert "carol" in captured.err
    rows = {json.loads(l)["user_id"]: json.loads(l)
            for l in out.read_text().splitlines()}
    assert rows["alice"]["gender"] == "female"
    assert rows["alice"]["tweets"] == ["hello world", "second tweet"]
    assert rows["carol"]["gender"] is None


def test_import_pan_missing_truth_file_is_data_error(tmp_path, capsys):
    d = tmp_path / "pan"
    d.mkdir()
    (d / "a1.xml").write_text("<author><documents><document>hi</document></documents></author>")
    truth, out = tmp_path / "no-such-truth.txt", tmp_path / "u.jsonl"
    assert main(["import-pan", str(d), "--truth", str(truth), "--out", str(out)]) == 2
    assert str(truth) in capsys.readouterr().err
    assert not out.exists()


def test_import_pan_malformed_xml_is_data_error(tmp_path, capsys):
    d = tmp_path / "pan"
    d.mkdir()
    (d / "broken.xml").write_text("<author><documents>")
    assert main(["import-pan", str(d),
                 "--out", str(tmp_path / "u.jsonl")]) == 2
    assert "broken.xml" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck / selftest
# ---------------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0", "--coords", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "word_emb" in out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    assert out.count("ok   ") == 8
