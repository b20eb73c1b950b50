"""The measuring process: one per benchmark run, started by ``run.py``.

It imports genderfuse from the checkout's ``src``, warms itself on a
miniature of the workload, then drives the CLI stages in-process through
``genderfuse.cli.main`` and checks every output.  Its peak resident set is
the ``peak_rss_mb`` metric, so input generation stays in ``run.py``.

Untraced (``trace`` false): whole iterations of the four stages repeat while
at least half of the next one fits in ``seconds``; at least one runs.
Traced: a traced iteration, an untraced one, then a second traced one; the
traced pair must agree on every count, and the difference to the untraced
one is the tracing overhead.

Usage: ``python3 worker.py JOB.json`` (written by ``run.py``).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import COUNT_METRICS, LAYER_METRICS, STAGES, Tracer, analyze_run, install
from workloads import IMPLIED_BARRIERS_OR, WORKLOADS


class Runner:
    def __init__(self, job: dict):
        from genderfuse import cli
        self.cli = cli
        self.w = WORKLOADS[job["workload"]]
        self.seed = job["seed"]
        self.inputs = Path(job["inputs"])
        self.work = Path(job["work"])
        self.report_bytes = None
        expected = json.loads((self.inputs / "expected.json").read_text(encoding="utf-8"))
        self.barriers_cells = {int(y): c for y, c in expected["barriers_cells"].items()}
        self.test_ids = _user_ids(self.inputs / "test_users.jsonl")
        self.predict_file = self.inputs / ("predict_users.jsonl" if self.w.predict_per_class
                                           else "test_users.jsonl")
        self.predict_ids = _user_ids(self.predict_file)

    # -- stages -------------------------------------------------------------

    def argv(self, stage: str, inputs: Path, it: Path, rep: int, warm: bool) -> list:
        w = self.w
        users = inputs / "users.jsonl"
        test = users if warm else inputs / "test_users.jsonl"
        folds = "2" if warm else str(w.folds)
        config = ["--config", str(self.inputs / "desk.cfg")] if w.desk_arch else []
        if stage == "train":
            return ["train", "--users", str(users), "--workdir", str(it / f"run{rep}"),
                    "--seed", str(self.seed), "--folds", folds,
                    "--epochs", "1" if warm else str(w.epochs), "--jobs", "1",
                    "--test-users", str(test), "--report", str(it / f"report{rep}.json"),
                    *config]
        if stage == "predict":
            batch = ["--batch-size", str(w.predict_batch)] if w.predict_batch else []
            scored = users if warm else self.predict_file
            return ["predict", "--workdir", str(it / "run0"), "--users", str(scored),
                    "--out", str(it / f"preds{rep}.jsonl"), *batch]
        if stage == "baseline":
            return ["baseline", "--users", str(users), "--seed", str(self.seed),
                    "--folds", folds, "--test-users", str(test),
                    "--out", str(it / f"baseline{rep}.jsonl")]
        return ["analyze", "--tweets", str(inputs / "tweets.jsonl"),
                "--preds", str(inputs / "truth.jsonl"),
                "--out", str(it / f"figure{rep}.csv")]

    def run_stage(self, argv: list, tracer: Tracer | None, stage: str):
        # start every stage from a collected heap, as a fresh CLI process would,
        # so the garbage one stage leaves does not slow the next one's collector
        gc.collect()
        sid = tracer.open(f"stage.{stage}") if tracer else None
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:               # a crash is a failed stage, not a dead run
            traceback.print_exc()
            rc = "exception"
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
        return rc, wall

    def iteration(self, index: int, tracer: Tracer | None = None) -> list:
        it = self.work / f"it{index}"
        it.mkdir(parents=True)
        records = []
        for stage, rep in self.schedule():
            rc, wall = self.run_stage(self.argv(stage, self.inputs, it, rep, False),
                                      tracer, stage)
            problems = [f"exit code {rc}"] if rc != 0 else self.check(stage, it, rep)
            records.append({"stage": stage, "rep": rep, "wall": wall,
                            "iteration": index, "problems": problems})
        shutil.rmtree(it)
        return records

    def schedule(self) -> list:
        """``(stage, rep)`` in run order: every train rep, then rounds of the
        other stages in README order, so the repeats of a short stage are
        spread over the iteration instead of bunched into one stretch of the
        host's speed."""
        reps = {s: self.w.reps.get(s, 1) for s in STAGES}
        order = [("train", r) for r in range(reps["train"])]
        for r in range(max(reps.values())):
            order += [(s, r) for s in STAGES[1:] if r < reps[s]]
        return order

    def warm(self) -> list:
        """A miniature of every stage on the workload's network, untimed."""
        it = self.work / "warm"
        it.mkdir(parents=True)
        problems = []
        for stage in STAGES:
            rc, _ = self.run_stage(self.argv(stage, self.inputs / "warm", it, 0, True),
                                   None, stage)
            if rc != 0:
                problems.append(f"warm-up {stage}: exit code {rc}")
        shutil.rmtree(it)
        return problems

    # -- output checks ------------------------------------------------------

    def check(self, stage: str, it: Path, rep: int) -> list:
        try:
            if stage == "train":
                return self.check_train(it / f"report{rep}.json")
            if stage == "predict":
                return _check_predictions(it / f"preds{rep}.jsonl", self.predict_ids,
                                          self.w.folds)
            if stage == "baseline":
                return _check_predictions(it / f"baseline{rep}.jsonl", self.test_ids,
                                          self.w.folds)
            return self.check_analyze(it / f"figure{rep}.json")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def check_train(self, path: Path) -> list:
        raw = path.read_bytes()
        report = json.loads(raw)
        problems = [f"fold {fr['fold']} failed: {fr['error']}"
                    for fr in report["fold_results"] if fr["error"]]
        if len(report["fold_results"]) != self.w.folds:
            problems.append(f"{len(report['fold_results'])} fold results")
        if self.report_bytes is None:
            self.report_bytes = raw
        elif raw != self.report_bytes:
            problems.append("train report differs from the first one at this seed")
        floor = self.w.min_voting_accuracy
        if floor is not None and report["voting_accuracy"] < floor:
            problems.append(f"held-out voting accuracy {report['voting_accuracy']:.4f} "
                            f"< {floor}")
        return problems

    def check_analyze(self, path: Path) -> list:
        rows = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        if len(rows) != 25:
            problems.append(f"{len(rows)} construct-year tables, expected 25")
        for row in rows:
            if row["construct"] != "barriers":
                continue
            a, b, c, d = self.barriers_cells[row["year"]]
            exact = (a * d) / (b * c)
            # acceptance criterion 7 allows 0.15 at 100k tweets a year; smaller
            # streams get five standard errors of the sample odds ratio
            tol = max(0.15, 5 * exact * math.sqrt(1 / a + 1 / b + 1 / c + 1 / d))
            if abs(row["odds_ratio"] - exact) > 1e-9 * exact:
                problems.append(f"barriers {row['year']}: odds ratio "
                                f"{row['odds_ratio']} but the stream's cells give {exact}")
            if abs(row["odds_ratio"] - IMPLIED_BARRIERS_OR) > tol:
                problems.append(f"barriers {row['year']}: odds ratio "
                                f"{row['odds_ratio']:.4f} not within {tol:.3f} of 2.0")
        return problems


def _user_ids(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["user_id"] for line in fh if line.strip()]


def _check_predictions(path: Path, user_ids: list, folds: int) -> list:
    with open(path, encoding="utf-8") as fh:
        preds = [json.loads(line) for line in fh if line.strip()]
    problems = []
    if sorted(p["user_id"] for p in preds) != sorted(user_ids):
        problems.append(f"{len(preds)} predictions for {len(user_ids)} users, "
                        "or user ids differ")
    for p in preds:
        probs = [*p["fold_probs"], p["avg_prob"]]
        if (len(p["fold_probs"]) != folds or p["gender"] not in ("female", "male")
                or not all(0.0 <= x <= 1.0 for x in probs)):
            problems.append(f"bad prediction {p}")
            break
    return problems


def train_tokens(runner: Runner) -> int:
    """Unpadded tokens one train stage consumes over all folds and epochs."""
    from genderfuse.textpipe import MAX_DOC_TOKENS, tokenize_tweets
    w = runner.w
    total = 0
    with open(runner.inputs / "users.jsonl", encoding="utf-8") as fh:
        for line in fh:
            toks = sum(len(t) for t in tokenize_tweets(json.loads(line)["tweets"]))
            total += min(toks, MAX_DOC_TOKENS)
    # every user sits in the training split of k-1 folds
    return total * (w.folds - 1) * w.epochs


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    runner = Runner(job)
    result = {"warm_problems": runner.warm(), "tokens": train_tokens(runner)}
    result["ready_at"] = time.monotonic()

    if not job["trace"]:
        records = []
        start = time.perf_counter()
        for index in itertools.count():
            t0 = time.perf_counter()
            records += runner.iteration(index)
            took = time.perf_counter() - t0
            # the next iteration starts when at least half of it fits, so the
            # measured time is --seconds on average
            if time.perf_counter() - start + took / 2 > job["seconds"]:
                break
        result["records"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result.update(traced(runner, job))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced_iteration(runner: Runner, tracer: Tracer, index: int) -> tuple:
    restore, missing = install(tracer)
    try:
        tracer.begin_run(index)
        records = runner.iteration(index, tracer)
    finally:
        restore()
    return records, missing


def traced(runner: Runner, job: dict) -> dict:
    tracer = Tracer()
    # traced, untraced, traced: the overhead compares the untraced iteration
    # with the mean of the two around it
    recs1, missing = traced_iteration(runner, tracer, 1)
    recs0 = runner.iteration(0)
    recs2, _ = traced_iteration(runner, tracer, 2)
    tracer.write(job["spans"])
    m1, breakdown, problems = analyze_run(tracer, 1)
    m2, _, problems2 = analyze_run(tracer, 2)
    losses1, losses2 = tracer.runs[1][1], tracer.runs[2][1]

    problems += problems2
    if not all(math.isfinite(x) for x in losses1 + losses2):
        problems.append("a train_step loss is not finite")
    differ = [n for n in COUNT_METRICS if m1[n] != m2[n]]
    if losses1 != losses2:
        differ.append("train_step loss sequence")
    if differ:
        problems.append(f"counts differ between two traced runs: {', '.join(differ)}")
    # trace-level findings fail the first stage of the second traced run
    recs2[0]["problems"] += problems

    counts = set(COUNT_METRICS) | {"model.train_step.final_loss"}
    metrics = {name: m1[name] if name in counts else (m1[name] + m2[name]) / 2
               for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    untraced = {s: sum(r["wall"] for r in recs0 if r["stage"] == s) for s in STAGES}
    metrics["trace.overhead_s"] = sum(metrics[f"stage.{s}.wall_s"] - untraced[s]
                                      for s in STAGES)
    return {"records": recs1 + recs0 + recs2, "layer_metrics": metrics,
            "breakdown": breakdown, "untraced_stage_s": untraced, "not_wrapped": missing}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
