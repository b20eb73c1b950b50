"""genderfuse benchmark: one command, one workload, every metric by name and unit.

    python3 perfbench/run.py --workload ref_train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run generates the workload's inputs from
``--seed`` (several times, timing each: ``setup_s``), starts one measuring
process (``worker.py``) that imports genderfuse from ``src``, warms up, and
drives ``genderfuse.cli.main`` through ``train``, ``predict``, ``baseline`` and
``analyze`` for about ``--seconds`` seconds, checking every output.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics instead: spans recorded around
every public genderfuse function from outside the program (``tracing.py``),
per-layer self times that add up to each stage's wall, and the tracing
overhead.  The spans are written to ``.perfbench_out/`` when the run ends,
next to a JSON record of the run and its environment.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
stage executions (warm-up included) and ``failed`` those that exited nonzero,
lost a fold or failed an output check; ``error_rate`` is their ratio.  It is
printed but kept out of ``metrics``, which holds only quantities that are
never zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, STAGES  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

# (name, unit) of the end-to-end metrics; each stage's throughput is the
# median over every execution of that stage in the run
END_TO_END = (("setup_s", "s"), ("train_tokens_per_s", "tokens/s"),
              ("predict_users_per_s", "users/s"), ("baseline_users_per_s", "users/s"),
              ("analyze_tweets_per_s", "tweets/s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 3
DEADLINE_S = 175          # the whole run, worker included, ends before 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def check_declaration() -> str | None:
    """BENCHMARK.json must declare exactly the metrics this code reports."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"cannot read {path.name}: {exc}"
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        return "BENCHMARK.json end_to_end does not match run.py"
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(LAYER_METRICS):
        return "BENCHMARK.json per_layer does not match tracing.py"
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        return "BENCHMARK.json workloads do not match workloads.py"
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(blas_threads: str) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": blas_threads, "numpy": numpy.__version__,
            "python": platform.python_version(), "commit": git_commit()}


def run_worker(job: dict, env: dict, log: Path, deadline: float) -> int:
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), job["job"]],
                                stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: worker ran out of time", file=sys.stderr)
            return -1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "genderfuse" / "__init__.py").is_file():
        return fail(f"no genderfuse sources under {src}")
    problem = check_declaration()
    if problem:
        return fail(problem)

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-s{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-p{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    env.setdefault("PYTHONHASHSEED", "0")     # same dict and set layouts every run
    env_record = environment(env["OPENBLAS_NUM_THREADS"])
    try:
        setup = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            generate_inputs(w, args.seed, work / "inputs")
            setup.append(time.perf_counter() - t0)
        job = {"job": str(work / "job.json"), "workload": w.name, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace), "src": str(src),
               "inputs": str(work / "inputs"), "work": str(work / "runs"),
               "result": str(work / "result.json"),
               "spans": str(out_dir / f"spans-{tag}.jsonl")}
        Path(job["job"]).write_text(json.dumps(job), encoding="utf-8")
        spawned = time.monotonic()
        code = run_worker(job, env, work / "worker.log", deadline)
        if code != 0 or not Path(job["result"]).is_file():
            log = (work / "worker.log").read_text(encoding="utf-8", errors="replace")
            print(log[-4000:], file=sys.stderr)
            return fail(f"worker exited with code {code}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()         # only when no other run is using it

    records = result["records"]
    problems = result["warm_problems"] + [f"{r['stage']} (iteration {r['iteration']}, "
                                          f"rep {r['rep']}): {p}"
                                          for r in records for p in r["problems"]]
    attempted = len(STAGES) + len(records)
    failed = len(result["warm_problems"]) + sum(1 for r in records if r["problems"])

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"iterations={1 + max(r['iteration'] for r in records)}")
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    print(f"inputs: {json.dumps(w.sizes(), sort_keys=True)}")
    for stage in STAGES:
        walls = [r["wall"] for r in records if r["stage"] == stage]
        print(f"  stage {stage:<9} runs {len(walls):>2}  median wall "
              f"{statistics.median(walls):.4f} s")
    if args.trace:
        metrics = {name: {"value": result["layer_metrics"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        for stage, row in result["breakdown"].items():
            cells = "  ".join(f"{k} {v:.4f}" for k, v in sorted(row.items()))
            print(f"  self time in {stage[6:]} ({sum(row.values()):.4f} s): {cells}")
        for name in result["not_wrapped"]:
            print(f"  not traced, absent from the program: {name}")
        print(f"  tracing overhead {result['layer_metrics']['trace.overhead_s']:.4f} s "
              f"over untraced stage walls {result['untraced_stage_s']}")
    else:
        done = {"train": result["tokens"], "predict": w.predict_users,
                "baseline": 2 * w.users_per_class, "analyze": w.stream_tweets}

        def rate(stage):
            return statistics.median(done[stage] / r["wall"]
                                     for r in records if r["stage"] == stage)

        values = {"setup_s": statistics.median(setup) + result["ready_at"] - spawned,
                  "train_tokens_per_s": rate("train"),
                  "predict_users_per_s": rate("predict"),
                  "baseline_users_per_s": rate("baseline"),
                  "analyze_tweets_per_s": rate("analyze"),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<22} {failed / attempted:g} ({failed} of {attempted} "
          "stage runs failed)")
    for p in problems:
        print(f"  FAILED {p}")

    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env_record, "inputs": w.sizes(),
              "metrics": metrics, "error_rate": failed / attempted,
              "problems": problems, "setup_runs_s": setup,
              "stage_walls_s": [[r["stage"], r["iteration"], r["wall"]] for r in records]}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1),
                                                encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
