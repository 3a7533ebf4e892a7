"""The rumormatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N]     # every workload, both modes
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; the package is imported from its src/.
Inputs are generated from the seed and cached under .bench_cache/ (outside
the timed region).  The CLI runs as a user runs it, one process per command,
with `--jobs 1` from the generated config.

--trace 0  repeats the command until S seconds are measured (at least twice),
           checks every output, and reports the end-to-end metrics: median
           tweets/s over the repeats, median set-up time over in-process
           set-ups repeated for SETUP_SECONDS, and median peak RSS.
--trace 1  runs the command once untraced and once in-process with every
           public function of each layer wrapped (see inproc.py), checks both
           outputs, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
(input tweets, per command run) and metrics.  A human-readable summary,
with failed_frac, goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from inproc import COUNTERS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_cache"
KEEP_SEEDS = 10  # generated inputs kept per workload
SETUP_SECONDS = 3  # set-up is repeated for this long, and at least 3 times
MIN_RUNS = 2  # command runs per measured run, so that tweets_per_s is a median
DEADLINE_S = 170  # a run must end within 180 s
FILE_KEYS = ("labels", "embeddings")

END_TO_END = {"tweets_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Traced function -> the per-layer figures reported for it.
TIMINGS = {
    "corpus.load_tweets": ("s", "calls"),
    "corpus.load_articles": ("s",),
    "corpus.load_labels": ("s",),
    "textpipe.tokenize": ("s", "calls", "us_per_call"),
    "matchers.score_bm25": ("s", "us_per_call"),
    "matchers.score_tfidf": ("s", "us_per_call"),
    "matchers.score_embedding": ("s", "us_per_call"),
    "matchers.load_embeddings": ("s",),
    "matchers.embed_articles": ("s",),
    "matchers.best_match": ("s",),
    "matchers.classify": ("s",),
    "matchers.build_index": ("s", "calls"),
    "cli.run_match": ("s", "self_s", "calls"),
    "cli.atomic_write_text": ("s",),
    "cli.save_index": ("s",),
    "cli.load_index": ("s",),
    "cli.load_detections": ("s",),
    "cli.cmd_index": ("s",),
    "cli.cmd_match": ("s",),
    "cli.cmd_eval": ("s",),
    "cli.cmd_analyze": ("s",),
    "evaluation.sweep": ("s",),
    **{f"analysis.{f}": ("s",) for f in TARGETS["analysis"]},
}
KIND_UNITS = {"s": "s", "self_s": "s", "calls": "count", "us_per_call": "us"}
# Counts the tracer takes at span boundaries -> the functions that feed them.
BOUNDARY_COUNTS = {
    count: tuple(fn for fn, (c, _) in COUNTERS.items() if c == count)
    for count in dict.fromkeys(c for c, _ in COUNTERS.values())
}
# Counts from the generator's model and from the checked outputs.
OTHER_COUNTS = {
    "textpipe.tokens_per_tweet": "tokens/tweet",
    "textpipe.empty_tweets": "count",
    "matchers.postings_per_tweet": "postings/tweet",
    "matchers.undefined_tweets": "count",
    "matchers.argmax_ties": "count",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {
    **{f"{fn}.{kind}": KIND_UNITS[kind] for fn, kinds in TIMINGS.items() for kind in kinds},
    **{name: "count" for name in BOUNDARY_COUNTS},
    **OTHER_COUNTS,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs


def prepare(name, seed, **sizes):
    """Generate (or reuse) the inputs of one workload; returns (model, data dir)."""
    source = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    tag = "-".join(f"{k}{v}" for k, v in sorted(sizes.items()))
    base = WORK / ("selftest" if sizes else "inputs") / name
    data = base / f"seed{seed}-{source}{tag}"
    model_path = data / "model.pickle"
    if model_path.exists():
        os.utime(data)
        with open(model_path, "rb") as fh:
            return pickle.load(fh), data
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    wl, files = workloads.GENERATORS[name](seed, **sizes)
    for file_name, text in files.items():
        (data / file_name).write_text(text, encoding="utf-8")
    with open(data / "model.tmp", "wb") as fh:
        pickle.dump(wl, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(data / "model.tmp", model_path)  # marks the directory complete
    for old in sorted(base.iterdir(), key=lambda p: p.stat().st_mtime)[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return wl, data


def write_config(wl, data, run_dir) -> Path:
    values = {
        "tweets": data / "tweets.jsonl",
        "articles": data / "articles.jsonl",
        "out": run_dir / "out",
        "matcher": wl.matcher,
        "threshold": repr(wl.threshold),
        "jobs": 1,
        "quiet": "true",
        **{k: data / v if k in FILE_KEYS else v for k, v in wl.config.items()},
    }
    path = run_dir / "run.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# processes


def environment(run_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(run_dir / "tmp")  # eval re-scores through a temp file
    return env


def spawn(argv, run_dir, deadline):
    """Run argv through spawn.py with an empty out/; returns (wall s, peak RSS MB, exit code)."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (run_dir / "tmp").mkdir(exist_ok=True)
    result = run_dir / "spawn.json"
    result.unlink(missing_ok=True)
    limit = max(deadline - time.perf_counter(), 1.0)
    with open(run_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), f"{limit:.1f}", str(result), *argv],
            cwd=ROOT, env=environment(run_dir), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=limit + 5)
        except BaseException:  # also on interrupt: leave no process behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0 or not result.exists():
        return float("nan"), float("nan"), proc.returncode or 1
    measured = json.loads(result.read_text())
    if measured["exit_code"] != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        log(f"{argv[1:]} exited with {measured['exit_code']}:\n{tail}")
    return measured["wall_s"], measured["peak_rss_mb"], measured["exit_code"]


def cli_argv(wl, config):
    return [sys.executable, "-m", "rumormatch.cli", "--config", str(config), wl.command]


def check_run(wl, run_dir, code, reference):
    """Check one command run's outputs; a non-zero exit fails every tweet."""
    res, parsed = check.check_matches(wl, run_dir / "out" / "matches.jsonl", reference)
    if code != 0:
        res.fail_all(f"exit code {code}")
    elif wl.command == "all":
        check.check_all_outputs(wl, run_dir / "out", parsed, res)
    for e in res.errors:
        log(f"check: {e}")
    return res


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(wl, data, seed, run_dir, seconds, deadline):
    config = write_config(wl, data, run_dir)
    reference = check.reference_scores(wl, check.sample(wl, seed))

    setup_json = run_dir / "setup.json"
    _, _, code = spawn([sys.executable, str(HERE / "inproc.py"), "setup", str(config),
                        str(SETUP_SECONDS), str(setup_json)], run_dir, deadline)
    if code != 0:  # the command would fail the same way
        return wl.n_tweets, wl.n_tweets, {}
    setup = json.loads(setup_json.read_text())["setup_s"]

    rates, rss, attempted, failed = [], [], 0, 0
    measured = 0.0
    while len(rates) < MIN_RUNS or measured < seconds:
        if rates and time.perf_counter() + measured / len(rates) > deadline:
            log("stopping early: the next run would pass the deadline")
            break
        wall, peak, code = spawn(cli_argv(wl, config), run_dir, deadline)
        res = check_run(wl, run_dir, code, reference)
        attempted += wl.n_tweets
        failed += len(res.failed)
        if code != 0:
            break
        measured += wall
        rates.append(wl.n_tweets / wall)
        rss.append(peak)
    metrics = {"setup_s": statistics.median(setup)}
    if rates:
        metrics.update(tweets_per_s=statistics.median(rates), peak_rss_mb=statistics.median(rss))
    log(f"{len(rates)} runs, {measured:.1f} s measured; tweets/s {[round(r) for r in rates]}; "
        f"set-up s {[round(s, 4) for s in setup]}")
    return attempted, failed, {k: (metrics[k], u) for k, u in END_TO_END.items() if k in metrics}


def traced(wl, data, seed, run_dir, deadline):
    config = write_config(wl, data, run_dir)
    reference = check.reference_scores(wl, check.sample(wl, seed))

    plain_wall, _, plain_code = spawn(cli_argv(wl, config), run_dir, deadline)
    first = check_run(wl, run_dir, plain_code, reference)
    result_json = run_dir / "trace.json"
    traced_wall, _, code = spawn([sys.executable, str(HERE / "inproc.py"), "trace", str(config),
                                  wl.command, str(run_dir / "spans.csv"), str(result_json)],
                                 run_dir, deadline)
    res = check_run(wl, run_dir, code, reference)
    attempted = 2 * wl.n_tweets
    failed = len(first.failed) + len(res.failed)
    if plain_code != 0 or code != 0:
        return attempted, failed, {}

    summary = json.loads(result_json.read_text())
    functions, absent = summary["functions"], set(summary["absent"])
    for name in sorted(absent):
        log(f"absent: {name} no longer exists; its metrics are not reported")
    metrics = {}
    for fn, kinds in TIMINGS.items():
        if fn in absent:
            continue
        entry = functions.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        calls = entry["calls"]
        values = {"s": entry["s"], "self_s": entry["self_s"], "calls": calls,
                  "us_per_call": entry["s"] / calls * 1e6 if calls else 0.0}
        for kind in kinds:
            metrics[f"{fn}.{kind}"] = values[kind]
    for name, fns in BOUNDARY_COUNTS.items():
        if not absent.issuperset(fns):
            metrics[name] = summary["counts"].get(name, 0)

    tokens = [len(t) for t in wl.tweet_tokens]
    metrics["textpipe.tokens_per_tweet"] = sum(tokens) / len(tokens)
    metrics["textpipe.empty_tweets"] = tokens.count(0)
    metrics["matchers.postings_per_tweet"] = (
        check.postings_per_tweet(wl) if wl.matcher in ("BM25", "TFIDF") else 0.0)
    metrics["matchers.undefined_tweets"] = res.undefined
    metrics["matchers.argmax_ties"] = res.ties
    metrics["trace.overhead_frac"] = (traced_wall - summary["export_s"]) / plain_wall - 1.0
    log(f"untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s "
        f"(span export {summary['export_s']:.2f} s)")
    return attempted, failed, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}


def report(attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        log(f"  {name:<40} {value:>14.6g} {unit}")
    log(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ({failed} of {attempted} tweets)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(name, seed, trace, seconds):
    """One benchmark run; returns (attempted, failed, metrics)."""
    deadline = time.perf_counter() + DEADLINE_S
    wl, data = prepare(name, seed)
    run_dir = WORK / "runs" / name
    run_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        return traced(wl, data, seed, run_dir, deadline)
    return end_to_end(wl, data, seed, run_dir, seconds, deadline)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.FIXTURE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 0 and then --trace 1")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rumormatch" / "cli.py").is_file():
        log(f"error: no rumormatch sources under {ROOT / 'src'}; run from a checkout")
        return 2
    # turn a termination request into SystemExit, so spawn() stops its command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.all:
        for name in workloads.GENERATORS:
            for trace in (0, 1):
                log(f"== {name} --seed {args.seed} --trace {trace}")
                report(*measure(name, args.seed, trace, args.seconds))
        return 0
    if args.workload is None:
        parser.error("--workload, --all or --self-test is required")
    report(*measure(args.workload, args.seed, args.trace, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
