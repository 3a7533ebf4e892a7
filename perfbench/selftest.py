"""Self-test of the benchmark's generator, checker and tracer.

    python3 perfbench/run.py --self-test

Runs the real CLI on small versions of each workload, where the checker's
sample covers every tweet, and expects real outputs to pass and corrupted
ones to fail.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import check
import run
import workloads
from inproc import TARGETS, Tracer

SEED = 1
SMALL = {
    "match-bm25-1723": {"n_tweets": 1500},
    "match-embedding-noisy": {"n_tweets": 1500},
    "all-tfidf-labeled": {"n_tweets": 1500, "n_labels": 300},
}


class Expectations:
    def __init__(self):
        self.failed = 0
        self.passed = 0

    def __call__(self, ok, what):
        run.log(f"{'PASS' if ok else 'FAIL'} {what}")
        if ok:
            self.passed += 1
        else:
            self.failed += 1


def flip_one_article(wl, path, reference):
    """Point one sampled RUMOR line at an article that scores below the best."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        obj = json.loads(line)
        ref = reference.get(i)
        if obj["article_id"] is None or ref is None:
            continue
        wrong = [k for k in range(len(ref)) if ref[k] < ref.max() - check.TOL]
        if wrong:
            obj["article_id"] = f"a{wrong[0]}"
            lines[i] = json.dumps(obj) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            return i
    return None


def main():
    expect = Expectations()
    deadline = time.perf_counter() + run.DEADLINE_S

    _, fixture = workloads.match_bm25_1723(workloads.FIXTURE_SEED)
    expect(all(hashlib.sha256(fixture[name].encode()).hexdigest() == digest
               for name, digest in workloads.FIXTURE_SHA256.items()),
           "match-bm25-1723 at the default seed is the criterion-8/9 fixture, byte for byte")
    del fixture

    for name, sizes in SMALL.items():
        wl, data = run.prepare(name, SEED, **sizes)
        run_dir = run.WORK / "selftest" / "runs" / name
        run_dir.mkdir(parents=True, exist_ok=True)
        config = run.write_config(wl, data, run_dir)
        reference = check.reference_scores(wl, check.sample(wl, SEED))
        _, _, code = run.spawn(run.cli_argv(wl, config), run_dir, deadline)
        res = run.check_run(wl, run_dir, code, reference)
        expect(code == 0 and not res.failed and len(reference) == wl.n_tweets,
               f"{name}: real output passes ({len(res.failed)} of {wl.n_tweets} failed)")

        matches = run_dir / "out" / "matches.jsonl"
        flipped = flip_one_article(wl, matches, reference)
        bad, _ = check.check_matches(wl, matches, reference)
        expect(flipped is not None and flipped in bad.failed,
               f"{name}: one flipped article id gives failed_frac "
               f"{len(bad.failed) / wl.n_tweets:.4g} > 0")

        if wl.command == "all":
            ratio = run_dir / "out" / "group_ratio.csv"
            rows = ratio.read_text(encoding="utf-8").splitlines()
            rows[1] = rows[1].rsplit(",", 1)[0] + ",0.5"
            ratio.write_text("\n".join(rows) + "\n", encoding="utf-8")
            _, parsed = check.check_matches(wl, matches, {})
            bad = check.Result(wl.n_tweets)
            check.check_all_outputs(wl, run_dir / "out", parsed, bad)
            expect(len(bad.failed) == wl.n_tweets,
                   f"{name}: a wrong group_ratio.csv fails every tweet")

            attempted, failed, metrics = run.traced(wl, data, SEED, run_dir, deadline)
            values = {k: v for k, (v, _) in metrics.items()}
            expect(failed == 0 and set(values) == set(run.PER_LAYER),
                   f"{name}: the traced run reports every per-layer metric")
            expect(values.get("matchers.build_index.calls") == 3
                   and values.get("corpus.load_tweets.calls") == 3,
                   f"{name}: build_index and load_tweets are each called 3 times")

    sys.path.insert(0, str(run.ROOT / "src"))
    tracer = Tracer()
    tracer.install("rumormatch", {**TARGETS, "matchers": ("score_gone", *TARGETS["matchers"]),
                                  "gone": ("anything",)})
    expect(tracer.absent == ["matchers.score_gone", "gone.anything"],
           f"the tracer reports removed functions as absent: {tracer.absent}")

    declared = run.ROOT / "BENCHMARK.json"
    if declared.exists():
        spec = json.loads(declared.read_text())
        expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
               and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
               and {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS),
               "BENCHMARK.json declares exactly the workloads and metrics reported")

    run.log(f"self-test: {expect.passed} passed, {expect.failed} failed")
    return 1 if expect.failed else 0
