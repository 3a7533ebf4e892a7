"""In-process measurements of the rumormatch package, one per subprocess.

    python3 perfbench/inproc.py setup <config> <seconds> <result.json>
        Times the public set-up calls a `match` makes before it scores its
        first tweet, with tracing off: at least MIN_SETUPS times, and until
        <seconds> are spent.
    python3 perfbench/inproc.py trace <config> <command> <spans.csv> <result.json>
        Wraps the public functions in TARGETS, runs the CLI command in this
        process, writes every span (name, start, end, parent) to <spans.csv>
        and per-function totals, self times and counts to <result.json>.

Both import the package from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3

# Layer (module) -> public functions whose spans the traced run records.
TARGETS = {
    "corpus": ("load_tweets", "load_articles", "load_labels"),
    "textpipe": ("tokenize",),
    "matchers": ("build_index", "score_bm25", "score_tfidf", "score_embedding",
                 "load_embeddings", "embed_articles", "best_match", "classify"),
    "cli": ("run_match", "atomic_write_text", "save_index", "load_index", "load_detections",
            "cmd_index", "cmd_match", "cmd_eval", "cmd_analyze"),
    "evaluation": ("sweep",),
    "analysis": ("group_rumor_ratio", "user_concentration", "user_rumor_ratio_ranking",
                 "keyword_breakdown", "content_attribution", "timeline"),
}


def _result_len(args, result):
    return len(result)


def _tweets_len(args, result):
    return len(args[0])


# Counts taken at a span boundary: function -> (counter, what to add per call).
COUNTERS = {
    "corpus.load_tweets": ("corpus.lines_parsed", _result_len),
    "corpus.load_articles": ("corpus.lines_parsed", _result_len),
    "corpus.load_labels": ("corpus.lines_parsed", _result_len),
    "evaluation.sweep": ("evaluation.sweep.points", lambda args, result: len(result.points)),
    **{f"analysis.{f}": ("analysis.tweets_scanned", _tweets_len) for f in TARGETS["analysis"]},
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.stack = []
        self.counts = Counter()
        self.absent = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if counter:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, package, targets=TARGETS):
        """Replace each target in every module of the package that holds it,
        so `from .textpipe import tokenize` call sites are traced too.  A target
        that no longer exists is recorded in `absent` instead."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, names in targets.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            for fn_name in names:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                traced = self.wrap(name, original)
                for m in modules + [module]:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = total[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(total)


def measure_setup(config_path, seconds):
    sys.path.insert(0, str(ROOT / "src"))
    from rumormatch import cli, corpus, matchers

    config = cli.build_config(cli.parse_config_file(config_path), {})
    tok = config.tokenizer_config()
    times = []
    while len(times) < MIN_SETUPS or sum(times) < seconds:
        gc.collect()
        start = time.perf_counter()
        articles = corpus.load_articles(config.articles)
        index = matchers.build_index(articles, tok)
        if config.matcher.upper() == "EMBEDDING":
            table = matchers.load_embeddings(config.embeddings)
            matchers.embed_articles(articles, table, tok)
            del table
        times.append(time.perf_counter() - start)
        del articles, index
    return {"setup_s": times}


def run_traced(config_path, command, spans_path):
    sys.path.insert(0, str(ROOT / "src"))
    from rumormatch import cli

    tracer = Tracer()
    tracer.install("rumormatch")
    code = cli.main(["--config", config_path, command])
    start = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent\n")
        fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in tracer.spans)
    result = {"functions": tracer.summary(), "counts": dict(tracer.counts),
              "absent": tracer.absent}
    result["export_s"] = time.perf_counter() - start
    return code, result


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 4:
        code, result = 0, measure_setup(argv[1], float(argv[2]))
    elif argv[:1] == ["trace"] and len(argv) == 5:
        code, result = run_traced(argv[1], argv[2], argv[3])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[-1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
