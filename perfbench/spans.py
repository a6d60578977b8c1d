"""In-memory spans recorded from outside the program, and the layer numbers they give.

A :class:`Tracer` replaces public functions of ``totsim`` with wrappers that
record one span per call: name, start, end, parent span and thread.  All spans
of one traced run share a run id, stay in memory and are written out once, at
the end.  A wrap target the program no longer has is listed as absent instead
of failing the run, so the trace survives refactors that rename or fold
functions.

A call made on a worker thread with no open span of its own is parented to
the innermost span open on the thread that created the tracer: that is the
call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

# (span name, module, owner attribute path, attribute): every function the
# traced run wraps.  Names imported by ``totsim.cli`` are wrapped there, where
# the stages look them up.
TARGETS = tuple(
    (name, "totsim.cli", "", name)
    for name in (
        "load_config",
        "ingest_corpus",
        "partition_corpus",
        "sample_candidates",
        "generate_batch",
        "build_index",
        "save_index",
        "load_index",
        "run_search",
        "write_run_file",
        "load_external_run",
        "evaluate_pool",
        "correlate",
        "select_best_strategy",
        "assemble_collection",
        "validate_collection",
        "write_bundle",
    )
) + (
    ("PipelineConfig.content_hash", "totsim.config", "PipelineConfig", "content_hash"),
    ("score_bm25", "totsim.retrieval", "", "score_bm25"),
    ("score_ql_dirichlet", "totsim.retrieval", "", "score_ql_dirichlet"),
    ("Tokenizer.tokenize", "totsim.retrieval", "Tokenizer", "tokenize"),
)

PROVIDER_SPAN = "provider.complete"
SCORE_SPANS = ("score_bm25", "score_ql_dirichlet")


def _path_arg(position: int, keyword: str) -> Callable:
    def extract(args, kwargs) -> dict:
        path = args[position] if len(args) > position else kwargs.get(keyword)
        return {} if path is None else {"path": str(path)}

    return extract


def _queries_arg(args, kwargs) -> dict:
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    return {"queries": len(queries), "query_set": hash(frozenset(queries.items()))}


# Call arguments some layer numbers need: the files written or parsed, and
# which query set a search ran.
ATTRS = {
    "save_index": _path_arg(1, "path"),
    "write_run_file": _path_arg(1, "path"),
    "load_external_run": _path_arg(0, "path"),
    "run_search": _queries_arg,
}


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home and stack is not self._home else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "run_id": self.run_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                    **attrs,
                }
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        extract = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(extract(args, kwargs) if extract else {})):
                return fn(*args, **kwargs)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target in ``TARGETS`` that exists; list the others as absent."""
        for name, module_name, owner_path, attr in TARGETS:
            owner = modules[module_name]
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.absent.append(name)
                continue
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(span["start"], parent["start"]), min(span["end"], parent["end"]))
            )
    return {
        span["id"]: span["end"] - span["start"] - _union_length(children.get(span["id"], ()))
        for span in spans
    }


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000.0


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def layer_metrics(spans: list[dict], stages: Iterable[str], all_stages: Iterable[str]) -> dict:
    """Per-layer numbers of one traced run: self times, counts and sizes.

    ``stages`` are the stages the workload ran; a stage it did not run reads 0.
    Files named by spans must still exist when this is called.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    by_id = {span["id"]: span for span in spans}

    def named(*names: str) -> list[dict]:
        return [span for name in names for span in by_name.get(name, ())]

    def paths(name: str) -> list[str]:
        return [span["path"] for span in named(name) if "path" in span]

    def self_s(*names: str) -> float:
        return sum(own[span["id"]] for span in named(*names))

    def durations(*names: str) -> list[float]:
        return [span["end"] - span["start"] for span in named(*names)]

    def under(span: dict, ancestor_name: str) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == ancestor_name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    metrics: dict[str, tuple[float, str]] = {}
    stage_spans = {span["name"][len("stage."):]: span for span in named(*(f"stage.{s}" for s in stages))}
    for stage in all_stages:
        span = stage_spans.get(stage)
        metrics[f"cli.{stage}_s"] = (span["end"] - span["start"] if span else 0.0, "s")

    metrics["config.load_s"] = (self_s("load_config"), "s")
    metrics["config.content_hash_calls"] = (len(named("PipelineConfig.content_hash")), "count")
    metrics["config.content_hash_s"] = (self_s("PipelineConfig.content_hash"), "s")

    metrics["corpus.ingest_calls"] = (len(named("ingest_corpus")), "count")
    metrics["corpus.ingest_s"] = (self_s("ingest_corpus"), "s")
    metrics["corpus.partition_s"] = (self_s("partition_corpus"), "s")
    metrics["sampling.sample_s"] = (self_s("sample_candidates"), "s")

    provider_calls = durations(PROVIDER_SPAN)
    metrics["providers.calls"] = (len(provider_calls), "count")
    metrics["providers.wait_s"] = (sum(provider_calls), "s")
    metrics["providers.call_p50_ms"] = (_percentile_ms(provider_calls, 50), "ms")
    metrics["providers.call_p99_ms"] = (_percentile_ms(provider_calls, 99), "ms")
    metrics["generation.batch_s"] = (self_s("generate_batch"), "s")

    score_calls = durations(*SCORE_SPANS)
    metrics["retrieval.score_calls"] = (len(score_calls), "count")
    metrics["retrieval.score_s"] = (self_s(*SCORE_SPANS), "s")
    metrics["retrieval.score_p50_ms"] = (_percentile_ms(score_calls, 50), "ms")
    metrics["retrieval.score_p99_ms"] = (_percentile_ms(score_calls, 99), "ms")
    query_sets = {span["query_set"]: span["queries"] for span in named("run_search")}
    searched_queries = sum(query_sets.values())
    search_tokenizes = sum(1 for span in named("Tokenizer.tokenize") if under(span, "run_search"))
    metrics["retrieval.tokenize_calls_per_query"] = (
        search_tokenizes / searched_queries if searched_queries else 0.0,
        "ratio",
    )
    metrics["retrieval.tokenize_s"] = (self_s("Tokenizer.tokenize"), "s")
    metrics["retrieval.index_build_s"] = (self_s("build_index"), "s")
    metrics["retrieval.index_save_s"] = (self_s("save_index"), "s")
    metrics["retrieval.index_load_s"] = (self_s("load_index"), "s")
    metrics["retrieval.index_bytes"] = (
        sum(Path(path).stat().st_size for path in paths("save_index")),
        "bytes",
    )
    metrics["retrieval.run_write_s"] = (self_s("write_run_file"), "s")
    metrics["retrieval.run_bytes"] = (
        sum(Path(path).stat().st_size for path in paths("write_run_file")),
        "bytes",
    )
    metrics["retrieval.run_parse_s"] = (self_s("load_external_run"), "s")
    metrics["retrieval.run_lines_parsed"] = (
        sum(_count_lines(path) for path in paths("load_external_run")),
        "count",
    )

    metrics["evaluation.evaluate_s"] = (self_s("evaluate_pool"), "s")
    metrics["evaluation.correlate_s"] = (self_s("correlate"), "s")
    metrics["evaluation.select_s"] = (self_s("select_best_strategy"), "s")
    metrics["collection.assemble_s"] = (self_s("assemble_collection"), "s")
    metrics["collection.validate_s"] = (self_s("validate_collection"), "s")
    metrics["collection.write_bundle_s"] = (self_s("write_bundle"), "s")

    search = stage_spans.get("search")
    covered = 0.0
    if search is not None:
        layers = (*SCORE_SPANS, "Tokenizer.tokenize", "write_run_file", "load_index")
        covered = sum(
            own[span["id"]] for span in named(*layers) if under(span, "stage.search")
        )
    metrics["trace.search_coverage"] = (
        covered / (search["end"] - search["start"]) if search else 0.0,
        "ratio",
    )
    return metrics
