"""Correctness checks on one run's output tree.

Each check returns a list of problems; an empty list is a pass.  They read
the tree as ``totsim pipeline`` lays it out: ``generate/<lang>/<set>.jsonl``,
``search/<lang>/<set>/<system>.run`` and ``collection/<lang>/``.

The ranking oracle is the benchmark's own: its tokenizer and full-scan
BM25 and Dirichlet query-likelihood scorers are written from the documented
formulas and share no code with ``totsim.retrieval`` except the system pool's
parameters.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

from totsim.collection import load_bundle, validate_collection
from totsim.config import PipelineConfig
from totsim.corpus import ingest_corpus
from totsim.errors import TotsimError
from totsim.generation import anonymity_check
from totsim.retrieval import default_lexical_pool

SCORE_TOL = 1e-9
# Query ids checked per (language, query set), all pool systems each.
ORACLE_QUERIES_PER_SET = 1

_CJK = (
    "\u1100-\u11ff\u3040-\u309f\u30a0-\u30ff\u3130-\u318f\u31f0-\u31ff"
    "\u3400-\u4dbf\u4e00-\u9fff\uac00-\ud7a3\uf900-\ufaff"
)
_CJK_SPLIT = re.compile(f"([{_CJK}]+)")
_WORD = re.compile(r"[^\W_]+")
_CJK_LANGUAGES = {"zh", "ja", "ko"}


class Tally:
    """Failed runs plus failed checks, out of everything attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check {name} FAILED: " + "; ".join(problems[:5]), file=sys.stderr, flush=True)


def naive_tokenize(text: str, mode: str) -> list[str]:
    """Lowercased words, or character bigrams over CJK runs with words elsewhere."""
    if mode == "whitespace":
        return _WORD.findall(text.lower())
    tokens: list[str] = []
    for i, piece in enumerate(_CJK_SPLIT.split(text)):
        if i % 2 == 0:
            tokens.extend(_WORD.findall(piece.lower()))
        elif len(piece) < 2:
            tokens.append(piece)
        else:
            tokens.extend(piece[j : j + 2] for j in range(len(piece) - 1))
    return tokens


def _naive_scores(system, query_tokens: list[str], docs: dict[str, Counter], lengths: dict[str, int]):
    n_docs = len(docs)
    df = {t: sum(1 for tf in docs.values() if t in tf) for t in set(query_tokens)}
    matched = [t for t in query_tokens if df[t] > 0]
    candidates = [d for d, tf in docs.items() if any(t in tf for t in matched)]
    scores: dict[str, float] = {}
    if system.kind == "bm25":
        avgdl = sum(lengths.values()) / n_docs
        for doc_id in candidates:
            norm = system.k1 * (1.0 - system.b + system.b * lengths[doc_id] / avgdl)
            score = 0.0
            for t in matched:
                tf = docs[doc_id][t]
                if tf:
                    idf = math.log((n_docs - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
                    score += idf * tf * (system.k1 + 1.0) / (tf + norm)
            scores[doc_id] = score
    else:
        collection_length = sum(lengths.values())
        ctf = {t: sum(tf[t] for tf in docs.values()) for t in set(matched)}
        for doc_id in candidates:
            score = 0.0
            for t in matched:
                prior = system.mu * ctf[t] / collection_length
                score += math.log((docs[doc_id][t] + prior) / (lengths[doc_id] + system.mu))
            scores[doc_id] = score
    return scores


def _read_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    rankings: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            query_id, _q0, doc_id, _rank, score, _tag = line.split()
            rankings.setdefault(query_id, []).append((doc_id, float(score)))
    return rankings


def compare_ranking(ranking: list[tuple[str, float]], naive: dict[str, float], depth: int) -> str | None:
    """Why ``ranking`` is not a top-``depth`` ranking of ``naive``, or None.

    Exactly tied documents are interchangeable, so only score order is
    checked, never the order of doc ids within a tie.
    """
    if len(ranking) != min(depth, len(naive)):
        return f"{len(ranking)} documents ranked, expected {min(depth, len(naive))}"
    previous = math.inf
    for rank, (doc_id, score) in enumerate(ranking, start=1):
        if doc_id not in naive:
            return f"rank {rank}: {doc_id} matches no query term"
        if abs(score - naive[doc_id]) > SCORE_TOL:
            return f"rank {rank}: {doc_id} scored {score!r}, full scan gives {naive[doc_id]!r}"
        if naive[doc_id] > previous + SCORE_TOL:
            return f"rank {rank}: {doc_id} outscores the document above it"
        previous = naive[doc_id]
    ranked = {doc_id for doc_id, _ in ranking}
    left_out = max((s for d, s in naive.items() if d not in ranked), default=-math.inf)
    if left_out > previous + SCORE_TOL:
        return "a document left out of the ranking outscores one in it"
    return None


def _query_text(out: Path, config: PipelineConfig, code: str, set_name: str, query_id: str) -> str:
    if set_name == "real":
        with open(config.language(code).real_queries, encoding="utf-8") as handle:
            texts = dict(line.rstrip("\n").split("\t", 1) for line in handle if line.strip())
        return texts[query_id]
    for row in _read_jsonl(out / "generate" / code / f"{set_name}.jsonl"):
        if row["query_id"] == query_id and not row["discarded"]:
            return row["text"]
    raise KeyError(query_id)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_rankings(out: Path, config: PipelineConfig) -> list[str]:
    """A fixed sample of run-file rankings must match the full-scan oracle."""
    problems: list[str] = []
    systems = {system.system_id: system for system in default_lexical_pool()}
    search = out / "search"
    compared = 0
    for entry in config.languages:
        mode = entry.tokenizer or ("cjk-ngram" if entry.code in _CJK_LANGUAGES else "whitespace")
        docs: dict[str, Counter] = {}
        lengths: dict[str, int] = {}
        for doc in ingest_corpus(entry.corpus, entry.code):
            tokens = naive_tokenize(doc.body, mode)
            docs[doc.doc_id] = Counter(tokens)
            lengths[doc.doc_id] = len(tokens)
        set_dirs = sorted(p for p in (search / entry.code).glob("*") if p.is_dir())
        if not set_dirs:
            problems.append(f"{entry.code}: no search runs")
        for set_dir in set_dirs:
            runs = {system_id: _read_run(set_dir / f"{system_id}.run") for system_id in systems}
            query_ids = sorted(set().union(*runs.values()))[:ORACLE_QUERIES_PER_SET]
            for query_id in query_ids:
                text = _query_text(out, config, entry.code, set_dir.name, query_id)
                query_tokens = naive_tokenize(text, mode)
                for system_id, system in systems.items():
                    naive = _naive_scores(system, query_tokens, docs, lengths)
                    problem = compare_ranking(runs[system_id].get(query_id, []), naive, config.depth)
                    compared += 1
                    if problem:
                        problems.append(f"{entry.code}/{set_dir.name}/{system_id} {query_id}: {problem}")
    if not compared:
        problems.append("no rankings compared")
    return problems


def check_bundles(out: Path, config: PipelineConfig) -> list[str]:
    """Every language's bundle reloads from disk and validates clean."""
    problems: list[str] = []
    for entry in config.languages:
        try:
            bundle = load_bundle(out / "collection" / entry.code)
        except (OSError, ValueError, TotsimError) as exc:
            problems.append(f"{entry.code}: bundle does not reload ({exc})")
            continue
        if not bundle.queries:
            problems.append(f"{entry.code}: bundle has no queries")
        report = validate_collection(bundle, ingest_corpus(entry.corpus, entry.code))
        problems.extend(f"{entry.code}: {violation}" for violation in report.violations)
    return problems


def generated_records(out: Path) -> list[dict]:
    """Every generation record, accepted or discarded, over all languages and sets."""
    return [row for path in sorted((out / "generate").glob("*/*.jsonl")) for row in _read_jsonl(path)]


def accepted_queries(out: Path) -> list[dict]:
    return [row for row in generated_records(out) if not row["discarded"]]


def check_anonymity(out: Path, config: PipelineConfig) -> list[str]:
    """No accepted query names its target (title or alias)."""
    problems: list[str] = []
    corpora = {entry.code: ingest_corpus(entry.corpus, entry.code) for entry in config.languages}
    rows = accepted_queries(out)
    if not rows:
        problems.append("no accepted queries")
    for row in rows:
        doc = corpora[row["language"]].get(row["doc_id"])
        if not anonymity_check(row["text"], doc.title, doc.aliases):
            problems.append(f"{row['query_id']} ({row['variation']}): names its target")
    return problems


def check_fixture_digests(digests: list[str]) -> list[str]:
    """Every set-up of one run must produce the same input directory."""
    distinct = len(set(digests))
    return [] if distinct == 1 else [f"{distinct} different inputs from {len(digests)} set-ups"]


def check_run(
    tally: Tally, tag: str, result: dict, out: Path, config: PipelineConfig, stages, reference: dict, oracle: bool
) -> None:
    """Every check on one cold run; ``reference`` keeps the run's first output digest."""
    resumed_clean = (
        result["stages_skipped"] == result["stages_total"]
        and result["resume_untouched"]
        and result["resume_digest"] == result["digest"]
    )
    tally.check(
        f"{tag}/resume",
        []
        if resumed_clean
        else [
            f"{result['stages_skipped']}/{result['stages_total']} stages skipped, "
            f"tree untouched: {result['resume_untouched']}, "
            f"bytes unchanged: {result['resume_digest'] == result['digest']}"
        ],
    )
    reference.setdefault("digest", result["digest"])
    tally.check(
        f"{tag}/output-digest",
        [] if result["digest"] == reference["digest"] else ["output tree differs from the first run's"],
    )
    tally.check(f"{tag}/anonymity", check_anonymity(out, config))
    if "assemble" in stages:
        tally.check(f"{tag}/bundle", check_bundles(out, config))
    if oracle and "search" in stages:
        tally.check(f"{tag}/rankings", check_rankings(out, config))
