"""Command line pipeline: ingest through assembled collection.

The ten stages are declared once, in order, in ``STAGES``: each entry
names the directory the stage owns under the configured output root,
the body that fills it and the version of the format it writes.  One
runner, :func:`run_stage`, serves every subcommand.  It skips a stage
whose manifest matches the current config hash and format version and
whose outputs all exist, which makes ``totsim pipeline`` resumable
(``--force`` reruns regardless).  Otherwise it empties the stage's
directory, runs the body and writes the stage manifest: the config hash,
the format version, every file the body wrote and the extra fields it
returns.  A body that fails leaves no manifest, so the stage runs again
next time.  Every file one stage hands to another has one path function,
shared by its writer and its readers, and a reader that finds it missing
names the stage that produces it.  All diagnostics go to stderr; outputs
contain no timestamps, so identical inputs and seed give byte-identical
trees.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .collection import (
    CollectionSpec,
    assemble_collection,
    load_queries,
    validate_collection,
    write_bundle,
)
from .config import PipelineConfig, load_config
from .corpus import (
    Corpus,
    CorpusFile,
    Partition,
    assign_domain,
    default_domain_mapping,
    filter_by_length,
    filter_by_popularity,
    ingest_corpus,
    load_domain_mapping,
    partition_corpus,
)
from .errors import ConfigError, ConstantVectorError, EvaluationError, TotsimError
from .evaluation import (
    METRICS,
    CorrelationResult,
    MetricCorrelation,
    MetricReport,
    correlate,
    evaluate_ranks,
    load_qrels,
    read_rank_file,
    select_best_strategy,
    write_rank_file,
)
from .generation import (
    PromptVariation,
    TemplateSet,
    generate_batch,
    read_query_manifest,
    write_query_manifest,
)
from .retrieval import (
    INDEX_VERSION,
    LEXICAL_IDS,
    build_index,
    default_lexical_pool,
    load_external_run,
    load_index,
    run_search,
    save_index,
    tokenizer_for_language,
)
from .sampling import (
    RNG_ALGORITHM,
    SamplingConfig,
    read_candidate_manifest,
    sample_candidates,
    stratify,
    write_candidate_manifest,
)
from .util import atomic_write_text, read_json, read_jsonl, write_json, write_jsonl

logger = logging.getLogger(__name__)


class Stage(NamedTuple):
    """Where a stage writes, the body that writes it, and its output format.

    The body writes into the directory, which the runner empties before and
    lists in the manifest after, and returns only its extra manifest
    fields.  ``version`` goes up whenever the stage's outputs change form,
    so a tree written in an older form reruns the stage instead of being
    skipped or handed on.
    """

    directory: str
    body: Callable[[PipelineConfig, Path], dict]
    version: int = 1


def _artifact(config: PipelineConfig, producer: str, *parts: str) -> Path:
    return config.output_dir.joinpath(STAGES[producer].directory, *parts)


def _partition_map_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "partition", f"{code}.json")


def _sample_path(config: PipelineConfig, code: str, partition: Partition) -> Path:
    return _artifact(config, "sample", f"{code}-{partition.value}.jsonl")


def _generate_path(config: PipelineConfig, code: str, set_name: str) -> Path:
    return _artifact(config, "generate", code, f"{set_name}.jsonl")


def _index_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "index", f"{code}.npz")


def _run_path(config: PipelineConfig, code: str, set_name: str, system_id: str) -> Path:
    return _artifact(config, "search", code, set_name, f"{system_id}.run")


def _ranks_path(config: PipelineConfig, code: str, set_name: str) -> Path:
    return _artifact(config, "search", code, set_name, "ranks.tsv")


def _pool_ranks_path(config: PipelineConfig, code: str, set_name: str) -> Path:
    return _artifact(config, "evaluate", code, f"{set_name}.ranks.tsv")


def _correlations_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "correlate", f"{code}.jsonl")


def _strategy_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "select", f"{code}.json")


def _producer(config: PipelineConfig, path: Path) -> str:
    """The stage that writes ``path``, from the stage directory it lies in."""
    directory = path.relative_to(config.output_dir).parts[0]
    return next(name for name, stage in STAGES.items() if stage.directory == directory)


def _rerun(config: PipelineConfig, path: Path, problem: str) -> ConfigError:
    """The refusal of ``path``, an earlier stage's output, which that stage must redo."""
    return ConfigError(f"{path} {problem}; run 'totsim {_producer(config, path)} --force'")


def _existing(config: PipelineConfig, path: Path) -> Path:
    """``path``, which an earlier stage wrote; if it is missing, name that stage."""
    if not path.exists():
        raise ConfigError(f"missing {path}; run 'totsim {_producer(config, path)}' first")
    return path


def _corpus_file(config: PipelineConfig, code: str) -> CorpusFile:
    return CorpusFile(config.corpora[code], code)


def _load_corpus(config: PipelineConfig, code: str) -> Corpus:
    return ingest_corpus(config.corpora[code], code)


def _partitions_for(code: str) -> dict[Partition, tuple[PromptVariation, ...]]:
    """A language's partitions, in order, each with the variations it is simulated with."""
    V1, V2, V3, V4 = PromptVariation
    # English is its own source language, so the translated-prompt and
    # English-article axes collapse to plain V1; V3 and V4 need a linked page.
    if code == "en":
        return {Partition.FULL: (V1,)}
    return {Partition.MONOLINGUAL: (V1, V2), Partition.BILINGUAL: (V1, V2, V3, V4)}


def _synthetic_sets(code: str) -> Iterator[tuple[Partition, PromptVariation, str]]:
    """A language's synthetic query sets as (partition, variation, set name)."""
    for partition, variations in _partitions_for(code).items():
        for variation in variations:
            yield partition, variation, f"{partition.value}-{variation.value}"


def _partition_of(config: PipelineConfig, code: str, doc_ids: Iterable) -> dict[str, Partition]:
    """Each document's partition: the map ``partition`` wrote, or ``doc_ids`` in a lone one."""
    partitions = {partition.value: partition for partition in _partitions_for(code)}
    if len(partitions) == 1:
        return dict.fromkeys(doc_ids, *partitions.values())
    path = _existing(config, _partition_map_path(config, code))
    grouped = read_json(path, lambda raw: {name: Counter(ds) for name, ds in raw.items()})
    partition_of: dict[str, Partition] = {}
    for name, listed in grouped.items():
        if name not in partitions:
            raise _rerun(config, path, f"names partition {name!r}, which {code} does not have")
        for doc_id, count in listed.items():
            if count > 1 or doc_id in partition_of:
                raise _rerun(config, path, f"lists document {doc_id} twice")
            partition_of[doc_id] = partitions[name]
    return partition_of


def _accepted_queries(records) -> tuple[dict[str, str], dict[str, str]]:
    queries: dict[str, str] = {}
    qrels: dict[str, str] = {}
    for record in records:
        if not record.discarded:
            queries[record.query_id] = record.text
            qrels[record.query_id] = record.target_doc_id
    return queries, qrels


def _query_sets(
    config: PipelineConfig, code: str
) -> dict[str, tuple[dict[str, str], dict[str, str]]]:
    """A language's query sets by name, as (texts, qrels): synthetic, then real."""
    sets = {
        name: _accepted_queries(
            read_query_manifest(_existing(config, _generate_path(config, code, name)))
        )
        for _, _, name in _synthetic_sets(code)
    }
    entry = config.language(code)
    if entry.real_queries is not None:
        sets["real"] = (load_queries(entry.real_queries), load_qrels(entry.real_qrels))
    return sets


def _ingest(config: PipelineConfig, stage_dir: Path) -> dict:
    counts = {code: sum(1 for _ in _corpus_file(config, code)) for code in config.corpora}
    return {"document_counts": counts}


def _partition(config: PipelineConfig, stage_dir: Path) -> dict:
    # a language with one partition has nothing to map
    mapped = [entry.code for entry in config.languages if len(_partitions_for(entry.code)) > 1]
    # one pass over each corpus file, keeping ids and English links only
    english = _corpus_file(config, "en").ids() if mapped else None
    counts: dict[str, dict[str, int]] = {}
    for code in mapped:
        mapping = partition_corpus(_corpus_file(config, code), english)
        grouped = {partition.value: [] for partition in _partitions_for(code)}
        for doc_id in sorted(mapping):
            grouped[mapping[doc_id].value].append(doc_id)
        write_json(_partition_map_path(config, code), grouped)
        counts[code] = {name: len(doc_ids) for name, doc_ids in grouped.items()}
    return {"partition_counts": counts}


def _sample(config: PipelineConfig, stage_dir: Path) -> dict:
    if config.domain_mapping is not None:
        mapping = load_domain_mapping(config.domain_mapping)
    else:
        mapping = default_domain_mapping()
    counts: dict[str, dict[str, int]] = {}
    for entry in config.languages:
        corpus = _load_corpus(config, entry.code)
        partition_of = _partition_of(config, entry.code, (doc.doc_id for doc in corpus))
        for doc in corpus:
            if doc.doc_id not in partition_of:
                path = _partition_map_path(config, entry.code)
                raise _rerun(config, path, f"has no partition for document {doc.doc_id}")
        for partition in _partitions_for(entry.code):
            target = (
                config.effective_full_target()
                if partition is Partition.FULL
                else config.target_count
            )
            sampling_config = SamplingConfig(
                target_count=target,
                bucket_count=config.bucket_count,
                domain_ratio=dict(config.domain_ratio),
                seed=config.seed,
            )
            pool = [doc for doc in corpus if partition_of[doc.doc_id] is partition]
            try:
                pool = filter_by_popularity(pool, config.popularity_top_fraction)
                pool = filter_by_length(pool, config.min_chars)
                by_domain: dict = {}
                for doc in pool:
                    by_domain.setdefault(assign_domain(doc, mapping), []).append(doc)
                stratified = {
                    domain: stratify(docs, config.bucket_count)
                    for domain, docs in by_domain.items()
                }
                candidates = sample_candidates(stratified, sampling_config, partition)
            except TotsimError as exc:
                # the same error and text, naming the language and partition it stopped on
                raise type(exc)(f"{entry.code}/{partition.value}: {exc}") from exc
            path = _sample_path(config, entry.code, partition)
            write_candidate_manifest(path, candidates, sampling_config)
            counts[f"{entry.code}-{partition.value}"] = {
                "pool": len(pool),
                "sampled": len(candidates),
            }
    return {"sample_counts": counts, "rng": RNG_ALGORITHM}


def _generate(config: PipelineConfig, stage_dir: Path) -> dict:
    templates = TemplateSet.load(config.templates_dir)
    generator = config.make_generator()
    translator = config.make_translator()
    try:
        english = _load_corpus(config, "en")
        counts: dict[str, dict[str, int]] = {}
        # one memo for the whole run: V1/V2 (and V3/V4, and English full-V1)
        # ask for the same summaries
        summaries: dict[str, str] = {}
        for entry in config.languages:
            # English's corpus is one file, parsed once
            corpus = english if entry.code == "en" else _load_corpus(config, entry.code)
            candidates = {
                partition: read_candidate_manifest(
                    _existing(config, _sample_path(config, entry.code, partition))
                )
                for partition in _partitions_for(entry.code)
            }
            for partition, variation, set_name in _synthetic_sets(entry.code):
                records = generate_batch(
                    candidates[partition],
                    variation,
                    corpus,
                    english,
                    generator,
                    templates,
                    translator=translator,
                    char_budget=config.char_budget,
                    summarize_temperature=config.summarize_temperature,
                    generate_temperature=config.generate_temperature,
                    workers=config.workers,
                    summaries=summaries,
                )
                write_query_manifest(_generate_path(config, entry.code, set_name), records)
                discarded = sum(1 for r in records if r.discarded)
                counts[f"{entry.code}/{set_name}"] = {
                    "accepted": len(records) - discarded,
                    "discarded": discarded,
                }
        entities = sum(sum(c.values()) for c in counts.values())
        logger.info(
            "generate: sent %d summarize requests for %d entities, reused %d summaries",
            len(summaries),
            entities,
            entities - len(summaries),
        )
        return {"generation_counts": counts}
    finally:
        # an HTTP backend's sessions close whether the stage succeeds or fails
        for backend in (generator, translator):
            if hasattr(backend, "close"):
                backend.close()


def _index(config: PipelineConfig, stage_dir: Path) -> dict:
    stats: dict[str, dict[str, int]] = {}
    for entry in config.languages:
        # the build reads the corpus file a line at a time and holds no article
        tokenizer = tokenizer_for_language(entry.code, entry.tokenizer)
        index = build_index(_corpus_file(config, entry.code), tokenizer)
        save_index(index, _index_path(config, entry.code))
        stats[entry.code] = {"documents": index.doc_count, "terms": len(index.terms)}
        # the next language's index is built without this one's
        del index
    return {"index_stats": stats}


def _search(config: PipelineConfig, stage_dir: Path) -> dict:
    pool = default_lexical_pool()
    for entry in config.languages:
        index = load_index(_existing(config, _index_path(config, entry.code)))
        for set_name, (queries, qrels) in sorted(_query_sets(config, entry.code).items()):
            # A qrels query without a text, or a target outside the index,
            # would rank 0 for every system, unseen.  Only the real set reads
            # its texts and qrels from two files, so only it can miss one.
            unasked = sorted(qrels.keys() - queries.keys())
            if unasked:
                raise EvaluationError(
                    f"{entry.real_queries}: {set_name} qrels query {unasked[0]} has no text "
                    f"({len(unasked)} such queries)"
                )
            unjudged = len(queries.keys() - qrels.keys())
            if unjudged:
                logger.warning(
                    "%s: %d %s queries have no qrels line; they are searched but not evaluated",
                    entry.real_qrels, unjudged, set_name,
                )
            for query_id, doc_id in sorted(qrels.items()):
                if index.doc_number(doc_id) is None:
                    source = entry.real_qrels if set_name == "real" else entry.code
                    raise EvaluationError(
                        f"{source}: {set_name} query {query_id} targets {doc_id}, "
                        "which is not an indexed document"
                    )
            paths = [_run_path(config, entry.code, set_name, s.system_id) for s in pool]
            ranks = run_search(pool, queries, index, qrels, paths, depth=config.depth)
            write_rank_file(ranks, _ranks_path(config, entry.code, set_name))
    return {}


def _read_ranks(
    config: PipelineConfig, path: Path, set_name: str, qrels: Mapping[str, str],
    systems: Sequence[str],
) -> dict[str, dict[str, int]]:
    """The rank table at ``path``; it must rank every ``qrels`` query for exactly ``systems``."""
    ranks = read_rank_file(_existing(config, path))
    # the table of a set without queries is empty, so it names no system
    named = sorted(systems) if qrels else []
    if sorted(ranks) != named or any(rows.keys() != qrels.keys() for rows in ranks.values()):
        problem = f"does not cover the {set_name} qrels for exactly the configured systems"
        raise _rerun(config, path, problem)
    return ranks


def _evaluate(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        sets = {name: qrels for name, (_, qrels) in _query_sets(config, entry.code).items()}
        # One parse per external run and language, over every set's queries:
        # its checks run once, and the queries it lacks give one warning.
        # A run ranks each query id once, so that id may not have two targets.
        targets = {query: doc for qrels in sets.values() for query, doc in qrels.items()}
        clash = [q for qrels in sets.values() for q, doc in qrels.items() if targets[q] != doc]
        if clash and entry.external_runs:
            raise ConfigError(f"query {clash[0]} has two targets; an external run needs one")
        runs = sorted(entry.external_runs.items())
        external = {system: load_external_run(path, targets, config.depth) for system, path in runs}
        for set_name, qrels in sorted(sets.items()):
            path = _ranks_path(config, entry.code, set_name)
            ranks = _read_ranks(config, path, set_name, qrels, LEXICAL_IDS)
            for system_id, by_query in external.items():
                ranks[system_id] = {query_id: by_query[query_id] for query_id in qrels}
            write_rank_file(ranks, _pool_ranks_path(config, entry.code, set_name))
    return {}


def _pool_reports(ranks: Mapping[str, Mapping[str, int]]) -> list[MetricReport]:
    """Each system's metric means over the queries of a rank table."""
    return [evaluate_ranks(system_id, by_query) for system_id, by_query in sorted(ranks.items())]


def _real_slices(
    config: PipelineConfig, code: str, qrels: Mapping[str, str]
) -> dict[Partition, dict[str, dict[str, int]]]:
    """The real set's pool ranks that each partition is correlated against.

    With ``slice_real_by_partition``, a partition gets the real queries whose
    target lies in it, or all of them where none does.
    """
    pool = config.language(code).pool
    ranks = _read_ranks(config, _pool_ranks_path(config, code, "real"), "real", qrels, pool)
    if not config.slice_real_by_partition:
        return dict.fromkeys(_partitions_for(code), ranks)
    partition_of = _partition_of(config, code, qrels.values())
    for query_id, doc_id in qrels.items():
        if doc_id not in partition_of:
            raise EvaluationError(
                f"real query {query_id} targets {doc_id}, which is not in the partition map"
            )
    slices = {}
    for partition in _partitions_for(code):
        kept = [query for query, doc_id in qrels.items() if partition_of[doc_id] is partition]
        if not kept:
            logger.warning(
                "%s: using the full real set for the %s partition", code, partition.value
            )
            kept = list(qrels)
        slices[partition] = {
            system_id: {query_id: by_query[query_id] for query_id in kept}
            for system_id, by_query in ranks.items()
        }
    return slices


def _correlation_row(
    partition: Partition, variation: PromptVariation, result: CorrelationResult | None
) -> dict:
    """One table row; every correlation is None when ``result`` is undefined."""
    row: dict = {"partition": partition.value, "variation": variation.value}
    for metric in METRICS:
        row[f"{metric}_tau"] = result.per_metric[metric].tau if result else None
        row[f"{metric}_pearson"] = result.per_metric[metric].pearson if result else None
    row["mean_tau"] = result.mean_tau if result else None
    row["mean_pearson"] = result.mean_pearson if result else None
    return row


def _result_from_row(row: Mapping) -> tuple[tuple[Partition, str], CorrelationResult | None]:
    """A correlation row as ((partition, variation), result); no result when undefined."""
    key = (Partition(row["partition"]), row["variation"])
    if row["mean_tau"] is None:
        return key, None
    return key, CorrelationResult.from_per_metric(
        {
            metric: MetricCorrelation(
                tau=row[f"{metric}_tau"], pearson=row[f"{metric}_pearson"]
            )
            for metric in METRICS
        }
    )


def _correlation_table(rows: Sequence[dict]) -> str:
    """The rows, columns in row order, as a tab-separated table; ``pearson`` heads as ``r``."""
    lines = ["\t".join(key.replace("_pearson", "_r") for key in rows[0])]
    for row in rows:
        cells = (
            value if isinstance(value, str) else f"{float('nan') if value is None else value:.4f}"
            for value in row.values()
        )
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _correlate(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        if entry.real_qrels is None:
            logger.warning(
                "%s has no real query set; skipping correlation", entry.code
            )
            continue
        sets = {name: qrels for name, (_, qrels) in _query_sets(config, entry.code).items()}
        slices = _real_slices(config, entry.code, sets["real"])
        real = {partition: _pool_reports(ranks) for partition, ranks in slices.items()}
        rows: list[dict] = []
        for partition, variation, set_name in _synthetic_sets(entry.code):
            path = _pool_ranks_path(config, entry.code, set_name)
            ranks = _read_ranks(config, path, set_name, sets[set_name], entry.pool)
            synthetic = _pool_reports(ranks)
            where = f"{entry.code}/{partition.value}/{variation.value}"
            result = None
            if not real[partition] or not synthetic:
                side = "synthetic" if real[partition] else "real"
                logger.warning(
                    "%s: the %s set has no queries; its correlations are left undefined",
                    where,
                    side,
                )
            else:
                try:
                    result = correlate(real[partition], synthetic)
                except ConstantVectorError as exc:
                    logger.warning("%s: %s; its correlations are left undefined", where, exc)
            rows.append(_correlation_row(partition, variation, result))
        write_jsonl(_correlations_path(config, entry.code), rows)
        atomic_write_text(stage_dir / f"{entry.code}.txt", _correlation_table(rows))
    return {}


def _select(config: PipelineConfig, stage_dir: Path) -> dict:
    """The best variation per partition among defined correlations; V1 where none is."""
    for entry in config.languages:
        code = entry.code
        layout = _partitions_for(code)
        # a partition with one variation takes it; only a choice reads correlations
        strategy = {p.value: vs[0].value for p, vs in layout.items() if len(vs) == 1}
        choices = [partition for partition, variations in layout.items() if len(variations) > 1]
        correlated = bool(choices) and entry.real_qrels is not None
        if choices and not correlated:
            logger.warning("%s has no correlations; defaulting every partition to V1", code)
        path = _correlations_path(config, code)
        rows = read_jsonl(_existing(config, path), _result_from_row) if correlated else ()
        results = {key: result for key, result in rows if result is not None}
        selected = select_best_strategy(results) if results else {}
        for partition in choices:
            winner = strategy[partition.value] = selected.get(partition, PromptVariation.V1.value)
            means = {v: r.mean_tau for (p, v), r in results.items() if p is partition}
            tied = sorted(v for v, mean in means.items() if mean == means.get(winner))
            if len(tied) > 1:
                logger.warning(
                    "%s/%s: variations %s tie on mean tau %r; the lowest id, %s, is selected",
                    code, partition.value, ", ".join(tied), means[winner], winner,
                )
            elif correlated and partition not in selected:
                logger.warning(
                    "%s: no defined correlation in the %s partition; defaulting to V1",
                    code,
                    partition.value,
                )
        write_json(_strategy_path(config, code), strategy)
    return {}


def _assemble(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        corpus = _load_corpus(config, entry.code)
        path = _existing(config, _strategy_path(config, entry.code))
        strategy_map = read_json(
            path, lambda raw: {Partition(p): PromptVariation(v) for p, v in raw.items()}
        )
        # a partition left out, or given a variation it lacks, would add no queries
        for partition, variations in _partitions_for(entry.code).items():
            if strategy_map.get(partition) not in variations:
                problem = f"names no variation of the {partition.value} partition"
                raise _rerun(config, path, problem)
        candidates = {
            candidate.doc_id: candidate
            for partition in _partitions_for(entry.code)
            for candidate in read_candidate_manifest(
                _existing(config, _sample_path(config, entry.code, partition))
            )
        }
        records = [
            record
            for partition, variation, set_name in _synthetic_sets(entry.code)
            if strategy_map[partition] is variation
            for record in read_query_manifest(
                _existing(config, _generate_path(config, entry.code, set_name))
            )
        ]
        spec = CollectionSpec(
            language=entry.code,
            strategy_map=strategy_map,
            seed=config.seed,
            split_ratio=config.split_ratio,
            domain_ratio=dict(config.domain_ratio),
        )
        bundle = assemble_collection(records, candidates, spec, corpus)
        bundle_dir = stage_dir / entry.code
        write_bundle(bundle, bundle_dir)
        report = validate_collection(bundle, corpus)
        if not report.ok:
            preview = "; ".join(report.violations[:3])
            raise TotsimError(
                f"{entry.code}: collection failed validation with "
                f"{len(report.violations)} violations ({preview})"
            )
        logger.info("%s: collection validated clean", entry.code)
    return {}


# The pipeline, in the order ``totsim pipeline`` runs it.
STAGES: dict[str, Stage] = {
    "ingest": Stage("ingest", _ingest),
    # 2: ``<lang>.json``, the doc ids grouped by partition, in place of a TSV.
    "partition": Stage("partition", _partition, version=2),
    "sample": Stage("sample", _sample),
    "generate": Stage("generate", _generate),
    # the archive's format version; 2 made it one CSR ``.npz`` per language.
    "index": Stage("index", _index, version=INDEX_VERSION),
    # 2: adds ``ranks.tsv`` beside each query set's run files.
    "search": Stage("search", _search, version=2),
    # 2: one ``<set>.ranks.tsv`` per query set, the external runs included,
    # in place of per-set metric reports.
    "evaluate": Stage("evaluate", _evaluate, version=2),
    "correlate": Stage("correlate", _correlate),
    "select": Stage("select", _select),
    "assemble": Stage("collection", _assemble),
}


def _manifest_matches(stage_dir: Path, key: Mapping[str, object]) -> bool:
    # One read and one ``stat`` per listed output: it runs for every stage of a resume.
    directory = os.fspath(stage_dir)
    try:
        # a manifest that is not a JSON object cannot be read either
        manifest = read_json(os.path.join(directory, "manifest.json"), lambda m: dict(m.items()))
    except (OSError, TotsimError):
        return False
    if any(manifest.get(field) != value for field, value in key.items()):
        return False
    outputs = manifest.get("outputs")
    # outputs that are missing or not a list of file names cannot be checked either
    return isinstance(outputs, list) and all(
        isinstance(rel, str) and os.path.exists(os.path.join(directory, rel)) for rel in outputs
    )


def _clear(stage_dir: Path, config: PipelineConfig) -> None:
    """Remove ``stage_dir`` and all in it, unless a configured input lies inside."""
    for path in config.inputs():
        if path.resolve().is_relative_to(stage_dir.resolve()):
            raise ConfigError(f"input {path} lies inside {stage_dir}, which the stage replaces")
    if stage_dir.exists():
        shutil.rmtree(stage_dir)


def run_stage(stage: str, config: PipelineConfig, force: bool = False) -> None:
    """Run one stage, unless its manifest shows its outputs are current."""
    stage_dir = config.output_dir / STAGES[stage].directory
    key = {
        "stage": stage,
        "schema_version": STAGES[stage].version,
        "config_hash": config.content_hash(),
    }
    if not force and _manifest_matches(stage_dir, key):
        logger.info("%s: outputs match current config; skipping (use --force to rerun)", stage)
        return
    _clear(stage_dir, config)
    extra = STAGES[stage].body(config, stage_dir)
    outputs = sorted(
        str(path.relative_to(stage_dir)) for path in stage_dir.rglob("*") if path.is_file()
    )
    write_json(
        stage_dir / "manifest.json", {**key, "seed": config.seed, "outputs": outputs, **extra}
    )


def cmd_pipeline(config: PipelineConfig, force: bool = False) -> None:
    for stage in STAGES:
        run_stage(stage, config, force)


COMMANDS: dict[str, Callable[[PipelineConfig, bool], None]] = {
    **{stage: functools.partial(run_stage, stage) for stage in STAGES},
    "pipeline": cmd_pipeline,
}


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="totsim",
        description="Build and validate simulated tip-of-the-tongue test collections.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command, help=f"run the {command} stage")
        sub.add_argument("--config", required=True, type=Path, help="pipeline YAML config")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
        sub.add_argument("--workers", type=int, default=None, help="override worker count")
        sub.add_argument(
            "--force", action="store_true", help="rerun even if outputs are up to date"
        )
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        config = load_config(args.config, overrides={"seed": args.seed, "workers": args.workers})
        COMMANDS[args.command](config, args.force)
    except (TotsimError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
