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
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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
    target_ranks,
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
    Tokenizer,
    build_index,
    default_lexical_pool,
    load_external_run,
    load_index,
    run_search,
    save_index,
    tokenizer_for_language,
    write_run_file,
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
    return _artifact(config, "partition", f"{code}.tsv")


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


def _report_path(config: PipelineConfig, code: str, set_name: str) -> Path:
    return _artifact(config, "evaluate", code, f"{set_name}.jsonl")


def _correlations_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "correlate", f"{code}.jsonl")


def _strategy_path(config: PipelineConfig, code: str) -> Path:
    return _artifact(config, "select", f"{code}.json")


def _existing(config: PipelineConfig, path: Path) -> Path:
    """``path``, which an earlier stage wrote; if it is missing, name that stage."""
    if not path.exists():
        directory = path.relative_to(config.output_dir).parts[0]
        producer = next(name for name, stage in STAGES.items() if stage.directory == directory)
        raise ConfigError(f"missing {path}; run 'totsim {producer}' first")
    return path


def _load_corpus(config: PipelineConfig, code: str) -> Corpus:
    return ingest_corpus(config.language(code).corpus, code)


def _load_english(config: PipelineConfig) -> Corpus | None:
    if config.english_corpus is None:
        return None
    return ingest_corpus(config.english_corpus, "en")


def _partitions_for(code: str) -> tuple[Partition, ...]:
    if code == "en":
        return (Partition.FULL,)
    return (Partition.MONOLINGUAL, Partition.BILINGUAL)


def _synthetic_sets(code: str) -> Iterator[tuple[Partition, PromptVariation, str]]:
    """A language's synthetic query sets as (partition, variation, set name)."""
    for partition in _partitions_for(code):
        # English is its own source language, so the translated-prompt and
        # English-article axes collapse to plain V1.
        if code == "en":
            variations: tuple[PromptVariation, ...] = (PromptVariation.V1,)
        else:
            variations = PromptVariation.for_partition(partition)
        for variation in variations:
            yield partition, variation, f"{partition.value}-{variation.value}"


def _real_slice_name(partition: Partition) -> str:
    return f"real-{partition.value}"


def _read_partition_map(path: Path) -> dict[str, Partition]:
    mapping: dict[str, Partition] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{path.name} line {line_no}: expected 'doc_id<TAB>partition'")
            mapping[parts[0]] = Partition(parts[1])
    return mapping


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
    counts: dict[str, int] = {}
    for entry in config.languages:
        corpus = ingest_corpus(entry.corpus, entry.code)
        counts[entry.code] = len(corpus)
    if config.english_corpus is not None and "en" not in counts:
        counts["en"] = len(ingest_corpus(config.english_corpus, "en"))
    return {"document_counts": counts}


def _partition(config: PipelineConfig, stage_dir: Path) -> dict:
    english = _load_english(config)
    counts: dict[str, dict[str, int]] = {}
    for entry in config.languages:
        if entry.code == "en":
            continue
        if english is None:
            raise ConfigError("missing config key english_corpus (needed for partitioning)")
        corpus = _load_corpus(config, entry.code)
        mapping = partition_corpus(corpus, english)
        atomic_write_text(
            _partition_map_path(config, entry.code),
            "".join(f"{doc_id}\t{mapping[doc_id].value}\n" for doc_id in sorted(mapping)),
        )
        counts[entry.code] = dict(Counter(partition.value for partition in mapping.values()))
    return {"partition_counts": counts}


def _sample(config: PipelineConfig, stage_dir: Path) -> dict:
    if config.domain_mapping is not None:
        mapping = load_domain_mapping(config.domain_mapping)
    else:
        mapping = default_domain_mapping()
    counts: dict[str, dict[str, int]] = {}
    for entry in config.languages:
        corpus = _load_corpus(config, entry.code)
        if entry.code == "en":
            partition_of = {doc.doc_id: Partition.FULL for doc in corpus}
        else:
            partition_of = _read_partition_map(
                _existing(config, _partition_map_path(config, entry.code))
            )
        for partition in _partitions_for(entry.code):
            pool = [doc for doc in corpus if partition_of[doc.doc_id] is partition]
            pool = filter_by_popularity(pool, config.popularity_top_fraction)
            pool = filter_by_length(pool, config.min_chars)
            by_domain: dict = {}
            for doc in pool:
                by_domain.setdefault(assign_domain(doc, mapping), []).append(doc)
            stratified = {
                domain: stratify(docs, config.bucket_count)
                for domain, docs in by_domain.items()
            }
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
            candidates = sample_candidates(stratified, sampling_config, partition)
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
    english = _load_english(config)
    counts: dict[str, dict[str, int]] = {}
    # one memo for the whole run: V1/V2 (and V3/V4, and English full-V1)
    # ask for the same summaries
    summaries: dict[str, str] = {}
    for entry in config.languages:
        if (entry.code, entry.corpus) == ("en", config.english_corpus):
            corpus = english  # the same file, parsed once
        else:
            corpus = _load_corpus(config, entry.code)
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


def _index(config: PipelineConfig, stage_dir: Path) -> dict:
    stats: dict[str, dict[str, int]] = {}
    for entry in config.languages:
        corpus = _load_corpus(config, entry.code)
        if entry.tokenizer is not None:
            tokenizer = Tokenizer(mode=entry.tokenizer)
        else:
            tokenizer = tokenizer_for_language(entry.code)
        index = build_index(corpus, tokenizer)
        save_index(index, _index_path(config, entry.code))
        stats[entry.code] = {"documents": index.doc_count, "terms": len(index.terms)}
    return {"index_stats": stats}


def _search(config: PipelineConfig, stage_dir: Path) -> dict:
    pool = default_lexical_pool()
    for entry in config.languages:
        index = load_index(_existing(config, _index_path(config, entry.code)))
        for set_name, (queries, qrels) in sorted(_query_sets(config, entry.code).items()):
            runs = run_search(pool, queries, index, depth=config.depth)
            for run in runs:
                write_run_file(run, _run_path(config, entry.code, set_name, run.system_id))
            ranks = {run.system_id: run.target_ranks(qrels) for run in runs}
            write_rank_file(ranks, _ranks_path(config, entry.code, set_name))
    return {}


def _lexical_ranks(
    config: PipelineConfig, code: str, set_name: str, qrels: Mapping[str, str]
) -> dict[str, dict[str, int]]:
    """The lexical pool's target rank per query of one set, as ``search`` recorded it."""
    path = _existing(config, _ranks_path(config, code, set_name))
    ranks = read_rank_file(path)
    expected = sorted(qrels)
    lexical = sorted(system.system_id for system in default_lexical_pool())
    if sorted(ranks) != lexical or any(sorted(by_query) != expected for by_query in ranks.values()):
        raise ConfigError(
            f"{path} does not cover this query set and system pool; run 'totsim search --force'"
        )
    return ranks


def _write_reports(
    path: Path, ranks: Mapping[str, Mapping[str, int]], query_ids: Sequence[str]
) -> None:
    """Score every system in ``ranks`` over ``query_ids`` into one report file."""
    reports = (
        evaluate_ranks(system_id, {query_id: by_query[query_id] for query_id in query_ids})
        for system_id, by_query in sorted(ranks.items())
    )
    write_jsonl(path, (report.to_dict() for report in reports))


def _read_reports(path: Path) -> list[MetricReport]:
    return [MetricReport.from_dict(row) for row in read_jsonl(path)]


def _evaluate(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        sets = {name: qrels for name, (_, qrels) in _query_sets(config, entry.code).items()}
        # One parse per external run and language, over every set's queries:
        # its checks run once, and the queries it lacks give one warning.
        expected = set().union(*sets.values())
        external = {
            system_id: load_external_run(
                entry.external_runs[system_id], expected, depth=config.depth, system_id=system_id
            )
            for system_id in sorted(entry.external_runs)
        }
        for set_name, qrels in sorted(sets.items()):
            if not qrels:
                logger.warning("%s/%s has no queries; skipping evaluation", entry.code, set_name)
                continue
            ranks = _lexical_ranks(config, entry.code, set_name, qrels)
            for system_id, run in external.items():
                ranks[system_id] = target_ranks(run, qrels)
            _write_reports(_report_path(config, entry.code, set_name), ranks, sorted(qrels))
            if set_name == "real" and entry.code != "en" and config.slice_real_by_partition:
                _write_real_slices(config, entry.code, qrels, ranks)
    return {}


def _write_real_slices(
    config: PipelineConfig,
    code: str,
    qrels: Mapping[str, str],
    ranks: Mapping[str, Mapping[str, int]],
) -> None:
    """Report the real set once per partition, over the queries whose target is in it."""
    partition_of = _read_partition_map(_existing(config, _partition_map_path(config, code)))
    for partition in _partitions_for(code):
        kept = [
            query_id for query_id, doc_id in qrels.items()
            if _real_partition(query_id, doc_id, partition_of) is partition
        ]
        if not kept:
            logger.warning(
                "%s: no real queries fall in the %s partition; correlation there "
                "will fall back to the full real set",
                code,
                partition.value,
            )
            continue
        _write_reports(_report_path(config, code, _real_slice_name(partition)), ranks, kept)


def _real_partition(
    query_id: str, doc_id: str, partition_of: Mapping[str, Partition]
) -> Partition:
    partition = partition_of.get(doc_id)
    if partition is None:
        raise EvaluationError(
            f"real query {query_id} targets {doc_id}, which is not in the partition map"
        )
    return partition


def _real_reports(config: PipelineConfig, code: str, partition: Partition) -> list[MetricReport]:
    sliced_path = _report_path(config, code, _real_slice_name(partition))
    if partition is not Partition.FULL and sliced_path.exists():
        return _read_reports(sliced_path)
    if partition is not Partition.FULL:
        logger.warning("%s: using the full real set for the %s partition", code, partition.value)
    return _read_reports(_existing(config, _report_path(config, code, "real")))


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


def _result_from_row(row: Mapping) -> CorrelationResult:
    return CorrelationResult.from_per_metric(
        {
            metric: MetricCorrelation(
                tau=row[f"{metric}_tau"], pearson=row[f"{metric}_pearson"]
            )
            for metric in METRICS
        }
    )


def _correlation_table(rows: Sequence[dict]) -> str:
    headers = ["partition", "variation"]
    for metric in METRICS:
        headers.extend([f"{metric}_tau", f"{metric}_r"])
    headers.extend(["mean_tau", "mean_r"])
    lines = ["\t".join(headers)]
    for row in rows:
        values = [row[f"{metric}_{kind}"] for metric in METRICS for kind in ("tau", "pearson")]
        values.extend([row["mean_tau"], row["mean_pearson"]])
        cells = [row["partition"], row["variation"]]
        cells.extend(f"{float('nan') if value is None else value:.4f}" for value in values)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _correlate(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        if entry.real_qrels is None:
            logger.warning(
                "%s has no real query set; skipping correlation", entry.code
            )
            continue
        real_reports = {
            partition: _real_reports(config, entry.code, partition)
            for partition in _partitions_for(entry.code)
        }
        rows: list[dict] = []
        for partition, variation, set_name in _synthetic_sets(entry.code):
            synthetic_path = _existing(config, _report_path(config, entry.code, set_name))
            try:
                result = correlate(real_reports[partition], _read_reports(synthetic_path))
            except ConstantVectorError as exc:
                logger.warning(
                    "%s/%s/%s: %s; its correlations are left undefined",
                    entry.code,
                    partition.value,
                    variation.value,
                    exc,
                )
                result = None
            rows.append(_correlation_row(partition, variation, result))
        write_jsonl(_correlations_path(config, entry.code), rows)
        atomic_write_text(stage_dir / f"{entry.code}.txt", _correlation_table(rows))
    return {}


def _selected_variations(config: PipelineConfig, code: str) -> dict[Partition, str]:
    """The best variation per partition among defined correlations; V1 where none is."""
    results = {
        (Partition(row["partition"]), row["variation"]): _result_from_row(row)
        for row in read_jsonl(_existing(config, _correlations_path(config, code)))
        if row["mean_tau"] is not None
    }
    selected = select_best_strategy(results) if results else {}
    for partition, winner in selected.items():
        best = results[partition, winner].mean_tau
        tied = sorted(v for (p, v), r in results.items() if p is partition and r.mean_tau == best)
        if len(tied) > 1:
            logger.warning(
                "%s/%s: variations %s tie on mean tau %r; the lowest id, %s, is selected",
                code, partition.value, ", ".join(tied), best, winner,
            )
    for partition in _partitions_for(code):
        if partition not in selected:
            logger.warning(
                "%s: no defined correlation in the %s partition; defaulting to V1",
                code,
                partition.value,
            )
            selected[partition] = PromptVariation.V1.value
    return selected


def _select(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        selected: dict[Partition, str] = {}
        if entry.code != "en" and entry.real_qrels is None:
            logger.warning(
                "%s has no correlations; defaulting every partition to V1", entry.code
            )
        elif entry.code != "en":
            selected = _selected_variations(config, entry.code)
        strategy = {
            partition.value: selected.get(partition, PromptVariation.V1.value)
            for partition in _partitions_for(entry.code)
        }
        write_json(_strategy_path(config, entry.code), strategy)
    return {}


def _assemble(config: PipelineConfig, stage_dir: Path) -> dict:
    for entry in config.languages:
        corpus = _load_corpus(config, entry.code)
        strategy_raw = read_json(_existing(config, _strategy_path(config, entry.code)))
        strategy_map = {
            Partition(partition): PromptVariation(variation)
            for partition, variation in strategy_raw.items()
        }
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
    "partition": Stage("partition", _partition),
    "sample": Stage("sample", _sample),
    "generate": Stage("generate", _generate),
    # 2: one CSR ``.npz`` archive per language.
    "index": Stage("index", _index, version=2),
    # 2: adds ``ranks.tsv`` beside each query set's run files.
    "search": Stage("search", _search, version=2),
    "evaluate": Stage("evaluate", _evaluate),
    "correlate": Stage("correlate", _correlate),
    "select": Stage("select", _select),
    "assemble": Stage("collection", _assemble),
}


def _manifest_matches(stage_dir: Path, key: Mapping[str, object]) -> bool:
    # One read and one ``stat`` per listed output: it runs for every stage of a resume.
    directory = os.fspath(stage_dir)
    try:
        manifest = read_json(os.path.join(directory, "manifest.json"))
    except (OSError, ValueError):
        return False
    if any(manifest.get(field) != value for field, value in key.items()):
        return False
    return all(os.path.exists(os.path.join(directory, rel)) for rel in manifest.get("outputs", []))


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
