"""Pipeline configuration: YAML schema, validation, and content hashing.

A single YAML file drives every subcommand.  Credentials never appear
here; the HTTP backend reads them from the environment.  The config's
content hash is stamped into every stage manifest so reruns can detect
when outputs belong to a different configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .corpus import DEFAULT_MIN_CHARS, DEFAULT_TOP_FRACTION, DomainLabel
from .errors import ConfigError
from .generation import DEFAULT_CHAR_BUDGET, GENERATE_TEMPERATURE, SUMMARIZE_TEMPERATURE
from .providers import (
    CannedResponseProvider,
    ChatProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
    Translator,
)
from .retrieval import DEFAULT_DEPTH
from .sampling import DEFAULT_BUCKET_COUNT, DEFAULT_DOMAIN_RATIO
from .util import read_json, stable_hash

__all__ = [
    "LanguageConfig",
    "PipelineConfig",
    "load_config",
]


@dataclass(frozen=True)
class LanguageConfig:
    """One target language: its corpus, tokenizer, and optional real data."""

    code: str
    corpus: Path
    tokenizer: str | None = None
    real_queries: Path | None = None
    real_qrels: Path | None = None
    external_runs: Mapping[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides credentials."""

    seed: int
    output_dir: Path
    english_corpus: Path | None
    languages: tuple[LanguageConfig, ...]
    popularity_top_fraction: float = DEFAULT_TOP_FRACTION
    min_chars: int = DEFAULT_MIN_CHARS
    domain_mapping: Path | None = None
    bucket_count: int = DEFAULT_BUCKET_COUNT
    target_count: int = 2500
    full_target_count: int | None = None
    domain_ratio: Mapping[DomainLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_RATIO)
    )
    generation_provider: str = "mock"
    generation_model: str = ""
    canned_path: Path | None = None
    char_budget: int = DEFAULT_CHAR_BUDGET
    summarize_temperature: float = SUMMARIZE_TEMPERATURE
    generate_temperature: float = GENERATE_TEMPERATURE
    workers: int = 1
    translation_provider: str = "identity"
    translation_mapping_path: Path | None = None
    depth: int = DEFAULT_DEPTH
    split_ratio: tuple[float, float, float] = (0.8, 0.1, 0.1)
    templates_dir: Path | None = None
    slice_real_by_partition: bool = True
    base_dir: Path = Path(".")

    def language(self, code: str) -> LanguageConfig:
        for entry in self.languages:
            if entry.code == code:
                return entry
        raise ConfigError(f"language {code!r} is not configured")

    def effective_full_target(self) -> int:
        # English full-set collections match the combined size of the two
        # partitions unless overridden.
        return self.full_target_count or 2 * self.target_count

    def content_hash(self) -> str:
        # Where the outputs land, and how many workers write them, does not
        # change what they contain, so neither enters the hash.
        view = self.to_dict()
        del view["output_dir"]
        del view["workers"]
        return stable_hash(view)

    def inputs(self) -> list[Path]:
        """Every file or directory the config names for the pipeline to read."""
        paths = [
            self.english_corpus,
            self.domain_mapping,
            self.canned_path,
            self.translation_mapping_path,
            self.templates_dir,
        ]
        for entry in self.languages:
            paths += [entry.corpus, entry.real_queries, entry.real_qrels]
            paths += entry.external_runs.values()
        return [path for path in paths if path is not None]

    def _portable(self, path: Path | None) -> str | None:
        # Paths are recorded relative to the config file so the hash (and
        # with it stage skipping) survives moving the whole tree.
        if path is None:
            return None
        return os.path.relpath(path, self.base_dir)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "output_dir": self._portable(self.output_dir),
            "english_corpus": self._portable(self.english_corpus),
            "languages": [
                {
                    "code": entry.code,
                    "corpus": self._portable(entry.corpus),
                    "tokenizer": entry.tokenizer,
                    "real_queries": self._portable(entry.real_queries),
                    "real_qrels": self._portable(entry.real_qrels),
                    "external_runs": {
                        name: self._portable(path)
                        for name, path in sorted(entry.external_runs.items())
                    },
                }
                for entry in self.languages
            ],
            "popularity_top_fraction": self.popularity_top_fraction,
            "min_chars": self.min_chars,
            "domain_mapping": self._portable(self.domain_mapping),
            "bucket_count": self.bucket_count,
            "target_count": self.target_count,
            "full_target_count": self.full_target_count,
            "domain_ratio": {d.value: r for d, r in sorted(self.domain_ratio.items())},
            "generation_provider": self.generation_provider,
            "generation_model": self.generation_model,
            "canned_path": self._portable(self.canned_path),
            "char_budget": self.char_budget,
            "summarize_temperature": self.summarize_temperature,
            "generate_temperature": self.generate_temperature,
            "workers": self.workers,
            "translation_provider": self.translation_provider,
            "translation_mapping_path": self._portable(self.translation_mapping_path),
            "depth": self.depth,
            "split_ratio": list(self.split_ratio),
            "templates_dir": self._portable(self.templates_dir),
            "slice_real_by_partition": self.slice_real_by_partition,
        }

    def make_generator(self) -> ChatProvider:
        if self.generation_provider == "mock":
            return DeterministicMockProvider()
        if self.generation_provider == "canned":
            if self.canned_path is None:
                raise ConfigError("generation.provider 'canned' needs generation.canned_path")
            return CannedResponseProvider(self.canned_path)
        if self.generation_provider == "http":
            if not self.generation_model:
                raise ConfigError("generation.provider 'http' needs generation.model")
            return HttpChatProvider(self.generation_model)
        raise ConfigError(f"unknown generation provider {self.generation_provider!r}")

    def make_translator(self) -> Translator:
        if self.translation_provider == "identity":
            return IdentityTranslator()
        if self.translation_provider == "mapping":
            if self.translation_mapping_path is None:
                raise ConfigError("translation.provider 'mapping' needs translation.mapping_path")
            raw = read_json(self.translation_mapping_path)
            if not isinstance(raw, dict):
                raise ConfigError(f"{self.translation_mapping_path}: expected a JSON object")
            return MappingTranslator(raw)
        if self.translation_provider == "http":
            if not self.generation_model:
                raise ConfigError("translation.provider 'http' needs generation.model")
            return ChatTranslator(HttpChatProvider(self.generation_model))
        raise ConfigError(f"unknown translation provider {self.translation_provider!r}")


def _require(raw: Mapping, key: str, where: str) -> Any:
    if key not in raw:
        raise ConfigError(f"missing config key {where}{key}")
    return raw[key]


def _as_path(base: Path, value: Any) -> Path:
    path = Path(str(value))
    if not path.is_absolute():
        path = base / path
    return path


def load_config(path: Path | str, overrides: Mapping[str, Any] | None = None) -> PipelineConfig:
    """Parse and validate a YAML config file.

    Relative paths inside the file resolve against the file's directory.
    ``overrides`` replaces top-level scalar values (used for command line
    flags like ``--seed``).
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    base = path.parent

    seed = _require(raw, "seed", "")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    output_dir = _as_path(base, _require(raw, "output_dir", ""))

    english_corpus = raw.get("english_corpus")
    english_path = _as_path(base, english_corpus) if english_corpus else None

    languages_raw = _require(raw, "languages", "")
    if not isinstance(languages_raw, dict) or not languages_raw:
        raise ConfigError("languages must be a non-empty mapping of code to settings")
    languages = []
    for code in sorted(languages_raw):
        entry = languages_raw[code]
        if not isinstance(entry, dict):
            raise ConfigError(f"languages.{code} must be a mapping")
        corpus = _as_path(base, _require(entry, "corpus", f"languages.{code}."))
        real_queries = entry.get("real_queries")
        real_qrels = entry.get("real_qrels")
        if (real_queries is None) != (real_qrels is None):
            raise ConfigError(
                f"languages.{code}: real_queries and real_qrels must be given together"
            )
        tokenizer = entry.get("tokenizer")
        if tokenizer is not None and tokenizer not in ("whitespace", "cjk-ngram"):
            raise ConfigError(
                f"languages.{code}: tokenizer must be 'whitespace' or 'cjk-ngram'"
            )
        external_raw = entry.get("external_runs", {})
        if not isinstance(external_raw, dict):
            raise ConfigError(
                f"languages.{code}: external_runs must map system ids to run files"
            )
        languages.append(
            LanguageConfig(
                code=code,
                corpus=corpus,
                tokenizer=tokenizer,
                real_queries=_as_path(base, real_queries) if real_queries else None,
                real_qrels=_as_path(base, real_qrels) if real_qrels else None,
                external_runs={
                    str(name): _as_path(base, run_path)
                    for name, run_path in sorted(external_raw.items())
                },
            )
        )
    if any(entry.code != "en" for entry in languages) and english_path is None:
        raise ConfigError("missing config key english_corpus (needed for non-English languages)")

    filters = raw.get("corpus_filters", {})
    sampling = raw.get("sampling", {})
    generation = raw.get("generation", {})
    translation = raw.get("translation", {})
    retrieval = raw.get("retrieval", {})
    collection = raw.get("collection", {})
    for section_name, section in (
        ("corpus_filters", filters),
        ("sampling", sampling),
        ("generation", generation),
        ("translation", translation),
        ("retrieval", retrieval),
        ("collection", collection),
    ):
        if not isinstance(section, dict):
            raise ConfigError(f"{section_name} must be a mapping")

    ratio_raw = sampling.get("domain_ratio")
    if ratio_raw is None:
        domain_ratio = dict(DEFAULT_DOMAIN_RATIO)
    else:
        try:
            domain_ratio = {DomainLabel(name): float(r) for name, r in ratio_raw.items()}
        except ValueError as exc:
            raise ConfigError(f"sampling.domain_ratio: {exc}") from exc

    split_raw = collection.get("split_ratio", [0.8, 0.1, 0.1])
    if not isinstance(split_raw, (list, tuple)) or len(split_raw) != 3:
        raise ConfigError("collection.split_ratio must be a list of three numbers")

    mapping_path = raw.get("domain_mapping")
    templates_dir = raw.get("templates_dir")
    canned = generation.get("canned_path")
    translation_mapping = translation.get("mapping_path")

    return PipelineConfig(
        seed=seed,
        output_dir=output_dir,
        english_corpus=english_path,
        languages=tuple(languages),
        popularity_top_fraction=float(filters.get("popularity_top_fraction", DEFAULT_TOP_FRACTION)),
        min_chars=int(filters.get("min_chars", DEFAULT_MIN_CHARS)),
        domain_mapping=_as_path(base, mapping_path) if mapping_path else None,
        bucket_count=int(sampling.get("bucket_count", DEFAULT_BUCKET_COUNT)),
        target_count=int(sampling.get("target_count", 2500)),
        full_target_count=(
            int(sampling["full_target_count"]) if sampling.get("full_target_count") else None
        ),
        domain_ratio=domain_ratio,
        generation_provider=str(generation.get("provider", "mock")),
        generation_model=str(generation.get("model", "")),
        canned_path=_as_path(base, canned) if canned else None,
        char_budget=int(generation.get("char_budget", DEFAULT_CHAR_BUDGET)),
        summarize_temperature=float(generation.get("summarize_temperature", SUMMARIZE_TEMPERATURE)),
        generate_temperature=float(generation.get("generate_temperature", GENERATE_TEMPERATURE)),
        workers=int(raw.get("workers", 1)),
        translation_provider=str(translation.get("provider", "identity")),
        translation_mapping_path=(
            _as_path(base, translation_mapping) if translation_mapping else None
        ),
        depth=int(retrieval.get("depth", DEFAULT_DEPTH)),
        split_ratio=tuple(float(r) for r in split_raw),
        templates_dir=_as_path(base, templates_dir) if templates_dir else None,
        slice_real_by_partition=bool(raw.get("slice_real_by_partition", True)),
        base_dir=base,
    )
