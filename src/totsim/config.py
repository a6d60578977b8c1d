"""Pipeline configuration: YAML schema, validation, and content hashing.

One YAML file drives every subcommand; credentials never appear in it.  Each
accepted key is one entry of :data:`KEYS`, or of :data:`LANGUAGE_KEYS` under
``languages.<code>``: the field it sets and the :class:`Kind` that reads,
hashes and lists it.  Loading, ``content_hash`` (stamped into every stage
manifest) and ``inputs`` walk these tables.  Defaults live on the dataclasses;
null keeps one.  An unknown key or unreadable value is a :class:`ConfigError`.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import yaml

from . import providers
from .collection import check_split_ratio
from .corpus import DEFAULT_MIN_CHARS, DEFAULT_TOP_FRACTION, DomainLabel
from .errors import CollectionError, ConfigError
from .generation import DEFAULT_CHAR_BUDGET, GENERATE_TEMPERATURE, SUMMARIZE_TEMPERATURE
from .retrieval import DEFAULT_DEPTH, MODE_CJK_NGRAM, MODE_WHITESPACE
from .sampling import DEFAULT_BUCKET_COUNT, DEFAULT_DOMAIN_RATIO
from .util import read_json, stable_hash

__all__ = ["KEYS", "LANGUAGE_KEYS", "Kind", "LanguageConfig", "PipelineConfig", "load_config"]


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
    languages: tuple[LanguageConfig, ...]
    english_corpus: Path | None = None
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
        return self._content_hash

    # Frozen, so hashed once per instance; ``dataclasses.replace`` makes a new one.
    @functools.cached_property
    def _content_hash(self) -> str:
        return stable_hash(_view(self, KEYS, self.base_dir))

    def inputs(self) -> list[Path]:
        """Every file or directory the config names for the pipeline to read."""
        return [path for path in _inputs(self, KEYS) if path is not None]

    def make_generator(self) -> providers.ChatProvider:
        if self.generation_provider == "mock":
            return providers.DeterministicMockProvider()
        if self.generation_provider == "canned":
            if self.canned_path is None:
                raise ConfigError("generation.provider 'canned' needs generation.canned_path")
            return providers.CannedResponseProvider(self.canned_path)
        if self.generation_provider == "http":
            if not self.generation_model:
                raise ConfigError("generation.provider 'http' needs generation.model")
            return providers.HttpChatProvider(self.generation_model)
        raise ConfigError(f"unknown generation provider {self.generation_provider!r}")

    def make_translator(self) -> providers.Translator:
        if self.translation_provider == "identity":
            return providers.IdentityTranslator()
        if self.translation_provider == "mapping":
            if self.translation_mapping_path is None:
                raise ConfigError("translation.provider 'mapping' needs translation.mapping_path")
            raw = read_json(self.translation_mapping_path)
            if not isinstance(raw, dict):
                raise ConfigError(f"{self.translation_mapping_path}: expected a JSON object")
            return providers.MappingTranslator(raw)
        if self.translation_provider == "http":
            if not self.generation_model:
                raise ConfigError("translation.provider 'http' needs generation.model")
            return providers.ChatTranslator(providers.HttpChatProvider(self.generation_model))
        raise ConfigError(f"unknown translation provider {self.translation_provider!r}")


class Kind(NamedTuple):
    """How a value is read (dotted key, YAML value, config dir), hashed and listed as input."""

    read: Callable[[str, Any, Path], Any]
    show: Callable[[Any, Path], Any] | None = lambda value, base: value  # None: not hashed
    inputs: Callable[[Any], Iterable[Path | None]] = lambda value: ()


def _scalar(kind: type, name: str) -> Callable[[str, Any, Path], Any]:
    def read(key: str, value: Any, base: Path) -> Any:
        # YAML reads yes/no as booleans: only a flag takes one, and a flag nothing else.
        # A number is read from a number only, and an integer from a whole one.
        number = isinstance(value, int) or (
            isinstance(value, float) and (kind is float or value.is_integer())
        )
        if isinstance(value, bool) == (kind is bool) and (
            number if kind in (int, float) else not isinstance(value, (dict, list))
        ):
            try:
                return kind(value)
            except (TypeError, ValueError, OverflowError):
                pass
        raise ConfigError(f"{key} must be {name}, got {value!r}")

    return read


def _choice(*options: str) -> Callable[[str, Any, Path], str]:
    def read(key: str, value: Any, base: Path) -> str:
        if value not in options:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, options))}")
        return value

    return read


def _path(key: str, value: Any, base: Path) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return base / value  # an absolute value replaces ``base``


def _relative(path: Path | None, base: Path) -> str | None:
    # Relative to the config file, so moving the whole tree keeps the hash.
    return None if path is None else os.path.relpath(path, base)


def _runs(key: str, value: Any, base: Path) -> dict[str, Path]:
    if not isinstance(value, dict) or not all(isinstance(name, str) for name in value):
        raise ConfigError(f"{key} must map system id strings to run files")
    return {name: _path(f"{key}.{name}", run, base) for name, run in sorted(value.items())}


def _domain_ratio(key: str, value: Any, base: Path) -> dict[DomainLabel, float]:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must map domain labels to shares")
    try:
        return {DomainLabel(d): _NUMBER.read(f"{key}.{d}", r, base) for d, r in value.items()}
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _split_ratio(key: str, value: Any, base: Path) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key} must be a list of three numbers")
    ratio = tuple(_NUMBER.read(f"{key}[{i}]", r, base) for i, r in enumerate(value))
    try:
        check_split_ratio(ratio)
    except CollectionError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return ratio


def _languages(key: str, value: Any, base: Path) -> tuple[LanguageConfig, ...]:
    if not isinstance(value, dict) or not value or not all(isinstance(c, str) for c in value):
        raise ConfigError(f"{key} must be a non-empty mapping of code strings to settings")
    languages = []
    for code in sorted(value):
        where = f"{key}.{code}"
        settings = _settings(value[code], LANGUAGE_KEYS, where, base, required=("corpus",))
        if ("real_queries" in settings) != ("real_qrels" in settings):
            raise ConfigError(f"{where}: real_queries and real_qrels must be given together")
        languages.append(LanguageConfig(code=code, **settings))
    return tuple(languages)


Table = Mapping[str, tuple[str, Kind]]  # dotted key -> (field it sets, kind of value)

_INT = Kind(_scalar(int, "an integer"))
_NUMBER = Kind(_scalar(float, "a number"))
_TEXT = Kind(_scalar(str, "a string"))
_INPUT = Kind(_path, _relative, lambda path: [path])
_RUNS = Kind(
    _runs, lambda runs, base: {name: _relative(p, base) for name, p in runs.items()}, dict.values
)
_LANGUAGES = Kind(
    _languages,
    lambda langs, base: [{"code": e.code, **_view(e, LANGUAGE_KEYS, base)} for e in langs],
    lambda langs: [path for e in langs for path in _inputs(e, LANGUAGE_KEYS)],
)

# Each ``languages.<code>`` key -> (LanguageConfig field, kind).
LANGUAGE_KEYS: Table = {
    "corpus": ("corpus", _INPUT),
    "tokenizer": ("tokenizer", Kind(_choice(MODE_WHITESPACE, MODE_CJK_NGRAM))),
    "real_queries": ("real_queries", _INPUT),
    "real_qrels": ("real_qrels", _INPUT),
    "external_runs": ("external_runs", _RUNS),
}

# Every other accepted dotted key -> (PipelineConfig field, kind).
KEYS: Table = {
    "seed": ("seed", _INT),
    # Neither where the outputs land nor how many workers write them is hashed.
    "output_dir": ("output_dir", Kind(_path, show=None)),
    "workers": ("workers", Kind(_INT.read, show=None)),
    "english_corpus": ("english_corpus", _INPUT),
    "languages": ("languages", _LANGUAGES),
    "domain_mapping": ("domain_mapping", _INPUT),
    "templates_dir": ("templates_dir", _INPUT),
    "slice_real_by_partition": ("slice_real_by_partition", Kind(_scalar(bool, "true or false"))),
    "corpus_filters.popularity_top_fraction": ("popularity_top_fraction", _NUMBER),
    "corpus_filters.min_chars": ("min_chars", _INT),
    "sampling.bucket_count": ("bucket_count", _INT),
    "sampling.target_count": ("target_count", _INT),
    "sampling.full_target_count": ("full_target_count", _INT),
    "sampling.domain_ratio": ("domain_ratio", Kind(_domain_ratio)),
    "generation.provider": ("generation_provider", Kind(_choice("mock", "canned", "http"))),
    "generation.model": ("generation_model", _TEXT),
    "generation.canned_path": ("canned_path", _INPUT),
    "generation.char_budget": ("char_budget", _INT),
    "generation.summarize_temperature": ("summarize_temperature", _NUMBER),
    "generation.generate_temperature": ("generate_temperature", _NUMBER),
    "translation.provider": ("translation_provider", Kind(_choice("identity", "mapping", "http"))),
    "translation.mapping_path": ("translation_mapping_path", _INPUT),
    "retrieval.depth": ("depth", _INT),
    "collection.split_ratio": ("split_ratio", Kind(_split_ratio)),
}


def _view(obj: Any, table: Table, base: Path) -> dict[str, Any]:
    return {name: kind.show(getattr(obj, name), base) for name, kind in table.values() if kind.show}


def _inputs(obj: Any, table: Table) -> list[Path | None]:
    return [path for name, kind in table.values() for path in kind.inputs(getattr(obj, name))]


def _settings(raw: Any, table: Table, where: str, base: Path, required: Iterable[str]) -> dict:
    """The fields ``raw`` sets through ``table``, read; ``where`` is the dotted prefix."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    prefix = f"{where}." if where else ""
    sections = {key.split(".")[0] for key in table if "." in key}
    values: dict[str, Any] = {}
    for name, value in raw.items():
        items = [(name, value)]
        if name in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{name} must be a mapping")
            items = [(f"{name}.{sub}", sub_value) for sub, sub_value in value.items()]
        for key, item in items:
            if key not in table:
                raise ConfigError(f"unknown config key {prefix}{key}")
            if item is not None:
                field_name, kind = table[key]
                values[field_name] = kind.read(prefix + key, item, base)
    for key in required:
        if table[key][0] not in values:
            raise ConfigError(f"missing config key {prefix}{key}")
    return values


# libyaml, where PyYAML was built with it, parses about eight times faster than
# the pure-Python loader; both use the same safe resolver and constructor.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _parse(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        try:
            return yaml.load(handle, Loader=_LOADER)
        except yaml.YAMLError:
            # libyaml words its errors differently: the pure-Python loader reports them
            handle.seek(0)
            return yaml.load(handle, Loader=yaml.SafeLoader)


def load_config(path: Path | str, overrides: Mapping[str, Any] | None = None) -> PipelineConfig:
    """Parse and validate a YAML config file; relative paths resolve against its directory.

    ``overrides`` replaces top-level values (command line flags like ``--seed``).
    """
    path = Path(path)
    try:
        raw = _parse(path)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    settings = _settings(raw, KEYS, "", path.parent, required=("seed", "output_dir", "languages"))
    config = PipelineConfig(**settings, base_dir=path.parent)
    if config.english_corpus is None and any(e.code != "en" for e in config.languages):
        raise ConfigError("missing config key english_corpus (needed for non-English languages)")
    return config
