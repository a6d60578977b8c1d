"""Pipeline configuration: YAML schema, validation, and content hashing.

One YAML file drives every subcommand; credentials never appear in it.  Each
accepted key is declared once, on the field it sets: its dotted name, the
:class:`Kind` that reads, hashes and lists it, and its default (null keeps it).
:data:`KEYS` and, under ``languages.<code>``, :data:`LANGUAGE_KEYS` are derived
from those fields; loading, ``content_hash`` (stamped into every stage manifest)
and ``inputs`` walk them.  An unknown key, an unreadable value, a backend
without the key it needs or a second English corpus is a :class:`ConfigError` at load.
"""

from __future__ import annotations

import functools
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import yaml

from . import providers
from .collection import DEFAULT_SPLIT_RATIO, check_split_ratio
from .corpus import DEFAULT_MIN_CHARS, DEFAULT_TOP_FRACTION, DomainLabel
from .errors import CollectionError, ConfigError, SamplingError
from .generation import DEFAULT_CHAR_BUDGET, GENERATE_TEMPERATURE, SUMMARIZE_TEMPERATURE
from .retrieval import DEFAULT_DEPTH, LEXICAL_IDS, MODE_CJK_NGRAM, MODE_WHITESPACE
from .sampling import DEFAULT_BUCKET_COUNT, DEFAULT_DOMAIN_RATIO, check_domain_ratio
from .util import open_text, stable_hash

__all__ = ["KEYS", "LANGUAGE_KEYS", "Kind", "LanguageConfig", "PipelineConfig", "load_config"]


class Kind(NamedTuple):
    """How a value is read (dotted key, YAML value, config dir), hashed and listed as input."""

    read: Callable[[str, Any, Path], Any]
    show: Callable[[Any, Path], Any] | None = lambda value, base: value  # None: not hashed
    inputs: Callable[[Any], Iterable[Path | None]] = lambda value: ()


def _scalar(kind: type, name: str) -> Kind:
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

    return Kind(read)


def _checked(kind: Kind, holds: Callable[[Any], bool], rule: str) -> Kind:
    """``kind``, refusing a value for which ``holds`` is false; ``rule`` says what it wants."""
    def read(key: str, value: Any, base: Path) -> Any:
        number = kind.read(key, value, base)
        if not holds(number):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
        return number

    return Kind(read)


def _choice(*options: str) -> Kind:
    def read(key: str, value: Any, base: Path) -> str:
        if value not in options:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, options))}")
        return value

    return Kind(read)


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
    # a language's pool names the lexical systems by id: those ids are taken
    taken = sorted(value.keys() & LEXICAL_IDS)
    if taken:
        raise ConfigError(f"{key}.{taken[0]}: {taken[0]!r} is the id of a lexical system")
    return {name: _path(f"{key}.{name}", run, base) for name, run in sorted(value.items())}


def _domain_ratio(key: str, value: Any, base: Path) -> dict[DomainLabel, float]:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must map domain labels to shares")
    try:
        ratio = {DomainLabel(d): _NUMBER.read(f"{key}.{d}", r, base) for d, r in value.items()}
        check_domain_ratio(ratio)
    except (ValueError, SamplingError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return ratio


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

_INT = _scalar(int, "an integer")
_COUNT = _checked(_INT, lambda n: n >= 1, "at least 1")
_SIZE = _checked(_INT, lambda n: n >= 0, "at least 0")
_NUMBER = _scalar(float, "a number")
_FRACTION = _checked(_NUMBER, lambda f: 0 < f <= 1, "in (0, 1]")
_TEXT = _scalar(str, "a string")
_FLAG = _scalar(bool, "true or false")
_INPUT = Kind(_path, _relative, lambda path: [path])
_RUNS = Kind(
    _runs, lambda runs, base: {name: _relative(p, base) for name, p in runs.items()}, dict.values
)
_LANGUAGES = Kind(
    _languages,
    lambda langs, base: [{"code": e.code, **_view(e, LANGUAGE_KEYS, base)} for e in langs],
    lambda langs: [path for e in langs for path in _inputs(e, LANGUAGE_KEYS)],
)


def _key(key: str, kind: Kind, default: Any = MISSING, **options: Any) -> Any:
    """A field that the dotted YAML ``key`` sets, read, hashed and listed by ``kind``."""
    return field(default=default, metadata={"key": key, "kind": kind}, **options)


def _table(cls: type) -> Table:
    """Each keyed field of ``cls`` as ``dotted key -> (field name, kind)``."""
    return {f.metadata["key"]: (f.name, f.metadata["kind"]) for f in fields(cls) if f.metadata}


@dataclass(frozen=True)
class LanguageConfig:
    """One target language: its corpus, tokenizer, and optional real data."""

    code: str
    corpus: Path = _key("corpus", _INPUT)
    tokenizer: str | None = _key("tokenizer", _choice(MODE_WHITESPACE, MODE_CJK_NGRAM), None)
    real_queries: Path | None = _key("real_queries", _INPUT, None)
    real_qrels: Path | None = _key("real_qrels", _INPUT, None)
    external_runs: Mapping[str, Path] = _key("external_runs", _RUNS, default_factory=dict)

    @property
    def pool(self) -> list[str]:
        """The ids of the systems this language is evaluated with: lexical, then external."""
        return [*LEXICAL_IDS, *self.external_runs]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides credentials."""

    seed: int = _key("seed", _INT)
    # Neither where the outputs land nor how many workers write them is hashed.
    output_dir: Path = _key("output_dir", Kind(_path, show=None))
    languages: tuple[LanguageConfig, ...] = _key("languages", _LANGUAGES)
    english_corpus: Path | None = _key("english_corpus", _INPUT, None)
    popularity_top_fraction: float = _key(
        "corpus_filters.popularity_top_fraction", _FRACTION, DEFAULT_TOP_FRACTION
    )
    min_chars: int = _key("corpus_filters.min_chars", _SIZE, DEFAULT_MIN_CHARS)
    domain_mapping: Path | None = _key("domain_mapping", _INPUT, None)
    bucket_count: int = _key("sampling.bucket_count", _COUNT, DEFAULT_BUCKET_COUNT)
    target_count: int = _key("sampling.target_count", _COUNT, 2500)
    full_target_count: int | None = _key("sampling.full_target_count", _COUNT, None)
    domain_ratio: Mapping[DomainLabel, float] = _key(
        "sampling.domain_ratio", Kind(_domain_ratio), default_factory=DEFAULT_DOMAIN_RATIO.copy
    )
    generation_provider: str = _key(
        "generation.provider", _choice("mock", "canned", "http"), "mock"
    )
    generation_model: str = _key("generation.model", _TEXT, "")
    canned_path: Path | None = _key("generation.canned_path", _INPUT, None)
    char_budget: int = _key("generation.char_budget", _COUNT, DEFAULT_CHAR_BUDGET)
    summarize_temperature: float = _key(
        "generation.summarize_temperature", _NUMBER, SUMMARIZE_TEMPERATURE
    )
    generate_temperature: float = _key(
        "generation.generate_temperature", _NUMBER, GENERATE_TEMPERATURE
    )
    workers: int = _key("workers", _COUNT._replace(show=None), 1)  # not hashed: see output_dir
    translation_provider: str = _key(
        "translation.provider", _choice("identity", "mapping", "http"), "identity"
    )
    translation_mapping_path: Path | None = _key("translation.mapping_path", _INPUT, None)
    depth: int = _key("retrieval.depth", _COUNT, DEFAULT_DEPTH)
    split_ratio: tuple[float, float, float] = _key(
        "collection.split_ratio", Kind(_split_ratio), DEFAULT_SPLIT_RATIO
    )
    templates_dir: Path | None = _key("templates_dir", _INPUT, None)
    slice_real_by_partition: bool = _key("slice_real_by_partition", _FLAG, True)
    base_dir: Path = Path(".")

    def language(self, code: str) -> LanguageConfig:
        for entry in self.languages:
            if entry.code == code:
                return entry
        raise ConfigError(f"language {code!r} is not configured")

    @property
    def corpora(self) -> dict[str, Path]:
        """Each language's corpus file by code, English's listed once even if not a target."""
        corpora = {entry.code: entry.corpus for entry in self.languages}
        if self.english_corpus is not None:
            corpora.setdefault("en", self.english_corpus)
        return corpora

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
        if self.generation_provider == "canned":
            return providers.CannedResponseProvider(self.canned_path)
        if self.generation_provider == "http":
            return providers.HttpChatProvider(self.generation_model)
        return providers.DeterministicMockProvider()

    def make_translator(self) -> providers.Translator:
        if self.translation_provider == "mapping":
            table = providers.read_text_table(self.translation_mapping_path)
            return providers.MappingTranslator(table)
        if self.translation_provider == "http":
            return providers.ChatTranslator(providers.HttpChatProvider(self.generation_model))
        return providers.IdentityTranslator()


LANGUAGE_KEYS: Table = _table(LanguageConfig)  # each ``languages.<code>`` key
KEYS: Table = _table(PipelineConfig)  # every other accepted dotted key


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
    with open_text(path, ConfigError) as handle:
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
    english = {config.english_corpus, *(e.corpus for e in config.languages if e.code == "en")}
    english.discard(None)
    if len(english) > 1 and len({_relative(corpus, path.parent) for corpus in english}) > 1:
        raise ConfigError("english_corpus and languages.en.corpus must name the same file")
    # What each backend needs, checked before any stage runs; no file the config names is read.
    if config.generation_provider == "canned" and config.canned_path is None:
        raise ConfigError("generation.provider 'canned' needs generation.canned_path")
    if config.translation_provider == "mapping" and config.translation_mapping_path is None:
        raise ConfigError("translation.provider 'mapping' needs translation.mapping_path")
    for section in ("generation", "translation"):
        if getattr(config, f"{section}_provider") == "http" and not config.generation_model:
            raise ConfigError(f"{section}.provider 'http' needs generation.model")
    if "http" in (config.generation_provider, config.translation_provider):
        providers.require_http_client()
    return config
