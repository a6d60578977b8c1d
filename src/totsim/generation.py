"""Synthetic query generation: summarize, prompt, generate, anonymize.

Each sampled entity goes through two steps.  The article body
(truncated to a character budget) is first summarized at temperature
0.5; the summary is then inserted into a persona prompt that asks for a
tip-of-the-tongue style request at temperature 0.3.  A generated query
is only accepted if it never mentions the target's title or aliases
after aggressive normalization; up to three attempts are made before the
entity is discarded.  ``generate_query`` declares these settings, and
``generate_batch`` passes them through to it unchanged.

The summarize request depends only on the source article, so a caller
may pass a ``summaries`` memo that serves every variation asking for the
same article: V1 and V2 then share the target article's summary, V3 and
V4 the linked English one.  Generate requests are never memoized, so
each anonymity retry draws a fresh sample.

Four prompt variations cover the language axes for bilingual entities:

* V1: prompt written in the target language, target-language article.
* V2: English prompt with an output-language instruction, target article.
* V3: target-language prompt, linked English article.
* V4: English prompt, English article, query translated afterwards.

Monolingual entities take only V1 and V2, since V3 and V4 need the
linked English page, and English's full pool takes V1 alone;
``cli._partitions_for`` declares which partition gets which.
"""

from __future__ import annotations

import logging
import threading
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

from .corpus import Corpus, Document, Partition
from .errors import GenerationError, TemplateError
from .providers import ChatProvider, Translator, request_hash
from .sampling import EntityCandidate
from .util import open_text, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

__all__ = [
    "MAX_ATTEMPTS",
    "SUMMARIZE_TEMPERATURE",
    "GENERATE_TEMPERATURE",
    "DEFAULT_CHAR_BUDGET",
    "PromptRole",
    "PromptTemplate",
    "TemplateSet",
    "PromptVariation",
    "SyntheticQuery",
    "DiscardRecord",
    "make_query_id",
    "normalize_for_matching",
    "anonymity_check",
    "summarize_entity",
    "build_generation_prompt",
    "translate_text",
    "generate_query",
    "generate_batch",
    "write_query_manifest",
    "read_query_manifest",
]

MAX_ATTEMPTS = 3
SUMMARIZE_TEMPERATURE = 0.5
GENERATE_TEMPERATURE = 0.3
DEFAULT_CHAR_BUDGET = 30_000

CONTENT_SLOT = "{content}"
INSTRUCTION_SLOT = "{output_language_instruction}"

LANGUAGE_NAMES = {
    "en": "English",
    "zh": "Chinese",
    "ja": "Japanese",
    "ko": "Korean",
}


class PromptRole(str, Enum):
    SUMMARIZE = "summarize"
    GENERATE = "generate"


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt skeleton with a single content slot.

    Generate templates may also carry an output-language instruction
    slot, filled only by variations that prompt in English but want the
    query in the target language.
    """

    role: PromptRole
    language: str
    template_text: str

    def __post_init__(self) -> None:
        count = self.template_text.count(CONTENT_SLOT)
        if count != 1:
            raise TemplateError(
                f"{self.role.value}/{self.language} template must contain {CONTENT_SLOT} "
                f"exactly once, found {count}"
            )

    def render(self, content: str, output_language_instruction: str = "") -> str:
        """Insert the content verbatim; slot markers inside it are left alone."""
        if CONTENT_SLOT in output_language_instruction:
            raise TemplateError("instruction text may not contain the content slot")
        body = self.template_text.replace(INSTRUCTION_SLOT, output_language_instruction)
        return body.replace(CONTENT_SLOT, content, 1)


class TemplateSet:
    """Prompt templates per (role, language), with packaged defaults.

    Files are named ``{role}_{language}.txt``; a custom directory
    overrides the packaged assets file by file.  The output-language
    instruction lives in ``output_language_instruction.txt`` with a
    ``{language}`` slot.
    """

    def __init__(self, templates: Mapping[tuple[PromptRole, str], PromptTemplate], instruction: str):
        self._templates = dict(templates)
        self._instruction = instruction

    @classmethod
    def load(cls, directory: Path | str | None = None) -> "TemplateSet":
        templates: dict[tuple[PromptRole, str], PromptTemplate] = {}
        instruction: str | None = None
        packaged = resources.files("totsim").joinpath("assets/templates")
        sources: list = [packaged]
        if directory is not None:
            sources.append(Path(directory))
        for source in sources:
            for entry in sorted(source.iterdir(), key=lambda e: e.name):
                name = entry.name
                if not name.endswith(".txt"):
                    continue
                with open_text(entry, TemplateError) as handle:
                    text = handle.read()
                if name == "output_language_instruction.txt":
                    instruction = text.strip()
                    continue
                stem = name[: -len(".txt")]
                role_name, _, language = stem.partition("_")
                if not language or role_name not in (r.value for r in PromptRole):
                    continue
                role = PromptRole(role_name)
                templates[(role, language)] = PromptTemplate(
                    role=role, language=language, template_text=text
                )
        if instruction is None:
            raise TemplateError("no output_language_instruction.txt template found")
        return cls(templates, instruction)

    def get(self, role: PromptRole, language: str) -> PromptTemplate:
        try:
            return self._templates[(role, language)]
        except KeyError:
            raise TemplateError(
                f"no {role.value} template for language {language!r}"
            ) from None

    def languages(self, role: PromptRole) -> list[str]:
        return sorted(lang for r, lang in self._templates if r is role)

    def output_language_instruction(self, language: str) -> str:
        name = LANGUAGE_NAMES.get(language, language)
        return self._instruction.replace("{language}", name)


class PromptVariation(str, Enum):
    """The prompt/article language combinations used for generation."""

    V1 = "V1"
    V2 = "V2"
    V3 = "V3"
    V4 = "V4"

    @property
    def prompt_in_english(self) -> bool:
        return self in (PromptVariation.V2, PromptVariation.V4)

    @property
    def uses_english_article(self) -> bool:
        return self in (PromptVariation.V3, PromptVariation.V4)

    @property
    def post_translate(self) -> bool:
        return self is PromptVariation.V4


@dataclass(frozen=True)
class _Record:
    """What every generation result records of its entity and how it was asked."""

    query_id: str
    target_doc_id: str
    language: str
    variation: PromptVariation
    attempts: int
    summary: str
    provider_fingerprint: str


@dataclass(frozen=True)
class SyntheticQuery(_Record):
    """An accepted generated query with its provenance."""

    text: str
    discarded: ClassVar[bool] = False


@dataclass(frozen=True)
class DiscardRecord(_Record):
    """An entity dropped after every generation attempt failed anonymity."""

    discarded: ClassVar[bool] = True


def make_query_id(language: str, partition: Partition, doc_id: str) -> str:
    return f"{language}-{partition.initial}-{doc_id}"


def normalize_for_matching(text: str) -> str:
    """NFKC, casefold, and strip all whitespace for robust name matching."""
    return "".join(unicodedata.normalize("NFKC", text).casefold().split())


def anonymity_check(query_text: str, title: str, aliases: Iterable[str] = ()) -> bool:
    """True when the query never contains the title or any alias.

    Matching is substring containment after normalization, so case,
    width, and spacing differences cannot hide a leak.  Names that
    normalize to nothing are skipped rather than banning every query.
    """
    haystack = normalize_for_matching(query_text)
    for name in (title, *aliases):
        needle = normalize_for_matching(name)
        if needle and needle in haystack:
            return False
    return True


def summarize_entity(
    doc: Document,
    client: ChatProvider,
    templates: TemplateSet,
    char_budget: int = DEFAULT_CHAR_BUDGET,
    temperature: float = SUMMARIZE_TEMPERATURE,
    *,
    summaries: dict[str, str] | None = None,
) -> str:
    """Summarize an article body truncated to ``char_budget`` characters.

    The summarize template for the article's own language is used.  A
    summary that is not exactly two paragraphs is kept but logged, since
    the prompt asks for two.

    ``summaries`` memoizes summaries by :func:`request_hash` of the
    prompt and temperature: a request already in it is answered from it
    without calling ``client``, and a new one is added to it.
    """
    if char_budget <= 0:
        raise GenerationError(f"char_budget must be positive, got {char_budget}")
    template = templates.get(PromptRole.SUMMARIZE, doc.language)
    prompt = template.render(doc.body[:char_budget])
    key = request_hash(prompt, temperature)
    if summaries is not None and key in summaries:
        return summaries[key]
    summary = client.complete(prompt, temperature)
    if not summary.strip():
        raise GenerationError(f"empty summary for document {doc.doc_id}")
    if summary.count("\n\n") != 1:
        logger.warning(
            "summary for %s has %d paragraph breaks instead of 1",
            doc.doc_id,
            summary.count("\n\n"),
        )
    if summaries is not None:
        # a concurrent miss on the same key keeps the first summary stored
        summary = summaries.setdefault(key, summary)
    return summary


def build_generation_prompt(
    variation: PromptVariation,
    summary: str,
    language: str,
    templates: TemplateSet,
) -> str:
    """Fill the generate template that matches the variation's prompt language."""
    prompt_language = "en" if variation.prompt_in_english else language
    template = templates.get(PromptRole.GENERATE, prompt_language)
    instruction = ""
    if variation is PromptVariation.V2:
        instruction = templates.output_language_instruction(language)
    return template.render(summary, instruction)


def translate_text(text: str, target_language: str, translator: Translator) -> str:
    translated = translator.translate(text, target_language)
    if not translated.strip():
        raise GenerationError("translator returned empty text")
    return translated


def _fingerprint(
    generator: ChatProvider,
    summarize_temperature: float,
    generate_temperature: float,
    translator: Translator | None,
) -> str:
    parts = [
        f"model={generator.name}",
        f"summarize_temperature={summarize_temperature}",
        f"generate_temperature={generate_temperature}",
    ]
    if translator is not None:
        parts.append(f"translator={translator.name}")
    return ";".join(parts)


def generate_query(
    candidate: EntityCandidate,
    variation: PromptVariation,
    corpus: Corpus,
    english_corpus: Corpus | None,
    generator: ChatProvider,
    templates: TemplateSet,
    translator: Translator | None = None,
    char_budget: int = DEFAULT_CHAR_BUDGET,
    summarize_temperature: float = SUMMARIZE_TEMPERATURE,
    generate_temperature: float = GENERATE_TEMPERATURE,
    *,
    summaries: dict[str, str] | None = None,
) -> SyntheticQuery | DiscardRecord:
    """Produce one query (or a discard record) for a sampled entity.

    The article summarized depends on the variation: V1 and V2 use the
    target-language page, V3 and V4 the linked English page.  Anonymity
    is checked against the target page's names, plus the English page's
    names whenever that page fed the prompt.

    Without ``summaries`` this makes one summarize call and one generate
    call per attempt.  With it, the summary comes from the memo when an
    earlier call summarized the same article (see :func:`summarize_entity`);
    the generate calls are made either way.

    Raises:
        GenerationError: incompatible variation and partition, missing
            English link or corpus, or an empty provider response.
    """
    doc = corpus.get(candidate.doc_id)
    language = corpus.language
    query_id = make_query_id(language, candidate.partition, candidate.doc_id)
    names: list[str] = [doc.title, *doc.aliases]
    if variation.uses_english_article:
        if candidate.partition is not Partition.BILINGUAL:
            raise GenerationError(
                f"{query_id}: variation {variation.value} needs the bilingual partition"
            )
        if english_corpus is None:
            raise GenerationError(f"{query_id}: variation {variation.value} needs an English corpus")
        if doc.en_link is None:
            raise GenerationError(f"{query_id}: document has no English link")
        source = english_corpus.get(doc.en_link)
        names.extend([source.title, *source.aliases])
    else:
        source = doc
    if variation.post_translate and translator is None:
        raise GenerationError(f"{query_id}: variation {variation.value} needs a translator")
    summary = summarize_entity(
        source,
        generator,
        templates,
        char_budget=char_budget,
        temperature=summarize_temperature,
        summaries=summaries,
    )
    prompt = build_generation_prompt(variation, summary, language, templates)
    shared = {
        "query_id": query_id,
        "target_doc_id": candidate.doc_id,
        "language": language,
        "variation": variation,
        "summary": summary,
        "provider_fingerprint": _fingerprint(
            generator,
            summarize_temperature,
            generate_temperature,
            translator if variation.post_translate else None,
        ),
    }
    for attempt in range(1, MAX_ATTEMPTS + 1):
        text = generator.complete(prompt, generate_temperature)
        if not text.strip():
            raise GenerationError(f"{query_id}: empty generation response")
        if variation.post_translate:
            text = translate_text(text, language, translator)
        # queries end up in single-line TSV files, so flatten any internal
        # newlines or tab runs the model produced
        text = " ".join(text.split())
        if anonymity_check(text, names[0], names[1:]):
            return SyntheticQuery(text=text, attempts=attempt, **shared)
        logger.info(
            "%s: attempt %d leaked a target name; retrying", query_id, attempt
        )
    logger.warning("%s: discarded after %d failed anonymity attempts", query_id, MAX_ATTEMPTS)
    return DiscardRecord(attempts=MAX_ATTEMPTS, **shared)


def generate_batch(
    candidates: Sequence[EntityCandidate],
    variation: PromptVariation,
    corpus: Corpus,
    english_corpus: Corpus | None,
    generator: ChatProvider,
    templates: TemplateSet,
    *,
    workers: int = 1,
    **settings,
) -> list[SyntheticQuery | DiscardRecord]:
    """Generate for every candidate, preserving candidate order.

    Every keyword but ``workers`` goes unchanged to each
    :func:`generate_query` call, which declares it; an unknown one fails
    the batch at its first call, before any provider call.

    Requests run on ``workers`` pool threads; results still come back in
    input order, so a deterministic backend yields the same batch bytes at
    any worker count.  Once one call raises, no queued call starts and the
    batch raises; only the calls already running finish.

    Pass one ``summaries`` memo to every batch of a run to summarize each
    article once for all the variations that use it.  Batches sharing it
    must run one after another.  A batch holds each entity once, so its
    threads do not look up the same key; should two ever miss on one key
    at once, the cost is one duplicate call, never a wrong summary.
    """
    failed = threading.Event()

    def one(candidate: EntityCandidate) -> SyntheticQuery | DiscardRecord | None:
        if failed.is_set():
            return None  # an earlier call raised: the batch fails, so start no more
        try:
            return generate_query(
                candidate, variation, corpus, english_corpus, generator, templates, **settings
            )
        except BaseException:
            failed.set()
            raise

    # Calls start in candidate order, so every skipped call comes after the
    # one that raised, and the results raise before reaching a skipped one.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, candidates))


def write_query_manifest(
    path: Path | str, records: Iterable[SyntheticQuery | DiscardRecord]
) -> None:
    """Persist generation results as JSONL with a fixed key set."""
    write_jsonl(
        path,
        (
            {
                "query_id": record.query_id,
                "doc_id": record.target_doc_id,
                "language": record.language,
                "variation": record.variation.value,
                "attempts": record.attempts,
                "text": "" if record.discarded else record.text,
                "summary": record.summary,
                "provider_fingerprint": record.provider_fingerprint,
                "discarded": record.discarded,
            }
            for record in records
        ),
    )


def _record_from_row(row: Mapping) -> SyntheticQuery | DiscardRecord:
    for key in ("query_id", "doc_id", "language", "text", "summary", "provider_fingerprint"):
        if not isinstance(row[key], str):
            raise ValueError(f"{key} must be a string, got {row[key]!r}")
    attempts = row["attempts"]
    if isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1:
        raise ValueError(f"attempts must be a positive integer, got {attempts!r}")
    if not isinstance(row["discarded"], bool):
        raise ValueError(f"discarded must be true or false, got {row['discarded']!r}")
    shared = {
        "query_id": row["query_id"],
        "target_doc_id": row["doc_id"],
        "language": row["language"],
        "variation": PromptVariation(row["variation"]),
        "attempts": attempts,
        "summary": row["summary"],
        "provider_fingerprint": row["provider_fingerprint"],
    }
    return DiscardRecord(**shared) if row["discarded"] else SyntheticQuery(text=row["text"], **shared)


def read_query_manifest(path: Path | str) -> list[SyntheticQuery | DiscardRecord]:
    return list(read_jsonl(path, _record_from_row))
