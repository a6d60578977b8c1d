"""Prompt templates, anonymity enforcement, and the generation loop."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_corpus, make_doc
from totsim.corpus import DomainLabel, Partition
from totsim.errors import GenerationError, ProviderError, TemplateError
from totsim.generation import (
    MAX_ATTEMPTS,
    DiscardRecord,
    PromptRole,
    PromptTemplate,
    PromptVariation,
    SyntheticQuery,
    TemplateSet,
    anonymity_check,
    build_generation_prompt,
    generate_batch,
    generate_query,
    make_query_id,
    normalize_for_matching,
    read_query_manifest,
    summarize_entity,
    translate_text,
    write_query_manifest,
)
from totsim.providers import (
    DeterministicMockProvider,
    IdentityTranslator,
    MappingTranslator,
    ScriptedProvider,
)
from totsim.sampling import EntityCandidate


def template(role: PromptRole, language: str, text: str) -> PromptTemplate:
    return PromptTemplate(role=role, language=language, template_text=text)


def small_templates() -> TemplateSet:
    return TemplateSet(
        {
            (PromptRole.SUMMARIZE, "zz"): template(PromptRole.SUMMARIZE, "zz", "SZ {content}"),
            (PromptRole.SUMMARIZE, "en"): template(PromptRole.SUMMARIZE, "en", "SE {content}"),
            (PromptRole.GENERATE, "zz"): template(PromptRole.GENERATE, "zz", "GZ {content}"),
            (PromptRole.GENERATE, "en"): template(
                PromptRole.GENERATE, "en", "GE {output_language_instruction} {content}"
            ),
        },
        "Write your post in {language}.",
    )


def corpora():
    target = make_corpus(
        "zz",
        make_doc(
            "z1",
            title="Zeta",
            aliases=("Zed",),
            body="plain body words here",
            language="zz",
            en_link="e1",
        ),
    )
    english = make_corpus(
        "en",
        make_doc("e1", title="EnglishZeta", aliases=("EZ",), body="english body words"),
    )
    return target, english


def bilingual_candidate() -> EntityCandidate:
    return EntityCandidate("z1", Partition.BILINGUAL, DomainLabel.GENERAL, 0)


def mono_candidate() -> EntityCandidate:
    return EntityCandidate("z1", Partition.MONOLINGUAL, DomainLabel.GENERAL, 0)


def test_prompt_template_needs_exactly_one_content_slot() -> None:
    with pytest.raises(TemplateError, match="found 0"):
        template(PromptRole.SUMMARIZE, "en", "no slot")
    with pytest.raises(TemplateError, match="found 2"):
        template(PromptRole.SUMMARIZE, "en", "{content} {content}")


def test_prompt_template_render_leaves_content_verbatim() -> None:
    t = template(PromptRole.GENERATE, "en", "A {output_language_instruction} {content} B")
    assert t.render("x {content} y", "NOTE") == "A NOTE x {content} y B"
    assert t.render("plain") == "A  plain B"
    with pytest.raises(TemplateError):
        t.render("text", "bad {content} instruction")


def test_template_set_packaged_defaults() -> None:
    templates = TemplateSet.load()
    for language in ("en", "zh", "ja", "ko"):
        assert language in templates.languages(PromptRole.SUMMARIZE)
        assert language in templates.languages(PromptRole.GENERATE)
    assert templates.output_language_instruction("zh") == "Write your post in Chinese."
    assert templates.output_language_instruction("xx") == "Write your post in xx."
    with pytest.raises(TemplateError, match="'xx'"):
        templates.get(PromptRole.GENERATE, "xx")


def test_template_set_custom_directory_overrides(tmp_path: Path) -> None:
    (tmp_path / "generate_en.txt").write_text("CUSTOM {content}", encoding="utf-8")
    (tmp_path / "summarize_xx.txt").write_text("XX {content}", encoding="utf-8")
    (tmp_path / "notes.md").write_text("ignored", encoding="utf-8")
    templates = TemplateSet.load(tmp_path)
    assert templates.get(PromptRole.GENERATE, "en").template_text == "CUSTOM {content}"
    assert templates.get(PromptRole.SUMMARIZE, "xx").template_text == "XX {content}"
    # packaged files that were not overridden are still present
    assert "zh" in templates.languages(PromptRole.GENERATE)


def test_variation_properties() -> None:
    assert not PromptVariation.V1.prompt_in_english
    assert PromptVariation.V2.prompt_in_english
    assert PromptVariation.V4.prompt_in_english
    assert PromptVariation.V3.uses_english_article
    assert PromptVariation.V4.uses_english_article
    assert not PromptVariation.V2.uses_english_article
    assert PromptVariation.V4.post_translate
    assert not PromptVariation.V3.post_translate


def test_make_query_id_format() -> None:
    query_id = make_query_id("zz", Partition.MONOLINGUAL, "doc-with-dashes")
    assert query_id == "zz-m-doc-with-dashes"


def test_normalize_for_matching() -> None:
    assert normalize_for_matching("Ｔｏｋｙｏ") == "tokyo"
    assert normalize_for_matching("Straße") == "strasse"
    assert normalize_for_matching("a b\tc\nd") == "abcd"


def test_anonymity_check_catches_disguised_leaks() -> None:
    assert not anonymity_check("I am looking for Zeta today", "Zeta")
    assert not anonymity_check("the zeta thing", "Zeta")
    assert not anonymity_check("Z e t a, I think", "Zeta")
    assert not anonymity_check("known as Zed somewhere", "Zeta", ["Zed"])
    assert anonymity_check("a film about oceans", "Zeta", ["Zed"])
    assert anonymity_check("anything at all", "", [" "])


def test_summarize_entity_truncates_to_budget() -> None:
    seen: list[str] = []

    class Capture:
        name = "cap"

        def complete(self, prompt: str, temperature: float) -> str:
            seen.append(prompt)
            return "two\n\nparagraphs"

    doc = make_doc("d", body="abcdefghij", language="zz")
    summary = summarize_entity(doc, Capture(), small_templates(), char_budget=4)
    assert summary == "two\n\nparagraphs"
    assert seen[0] == "SZ abcd"
    with pytest.raises(GenerationError):
        summarize_entity(doc, Capture(), small_templates(), char_budget=0)


def test_summarize_entity_rejects_empty_and_warns_on_shape(
    caplog: pytest.LogCaptureFixture,
) -> None:
    doc = make_doc("d", body="text", language="zz")
    with pytest.raises(GenerationError, match="empty summary"):
        summarize_entity(doc, ScriptedProvider(["   "]), small_templates())
    with caplog.at_level("WARNING"):
        summarize_entity(doc, ScriptedProvider(["single paragraph"]), small_templates())
    assert any("paragraph breaks" in r.message for r in caplog.records)


def test_build_generation_prompt_selects_language_and_instruction() -> None:
    templates = small_templates()
    assert build_generation_prompt(PromptVariation.V1, "S", "zz", templates) == "GZ S"
    assert (
        build_generation_prompt(PromptVariation.V2, "S", "zz", templates)
        == "GE Write your post in zz. S"
    )
    assert build_generation_prompt(PromptVariation.V3, "S", "zz", templates) == "GZ S"
    # V4 prompts in English but without the output-language instruction
    assert build_generation_prompt(PromptVariation.V4, "S", "zz", templates) == "GE  S"


def test_translate_text_rejects_empty_output() -> None:
    with pytest.raises(GenerationError, match="empty"):
        translate_text("hello", "zz", MappingTranslator({"hello": "  "}))


def test_generate_query_accepts_clean_response() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["the summary", "a clean request"])
    result = generate_query(
        mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
    )
    assert isinstance(result, SyntheticQuery)
    assert result.query_id == "zz-m-z1"
    assert result.text == "a clean request"
    assert result.summary == "the summary"
    assert result.attempts == 1
    assert not result.discarded
    assert result.provider_fingerprint == (
        "model=scripted;summarize_temperature=0.5;generate_temperature=0.3"
    )


def test_generate_query_flattens_internal_whitespace() -> None:
    # query text must survive a round trip through single-line TSV files
    target, english = corpora()
    provider = ScriptedProvider(["sum", "line one\n\nline two\tend"])
    result = generate_query(
        mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
    )
    assert isinstance(result, SyntheticQuery)
    assert result.text == "line one line two end"


def test_generate_query_retries_after_leak() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "it is called Zeta", "now clean"])
    result = generate_query(
        mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
    )
    assert isinstance(result, SyntheticQuery)
    assert result.attempts == 2
    assert result.text == "now clean"


def test_generate_query_discards_after_max_attempts() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "Zeta", "zeta!", "Z e t a"])
    result = generate_query(
        mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
    )
    assert isinstance(result, DiscardRecord)
    assert result.discarded
    assert result.attempts == MAX_ATTEMPTS
    # one summarize call plus three generation attempts
    assert provider.calls == 1 + MAX_ATTEMPTS


def test_generate_query_checks_alias_leaks() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "maybe Zed", "fine"])
    result = generate_query(
        mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
    )
    assert result.attempts == 2


def test_generate_query_v3_uses_english_article_and_names() -> None:
    target, english = corpora()
    # summary request must go to the English page, and the English title
    # counts as a leak even though the target title never appears
    provider = ScriptedProvider(["english summary", "about EnglishZeta", "clean"])
    result = generate_query(
        bilingual_candidate(), PromptVariation.V3, target, english, provider, small_templates()
    )
    assert isinstance(result, SyntheticQuery)
    assert result.attempts == 2
    assert result.summary == "english summary"


def test_generate_query_v3_requires_bilingual_setup() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "query"])
    with pytest.raises(GenerationError, match="bilingual"):
        generate_query(
            mono_candidate(), PromptVariation.V3, target, english, provider, small_templates()
        )
    with pytest.raises(GenerationError, match="English corpus"):
        generate_query(
            bilingual_candidate(), PromptVariation.V3, target, None, provider, small_templates()
        )
    unlinked = make_corpus(
        "zz", make_doc("z1", title="Zeta", body="words", language="zz")
    )
    with pytest.raises(GenerationError, match="no English link"):
        generate_query(
            bilingual_candidate(), PromptVariation.V3, unlinked, english, provider, small_templates()
        )


def test_generate_query_v4_translates_before_anonymity_check() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "genout"])
    translator = MappingTranslator({"genout": "translated clean text"})
    result = generate_query(
        bilingual_candidate(),
        PromptVariation.V4,
        target,
        english,
        provider,
        small_templates(),
        translator=translator,
    )
    assert isinstance(result, SyntheticQuery)
    assert result.text == "translated clean text"
    assert result.provider_fingerprint.endswith(";translator=mapping-mt")


def test_generate_query_v4_discards_when_translation_leaks() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "genout"])
    translator = MappingTranslator({"genout": "this mentions Zeta"})
    result = generate_query(
        bilingual_candidate(),
        PromptVariation.V4,
        target,
        english,
        provider,
        small_templates(),
        translator=translator,
    )
    assert isinstance(result, DiscardRecord)


def test_generate_query_v4_needs_translator() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "genout"])
    with pytest.raises(GenerationError, match="V4 needs a translator"):
        generate_query(
            bilingual_candidate(), PromptVariation.V4, target, english, provider, small_templates()
        )
    # checked up front, like V3 and V4's other needs, before any call is paid for
    assert provider.calls == 0


def test_generate_query_rejects_empty_generation() -> None:
    target, english = corpora()
    provider = ScriptedProvider(["sum", "   "])
    with pytest.raises(GenerationError, match="empty generation"):
        generate_query(
            mono_candidate(), PromptVariation.V1, target, english, provider, small_templates()
        )


def test_a_shared_summary_still_draws_fresh_generate_samples() -> None:
    class LeakFirst:
        """Leaks the target name the first time it sees each generate prompt."""

        name = "leak-first"

        def __init__(self) -> None:
            self.prompts: list[str] = []

        def complete(self, prompt: str, temperature: float) -> str:
            self.prompts.append(prompt)
            if prompt.startswith("S"):
                return f"summary of {prompt}"
            return "it is called Zeta" if self.prompts.count(prompt) == 1 else "a clean request"

    target, english = corpora()
    provider = LeakFirst()
    summaries: dict[str, str] = {}
    results = [
        generate_query(
            bilingual_candidate(),
            variation,
            target,
            english,
            provider,
            small_templates(),
            translator=IdentityTranslator(),
            summaries=summaries,
        )
        for variation in PromptVariation
    ]
    assert [r.attempts for r in results] == [2, 2, 2, 2]
    assert [r.summary for r in results] == [
        "summary of SZ plain body words here",
        "summary of SZ plain body words here",
        "summary of SE english body words",
        "summary of SE english body words",
    ]
    # two summarize calls for four variations, and two generate calls each
    summarize = [p for p in provider.prompts if p.startswith("S")]
    assert summarize == ["SZ plain body words here", "SE english body words"]
    assert len(provider.prompts) == 2 + 4 * 2
    assert len(summaries) == 2


def test_concurrent_misses_on_one_summary_agree() -> None:
    # eight entities linked to one English page race for its summary
    class Sampling:
        """Answers every call with a new sample; slow summaries widen the race."""

        name = "sampling"

        def __init__(self) -> None:
            self.calls = 0
            self.lock = threading.Lock()

        def complete(self, prompt: str, temperature: float) -> str:
            with self.lock:
                self.calls += 1
                call = self.calls
            if prompt.startswith("S"):
                time.sleep(0.01)
            return f"sample {call}"

    target = make_corpus(
        "zz",
        *(make_doc(f"z{i}", title=f"T{i}", body="b", language="zz", en_link="e1") for i in range(8)),
    )
    english = make_corpus("en", make_doc("e1", title="E", body="english body"))
    candidates = [
        EntityCandidate(f"z{i}", Partition.BILINGUAL, DomainLabel.GENERAL, 0) for i in range(8)
    ]
    summaries: dict[str, str] = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = generate_batch(
            candidates, PromptVariation.V3, target, english, Sampling(), small_templates(),
            workers=8, summaries=summaries,
        )
    finally:
        sys.setswitchinterval(interval)
    assert list(summaries.values()) == [records[0].summary]
    assert {r.summary for r in records} == {records[0].summary}


def test_generate_batch_worker_count_does_not_change_output() -> None:
    docs = [
        make_doc(f"z{i}", title=f"T{i}", body=f"body text number {i} with several words", language="zz")
        for i in range(6)
    ]
    corpus = make_corpus("zz", *docs)
    candidates = [
        EntityCandidate(f"z{i}", Partition.MONOLINGUAL, DomainLabel.GENERAL, 0) for i in range(6)
    ]
    provider = DeterministicMockProvider()
    serial = generate_batch(
        candidates, PromptVariation.V1, corpus, None, provider, small_templates(),
        translator=IdentityTranslator(), workers=1,
    )
    threaded = generate_batch(
        candidates, PromptVariation.V1, corpus, None, provider, small_templates(),
        translator=IdentityTranslator(), workers=3,
    )
    assert serial == threaded
    assert [r.target_doc_id for r in serial] == [c.doc_id for c in candidates]


@pytest.mark.parametrize("workers", [1, 8])
def test_generate_batch_starts_no_call_once_one_has_raised(workers: int) -> None:
    class RefuseFrom:
        """Answers cleanly until call ``limit``, then refuses every call."""

        name = "refuse"

        def __init__(self, limit: int) -> None:
            self.limit = limit
            self.calls = 0
            self.lock = threading.Lock()

        def complete(self, prompt: str, temperature: float) -> str:
            with self.lock:
                self.calls += 1
                if self.calls > self.limit:
                    raise ProviderError("refused")
            return "a clean query"

    corpus = make_corpus(
        "zz", *(make_doc(f"z{i:03d}", title=f"T{i}", body="b", language="zz") for i in range(200))
    )
    candidates = [
        EntityCandidate(doc.doc_id, Partition.MONOLINGUAL, DomainLabel.GENERAL, 0)
        for doc in corpus
    ]
    provider = RefuseFrom(limit=51)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ProviderError, match="refused"):
            generate_batch(
                candidates, PromptVariation.V1, corpus, None, provider, small_templates(),
                workers=workers,
            )
    finally:
        sys.setswitchinterval(interval)
    # each worker's call ends at its first refusal, and then no call starts
    assert 51 < provider.calls <= 51 + workers


def test_query_manifest_round_trip(tmp_path: Path) -> None:
    records = [
        SyntheticQuery(
            query_id="zz-m-z1",
            text="query text",
            target_doc_id="z1",
            language="zz",
            variation=PromptVariation.V1,
            attempts=1,
            summary="sum",
            provider_fingerprint="model=m;summarize_temperature=0.5;generate_temperature=0.3",
        ),
        DiscardRecord(
            query_id="zz-m-z2",
            target_doc_id="z2",
            language="zz",
            variation=PromptVariation.V2,
            attempts=3,
            summary="sum2",
            provider_fingerprint="model=m;summarize_temperature=0.5;generate_temperature=0.3",
        ),
    ]
    path = tmp_path / "queries.jsonl"
    write_query_manifest(path, records)
    assert read_query_manifest(path) == records
