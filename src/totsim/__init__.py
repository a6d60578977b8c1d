"""Simulated tip-of-the-tongue test collections: build, score, validate.

The package turns a Wikipedia-style corpus in any language into a
known-item test collection of simulated tip-of-the-tongue queries, then
measures how faithfully that collection reproduces the system ranking
induced by real user queries.
"""

from .collection import (
    CollectionBundle,
    CollectionSpec,
    ValidationReport,
    assemble_collection,
    load_bundle,
    validate_collection,
    write_bundle,
)
from .corpus import (
    Corpus,
    Document,
    DomainLabel,
    Partition,
    assign_domain,
    filter_by_length,
    filter_by_popularity,
    ingest_corpus,
    partition_corpus,
)
from .errors import (
    CollectionError,
    ConfigError,
    CorpusError,
    EvaluationError,
    GenerationError,
    ProviderError,
    RunFileError,
    SamplingError,
    TemplateError,
    TotsimError,
)
from .evaluation import (
    CorrelationResult,
    MetricReport,
    RunResult,
    SystemRanking,
    correlate,
    evaluate_pool,
    kendall_tau,
    pearson_r,
    select_best_strategy,
)
from .generation import (
    DiscardRecord,
    PromptTemplate,
    PromptVariation,
    SyntheticQuery,
    TemplateSet,
    anonymity_check,
    generate_batch,
    generate_query,
    summarize_entity,
)
from .providers import (
    CannedResponseProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
    ScriptedProvider,
)
from .retrieval import (
    InvertedIndex,
    RetrievalSystem,
    Tokenizer,
    build_index,
    default_lexical_pool,
    load_external_run,
    run_search,
    score_bm25,
    score_ql_dirichlet,
    tokenizer_for_language,
)
from .sampling import EntityCandidate, SamplingConfig, sample_candidates, stratify

__version__ = "0.1.0"
